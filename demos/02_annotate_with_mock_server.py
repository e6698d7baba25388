# Collecting per-model label probabilities over HTTP.
#
# Each annotator endpoint is a completions-style API asked for exactly
# one next token with its top log-probabilities. The weights on the "1"
# (Hate) and "2" (Neutral) tokens are renormalized into a probability
# pair per model. The bundled mock server stands in for real endpoints
# and answers deterministically from a hash of (model, prompt).

import io

from hatepool import (
    AnnotatorEndpoint,
    MockAnnotatorServer,
    PromptTemplate,
    annotate_batch,
    read_annotations,
    render_prompt,
    write_annotations,
)

MODELS = ("Gemma2-9B", "Llama3.1-8B", "Mistral-7B", "Qwen2.5-14B")

template = PromptTemplate()
print("prompt sent for one comment:")
print("-" * 60)
print(render_prompt(template, "you lot are a waste of oxygen"))
print("-" * 60)

texts = [
    ("t1", "you lot are a waste of oxygen"),
    ("t2", "lovely weather for the match tomorrow"),
    ("t3", "go back to where you came from"),
]

with MockAnnotatorServer() as server:
    endpoints = [
        AnnotatorEndpoint(model_id=m, base_url=server.base_url) for m in MODELS
    ]
    results, quarantined = annotate_batch(texts, endpoints, template)
    print(f"\nserver handled {server.request_count} requests, quarantined {len(quarantined)}")

for result in results:
    print(f"\n{result.id}: p_hate per model")
    for entry in result.vector.entries:
        print(f"  {entry.model_id:12}  {entry.p_hate:.4f}")

# Annotations serialize as one header line (model order) plus one JSON
# row per text, ready for the train-meta / ensemble / stats commands.
buffer = io.StringIO()
write_annotations(buffer, results, lang_by_id={"t1": "eng", "t2": "eng", "t3": "eng"})
print("\nwire format:")
print(buffer.getvalue()[:300] + "...")

# Read back as bytes, as the commands read a file: lines are cut and checked
# as UTF-8 the same way.
model_order, rows = read_annotations(io.BytesIO(buffer.getvalue().encode()))
print(f"re-read {len(list(rows))} rows, model order {model_order}")
