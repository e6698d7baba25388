"""A replay of what ``annotate_batch`` should return for a scripted completions server.

:func:`replay` walks the texts one at a time, without threads, and shares no
code with ``hatepool.gateway``: it reads each scripted answer itself, applies
the retry rule itself and counts the requests itself. The rule it restates:

- each model is asked about each text until an answer settles it;
- a 200 whose first token's top logprobs hold a label token scores the text;
- a 200 that holds neither label token fails the text at once, with no retry;
- any other status, and a 200 without the ``choices[0].logprobs.top_logprobs[0]``
  object, is retried while the attempt is below the endpoint's ``retry_limit``,
  and then fails the text;
- a text that failed on any model is quarantined, with each failing model's
  attempt count and last error, and every other text is a result row.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Mapping, Sequence

HATE_TOKEN, NEUTRAL_TOKEN = "1", "2"
# The prefix of the client's error for an answer it cannot read; the rest
# quotes the decoder's own exception.
MALFORMED = "malformed completion response"

Script = Callable[[str, str, int], tuple[int, object]]


def _read_answer(status: int, payload, model: str, text_id: str):
    """One attempt: ("ok", (p_hate, p_neutral, raw)), ("final", error) or ("retry", error)."""
    if status != 200:
        return "retry", f"HTTP {status}"
    try:
        top = payload["choices"][0]["logprobs"]["top_logprobs"][0]
    except (KeyError, IndexError, TypeError):
        return "retry", MALFORMED
    raw = {t: math.exp(top[t]) for t in (HATE_TOKEN, NEUTRAL_TOKEN) if t in top}
    w_hate, w_neutral = raw.get(HATE_TOKEN, 0.0), raw.get(NEUTRAL_TOKEN, 0.0)
    if w_hate + w_neutral <= 0.0:
        return "final", (f"model {model!r} for text {text_id!r}: "
                         "no label token among returned top-k tokens")
    p_hate = w_hate / (w_hate + w_neutral)
    return "ok", (p_hate, 1.0 - p_hate, raw)


def replay(
    texts: Sequence[tuple[str, str]],
    retry_limits: Mapping[str, int],
    script: Script,
    template_text: str,
):
    """``(rows, quarantined, requests)`` for (id, text) pairs on the models of ``retry_limits``.

    ``script(model, prompt, attempt)`` gives ``(status, payload)``, as the stub
    server's ``respond`` does. ``rows`` holds ``(id, [(model, p_hate, p_neutral,
    raw label-token weights), ...])`` and ``quarantined`` each text's
    ``QuarantinedText.to_dict()``, both in input order with models sorted; an
    error that quotes a decoder's message is cut to :data:`MALFORMED`.
    ``requests`` counts the requests per (model, prompt).
    """
    requests: Counter[tuple[str, str]] = Counter()
    rows, quarantined = [], []
    for text_id, text in texts:
        prompt = template_text.replace("{comment}", text, 1)
        scores, errors = [], []
        for model in sorted(retry_limits):
            attempt = 0
            while True:
                requests[model, prompt] += 1
                kind, value = _read_answer(*script(model, prompt, attempt), model, text_id)
                if kind != "retry" or attempt >= retry_limits[model]:
                    break
                attempt += 1
            if kind == "ok":
                scores.append((model, *value))
            else:
                errors.append({"model_id": model, "attempts": attempt + 1, "error": value})
        if errors:
            quarantined.append({"id": text_id, "errors": errors})
        else:
            rows.append((text_id, scores))
    return rows, quarantined, requests
