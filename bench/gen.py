"""Seeded synthetic inputs for the three benchmark workloads.

Every generator takes the workload seed and writes only files; the
expected outcomes (filter counters, fault script, gold labels) are
decided here by construction, independently of the code under test,
and returned to the harness for its correctness checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

MODELS = ("Gemma2-9B", "Llama3.1-8B", "Mistral-7B", "Qwen2.5-14B")
LANGS = ("eng", "deu", "spa", "vie")

_WORDS = {
    "eng": "you they people this that never always go back home waste of oxygen "
    "lovely weather match tomorrow idiots should leave country vote election "
    "virus blame neighbours forum thread honestly disgusting great point agree".split(),
    "deu": "ihr die Leute das nie immer geht zurück nach Hause Verschwendung schönes "
    "Wetter Spiel morgen Idioten sollten Land verlassen Wahl Virus Schuld Nachbarn "
    "ehrlich widerlich guter Punkt zustimmen Straße Grüße".split(),
    "spa": "vosotros ellos gente esto nunca siempre vuelvan casa pérdida de oxígeno "
    "buen tiempo partido mañana idiotas deberían irse país elección virus culpa "
    "vecinos sinceramente asqueroso buen punto de acuerdo año".split(),
    "vie": "các bạn họ người này không bao giờ luôn luôn về nhà lãng phí thời tiết "
    "đẹp trận đấu ngày mai đồ ngốc nên rời khỏi đất nước bầu cử vi rút đổ lỗi "
    "hàng xóm thật lòng ghê tởm ý hay đồng ý".split(),
}


def unit_hash(*parts: str) -> float:
    """A uniform value in [0, 1) from a hash of ``parts``."""
    digest = hashlib.sha256("\x00".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _sentence(rng: random.Random, lang: str, lo: int, hi: int) -> str:
    words = _WORDS[lang]
    return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        for row in rows:
            fp.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")))
            fp.write("\n")


# --- crawl -------------------------------------------------------------------

CRAWL_RECORDS = 200_000
CRAWL_LANG_WEIGHTS = (0.40, 0.25, 0.20, 0.15)
# Quotas sit below the expected kept count of their language, so the
# reservoir sampler replaces entries rather than just collecting them.
CRAWL_QUOTAS = {"eng": 12_000, "deu": 7_000}
# Outcome shares: kept, dropped for the URL, dropped for the schema type,
# and unparseable URL (a subset of the URL drops).
CRAWL_SHARES = (0.30, 0.45, 0.245, 0.005)

_KEEP_PATHS = (
    "/forum/{n}", "/t/{n}/thread", "/Forum/Topic-{n}", "/THREAD/{n}", "/%46orum/{n}",
    "/thr%65ad/{n}", "/posts/{n}", "/c/{n}/reply", "/status-update/{n}",
    "/status_update/{n}", "/status%20update/{n}", "/quote/{n}", "/blog/Post-{n}",
    "/r/{n}/REPLY",
)
_DROP_PATHS = (
    "/news/{n}", "/products/{n}", "/about", "/category/{n}/shop", "/status/{n}",
    "/article/{n}?ref=forum", "/wiki/{n}#thread", "/en/help/{n}", "/p/{n}/update",
)
_BAD_URLS = ("http://[::1/forum/{n}", "forum/{n}/thread", "://nohost/forum/{n}")
_GOOD_TYPES = (
    "DiscussionForumPosting", "https://schema.org/Comment", "http://schema.org/BlogPosting",
    "SocialMediaPosting", "https://schema.org/QAPage", "Review", "UserComments",
)
_BAD_TYPES = (
    "WebPage", "Product", "https://schema.org/Organization", "comment",
    "schema.org/Comment", "http://schema.org/Event", "BreadcrumbList",
)
_HOSTS = ("example.com", "forum.example.de", "blog.example.es", "tin.example.vn", "x.example.org")


@dataclass
class CrawlInputs:
    web: Path
    quotas: dict[str, int]
    expected_counts: dict
    expected_keep_ids: list[str]
    description: dict


def make_crawl(out_dir: Path, seed: int) -> CrawlInputs:
    rng = random.Random(f"crawl:{seed}")
    # A pool of texts per language keeps generation cheap; each record
    # still carries its own id and URL.
    texts = {lang: [_sentence(rng, lang, 15, 60) for _ in range(600)] for lang in LANGS}
    keep_ids: list[str] = []
    counts = {"records_seen": CRAWL_RECORDS, "kept": 0, "dropped_url": 0, "dropped_schema": 0,
              "parse_failures": 0}
    kept_by_lang = {lang: 0 for lang in LANGS}
    cut_keep, cut_url, cut_schema = (
        CRAWL_SHARES[0], CRAWL_SHARES[0] + CRAWL_SHARES[1],
        CRAWL_SHARES[0] + CRAWL_SHARES[1] + CRAWL_SHARES[2],
    )

    def rows():
        for i in range(CRAWL_RECORDS):
            lang = rng.choices(LANGS, CRAWL_LANG_WEIGHTS)[0]
            rid = f"w{i:07d}"
            host = rng.choice(_HOSTS)
            n = rng.randrange(10**6)
            u = rng.random()
            extra_good = rng.random() < 0.5
            if u < cut_keep:
                url = f"https://{host}" + rng.choice(_KEEP_PATHS).format(n=n)
                types = [rng.choice(_GOOD_TYPES)]
                if extra_good:
                    types.insert(0, rng.choice(_BAD_TYPES))
                counts["kept"] += 1
                kept_by_lang[lang] += 1
                keep_ids.append(rid)
            elif u < cut_url:
                url = f"http://{host}" + rng.choice(_DROP_PATHS).format(n=n)
                types = [rng.choice(_GOOD_TYPES)]
                counts["dropped_url"] += 1
            elif u < cut_schema:
                url = f"https://{host}" + rng.choice(_KEEP_PATHS).format(n=n)
                types = [rng.choice(_BAD_TYPES)] * (1 + extra_good)
                counts["dropped_schema"] += 1
            else:
                url = rng.choice(_BAD_URLS).format(n=n)
                types = [rng.choice(_GOOD_TYPES)]
                counts["dropped_url"] += 1
                counts["parse_failures"] += 1
            yield {
                "id": rid,
                "url": url,
                "lang": lang,
                "schema_types": types,
                "text": rng.choice(texts[lang]),
                "fetch_time": f"2024-{1 + n % 12:02d}-{1 + n % 28:02d}T{n % 24:02d}:00:00Z",
                "http_status": 200,
                "content_length": 2000 + n % 50000,
            }

    web = out_dir / "web.jsonl"
    _write_jsonl(web, rows())
    counts["kept_by_language"] = dict(sorted(kept_by_lang.items()))
    quotas = dict(CRAWL_QUOTAS)
    for lang, quota in quotas.items():
        if quota >= kept_by_lang[lang]:
            raise RuntimeError(f"quota for {lang} does not bind; resize the crawl workload")
    written = sum(min(quotas.get(l, k), k) for l, k in kept_by_lang.items())
    counts["written"] = written
    counts["malformed_lines"] = 0
    description = {
        "records": CRAWL_RECORDS,
        "bytes": web.stat().st_size,
        "keep_share": counts["kept"] / CRAWL_RECORDS,
        "parse_failure_share": counts["parse_failures"] / CRAWL_RECORDS,
        "quotas": quotas,
        "languages": dict(zip(LANGS, CRAWL_LANG_WEIGHTS)),
    }
    return CrawlInputs(web, quotas, counts, keep_ids, description)


# --- annotate ----------------------------------------------------------------

ANNOTATE_TEXTS = 400
DUPLICATE_SHARE = 0.10
PERMANENT_SHARE = 0.01  # of texts: one model answers 400 on every attempt
TRANSIENT_SHARE = 0.01  # of (model, prompt) pairs: 503 on the first attempt only
SERVICE_S = 0.010
RETRY_LIMIT = 2


def fault_key(seed: int, model: str, prompt: str) -> str:
    """The load generator's fault-script key for one (model, prompt) pair."""
    digest = hashlib.sha256(f"{seed}\x00{model}\x00{prompt}".encode("utf-8"))
    return digest.hexdigest()[:32]


@dataclass
class FaultScript:
    """Sets of (model, prompt) keys: 400 on every attempt, or 503 on the first only."""

    seed: int
    permanent: frozenset[str] = frozenset()
    transient: frozenset[str] = frozenset()

    def outcome(self, model: str, prompt: str, attempt: int) -> int:
        key = fault_key(self.seed, model, prompt)
        if key in self.permanent:
            return 400
        if attempt == 0 and key in self.transient:
            return 503
        return 200

    def to_dict(self) -> dict:
        return {"seed": self.seed, "permanent": sorted(self.permanent),
                "transient": sorted(self.transient)}

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultScript":
        return cls(int(raw["seed"]), frozenset(raw["permanent"]), frozenset(raw["transient"]))


@dataclass
class AnnotateInputs:
    texts: Path
    faults: Path
    endpoints_template: dict
    rows: list[dict]
    prompts: dict[str, str]
    expected_quarantine: list[str]
    expected_requests: dict[str, int]
    description: dict


def make_annotate(out_dir: Path, seed: int) -> AnnotateInputs:
    from hatepool.prompt import PromptTemplate, render_prompt

    rng = random.Random(f"annotate:{seed}")
    template = PromptTemplate()
    n_dup = round(ANNOTATE_TEXTS * DUPLICATE_SHARE)
    n_unique = ANNOTATE_TEXTS - n_dup
    uniques = []
    for i in range(n_unique):
        lang = rng.choice(LANGS)
        # The index keeps texts distinct, so only the planned duplicates repeat.
        uniques.append((lang, f"{_sentence(rng, lang, 6, 40)} #{i}"))
    prompts = [render_prompt(template, text) for _, text in uniques]

    # Faults are spread evenly over the four models, so no endpoint's
    # retries set the pace more on one seed than on another.
    n_perm = round(ANNOTATE_TEXTS * PERMANENT_SHARE / len(MODELS)) * len(MODELS)
    by_hash = sorted(range(n_unique), key=lambda i: unit_hash(str(seed), "permanent", prompts[i]))
    failing = {i: MODELS[rank % len(MODELS)] for rank, i in enumerate(by_hash[:n_perm])}
    permanent = {fault_key(seed, m, prompts[i]) for i, m in failing.items()}
    per_model = round(ANNOTATE_TEXTS * TRANSIENT_SHARE)
    transient = set()
    for m in MODELS:
        ranked = sorted(
            (i for i in range(n_unique) if failing.get(i) != m),
            key=lambda i: unit_hash(str(seed), "transient", m, prompts[i]),
        )
        transient |= {fault_key(seed, m, prompts[i]) for i in ranked[:per_model]}
    script = FaultScript(seed, frozenset(permanent), frozenset(transient))

    # Duplicates repeat texts that always succeed, so the quarantined share
    # is exactly the scripted one.
    sources = rng.sample([i for i in range(n_unique) if i not in failing], n_dup)
    order = list(range(n_unique)) + sources
    tail = order[n_unique // 2:]
    rng.shuffle(tail)
    order[n_unique // 2:] = tail

    rows, prompt_by_id, quarantine = [], {}, []
    requests = {m: 0 for m in MODELS}
    attempts: dict[tuple[str, int], int] = {}
    for k, src in enumerate(order):
        lang, text = uniques[src]
        tid = f"a{k:06d}"
        rows.append({"id": tid, "text": text, "lang": lang})
        prompt_by_id[tid] = prompts[src]
        if src in failing:
            quarantine.append(tid)
        for m in MODELS:
            for _ in range(RETRY_LIMIT + 1):
                attempt = attempts.get((m, src), 0)
                attempts[(m, src)] = attempt + 1
                requests[m] += 1
                if script.outcome(m, prompts[src], attempt) == 200:
                    break
    path = out_dir / "texts.jsonl"
    _write_jsonl(path, rows)
    faults = out_dir / "faults.json"
    faults.write_text(json.dumps(script.to_dict()), encoding="utf-8")
    endpoints = {
        "endpoints": [
            {"model_id": m, "base_url": "{base_url}", "max_in_flight": 1,
             "retry_limit": RETRY_LIMIT}
            for m in MODELS
        ]
    }
    description = {
        "texts": ANNOTATE_TEXTS,
        "unique_texts": n_unique,
        "duplicate_share": n_dup / ANNOTATE_TEXTS,
        "permanent_fault_texts": n_perm,
        "permanent_fault_share": n_perm / ANNOTATE_TEXTS,
        "transient_fault_pairs": len(transient),
        "transient_fault_share": len(transient) / (len(MODELS) * n_unique),
        "service_time_s": SERVICE_S,
        "connections": len(MODELS),
        "max_in_flight_per_endpoint": 1,
        "retry_limit": RETRY_LIMIT,
        "backoff": "endpoint default (0.25 s base, doubling, jitter 0.5-1.5x)",
        "loop": "closed, one request in flight per endpoint",
    }
    return AnnotateInputs(path, faults, endpoints, rows, prompt_by_id, quarantine, requests,
                          description)


# --- label -------------------------------------------------------------------

LABEL_ROWS = 3_000
HATE_SHARE = 0.35
# (dataset, share of rows); HateXplain arrives as a CSV through `ingest`,
# the others as labeled JSONL written directly.
LABEL_DATASETS = (
    ("HateXplain", 0.30), ("AHSD", 0.15), ("GermEval19", 0.15), ("HASOC", 0.10),
    ("Haternet", 0.15), ("ViHSD", 0.15),
)
CSV_DATASET = "HateXplain"
_RAW_LABELS = {
    "HateXplain": (("hatespeech", "offensive", "Hate"), ("normal", "Normal")),
    "AHSD": (("hate", "offensive"), ("neither",)),
    "GermEval19": (("OFFENSE",), ("OTHER",)),
    "HASOC": (("HOF",), ("NOT",)),
    "Haternet": (("1",), ("0",)),
    "ViHSD": (("offensive", "hate", "1", "2"), ("clean", "0")),
}
_DATASET_LANG = {"HateXplain": "eng", "AHSD": "eng", "GermEval19": "deu", "HASOC": "deu",
                 "Haternet": "spa", "ViHSD": "vie"}
# Per-model (alpha, beta) of the Beta distribution of p_hate given gold Hate;
# given Neutral the parameters swap. Models differ in sharpness.
_MODEL_BETA = {"Gemma2-9B": (3.0, 2.0), "Llama3.1-8B": (2.0, 1.6), "Mistral-7B": (1.6, 1.4),
               "Qwen2.5-14B": (4.0, 2.2)}
TIE_SHARE = 0.01  # rows whose four p_hate values make the two means tie


@dataclass
class LabelInputs:
    csv: Path
    direct_labels: Path
    annotations: Path
    gold: dict[str, str]
    dataset: dict[str, str]
    lang: dict[str, str]
    p_hate: dict[str, tuple[float, ...]]
    description: dict


def make_label(out_dir: Path, seed: int) -> LabelInputs:
    rng = random.Random(f"label:{seed}")
    gold, dataset, lang, p_hate = {}, {}, {}, {}
    csv_rows, direct, ann = [], [], []
    index = 0
    for name, share in LABEL_DATASETS:
        n = round(LABEL_ROWS * share)
        hate_raw, neutral_raw = _RAW_LABELS[name]
        for j in range(n):
            is_hate = rng.random() < HATE_SHARE
            raw = rng.choice(hate_raw if is_hate else neutral_raw)
            text = _sentence(rng, _DATASET_LANG[name], 5, 30)
            if name == CSV_DATASET:
                tid = f"{name}-{j:06d}"  # the id `ingest` assigns without an id column
                csv_rows.append({"text": text, "label": raw})
            else:
                tid = f"{name}-{index:06d}"
                direct.append({"id": tid, "dataset": name, "text": text,
                               "gold": "Hate" if is_hate else "Neutral"})
            index += 1
            if rng.random() < TIE_SHARE:
                a, b = rng.choice(((0.1, 0.9), (0.25, 0.75), (0.3, 0.7), (0.5, 0.5)))
                probs = (a, b, b, a) if rng.random() < 0.5 else (b, a, a, b)
            else:
                shapes = [_MODEL_BETA[m] if is_hate else _MODEL_BETA[m][::-1] for m in MODELS]
                probs = tuple(min(max(round(rng.betavariate(a, b), 6), 0.001), 0.999)
                              for a, b in shapes)
            gold[tid] = "Hate" if is_hate else "Neutral"
            dataset[tid] = name
            lang[tid] = _DATASET_LANG[name]
            p_hate[tid] = probs
            ann.append({
                "id": tid,
                "lang": _DATASET_LANG[name],
                "raw_label": str(raw),
                "models": {
                    m: {"hate": p, "neutral": 1.0 - p,
                        "raw": {"1": p * 0.9, "2": (1.0 - p) * 0.9}}
                    for m, p in zip(MODELS, probs)
                },
            })
    rng.shuffle(ann)
    csv_path = out_dir / f"{CSV_DATASET}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.DictWriter(fp, fieldnames=("text", "label"))
        writer.writeheader()
        writer.writerows(csv_rows)
    direct_path = out_dir / "labels_direct.jsonl"
    _write_jsonl(direct_path, direct)
    ann_path = out_dir / "annotations.jsonl"
    _write_jsonl(ann_path, [{"model_order": list(MODELS)}, *ann])
    n_hate = sum(1 for g in gold.values() if g == "Hate")
    description = {
        "rows": len(gold),
        "csv_rows": len(csv_rows),
        "hate_share": n_hate / len(gold),
        "tie_share": TIE_SHARE,
        "datasets": {name: round(LABEL_ROWS * share) for name, share in LABEL_DATASETS},
        "languages": sorted(set(lang.values())),
    }
    return LabelInputs(csv_path, direct_path, ann_path, gold, dataset, lang, p_hate, description)
