"""The three workloads: inputs, the CLI chain each runs, and output checks.

Each workload generates its inputs from the seed, runs its chain of
``hatepool`` CLI steps into a pass directory, and checks that pass's
outputs against expectations computed here, never by the code under
test. Checks are not timed.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import urllib.request
from fractions import Fraction
from pathlib import Path

import gen
import traced

BENCH_DIR = Path(__file__).resolve().parent


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def _write_prefix(src: Path, dst: Path, lines: int) -> None:
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        for i, line in enumerate(fin):
            if i >= lines:
                break
            fout.write(line)


def read_through(*paths: Path) -> None:
    """Read inputs once so the page cache holds them before timing."""
    for path in paths:
        with open(path, "rb") as fp:
            while fp.read(1 << 20):
                pass


class Workload:
    name = ""

    def __init__(self, root: Path, data_dir: Path, seed: int) -> None:
        self.seed = seed

    def close(self) -> None:
        pass

    def chain(self, runner, out: Path, warm: bool = False) -> list:
        raise NotImplementedError

    def check(self, out: Path, steps: list) -> list[str]:
        raise NotImplementedError

    def named_metrics(self, steps: list, out: Path) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def traced(self, tr, out: Path) -> dict:
        raise NotImplementedError


# --- crawl -------------------------------------------------------------------


class Crawl(Workload):
    name = "crawl"

    def __init__(self, root: Path, data_dir: Path, seed: int) -> None:
        super().__init__(root, data_dir, seed)
        self.inputs = gen.make_crawl(data_dir, seed)
        self.description = self.inputs.description
        self.warm_input = data_dir / "web_warm.jsonl"
        _write_prefix(self.inputs.web, self.warm_input, gen.CRAWL_RECORDS // 10)
        read_through(self.inputs.web)

    def chain(self, runner, out: Path, warm: bool = False) -> list:
        web = self.warm_input if warm else self.inputs.web
        args = ["filter", "--input", str(web), "--output", str(out / "kept.jsonl"),
                "--seed", str(self.seed), "--stats", str(out / "filter_stats.json")]
        for lang, quota in self.inputs.quotas.items():
            args += ["--quota", f"{lang}={quota}"]
        return [runner.run("filter", args)]

    def check(self, out: Path, steps: list) -> list[str]:
        errors = []
        expected = self.inputs.expected_counts
        stats = json.loads((out / "filter_stats.json").read_text(encoding="utf-8"))
        if stats != expected:
            errors.append(f"filter counters {stats} != expected {expected}")
        kept = _read_jsonl(out / "kept.jsonl")
        position = {rid: i for i, rid in enumerate(self.inputs.expected_keep_ids)}
        indices = [position.get(row["id"], -1) for row in kept]
        if -1 in indices:
            errors.append("kept records outside the expected-keep set")
        elif indices != sorted(indices) or len(set(indices)) != len(indices):
            errors.append("kept records are not in input order")
        by_lang: dict[str, int] = {}
        for row in kept:
            by_lang[row["lang"]] = by_lang.get(row["lang"], 0) + 1
        for lang, n_kept in expected["kept_by_language"].items():
            want = min(self.inputs.quotas.get(lang, n_kept), n_kept)
            if by_lang.get(lang, 0) != want:
                errors.append(f"{lang}: wrote {by_lang.get(lang, 0)} records, expected {want}")
        return errors

    def named_metrics(self, steps: list, out: Path) -> dict:
        return {"filter_records_per_s": (gen.CRAWL_RECORDS / steps[0].wall_s, "1/s")}

    def traced(self, tr, out: Path) -> dict:
        return traced.run_crawl(tr, self, out)


# --- annotate ----------------------------------------------------------------


class LoadGen:
    """The load-generator child process and its control routes."""

    def __init__(self, faults: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "loadgen.py"), "--faults", str(faults)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"load generator did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, post: bool = False) -> dict:
        request = urllib.request.Request(self.base + path, data=b"" if post else None,
                                         method="POST" if post else "GET")
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def reset(self) -> None:
        self._call("/_reset", post=True)

    def stats(self) -> dict:
        return self._call("/_stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self._call("/_shutdown", post=True)
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def replica_p_hate(model: str, prompt: str) -> float:
    """The hate probability the bundled ``deterministic_weights`` implies, recomputed."""
    digest = hashlib.sha256(f"{model}\x00{prompt}".encode("utf-8")).digest()
    return 0.01 + 0.98 * (int.from_bytes(digest[:8], "big") / 2**64)


class Annotate(Workload):
    name = "annotate"

    def __init__(self, root: Path, data_dir: Path, seed: int) -> None:
        super().__init__(root, data_dir, seed)
        self.inputs = gen.make_annotate(data_dir, seed)
        self.description = self.inputs.description
        n_warm = len(self.inputs.rows) // 20
        self.warm_input = data_dir / "texts_warm.jsonl"
        _write_prefix(self.inputs.texts, self.warm_input, n_warm)
        warm_ids = {row["id"] for row in self.inputs.rows[:n_warm]}
        self.warm_code = 3 if warm_ids & set(self.inputs.expected_quarantine) else 0
        self.server_stats: dict = {}
        self.endpoints_path = data_dir / "endpoints.json"
        self.loadgen = LoadGen(self.inputs.faults)
        try:
            url = self.loadgen.base + "/v1/completions"
            self.endpoints_path.write_text(
                json.dumps(self.inputs.endpoints_template).replace("{base_url}", url),
                encoding="utf-8",
            )
        except BaseException:
            self.loadgen.close()
            raise

    def endpoints(self):
        from hatepool.gateway import AnnotatorEndpoint

        cfg = json.loads(self.endpoints_path.read_text(encoding="utf-8"))
        return [AnnotatorEndpoint.from_dict(e) for e in cfg["endpoints"]]

    def close(self) -> None:
        self.loadgen.close()

    def chain(self, runner, out: Path, warm: bool = False) -> list:
        self.loadgen.reset()
        args = ["annotate", "--input", str(self.warm_input if warm else self.inputs.texts),
                "--output", str(out / "ann.jsonl"), "--endpoints", str(self.endpoints_path),
                "--seed", str(self.seed)]
        steps = [runner.run("annotate", args, expected=self.warm_code if warm else 3)]
        self.server_stats[out] = self.loadgen.stats()
        return steps

    def check(self, out: Path, steps: list) -> list[str]:
        errors = []
        inputs = self.inputs
        if steps[0].code != 3:
            errors.append(f"annotate exited {steps[0].code}, expected 3 (partial)")
        rows = _read_jsonl(out / "ann.jsonl")
        if rows[0] != {"model_order": sorted(gen.MODELS)}:
            errors.append(f"bad annotation header {rows[0]}")
        quarantined = set(inputs.expected_quarantine)
        want_ids = [r["id"] for r in inputs.rows if r["id"] not in quarantined]
        if [r["id"] for r in rows[1:]] != want_ids:
            errors.append("annotated ids differ from the input ids minus the scripted quarantine")
        worst = 0.0
        for row in rows[1:]:
            prompt = inputs.prompts[row["id"]]
            for model, entry in row["models"].items():
                worst = max(worst, abs(entry["hate"] - replica_p_hate(model, prompt)))
        if worst > 1e-9:
            errors.append(f"p_hate differs from the replica by {worst:.3g}")
        dead = [r["id"] for r in _read_jsonl(out / "ann.jsonl.deadletter.jsonl")]
        if dead != inputs.expected_quarantine:
            errors.append(f"quarantined ids {dead} != scripted {inputs.expected_quarantine}")
        stats = self.server_stats[out]
        requests = {m: s["requests"] for m, s in stats.items()}
        if requests != inputs.expected_requests:
            errors.append(f"requests per endpoint {requests} != scripted "
                          f"{inputs.expected_requests}")
        peaks = {m: s["inflight_peak"] for m, s in stats.items()}
        if set(peaks.values()) != {1}:
            errors.append(f"in-flight peak per endpoint {peaks}, expected 1")
        return errors

    def named_metrics(self, steps: list, out: Path) -> dict:
        dead = len(_read_jsonl(out / "ann.jsonl.deadletter.jsonl"))
        n = len(self.inputs.rows)
        return {
            "annotate_texts_per_s": (n / steps[0].wall_s, "1/s"),
            "quarantine_share": (dead / n, "ratio"),
        }

    def traced(self, tr, out: Path) -> dict:
        return traced.run_annotate(tr, self, out)


# --- label -------------------------------------------------------------------

# The seven-dataset pool of the paper, restated here so the report check
# does not take its groups from the code under test.
SEVEN_SET = ("HateXplain", "Sexism", "Covid", "US_election", "GermEval21", "GermEval19", "ViHSD")
GROUP_NAMES = {"eng": "EN", "deu": "DE", "spa": "ES", "vie": "VI"}


def _macro_f1(pairs) -> tuple[int, float]:
    tp = fp = fn = tn = 0
    for predicted_hate, gold_hate in pairs:
        if gold_hate:
            tp += predicted_hate
            fn += not predicted_hate
        else:
            fp += predicted_hate
            tn += not predicted_hate

    def f1(t, f_pos, f_neg):
        p = t / (t + f_pos) if t + f_pos else 0.0
        r = t / (t + f_neg) if t + f_neg else 0.0
        return 2.0 * p * r / (p + r) if p + r else 0.0

    return tp + fp + fn + tn, (f1(tp, fp, fn) + f1(tn, fn, fp)) / 2.0


def _pooled_score(rows: list[dict]) -> tuple[int, float]:
    """Threshold at the exact mean score of ``rows``, then pooled macro-F1."""
    threshold = float(sum(Fraction(r["score_hate"]) for r in rows) / len(rows))
    return _macro_f1((r["score_hate"] >= threshold, r["gold"] == "Hate") for r in rows)


class Label(Workload):
    name = "label"
    csv_dataset = gen.CSV_DATASET

    def __init__(self, root: Path, data_dir: Path, seed: int) -> None:
        super().__init__(root, data_dir, seed)
        self.inputs = gen.make_label(data_dir, seed)
        self.description = self.inputs.description
        self.warm_annotations = data_dir / "annotations_warm.jsonl"
        _write_prefix(self.inputs.annotations, self.warm_annotations, 1 + gen.LABEL_ROWS // 10)
        read_through(self.inputs.csv, self.inputs.direct_labels, self.inputs.annotations)
        registry = json.loads((root / "src/hatepool/data/dataset_registry.json").read_text("utf-8"))
        self.registry_lang = {name: entry["language"] for name, entry in registry.items()}

    def chain(self, runner, out: Path, warm: bool = False) -> list:
        ann = str(self.warm_annotations if warm else self.inputs.annotations)
        labels, model = out / "labels.jsonl", str(out / "model.json")
        ingested = out / "labels_ingest.jsonl"
        steps = [runner.run("ingest", ["ingest", "--dataset", self.csv_dataset, "--input",
                                       str(self.inputs.csv), "--output", str(ingested)])]
        # Joining the ingested dataset with the labels of the other datasets
        # is input preparation, outside the timed CLI steps.
        with open(labels, "wb") as fp:
            fp.write(ingested.read_bytes())
            fp.write(self.inputs.direct_labels.read_bytes())
        steps.append(runner.run("train-meta", ["train-meta", "--annotations", ann, "--labels",
                                               str(labels), "--model-out", model,
                                               "--seed", str(self.seed)]))
        for strategy in ("vote", "mean", "lgb"):
            args = ["ensemble", "--annotations", ann, "--strategy", strategy, "--labels",
                    str(labels), "--output", str(out / f"pred_{strategy}.jsonl")]
            if strategy == "lgb":
                args += ["--model", model]
            steps.append(runner.run(f"ensemble-{strategy}", args))
        steps.append(runner.run("evaluate", ["evaluate", "--predictions",
                                             str(out / "pred_lgb.jsonl"), "--report",
                                             str(out / "report.json")]))
        steps.append(runner.run("stats", ["stats", "--annotations", ann, "--output",
                                          str(out / "summary.json"), "--strategies",
                                          "vote,mean,lgb", "--model", model]))
        return steps

    def _groups(self, datasets: set[str]) -> dict[str, set[str]]:
        groups: dict[str, set[str]] = {}
        for name, lang in self.registry_lang.items():
            groups.setdefault(GROUP_NAMES[lang], set()).add(name)
        groups["SevenSet"] = set(SEVEN_SET)
        groups["Rest"] = set(self.registry_lang) - set(SEVEN_SET)
        groups["All"] = set(self.registry_lang)
        return {g: members & datasets for g, members in groups.items() if members & datasets}

    def check(self, out: Path, steps: list) -> list[str]:
        errors = []
        inputs = self.inputs
        ingested = _read_jsonl(out / "labels_ingest.jsonl")
        for row in ingested:
            if inputs.gold.get(row["id"]) != row["gold"] or row["dataset"] != self.csv_dataset:
                errors.append(f"ingested row {row['id']} has a wrong gold label or dataset")
                break
        n_csv = sum(1 for d in inputs.dataset.values() if d == self.csv_dataset)
        if len(ingested) != n_csv:
            errors.append(f"ingest wrote {len(ingested)} rows, expected {n_csv}")

        preds = {s: _read_jsonl(out / f"pred_{s}.jsonl") for s in ("vote", "mean", "lgb")}
        for strategy in ("vote", "mean"):
            for row in preds[strategy]:
                p = inputs.p_hate[row["id"]]
                if strategy == "vote":
                    votes = sum(x > 0.5 for x in p)
                    label, score = ("Hate" if votes >= 2 else "Neutral"), votes / 4
                else:
                    hate = sum(Fraction(x) for x in p)
                    neutral = sum(Fraction(1.0 - x) for x in p)
                    label, score = ("Hate" if hate > neutral else "Neutral"), float(hate / 4)
                rid = row["id"]
                want = (label, score, inputs.gold[rid], inputs.dataset[rid], inputs.lang[rid])
                if (row["label"], row["score_hate"], row["gold"], row["dataset"],
                        row["lang"]) != want:
                    errors.append(f"{strategy} prediction for {row['id']} differs: {row}")
                    break
            if len(preds[strategy]) != len(inputs.gold):
                errors.append(f"{strategy} wrote {len(preds[strategy])} rows")

        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        lgb = preds["lgb"]
        datasets = {r["dataset"] for r in lgb}
        units = {("per_dataset", d): [r for r in lgb if r["dataset"] == d] for d in datasets}
        for group, members in self._groups(datasets).items():
            units[("per_group", group)] = [r for r in lgb if r["dataset"] in members]
        for (section, name), rows in units.items():
            n, f1 = _pooled_score(rows)
            got = report[section].get(name, {})
            if (got.get("n"), got.get("macro_f1")) != (n, f1):
                errors.append(f"report {section}/{name} = {got.get('macro_f1')} on "
                              f"{got.get('n')} rows, recomputed {f1} on {n}")
        if set(report["per_group"]) != {name for section, name in units if section == "per_group"}:
            errors.append(f"report groups {sorted(report['per_group'])} differ from the expected")

        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        for strategy, rows in preds.items():
            count: dict[str, int] = {}
            hate: dict[str, int] = {}
            for r in rows:
                count[r["lang"]] = count.get(r["lang"], 0) + 1
                hate[r["lang"]] = hate.get(r["lang"], 0) + (r["label"] == "Hate")
            want = {lang: 100.0 * hate[lang] / count[lang] for lang in count}
            want["All"] = 100.0 * sum(hate.values()) / len(rows)
            got = summary["per_strategy"][strategy]["pct_hate"]
            if got != want:
                errors.append(f"stats pct_hate for {strategy} {got} != counted {want}")
        return errors

    def named_metrics(self, steps: list, out: Path) -> dict:
        by_name = {s.name: s for s in steps}
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        return {
            "train_meta_s": (by_name["train-meta"].wall_s, "s"),
            "score_s": (sum(by_name[n].wall_s for n in
                            ("ensemble-vote", "ensemble-mean", "ensemble-lgb", "stats")), "s"),
            "macro_f1_lgb": (report["per_group"]["All"]["macro_f1"], "ratio"),
        }

    def traced(self, tr, out: Path) -> dict:
        return traced.run_label(tr, self, out)


WORKLOADS = {w.name: w for w in (Crawl, Annotate, Label)}
