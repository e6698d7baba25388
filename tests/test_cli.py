import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hatepool
from hatepool import (
    AnnotatorEndpoint,
    LabeledExample,
    MockAnnotatorServer,
    WebRecord,
    annotate_batch,
    filter_records,
    load_model,
    load_registry,
    mean_label,
    read_annotations,
    write_annotations,
)
from hatepool import cli, ensemble, filtering, meta
from hatepool._jsonl import dumps
from hatepool.cli import main

from conftest import MODEL_IDS, SRC, needs_vm_hwm, run_measured
from filter_oracle import reservoir_sample

SMALL_META_CONFIG = {
    "num_rounds": 10,
    "num_leaves": 4,
    "min_data_in_leaf": 2,
    "feature_fraction": 1.0,
    "bagging_fraction": 1.0,
}


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        for row in rows:
            fp.write(dumps(row) + "\n")
    return str(path)


def read_jsonl(path):
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def cli_command(args):
    """``python -m hatepool.cli ARGS`` on ``src``, and the environment to run it in."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "hatepool.cli", *args], env


def run_cli(args, **kwargs):
    """``python -m hatepool.cli ARGS`` on ``src`` in a fresh interpreter, output as text.

    Its stdout is block-buffered on a pipe, as Python has it by default.
    """
    command, env = cli_command(args)
    return subprocess.run(command, text=True, timeout=120, env=env, **kwargs)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Annotations over the mock server plus gold labels that track the mean strategy."""
    root = tmp_path_factory.mktemp("pipeline")
    texts = [(f"x{i:03d}", f"sample comment number {i}") for i in range(40)]
    langs = {tid: ("eng" if i % 2 == 0 else "deu") for i, (tid, _) in enumerate(texts)}
    datasets = {"eng": "AHSD", "deu": "GermEval19"}
    with MockAnnotatorServer() as server:
        endpoints = [
            AnnotatorEndpoint(model_id=m, base_url=server.base_url, retry_limit=0)
            for m in MODEL_IDS
        ]
        results, quarantined = annotate_batch(texts, endpoints)
    assert not quarantined

    golds = {r.id: mean_label(r.vector) for r in results}
    assert len({g for g in golds.values()}) == 2, "fixture needs both classes"

    annotations = root / "annotations.jsonl"
    with open(annotations, "w", encoding="utf-8", newline="\n") as fp:
        write_annotations(
            fp,
            results,
            lang_by_id=langs,
            raw_label_by_id={tid: golds[tid].value for tid, _ in texts},
        )
    labels = root / "labels.jsonl"
    write_jsonl(
        labels,
        [
            LabeledExample(
                id=tid, dataset=datasets[langs[tid]], text=text, gold=golds[tid]
            ).to_dict()
            for tid, text in texts
        ],
    )
    config = root / "meta_config.json"
    config.write_text(json.dumps(SMALL_META_CONFIG))
    model = root / "model.json"
    assert main(
        [
            "train-meta",
            "--annotations", str(annotations),
            "--labels", str(labels),
            "--model-out", str(model),
            "--config", str(config),
        ]
    ) == 0
    return {
        "root": root,
        "annotations": str(annotations),
        "labels": str(labels),
        "config": str(config),
        "model": str(model),
        "golds": golds,
    }


class TestFilterCmd:
    def make_input(self, tmp_path):
        rows = [
            {"id": "a", "url": "https://ex.org/forum/1", "lang": "eng", "schema_types": ["Article"], "text": "a"},
            {"id": "b", "url": "https://ex.org/thread/2", "lang": "eng", "schema_types": ["Comment"], "text": "b"},
            {"id": "c", "url": "https://ex.de/forum/3", "lang": "deu", "schema_types": ["BlogPosting"], "text": "c"},
            {"id": "d", "url": "https://ex.org/about", "lang": "eng", "schema_types": ["Article"], "text": "d"},
            {"id": "e", "url": "https://ex.org/forum/4", "lang": "eng", "schema_types": ["Product"], "text": "e"},
        ]
        path = tmp_path / "web.jsonl"
        write_jsonl(path, rows)
        with open(path, "a", encoding="utf-8") as fp:
            fp.write("{this is not json\n")
        return path

    def test_filter_writes_kept_records_and_stats(self, tmp_path):
        in_path = self.make_input(tmp_path)
        out_path = tmp_path / "kept.jsonl"
        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "filter",
                "--input", str(in_path),
                "--output", str(out_path),
                "--stats", str(stats_path),
            ]
        )
        assert code == 0
        assert [r["id"] for r in read_jsonl(out_path)] == ["a", "b", "c"]
        stats = json.loads(stats_path.read_text())
        assert stats["records_seen"] == 5
        assert stats["kept"] == 3
        assert stats["dropped_url"] == 1
        assert stats["dropped_schema"] == 1
        assert stats["malformed_lines"] == 1
        assert stats["written"] == 3
        assert stats["kept_by_language"] == {"deu": 1, "eng": 2}

    def test_filter_quota_subsamples_per_language(self, tmp_path):
        in_path = self.make_input(tmp_path)
        out_path = tmp_path / "kept.jsonl"
        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "filter",
                "--input", str(in_path),
                "--output", str(out_path),
                "--quota", "eng=1",
                "--seed", "3",
                "--stats", str(stats_path),
            ]
        )
        assert code == 0
        rows = read_jsonl(out_path)
        assert sum(1 for r in rows if r["lang"] == "eng") == 1
        assert sum(1 for r in rows if r["lang"] == "deu") == 1
        assert json.loads(stats_path.read_text())["written"] == 2

    @pytest.mark.parametrize("quota", [[], ["--quota", "eng=5"]], ids=["streamed", "quota"])
    def test_bad_row_after_many_good_leaves_no_output(self, tmp_path, quota):
        rows = [
            {"id": f"r{i}", "url": f"https://ex.org/forum/{i}", "lang": "eng",
             "schema_types": ["Comment"], "text": "t"}
            for i in range(500)
        ]
        rows.append({"id": "bad", "lang": "eng", "schema_types": [], "text": "t"})
        in_path = write_jsonl(tmp_path / "web.jsonl", rows)
        out_path = tmp_path / "kept.jsonl"
        stats_path = tmp_path / "stats.json"
        code = main(
            ["filter", "--input", in_path, "--output", str(out_path), "--stats", str(stats_path),
             *quota]
        )
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["web.jsonl"]

    def test_unwritable_stats_fails_before_the_input_is_read(self, tmp_path, monkeypatch):
        # The whole input was filtered and kept.jsonl committed before --stats failed.
        in_path = self.make_input(tmp_path)
        monkeypatch.setattr(filtering, "filter_file", lambda *args: pytest.fail("input read"))
        code = main(["filter", "--input", str(in_path), "--output", str(tmp_path / "kept.jsonl"),
                     "--stats", str(tmp_path / "missing" / "s.json")])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["web.jsonl"]

    def test_unwritable_output_is_named_as_given(self, tmp_path):
        # The error named the temp file beside it, ".../missing/.tmp-<hex>.part".
        in_path = self.make_input(tmp_path)
        stats_path = tmp_path / "missing" / "s.json"
        proc = run_cli(["filter", "--input", str(in_path), "--output",
                        str(tmp_path / "kept.jsonl"), "--stats", str(stats_path)],
                       capture_output=True)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"ERROR hatepool: [Errno 2] No such file or directory: '{stats_path}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["web.jsonl"]

    @pytest.mark.parametrize("flag", ["--output", "--stats"])
    def test_directory_output_is_refused_as_given(self, tmp_path, flag):
        # The kept records' rename named the temp file, and a directory --stats
        # was only refused after the whole input was filtered.
        self.make_input(tmp_path)
        (tmp_path / "outdir").mkdir()
        args = ["filter", "--input", "web.jsonl", "--output", "kept.jsonl", "--stats", "s.json"]
        args[args.index(flag) + 1] = "outdir"
        proc = run_cli(args, capture_output=True, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "ERROR hatepool: [Errno 21] Is a directory: 'outdir'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "web.jsonl"]
        assert list((tmp_path / "outdir").iterdir()) == []

    def test_output_and_stats_may_both_go_to_stdout(self, tmp_path, capsys):
        in_path = self.make_input(tmp_path)
        assert main(["filter", "--input", str(in_path), "--output", "-", "--stats", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["id"] for line in lines[:3]] == ["a", "b", "c"]
        assert json.loads("\n".join(lines[3:]))["written"] == 3

    def test_stdout_gets_the_records_before_stderr_gets_the_stats(self, tmp_path):
        in_path = self.make_input(tmp_path)
        proc = run_cli(["filter", "--input", str(in_path), "--output", "-"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("WARNING hatepool: ") and lines[0].endswith("; skipped")
        assert [json.loads(line)["id"] for line in lines[1:4]] == ["a", "b", "c"]
        assert json.loads("\n".join(lines[4:]))["written"] == 3

    def test_filter_bad_quota_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["filter", "--input", "x", "--output", "y", "--quota", "eng"])
        assert exc.value.code == 1

    def test_filter_quota_language_given_twice_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["filter", "--input", str(self.make_input(tmp_path)), "--output",
                  str(tmp_path / "kept.jsonl"), "--quota", "eng=0", "--quota", "eng=5"])
        assert exc.value.code == 1
        assert "language 'eng' given twice" in capsys.readouterr().err
        assert not (tmp_path / "kept.jsonl").exists()


def web_dicts(rows):
    """Web records ``r0``, ``r1``, ... from ``(lang, text, kept by the URL rule)`` triples."""
    return [
        {"id": f"r{i}", "url": f"https://ex.org/{'forum' if kept else 'about'}/{i}",
         "lang": lang, "schema_types": ["Comment"], "text": text}
        for i, (lang, text, kept) in enumerate(rows)
    ]


# Web records in languages a-d, some failing the URL rule; texts hold
# characters a line reader could mistake for line ends.
WEB_ROWS = st.lists(
    st.tuples(
        st.sampled_from("abcd"),
        st.text(st.sampled_from("xé\u2028\r\n\"\\"), max_size=4),
        st.booleans(),
    ),
    max_size=40,
).map(web_dicts)


def quota_args(quotas):
    return [arg for lang, n in quotas.items() for arg in ("--quota", f"{lang}={n}")]


def web_rows(n):
    """``n`` kept records, alternating the pass-through language p and q."""
    return [
        {"id": f"r{i:06d}", "url": f"https://ex.org/forum/{i}", "lang": "pq"[i % 2],
         "schema_types": ["Comment"], "text": f"text {i}"}
        for i in range(n)
    ]


class TestFilterQuotaSpool:
    @given(
        rows=WEB_ROWS,
        quotas=st.dictionaries(st.sampled_from("abc"), st.integers(0, 12), min_size=1),
        seed=st.integers(-(2**63), 2**64),
    )
    # One language of 40 kept records and a quota of 1 draws at every record after
    # the first, so a wrong draw range shows whatever the drawn examples are.
    @example(rows=web_dicts([("a", "x", True)] * 40), quotas={"a": 1}, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_kept_file_is_the_library_sample_byte_for_byte(self, rows, quotas, seed):
        with tempfile.TemporaryDirectory() as tmp:
            in_path = write_jsonl(os.path.join(tmp, "web.jsonl"), rows)
            out_path = os.path.join(tmp, "kept.jsonl")
            args = ["filter", "--input", in_path, "--output", out_path, "--seed", str(seed),
                    "--stats", os.path.join(tmp, "stats.json"), *quota_args(quotas)]
            assert main(args) == 0
            with open(out_path, "rb") as fp:
                written = fp.read()
            assert sorted(os.listdir(tmp)) == ["kept.jsonl", "stats.json", "web.jsonl"]
        kept, _ = filter_records(WebRecord.from_dict(row) for row in rows)
        sample = reservoir_sample(kept, quotas, seed)
        assert written == "".join(dumps(r.to_dict()) + "\n" for r in sample).encode("utf-8")

    def test_success_leaves_only_the_outputs(self, tmp_path):
        in_path = write_jsonl(tmp_path / "web.jsonl", web_rows(300))
        args = ["filter", "--input", in_path, "--output", str(tmp_path / "kept.jsonl"),
                "--stats", str(tmp_path / "stats.json"), "--quota", "q=20"]
        assert main(args) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl", "stats.json", "web.jsonl"]
        assert len(read_jsonl(tmp_path / "kept.jsonl")) == 150 + 20

    def test_stdout_output_spools_in_the_temp_directory(self, tmp_path, monkeypatch, capsys):
        work, spool_dir = tmp_path / "work", tmp_path / "tmp"
        work.mkdir()
        spool_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
        in_path = write_jsonl(work / "web.jsonl", web_rows(300))
        args = ["filter", "--input", in_path, "--output", "-", "--stats", str(work / "stats.json"),
                "--quota", "q=20"]
        assert main(args) == 0
        assert len(capsys.readouterr().out.splitlines()) == 150 + 20
        assert sorted(p.name for p in work.iterdir()) == ["stats.json", "web.jsonl"]
        assert list(spool_dir.iterdir()) == []

    def test_peak_memory_does_not_grow_with_the_input(self, tmp_path):
        def peak_bytes(n):
            in_path = write_jsonl(tmp_path / f"web{n}.jsonl", web_rows(n))
            args = ["filter", "--input", in_path, "--output", str(tmp_path / f"kept{n}.jsonl"),
                    "--stats", str(tmp_path / f"stats{n}.json"), "--quota", "q=100"]
            tracemalloc.reset_peak()
            assert main(args) == 0
            return tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            peak_bytes(2_000)  # warm-up: imports and first-use caches
            small, large = peak_bytes(2_000), peak_bytes(20_000)
        finally:
            tracemalloc.stop()
        # 18,000 more records, half of them passed through, may not add to the peak.
        assert large - small < 64 * 1024, (small, large)


class TestIngestCmd:
    def test_csv_ingest_maps_labels_and_assigns_ids(self, tmp_path):
        src = tmp_path / "ahsd.csv"
        src.write_text(
            "tweet,class\n"
            '"you are scum",hate\n'
            '"shut up already",offensive\n'
            '"nice weather today",neither\n'
        )
        out = tmp_path / "labeled.jsonl"
        assert main(["ingest", "--dataset", "AHSD", "--input", str(src), "--output", str(out)]) == 0
        rows = read_jsonl(out)
        assert [r["id"] for r in rows] == ["AHSD-000000", "AHSD-000001", "AHSD-000002"]
        assert [r["gold"] for r in rows] == ["Hate", "Hate", "Neutral"]
        assert all(r["dataset"] == "AHSD" for r in rows)

    def test_jsonl_ingest_uses_declared_id_column(self, tmp_path):
        src = tmp_path / "sexism.jsonl"
        write_jsonl(
            src,
            [
                {"rewire_id": "r-9", "text": "some text", "label_sexist": "sexist"},
                {"rewire_id": "r-10", "text": "other text", "label_sexist": "not sexist"},
            ],
        )
        out = tmp_path / "labeled.jsonl"
        assert main(["ingest", "--dataset", "Sexism", "--input", str(src), "--output", str(out)]) == 0
        rows = read_jsonl(out)
        assert [r["id"] for r in rows] == ["r-9", "r-10"]
        assert [r["gold"] for r in rows] == ["Hate", "Neutral"]

    def test_unknown_dataset_is_data_error(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("text,label\nhey,0\n")
        out = tmp_path / "y.jsonl"
        assert main(["ingest", "--dataset", "Nope", "--input", str(src), "--output", str(out)]) == 2

    def test_unknown_dataset_error_is_one_plain_line(self, tmp_path):
        # str() of the KeyError put the message in quotes.
        src = tmp_path / "x.csv"
        src.write_text("text,label\nhey,0\n")
        proc = run_cli(["ingest", "--dataset", "Nope", "--input", str(src), "--output",
                        str(tmp_path / "y.jsonl")], capture_output=True)
        assert proc.returncode == 2
        names = ", ".join(sorted(load_registry()))
        assert proc.stderr == f"ERROR hatepool: unknown dataset 'Nope'; registered: {names}\n"

    def test_unmapped_label_is_data_error(self, tmp_path):
        src = tmp_path / "ahsd.csv"
        src.write_text("tweet,class\nhello,sarcastic\n")
        out = tmp_path / "y.jsonl"
        assert main(["ingest", "--dataset", "AHSD", "--input", str(src), "--output", str(out)]) == 2


class TestAnnotateCmd:
    def endpoints_file(self, tmp_path, server, retry_limit=0):
        path = tmp_path / "endpoints.json"
        path.write_text(
            json.dumps(
                {
                    "endpoints": [
                        {
                            "model_id": m,
                            "base_url": server.base_url,
                            "retry_limit": retry_limit,
                            "backoff_base": 0.001,
                        }
                        for m in MODEL_IDS
                    ]
                }
            )
        )
        return str(path)

    def test_annotate_writes_header_and_rows(self, tmp_path):
        in_path = write_jsonl(
            tmp_path / "texts.jsonl",
            [
                {"id": "t1", "text": "first", "lang": "eng", "gold": "Hate"},
                {"id": "t2", "text": "second", "lang": "deu", "raw_label": "other"},
            ],
        )
        out_path = tmp_path / "ann.jsonl"
        with MockAnnotatorServer() as server:
            code = main(
                [
                    "annotate",
                    "--input", in_path,
                    "--output", str(out_path),
                    "--endpoints", self.endpoints_file(tmp_path, server),
                ]
            )
        assert code == 0
        with open(out_path, encoding="utf-8") as fp:
            model_order, rows = read_annotations(fp)
            rows = list(rows)
        assert model_order == sorted(MODEL_IDS)
        assert [r.id for r in rows] == ["t1", "t2"]
        assert rows[0].lang == "eng"
        assert rows[0].raw_label == "Hate"  # falls back to the gold field
        assert rows[1].raw_label == "other"

    def test_quarantine_exits_partial_and_writes_dead_letter(self, tmp_path):
        def selective(model, prompt):
            if "poison" in prompt:
                return 500
            return {"1": 0.7, "2": 0.3}

        in_path = write_jsonl(
            tmp_path / "texts.jsonl",
            [{"id": "ok", "text": "fine"}, {"id": "bad", "text": "poison"}],
        )
        out_path = tmp_path / "ann.jsonl"
        with MockAnnotatorServer(script=selective) as server:
            code = main(
                [
                    "annotate",
                    "--input", in_path,
                    "--output", str(out_path),
                    "--endpoints", self.endpoints_file(tmp_path, server),
                ]
            )
        assert code == 3
        with open(out_path, encoding="utf-8") as fp:
            _, rows = read_annotations(fp)
            assert [r.id for r in rows] == ["ok"]
        dead = read_jsonl(str(out_path) + ".deadletter.jsonl")
        assert [d["id"] for d in dead] == ["bad"]
        assert len(dead[0]["errors"]) == 4
        assert all(e["attempts"] == 1 for e in dead[0]["errors"])

    @staticmethod
    def counting_poison(calls):
        """A script that fails every request for a text holding "poison", noting each model."""

        def script(model, prompt):
            calls.append(model)
            return 500 if "poison" in prompt else {"1": 0.7, "2": 0.3}

        return script

    def test_unwritable_dead_letter_commits_no_output(self, tmp_path):
        # ann.jsonl was committed before the dead letters failed, after every request.
        in_path = write_jsonl(
            tmp_path / "texts.jsonl",
            [{"id": "ok", "text": "fine"}, {"id": "bad", "text": "poison"}],
        )
        calls = []
        with MockAnnotatorServer(script=self.counting_poison(calls)) as server:
            code = main(["annotate", "--input", in_path, "--output", str(tmp_path / "ann.jsonl"),
                         "--endpoints", self.endpoints_file(tmp_path, server),
                         "--dead-letter", str(tmp_path / "missing" / "dead.jsonl")])
        assert code == 2
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["endpoints.json", "texts.jsonl"]

    def test_unwritable_output_makes_no_request(self, tmp_path):
        # Every text went to all four endpoints before the output failed.
        in_path = write_jsonl(
            tmp_path / "texts.jsonl",
            [{"id": "t1", "text": "first"}, {"id": "t2", "text": "second"}],
        )
        calls = []
        with MockAnnotatorServer(script=self.counting_poison(calls)) as server:
            code = main(["annotate", "--input", in_path,
                         "--output", str(tmp_path / "missing" / "ann.jsonl"),
                         "--endpoints", self.endpoints_file(tmp_path, server)])
        assert code == 2
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["endpoints.json", "texts.jsonl"]

    @pytest.mark.parametrize(
        "outputs",
        [["--output", "outdir"], ["--output", "ann.jsonl", "--dead-letter", "outdir"]],
        ids=["output", "dead-letter"],
    )
    def test_directory_output_is_refused_before_any_request(self, tmp_path, outputs):
        # --output outdir made every request, exited 2 and committed
        # outdir.deadletter.jsonl; --dead-letter outdir named its temp file.
        write_jsonl(tmp_path / "texts.jsonl",
                    [{"id": "ok", "text": "fine"}, {"id": "bad", "text": "poison"}])
        (tmp_path / "outdir").mkdir()
        calls = []
        with MockAnnotatorServer(script=self.counting_poison(calls)) as server:
            self.endpoints_file(tmp_path, server)
            proc = run_cli(["annotate", "--input", "texts.jsonl", "--endpoints", "endpoints.json",
                            *outputs], capture_output=True, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "ERROR hatepool: [Errno 21] Is a directory: 'outdir'\n"
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "endpoints.json", "outdir", "texts.jsonl"]
        assert list((tmp_path / "outdir").iterdir()) == []

    def test_clean_run_empties_stale_dead_letters(self, tmp_path):
        # An earlier run's dead letters were left beside the fresh annotations.
        in_path = write_jsonl(tmp_path / "texts.jsonl", [{"id": "t1", "text": "first"}])
        out_path = tmp_path / "ann.jsonl"
        stale = tmp_path / "ann.jsonl.deadletter.jsonl"
        stale.write_text('{"id": "t1", "errors": []}\n')
        with MockAnnotatorServer() as server:
            code = main(["annotate", "--input", in_path, "--output", str(out_path),
                         "--endpoints", self.endpoints_file(tmp_path, server)])
        assert code == 0
        assert stale.read_text() == ""

    def test_clean_stdout_run_prints_no_dead_letters(self, tmp_path):
        write_jsonl(tmp_path / "texts.jsonl",
                    [{"id": "t1", "text": "first"}, {"id": "t2", "text": "second"}])
        with MockAnnotatorServer() as server:
            self.endpoints_file(tmp_path, server)
            proc = run_cli(["annotate", "--input", "texts.jsonl", "--endpoints", "endpoints.json",
                            "--output", "-"], capture_output=True, cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert [json.loads(line).get("id") for line in proc.stdout.splitlines()] == [
            None, "t1", "t2"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["endpoints.json", "texts.jsonl"]

    def test_stdout_gets_the_annotations_before_stderr_gets_the_dead_letters(self, tmp_path):
        in_path = write_jsonl(
            tmp_path / "texts.jsonl",
            [{"id": "ok", "text": "fine"}, {"id": "bad", "text": "poison"}],
        )
        script = lambda model, prompt: 500 if "poison" in prompt else {"1": 0.7, "2": 0.3}
        with MockAnnotatorServer(script=script) as server:
            proc = run_cli(["annotate", "--input", in_path, "--output", "-",
                            "--endpoints", self.endpoints_file(tmp_path, server)],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        assert proc.returncode == 3
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert rows[0] == {"model_order": sorted(MODEL_IDS)} and rows[1]["id"] == "ok"
        assert rows[2]["id"] == "bad" and "errors" in rows[2] and len(rows) == 3

    def test_sigterm_leaves_no_temp_file(self, tmp_path):
        # The command died by the signal and left the temp files of its output and
        # its dead letters next to them. It must still end by the signal.
        calls = []

        def script(model, prompt):
            calls.append(model)
            return {"1": 0.7, "2": 0.3}

        in_path = write_jsonl(tmp_path / "texts.jsonl",
                              [{"id": f"t{i}", "text": f"text {i}"} for i in range(2000)])
        with MockAnnotatorServer(script=script, latency=0.01) as server:
            command, env = cli_command(["annotate", "--input", in_path, "--output",
                                        str(tmp_path / "ann.jsonl"), "--endpoints",
                                        self.endpoints_file(tmp_path, server)])
            proc = subprocess.Popen(command, env=env, stderr=subprocess.DEVNULL)
            try:
                deadline = time.monotonic() + 60
                while len(calls) < 40 and proc.poll() is None and time.monotonic() < deadline:
                    time.sleep(0.01)
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert proc.returncode == -signal.SIGTERM
        assert sorted(p.name for p in tmp_path.iterdir()) == ["endpoints.json", "texts.jsonl"]

    def test_missing_text_field_is_data_error(self, tmp_path):
        in_path = write_jsonl(tmp_path / "texts.jsonl", [{"id": "t1"}])
        out_path = tmp_path / "ann.jsonl"
        with MockAnnotatorServer() as server:
            code = main(
                [
                    "annotate",
                    "--input", in_path,
                    "--output", str(out_path),
                    "--endpoints", self.endpoints_file(tmp_path, server),
                ]
            )
        assert code == 2

    def test_mistyped_endpoint_url_fails_before_any_request(self, tmp_path, caplog):
        calls = []

        def counting(model, prompt):
            calls.append(model)
            return {"1": 0.7, "2": 0.3}

        in_path = write_jsonl(tmp_path / "texts.jsonl", [{"id": "t", "text": "x"}])
        with MockAnnotatorServer(script=counting) as server:
            endpoints = [{"model_id": m, "base_url": server.base_url} for m in MODEL_IDS]
            endpoints[2]["base_url"] = server.base_url.replace("http://", "htp://")
            config = tmp_path / "endpoints.json"
            config.write_text(json.dumps({"endpoints": endpoints}))
            code = main(
                [
                    "annotate",
                    "--input", in_path,
                    "--output", str(tmp_path / "ann.jsonl"),
                    "--endpoints", str(config),
                ]
            )
        assert code == 2
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["endpoints.json", "texts.jsonl"]
        assert "htp://" in caplog.text

    def test_endpoints_file_without_list_is_data_error(self, tmp_path):
        bad = tmp_path / "endpoints.json"
        bad.write_text("{}")
        in_path = write_jsonl(tmp_path / "texts.jsonl", [{"id": "t", "text": "x"}])
        assert main(
            [
                "annotate",
                "--input", in_path,
                "--output", str(tmp_path / "a.jsonl"),
                "--endpoints", str(bad),
            ]
        ) == 2


class TestTrainMetaCmd:
    def test_pipeline_fixture_trained_a_model(self, pipeline):
        model = load_model(pipeline["model"])
        assert len(model.hate_head.trees) > 0
        assert len(model.neutral_head.trees) > 0
        assert model.feature_order == tuple(
            f"{m}:{side}" for m in sorted(MODEL_IDS) for side in ("p_hate", "p_neutral")
        )

    def test_single_class_labels_are_a_data_error(self, pipeline, tmp_path):
        labels = read_jsonl(pipeline["labels"])
        for row in labels:
            row["gold"] = "Hate"
        path = write_jsonl(tmp_path / "labels.jsonl", labels)
        code = main(
            [
                "train-meta",
                "--annotations", pipeline["annotations"],
                "--labels", path,
                "--model-out", str(tmp_path / "m.json"),
                "--config", pipeline["config"],
            ]
        )
        assert code == 2

    def test_disjoint_ids_are_a_data_error(self, pipeline, tmp_path):
        labels = read_jsonl(pipeline["labels"])
        for row in labels:
            row["id"] = "z-" + row["id"]
        path = write_jsonl(tmp_path / "labels.jsonl", labels)
        code = main(
            [
                "train-meta",
                "--annotations", pipeline["annotations"],
                "--labels", path,
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "model_out, error",
        [("outdir", "[Errno 21] Is a directory: 'outdir'"),
         ("missing/m.json", "[Errno 2] No such file or directory: 'missing/m.json'")],
        ids=["directory", "missing-directory"],
    )
    def test_unwritable_model_out_fails_before_the_input_is_read(
        self, pipeline, tmp_path, monkeypatch, caplog, model_out, error
    ):
        # The labels and annotations were read and the model fit before the
        # model file was opened.
        (tmp_path / "outdir").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_load_labels", lambda path: pytest.fail("labels read"))
        monkeypatch.setattr(meta, "train_meta", lambda *args, **kwargs: pytest.fail("fit ran"))
        code = main(["train-meta", "--annotations", pipeline["annotations"],
                     "--labels", pipeline["labels"], "--model-out", model_out])
        assert code == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [error]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]
        assert list((tmp_path / "outdir").iterdir()) == []

    def test_seed_flag_changes_the_model_bytes(self, pipeline, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out, seed in ((out_a, "7"), (out_b, "8")):
            code = main(
                [
                    "train-meta",
                    "--annotations", pipeline["annotations"],
                    "--labels", pipeline["labels"],
                    "--model-out", str(out),
                    "--config", pipeline["config"],
                    "--seed", seed,
                ]
            )
            assert code == 0
        assert out_a.read_bytes() != out_b.read_bytes()


class TestEnsembleCmd:
    def test_vote_strategy_rows(self, pipeline, tmp_path):
        out = tmp_path / "pred.jsonl"
        code = main(
            [
                "ensemble",
                "--annotations", pipeline["annotations"],
                "--strategy", "vote",
                "--output", str(out),
            ]
        )
        assert code == 0
        rows = read_jsonl(out)
        assert len(rows) == 40
        for row in rows:
            assert row["strategy"] == "vote"
            assert row["label"] in ("Hate", "Neutral")
            assert row["score_hate"] in (0.0, 0.25, 0.5, 0.75, 1.0)
            assert "gold" not in row

    def test_mean_strategy_with_labels_attaches_gold(self, pipeline, tmp_path):
        out = tmp_path / "pred.jsonl"
        code = main(
            [
                "ensemble",
                "--annotations", pipeline["annotations"],
                "--strategy", "mean",
                "--labels", pipeline["labels"],
                "--output", str(out),
            ]
        )
        assert code == 0
        rows = read_jsonl(out)
        golds = pipeline["golds"]
        for row in rows:
            assert row["dataset"] in ("AHSD", "GermEval19")
            assert row["gold"] == golds[row["id"]].value
            # fixture golds were defined as the mean-strategy labels
            assert row["label"] == row["gold"]

    def test_lgb_requires_model(self, pipeline, tmp_path):
        code = main(
            [
                "ensemble",
                "--annotations", pipeline["annotations"],
                "--strategy", "lgb",
                "--output", str(tmp_path / "pred.jsonl"),
            ]
        )
        assert code == 2

    def test_lgb_strategy_scores_are_probabilities(self, pipeline, tmp_path):
        out = tmp_path / "pred.jsonl"
        code = main(
            [
                "ensemble",
                "--annotations", pipeline["annotations"],
                "--strategy", "lgb",
                "--model", pipeline["model"],
                "--output", str(out),
            ]
        )
        assert code == 0
        for row in read_jsonl(out):
            assert 0.0 < row["score_hate"] < 1.0


@pytest.fixture()
def predictions(pipeline, tmp_path):
    out = tmp_path / "pred.jsonl"
    code = main(
        [
            "ensemble",
            "--annotations", pipeline["annotations"],
            "--strategy", "mean",
            "--labels", pipeline["labels"],
            "--output", str(out),
        ]
    )
    assert code == 0
    return str(out)


class TestEvaluateCmd:
    def test_default_groups_report(self, predictions, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["evaluate", "--predictions", predictions, "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["threshold_mode"] == "mean"
        assert report["threshold_scope"] == "group"
        assert set(report["per_dataset"]) == {"AHSD", "GermEval19"}
        assert {"EN", "DE", "SevenSet", "Rest", "All"} <= set(report["per_group"])
        assert "ES" not in report["per_group"]  # no Spanish predictions to pool
        all_entry = report["per_group"]["All"]
        assert all_entry["n"] == 40
        assert 0.0 <= all_entry["macro_f1"] <= 1.0

    def test_custom_groups_define_the_dataset_universe(self, predictions, tmp_path):
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"Mine": ["AHSD", "GermEval19"]}))
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--predictions", predictions,
                "--report", str(report_path),
                "--groups", str(groups),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert list(report["per_group"]) == ["Mine"]
        assert report["per_group"]["Mine"]["n"] == 40

    def test_fixed_threshold_global_scope(self, predictions, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--predictions", predictions,
                "--report", str(report_path),
                "--threshold", "fixed:0.5",
                "--threshold-scope", "global",
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["threshold_mode"] == "fixed"
        assert report["threshold_global"] == 0.5
        for entry in report["per_dataset"].values():
            assert entry["threshold"] == 0.5

    def test_baseline_deltas_are_zero_against_self(self, predictions, tmp_path):
        base_path = tmp_path / "base.json"
        assert main(["evaluate", "--predictions", predictions, "--report", str(base_path)]) == 0
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--predictions", predictions,
                "--report", str(report_path),
                "--baseline", str(base_path),
            ]
        )
        assert code == 0
        deltas = json.loads(report_path.read_text())["deltas"]["macro_f1"]
        assert "per_dataset:AHSD" in deltas
        assert all(v == 0.0 for v in deltas.values())

    def test_unknown_dataset_is_data_error(self, predictions, tmp_path):
        rows = read_jsonl(predictions)
        for row in rows:
            row["dataset"] = "Mystery"
        bad = write_jsonl(tmp_path / "pred.jsonl", rows)
        assert main(["evaluate", "--predictions", bad, "--report", str(tmp_path / "r.json")]) == 2

    def test_missing_gold_is_data_error(self, predictions, tmp_path):
        rows = read_jsonl(predictions)
        for row in rows:
            row.pop("gold", None)
        bad = write_jsonl(tmp_path / "pred.jsonl", rows)
        assert main(["evaluate", "--predictions", bad, "--report", str(tmp_path / "r.json")]) == 2

    def test_table_prints_units(self, predictions, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["evaluate", "--predictions", predictions, "--report", str(report_path), "--table"]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "AHSD" in table
        assert "All" in table
        assert "macro_f1" in table

    def test_warnings_are_log_lines(self, tmp_path):
        predictions = write_jsonl(tmp_path / "pred.jsonl", [
            {"id": f"r{i}", "dataset": dataset, "score_hate": score, "gold": gold}
            for i, (dataset, score, gold) in enumerate([
                ("AHSD", 0.9, "Hate"), ("AHSD", 0.1, "Neutral"),
                ("HateXplain", 0.6, "Hate"), ("HateXplain", 0.2, "Neutral"),
            ])
        ])
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({
            "per_dataset": {"AHSD": {"macro_f1": 0.5}, "Other": {"macro_f1": 0.1}},
            "per_group": {},
        }))
        args = ["evaluate", "--predictions", predictions, "--report", str(tmp_path / "r.json"),
                "--baseline", str(baseline)]
        proc = run_cli(args, capture_output=True)
        assert proc.returncode == 0
        skipped = ["per_dataset:HateXplain", "per_dataset:Other", "per_group:All",
                   "per_group:EN", "per_group:Rest", "per_group:SevenSet"]
        assert proc.stderr.splitlines() == [
            *(f"WARNING hatepool: group {g!r} matched no predictions; skipped"
              for g in ("DE", "ES", "VI")),
            *(f"WARNING hatepool: unit {u!r} present on only one side; skipped in deltas"
              for u in skipped),
        ]
        proc = run_cli(["--log-level", "error", *args], capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestEvaluateStreams:
    """``evaluate`` reads its predictions once and keeps only each dataset's scores."""

    def write_predictions(self, path, datasets, bad_line=None):
        rows = [{"id": f"r{i}", "dataset": d, "score_hate": 0.5, "gold": "Hate"}
                for i, d in enumerate(datasets, start=1)]
        if bad_line is not None:
            rows[bad_line - 1]["score_hate"] = "high"
        return write_jsonl(path, rows)

    def test_bad_row_after_an_unknown_dataset_is_named_first(self, tmp_path, caplog):
        path = self.write_predictions(tmp_path / "pred.jsonl",
                                      ["AHSD", "Mystery", "AHSD", "AHSD", "AHSD"], bad_line=4)
        report = tmp_path / "r.json"
        assert main(["evaluate", "--predictions", path, "--report", str(report)]) == 2
        assert not report.exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith(f"{path}:4 (id 'r4'): ")

    def test_first_unknown_dataset_in_input_order_is_named(self, tmp_path, caplog):
        # "Zeta" sorts after "Alpha" but comes first in the file.
        path = self.write_predictions(tmp_path / "pred.jsonl", ["AHSD", "Zeta", "Alpha", "Zeta"])
        assert main(["evaluate", "--predictions", path, "--report", str(tmp_path / "r.json")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["prediction row references unknown dataset 'Zeta'"]

    @needs_vm_hwm
    def test_peak_rss_does_not_grow_with_the_rows(self, tmp_path):
        """A child's peak RSS on 4*10**5 rows against 10**5, over the 16 bundled datasets.

        The scores are kept at 8 bytes a row, so 3*10**5 more rows add about
        2.4 MB. Sorting a dataset's scores also holds a sorted list of them, about
        32 bytes a row: with the rows spread over 16 datasets that is 0.8 MB here,
        but a file with one dataset holds it for every row while it sorts.
        """
        import random

        names = sorted(load_registry())
        rng = random.Random(7)
        probe = ("import sys\n"
                 "from hatepool.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(peak_kib())\n"
                 "sys.exit(code)\n")

        def peak_kib(n):
            path = tmp_path / f"pred{n}.jsonl"
            with open(path, "w", encoding="utf-8") as fp:
                for i in range(n):
                    gold = "Hate" if rng.random() < 0.4 else "Neutral"
                    fp.write(f'{{"id":"r{i}","dataset":"{names[i % len(names)]}",'
                             f'"score_hate":{rng.random()!r},"gold":"{gold}"}}\n')
            proc = run_measured(probe, "evaluate", "--predictions", str(path),
                                "--report", str(tmp_path / f"report{n}.json"))
            assert proc.returncode == 0, proc.stderr
            path.unlink()
            return int(proc.stdout)

        small, large = peak_kib(100_000), peak_kib(400_000)
        assert large - small < 8 * 1024, (small, large)


class TestStatsCmd:
    def test_summary_payload(self, pipeline, tmp_path):
        out = tmp_path / "summary.json"
        code = main(["stats", "--annotations", pipeline["annotations"], "--output", str(out)])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["n_total"] == 40
        assert summary["languages"] == {"deu": 20, "eng": 20}
        assert set(summary["per_model"]) == set(MODEL_IDS)
        assert set(summary["per_strategy"]) == {"vote", "mean"}
        for entry in summary["per_model"].values():
            assert set(entry["mean_p_hate"]) == {"All", "deu", "eng"}
        assert summary["raw_labels"]["Hate"]["count"]["All"] > 0

    def test_lgb_strategy_needs_model(self, pipeline, tmp_path):
        code = main(
            [
                "stats",
                "--annotations", pipeline["annotations"],
                "--output", str(tmp_path / "s.json"),
                "--strategies", "vote,mean,lgb",
            ]
        )
        assert code == 2

    def test_language_named_all_is_refused(self, tmp_path, caplog):
        rows = [{"model_order": list(MODEL_IDS)}]
        for i, lang in enumerate(["All", "All", "eng"]):
            rows.append({
                "id": f"t{i}",
                "lang": lang,
                "models": {m: {"hate": 0.9, "neutral": 0.1} for m in MODEL_IDS},
            })
        annotations = write_jsonl(tmp_path / "ann.jsonl", rows)
        out = tmp_path / "summary.json"
        assert main(["stats", "--annotations", annotations, "--output", str(out)]) == 2
        assert not out.exists()
        assert "language 'All'" in caplog.text

    def test_lgb_strategy_with_model_and_table(self, pipeline, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main(
            [
                "stats",
                "--annotations", pipeline["annotations"],
                "--output", str(out),
                "--strategies", "vote,mean,lgb",
                "--model", pipeline["model"],
                "--table",
            ]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert set(summary["per_strategy"]) == {"vote", "mean", "lgb"}
        table = capsys.readouterr().out
        assert "lgb" in table
        assert "eng" in table


class TestUsageAndVersion:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--strategy", "vote"])
        assert exc.value.code == 1

    def test_bad_threshold_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--predictions", "p", "--report", "r", "--threshold", "median"])
        assert exc.value.code == 1

    def test_unknown_stats_strategy_is_usage_error_before_any_input_is_read(
        self, tmp_path, capsys
    ):
        for raw, message in (("vote,bogus", "unknown ensemble strategy 'bogus'"),
                             ("vote, mean,vote", "ensemble strategy 'vote' given twice")):
            with pytest.raises(SystemExit) as exc:
                main(["stats", "--annotations", str(tmp_path / "absent.jsonl"), "--output",
                      str(tmp_path / "summary.json"), "--strategies", raw])
            assert exc.value.code == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("filter", "--stats"),
                                               ("annotate", "--dead-letter")])
    def test_side_output_naming_the_output_is_usage_error_before_any_input_is_read(
        self, tmp_path, monkeypatch, capsys, command, flag
    ):
        # filter's kept records overwrote its stats; annotate's dead letters were lost.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.jsonl").symlink_to("out.jsonl")
        args = [command, "--input", "absent.jsonl", "--output", "out.jsonl", flag, "link.jsonl"]
        if command == "annotate":
            args += ["--endpoints", "absent.json"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        assert f"{flag} and --output name the same file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl"]

    def test_version_flag(self, capsys):
        # From a checkout this printed "hatepool unknown": the version came from
        # the installed package's metadata.
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"hatepool {hatepool.__version__}\n"

    def test_console_script_is_installed(self):
        exe = shutil.which("hatepool")
        assert exe is not None
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "hatepool" in proc.stdout


def run_ensemble(pipeline, strategy, out):
    args = [
        "ensemble",
        "--annotations", pipeline["annotations"],
        "--strategy", strategy,
        "--output", str(out),
    ]
    if strategy == "lgb":
        args += ["--model", pipeline["model"]]
    return main(args)


@pytest.fixture()
def foreign_annotations(tmp_path):
    """Annotations from four models the pipeline fixture's model never saw."""
    models = ("w", "x", "y", "z")
    rows = [{"model_order": list(models)}]
    for i in range(5):
        p = (i + 1) / 7
        rows.append({
            "id": f"f{i}",
            "lang": "eng",
            "models": {m: {"hate": p, "neutral": 1.0 - p} for m in models},
        })
    return write_jsonl(tmp_path / "foreign.jsonl", rows)


@pytest.mark.parametrize(
    "args",
    [["ensemble", "--strategy", "lgb", "--model", "absent.json", "--labels", "absent.jsonl",
      "--annotations", "absent.jsonl", "--output"],
     ["evaluate", "--predictions", "absent.jsonl", "--baseline", "absent.json", "--report"],
     ["stats", "--strategies", "vote,lgb", "--model", "absent.json",
      "--annotations", "absent.jsonl", "--output"]],
    ids=["ensemble", "evaluate", "stats"],
)
def test_directory_output_is_refused_before_any_input_is_read(tmp_path, args):
    # Each read its data inputs before it opened its output, so the missing
    # input was named and the directory never.
    (tmp_path / "outdir").mkdir()
    proc = run_cli([*args, "outdir"], capture_output=True, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "ERROR hatepool: [Errno 21] Is a directory: 'outdir'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]
    assert list((tmp_path / "outdir").iterdir()) == []


class TestBatchedScoringCmds:
    @pytest.mark.parametrize(
        "args",
        [["ensemble", "--strategy", "vote"], ["ensemble", "--strategy", "mean"],
         ["stats", "--strategies", "vote,mean"]],
        ids=["ensemble-vote", "ensemble-mean", "stats"],
    )
    def test_vote_and_mean_never_read_the_model(self, pipeline, tmp_path, args):
        # Any --model was loaded, so a missing one exited 2 though neither rule uses it.
        without, missing = tmp_path / "without.out", tmp_path / "missing.out"
        assert main([*args, "--annotations", pipeline["annotations"],
                     "--output", str(without)]) == 0
        assert main([*args, "--annotations", pipeline["annotations"], "--output", str(missing),
                     "--model", str(tmp_path / "absent.json")]) == 0
        assert missing.read_bytes() == without.read_bytes()

    @pytest.mark.parametrize("strategy", ["vote", "mean", "lgb"])
    def test_chunk_size_does_not_change_output(self, pipeline, tmp_path, monkeypatch, strategy):
        default = tmp_path / "default.jsonl"
        assert run_ensemble(pipeline, strategy, default) == 0
        monkeypatch.setattr(ensemble, "CHUNK_ROWS", 3)
        small = tmp_path / "small.jsonl"
        assert run_ensemble(pipeline, strategy, small) == 0
        assert small.read_bytes() == default.read_bytes()

    @pytest.mark.parametrize("strategy", ["vote", "mean", "lgb"])
    def test_stats_counts_equal_ensemble_labels(self, pipeline, tmp_path, strategy):
        pred = tmp_path / "pred.jsonl"
        assert run_ensemble(pipeline, strategy, pred) == 0
        summary_path = tmp_path / "summary.json"
        assert main(
            [
                "stats",
                "--annotations", pipeline["annotations"],
                "--output", str(summary_path),
                "--strategies", strategy,
                "--model", pipeline["model"],
            ]
        ) == 0
        summary = json.loads(summary_path.read_text())
        pct = summary["per_strategy"][strategy]["pct_hate"]
        rows = read_jsonl(pred)
        for lang, count in summary["languages"].items():
            hate = sum(1 for r in rows if r["lang"] == lang and r["label"] == "Hate")
            assert pct[lang] == 100.0 * hate / count
        assert pct["All"] == 100.0 * sum(r["label"] == "Hate" for r in rows) / len(rows)

    def test_header_only_annotations_leave_no_output(self, tmp_path):
        annotations = write_jsonl(tmp_path / "empty.jsonl", [{"model_order": list(MODEL_IDS)}])
        out = tmp_path / "pred.jsonl"
        code = main(
            ["ensemble", "--annotations", annotations, "--strategy", "vote", "--output", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [tmp_path / "empty.jsonl"]

    def test_ensemble_refuses_model_of_other_features(
        self, pipeline, foreign_annotations, tmp_path, caplog
    ):
        out = tmp_path / "pred.jsonl"
        code = main(
            [
                "ensemble",
                "--annotations", foreign_annotations,
                "--strategy", "lgb",
                "--model", pipeline["model"],
                "--output", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()
        assert "Gemma2-9B:p_hate" in caplog.text and "w:p_hate" in caplog.text

    def test_stats_refuses_model_of_other_features(
        self, pipeline, foreign_annotations, tmp_path, caplog
    ):
        out = tmp_path / "summary.json"
        code = main(
            [
                "stats",
                "--annotations", foreign_annotations,
                "--output", str(out),
                "--strategies", "vote,lgb",
                "--model", pipeline["model"],
            ]
        )
        assert code == 2
        assert not out.exists()
        assert "Gemma2-9B:p_hate" in caplog.text and "w:p_hate" in caplog.text


class TestGoldenScoringDigests:
    """The scoring commands' output bytes pinned across commits, not just across runs.

    ``tests/data/scoring_annotations.jsonl`` holds 64 rows with integer and
    subnormal probabilities, exact vote and mean ties, null and missing
    ``lang`` and ``raw_label``, and a model without ``raw``; 56 of its ids have
    a gold label. The digests were taken before the annotation reader and the
    vote and mean rules stopped using numpy. Like the model digests in
    ``tests/test_meta.py``, the model and ``lgb`` ones pin this platform's numpy.
    """

    DIGESTS = {
        "model.json": "7b70f30926a8c862415ae81b61a314887e58f0c558c82de11cb0f3b19661ffd3",
        "pred_vote.jsonl": "e283dd4d416c38e7df58517e3a6fbb4922c66f46a0eeeca178112d6234801dbc",
        "pred_mean.jsonl": "f678308f3d65d3c33d90bbab08d44ab3a0f4af9e833031e78b883f745be5538b",
        "pred_lgb.jsonl": "130d8bae8e46b72b923f560fc56b4de64d56d4ac47dded27d3fc2961a9c3e1c2",
        "summary.json": "2d384a2e11d08b3e8c2bbe1c454b2d981dec62efb690b661fbe8aabc2b9f1432",
    }

    def test_outputs_match_the_pinned_digests(self, tmp_path):
        import hashlib

        data = os.path.join(os.path.dirname(__file__), "data")
        annotations = os.path.join(data, "scoring_annotations.jsonl")
        labels = os.path.join(data, "scoring_labels.jsonl")
        config = tmp_path / "meta_config.json"
        config.write_text(json.dumps(SMALL_META_CONFIG))
        model = str(tmp_path / "model.json")
        assert main(["train-meta", "--annotations", annotations, "--labels", labels,
                     "--model-out", model, "--config", str(config), "--seed", "5"]) == 0
        for strategy in ("vote", "mean", "lgb"):
            assert main(["ensemble", "--annotations", annotations, "--strategy", strategy,
                         "--labels", labels, "--model", model,
                         "--output", str(tmp_path / f"pred_{strategy}.jsonl")]) == 0
        assert main(["stats", "--annotations", annotations, "--strategies", "vote,mean,lgb",
                     "--model", model, "--output", str(tmp_path / "summary.json")]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS

    # Four datasets, one of them (GermEval) not in the registry, so the groups
    # file names the universe; "Mixed" overlaps "EN" and "All".
    GROUPS = {
        "All": ["AHSD", "GermEval", "HateXplain", "ViHSD"],
        "EN": ["AHSD", "HateXplain"],
        "Mixed": ["GermEval", "HateXplain", "ViHSD"],
        "DE": ["GermEval"],
    }
    THRESHOLDS = {
        "group": ["--threshold-scope", "group"],
        "dataset": ["--threshold-scope", "dataset"],
        "global": ["--threshold-scope", "global"],
        "fixed": ["--threshold", "fixed:0.5"],
    }
    # Taken before build_report stopped holding prediction rows.
    REPORT_DIGESTS = {
        "report_vote_group.json":
            "ce07d80aae7d715f65c31fd453f2f3d0b55eaedb1e05bfe1ed571eb679adc3f5",
        "report_vote_dataset.json":
            "c85594bb334d1242a060ee4d50b38e267dad0073e919bcd584ed6443cec5b90c",
        "report_vote_global.json":
            "46c24218c2f547f4d5df70abf76ca418d27c1a72462dce257f88f9317283c506",
        "report_vote_fixed.json":
            "9913b7fe62f91056adb53fbb186847d49a638aed55c58c6b0b1d8bdd40e17101",
        "report_mean_group.json":
            "aba6aff0f42946e5e7d20993e458764b09b30fcce3991845bc43894cd93c1d9a",
        "report_mean_dataset.json":
            "f5b84651449c818282a1091834adf56da5befffcfbd8f26f273dd0bc7ee1874b",
        "report_mean_global.json":
            "b6c6bf4de4e2356fa9fe68cf8d18243563ae78efafda2b9eba1d1d440998fedf",
        "report_mean_fixed.json":
            "daf5c344ad44f5d9438bf623c737c0b5b9ea96d2a9dda2a32e6567eff01ddbf2",
    }

    def test_evaluate_reports_match_the_pinned_digests(self, tmp_path):
        import hashlib

        data = os.path.join(os.path.dirname(__file__), "data")
        annotations = os.path.join(data, "scoring_annotations.jsonl")
        labels = os.path.join(data, "scoring_labels.jsonl")
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps(self.GROUPS))
        digests = {}
        for strategy in ("vote", "mean"):
            emitted = tmp_path / f"pred_{strategy}.jsonl"
            assert main(["ensemble", "--annotations", annotations, "--strategy", strategy,
                         "--labels", labels, "--output", str(emitted)]) == 0
            # The 56 rows that have a gold label, as ensemble wrote them.
            predictions = tmp_path / f"gold_{strategy}.jsonl"
            predictions.write_text("".join(
                line for line in emitted.read_text().splitlines(keepends=True) if '"gold":' in line
            ))
            for name, flags in self.THRESHOLDS.items():
                report = tmp_path / f"report_{strategy}_{name}.json"
                assert main(["evaluate", "--predictions", str(predictions), "--report", str(report),
                             "--groups", str(groups), *flags]) == 0
                digests[report.name] = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digests == self.REPORT_DIGESTS
