"""Each CLI step imports only what it runs.

Every command runs for real in a fresh interpreter, through a small script that
calls ``cli.main`` and then reports which watched modules were loaded.
The mock annotator runs in this process, so the ``annotate`` child never
loads the server side.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hatepool
from hatepool import (
    LabeledExample,
    MockAnnotatorServer,
    annotate_batch,
    mean_label,
    write_annotations,
)
from hatepool._jsonl import dumps
from hatepool.cli import main

from conftest import MODEL_IDS

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = (
    "numpy",
    "requests",
    "http.server",
    "http.client",
    "statistics",
    "concurrent.futures",
    "multiprocessing",
    "hatepool.gateway",
    "hatepool.gbdt",
    "hatepool.meta",
    "importlib.metadata",
)

# Watched module -> the commands allowed to load it. filter --quota loads numpy
# for its reservoir RNG, and filter without it does not; the commands that walk
# trees (train-meta, ensemble with lgb, stats with lgb) need it and the tree
# code, and vote and mean need neither, even given a --model, which only lgb
# reads. The version is a constant of the package, so --version looks up no
# installed metadata. statistics (with fractions) costs about 5 ms to import;
# exact means come from metrics' integer sums instead.
# Only annotate runs a thread pool and sends requests. No command runs a
# process pool: filter forks its workers itself.
ALLOWED = {
    "numpy": {"filter", "train-meta", "ensemble", "stats"},
    "requests": set(),
    "http.server": set(),
    "http.client": {"annotate"},
    "statistics": set(),
    "concurrent.futures": {"annotate"},
    "multiprocessing": set(),
    "hatepool.gateway": {"annotate"},
    "hatepool.gbdt": {"train-meta", "ensemble", "stats"},
    "hatepool.meta": {"train-meta", "ensemble", "stats"},
    "importlib.metadata": set(),
}

PROBE = f"""
import json, sys
from hatepool import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({{"code": code, "loaded": [m for m in {WATCHED!r} if m in sys.modules]}}))
"""


def run_python(args, cwd, **env_overrides):
    """Run a fresh interpreter on ``src``; an override of None unsets that variable."""
    env = dict(os.environ)
    for name, value in env_overrides.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def write_jsonl(path, rows):
    path.write_text("".join(dumps(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def server():
    with MockAnnotatorServer() as srv:
        yield srv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, server):
    root = tmp_path_factory.mktemp("imports")
    texts = [(f"x{i}", f"comment number {i}") for i in range(12)]
    endpoints = [
        {"model_id": m, "base_url": server.base_url, "retry_limit": 0} for m in MODEL_IDS
    ]
    (root / "endpoints.json").write_text(json.dumps({"endpoints": endpoints}))
    write_jsonl(root / "texts.jsonl", [{"id": i, "text": t, "lang": "eng"} for i, t in texts])
    results, _ = annotate_batch(texts, [hatepool.AnnotatorEndpoint(**e) for e in endpoints])
    golds = {r.id: mean_label(r.vector) for r in results}
    with open(root / "ann.jsonl", "w", encoding="utf-8") as fp:
        write_annotations(fp, results, lang_by_id={i: "eng" for i, _ in texts})
    write_jsonl(
        root / "labels.jsonl",
        [LabeledExample(id=i, dataset="AHSD", text=t, gold=golds[i]).to_dict() for i, t in texts],
    )
    (root / "meta.json").write_text(json.dumps({"num_rounds": 3, "num_leaves": 2, "min_data_in_leaf": 1}))
    r = str(root)
    assert main(["train-meta", "--annotations", f"{r}/ann.jsonl", "--labels", f"{r}/labels.jsonl",
                 "--model-out", f"{r}/model.json", "--config", f"{r}/meta.json"]) == 0
    assert main(["ensemble", "--annotations", f"{r}/ann.jsonl", "--strategy", "mean",
                 "--labels", f"{r}/labels.jsonl", "--output", f"{r}/pred.jsonl"]) == 0
    write_jsonl(
        root / "web.jsonl",
        [
            {"id": "a", "url": "https://ex.org/forum/1", "lang": "eng", "schema_types": ["Comment"],
             "text": "a"},
            {"id": "b", "url": "https://ex.de/thread/2", "lang": "deu", "schema_types": ["Article"],
             "text": "b"},
        ],
    )
    (root / "ahsd.csv").write_text("tweet,class\nyou are scum,hate\nnice day,neither\n")
    return root


def command_args(command, r):
    return {
        "version": ["--version"],
        "filter": ["filter", "--input", f"{r}/web.jsonl", "--output", f"{r}/out-kept.jsonl",
                   "--quota", "eng=1", "--stats", f"{r}/out-filter.json"],
        "filter-no-quota": ["filter", "--input", f"{r}/web.jsonl", "--output",
                            f"{r}/out-kept-all.jsonl"],
        "ingest": ["ingest", "--dataset", "AHSD", "--input", f"{r}/ahsd.csv",
                   "--output", f"{r}/out-labeled.jsonl"],
        "annotate": ["annotate", "--input", f"{r}/texts.jsonl", "--output", f"{r}/out-ann.jsonl",
                     "--endpoints", f"{r}/endpoints.json"],
        "train-meta": ["train-meta", "--annotations", f"{r}/ann.jsonl", "--labels",
                       f"{r}/labels.jsonl", "--model-out", f"{r}/out-model.json",
                       "--config", f"{r}/meta.json"],
        "ensemble": ["ensemble", "--annotations", f"{r}/ann.jsonl", "--strategy", "lgb",
                     "--model", f"{r}/model.json", "--output", f"{r}/out-pred.jsonl"],
        "ensemble-vote": ["ensemble", "--annotations", f"{r}/ann.jsonl", "--strategy", "vote",
                          "--labels", f"{r}/labels.jsonl", "--output", f"{r}/out-vote.jsonl"],
        "ensemble-mean": ["ensemble", "--annotations", f"{r}/ann.jsonl", "--strategy", "mean",
                          "--labels", f"{r}/labels.jsonl", "--output", f"{r}/out-mean.jsonl"],
        "ensemble-vote-model": ["ensemble", "--annotations", f"{r}/ann.jsonl", "--strategy",
                                "vote", "--model", f"{r}/model.json", "--output",
                                f"{r}/out-vote-model.jsonl"],
        "evaluate": ["evaluate", "--predictions", f"{r}/pred.jsonl", "--report",
                     f"{r}/out-report.json"],
        "stats": ["stats", "--annotations", f"{r}/ann.jsonl", "--strategies", "vote,mean,lgb",
                  "--model", f"{r}/model.json", "--output", f"{r}/out-summary.json"],
        "stats-vote-mean": ["stats", "--annotations", f"{r}/ann.jsonl", "--strategies",
                            "vote,mean", "--output", f"{r}/out-summary-vm.json"],
        "stats-vote-mean-model": ["stats", "--annotations", f"{r}/ann.jsonl", "--strategies",
                                  "vote,mean", "--model", f"{r}/model.json", "--output",
                                  f"{r}/out-summary-vm-model.json"],
    }[command]


@pytest.mark.parametrize(
    "command",
    ["version", "filter", "filter-no-quota", "ingest", "annotate", "train-meta", "ensemble",
     "ensemble-vote", "ensemble-mean", "ensemble-vote-model", "evaluate", "stats",
     "stats-vote-mean", "stats-vote-mean-model"],
)
def test_command_import_budget(command, inputs):
    report = json.loads(run_python(["-c", PROBE, *command_args(command, inputs)], inputs))
    assert report["code"] == 0
    allowed = {module for module, commands in ALLOWED.items() if command in commands}
    assert set(report["loaded"]) <= allowed


TASK_PROBE = """
import json, os, sys
from hatepool import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "tasks": len(os.listdir("/proc/self/task")),
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc/self/task")
@pytest.mark.parametrize(
    "command, preset",
    [("train-meta", None), ("stats", None), ("train-meta", "2")],
)
def test_numpy_commands_run_one_thread(command, preset, inputs):
    # No step calls BLAS, so cli.main has OpenBLAS start no worker thread;
    # filter relies on this when it forks. A value the caller set is kept.
    report = json.loads(run_python(["-c", TASK_PROBE, *command_args(command, inputs)], inputs,
                                   OPENBLAS_NUM_THREADS=preset))
    assert report["code"] == 0 and report["numpy"]
    if preset is None:
        assert report == {"code": 0, "numpy": True, "tasks": 1, "openblas": "1"}
    else:
        assert report["openblas"] == preset


def test_import_loads_no_submodule(tmp_path):
    line = run_python(
        ["-c", "import sys, hatepool; print(sorted(m for m in sys.modules if m.startswith('hatepool.')))"],
        tmp_path,
    )
    assert line == "[]"


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from hatepool import *", namespace)
    assert set(hatepool.__all__) <= set(namespace)
    assert set(hatepool.__all__) <= set(dir(hatepool))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'requests'"):
        hatepool.requests
