import io
import logging
import os
import subprocess
import sys
from pathlib import Path

# As ``cli.main`` does, before numpy is first imported: OpenBLAS starts no thread,
# so this process runs one thread when ``filter`` forks its workers in it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from hatepool import ModelProbability, ProbabilityVector, filtering
from hatepool.cli import main

MODEL_IDS = ("Gemma2-9B", "Llama3.1-8B", "Mistral-7B", "Qwen2.5-14B")

SRC = Path(__file__).resolve().parent.parent / "src"

needs_vm_hwm = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                  reason="reads VmHWM in /proc")

_PEAK_KIB = ("def peak_kib():\n"
             "    with open('/proc/self/status') as fp:\n"
             "        return int(next(line.split()[1] for line in fp\n"
             "                        if line.startswith('VmHWM:')))\n")


def run_measured(script, *args):
    """The finished child ``python -c script args``, its output captured as text, run
    with this checkout's ``src`` first on its path and ``peak_kib()`` defined.

    ``peak_kib()`` is the child's peak RSS so far in KiB, its ``VmHWM``. Its
    ``ru_maxrss`` would not do: Linux carries the forking process's high-water mark,
    here the test runner's, into the child across ``exec``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", _PEAK_KIB + script, *args],
                          capture_output=True, text=True, timeout=120, env=env)


def make_vector(p_hates, model_ids=MODEL_IDS):
    entries = tuple(
        ModelProbability(model_id=mid, p_hate=p, p_neutral=1.0 - p)
        for mid, p in zip(model_ids, p_hates)
    )
    return ProbabilityVector(entries)


def random_vectors(n, seed, model_ids=MODEL_IDS):
    rng = np.random.default_rng(seed)
    return [make_vector(rng.random(len(model_ids)), model_ids) for _ in range(n)]


@pytest.fixture
def vector():
    return make_vector((0.9, 0.8, 0.2, 0.4))


@pytest.fixture
def small_ranges(monkeypatch):
    """``use(n)`` cuts ``filter``'s worker input into ranges of about ``n`` bytes."""

    def use(n):
        monkeypatch.setattr(filtering, "RANGE_BYTES", n)

    return use


def as_stdin(raw):
    """A text stream named ``<stdin>`` over ``raw``, an unbuffered binary file, built as
    CPython builds ``sys.stdin`` on POSIX, whose lines end at ``\\n`` alone."""
    raw.name = "<stdin>"
    return io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", newline="\n")


def piped(data):
    """:func:`as_stdin` over a pipe holding ``data``, which must fit in the pipe's
    buffer: it is written before it is read."""
    read_fd, write_fd = os.pipe()
    with open(write_fd, "wb") as fp:
        fp.write(data)
    return as_stdin(open(read_fd, "rb", buffering=0))


def strict_error(data, source):
    """The error for ``data`` from one strict decode of all of it, or None if all of it
    decodes: its line is 1 plus the line ends before the bad byte, ``\\r\\n`` counting
    once."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        reason = f"can't decode byte 0x{data[exc.start]:02x}: {exc.reason}"
        return f"{source}:{line}: not valid UTF-8: {reason}"
    return None


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelname, record.getMessage()))


def run_filter(directory, workers, quotas=(), seed=0, stdin=None):
    """Exit code, kept bytes, stats bytes, and warnings and errors of ``filter`` on
    ``directory``'s ``web.jsonl`` with ``workers`` workers (0: in this process;
    None: as many as ``filtering._filter_workers`` gives), or on ``stdin``, if given:
    the bytes of a pipe, or an unbuffered binary file, which this closes."""
    path, kept, stats = (os.path.join(directory, name)
                         for name in ("web.jsonl", "kept.jsonl", "stats.json"))
    for output in (kept, stats):
        if os.path.exists(output):
            os.unlink(output)
    args = ["filter", "--input", path if stdin is None else "-", "--output", kept,
            "--stats", stats, "--seed", str(seed)]
    for lang, n in quotas:
        args += ["--quota", f"{lang}={n}"]
    handler = _Collect()
    logging.getLogger("hatepool").addHandler(handler)
    saved = filtering._filter_workers, sys.stdin
    if workers is not None:
        filtering._filter_workers = lambda _: workers
    if stdin is not None:
        sys.stdin = piped(stdin) if isinstance(stdin, bytes) else as_stdin(stdin)
    try:
        code = main(args)
    finally:
        if stdin is not None:
            sys.stdin.close()
        filtering._filter_workers, sys.stdin = saved
        logging.getLogger("hatepool").removeHandler(handler)
    outputs = []
    for output in (kept, stats):
        if os.path.exists(output):
            with open(output, "rb") as fp:
                outputs.append(fp.read())
        else:
            outputs.append(None)
    return code, *outputs, handler.messages
