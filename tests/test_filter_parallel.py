"""``filter`` on a regular file in byte ranges on worker processes equals ``filter`` in one process.

Each input runs through ``cli.main`` with ``filtering._filter_workers`` replaced: 0
streams it in this process, 1 or 2 cut it into ranges for that many fork
workers. Kept records, the stats file, the warnings in order and the exit-2
message must be the same bytes. The subprocess tests check that no worker
outlives the command, even one ended by SIGKILL, that SIGTERM cleans up as
Ctrl-C does, and that a worker that dies ends the command, the ``tracemalloc``
test that the parent's memory does not grow with the input, and an at-fork
hook that the workers fork while the command runs one thread.
"""

import gc
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hatepool import cli, filtering
from hatepool._jsonl import dumps

from conftest import run_filter
from filter_oracle import reservoir_sample

ROOT = Path(__file__).resolve().parent.parent

MULTI_CPU = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def web_row(i, lang="eng", kept=True, text="t"):
    return {"id": f"r{i}", "url": f"https://ex.org/{'forum' if kept else 'about'}/{i}",
            "lang": lang, "schema_types": ["Comment"], "text": text}


# A web record that would be kept but for its language, which is not a string.
BAD_ROW = dumps({**web_row(0), "id": "bad", "lang": None}).encode()


# A kept web record whose text is a lone surrogate escape, which is not valid JSON.
LONE_SURROGATE_ROW = json.dumps(web_row(0, text="\ud800"))

# Raw lines that are not UTF-8, each fatal: a bad start byte, a character cut
# short by the line end after it, and an encoded surrogate; and a kept record
# behind a BOM, which is not JSON.
BYTE_LINES = [b"\xff", b"\xe4\xb8", b"\xed\xa0\x80", b"\xef\xbb\xbf" + dumps(web_row(0)).encode()]

# A line of the input, before its line end: a web record (kept or not, in one
# of three languages, with text that holds characters a line reader could take
# for line ends), a blank line, a line that is not JSON, a bad row or a line
# that is not UTF-8, which are fatal, or a record behind a BOM.
LINES = st.one_of(
    st.tuples(
        st.sampled_from("abc"),
        st.booleans(),
        st.text(st.sampled_from("x\u00e9 \u2028\u0085\r\n\"\\"), max_size=6),
    ).map(lambda row: ("row",) + row),
    st.sampled_from(["", "  ", "\u2028", "\u0085", "{oops", "[1", "nul", LONE_SURROGATE_ROW])
    .map(lambda s: ("raw", s)),
    st.sampled_from([BAD_ROW.decode(), "[1, 2]", '{"id": "x"}']).map(lambda s: ("raw", s)),
    st.sampled_from(BYTE_LINES).map(lambda b: ("raw", b)),
)


def render(lines, ends, final_end):
    """The input bytes: each line with its line end, the last one with ``final_end``."""
    parts = []
    for index, (line, end) in enumerate(zip(lines, ends)):
        if line[0] == "row":
            _, lang, kept, text = line
            line = ("raw", dumps(web_row(index, lang, kept, text)))
        text = line[1] if isinstance(line[1], bytes) else line[1].encode()
        parts.append(text + (end if index < len(lines) - 1 else final_end).encode())
    return b"".join(parts)


def write_input(directory, data):
    with open(os.path.join(directory, "web.jsonl"), "wb") as fp:
        fp.write(data)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    lines=st.lists(LINES, min_size=1, max_size=30),
    ends=st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=30, max_size=30),
    final_end=st.sampled_from(["", "\n", "\r\n", "\r"]),
    range_bytes=st.integers(1, 400),
    quotas=st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 3)),
                    max_size=2, unique_by=lambda q: q[0]),
    seed=st.integers(0, 2**32),
)
def test_ranges_on_workers_equal_one_process(lines, ends, final_end, range_bytes, quotas, seed,
                                             small_ranges):
    small_ranges(range_bytes)
    with tempfile.TemporaryDirectory() as directory:
        write_input(directory, render(lines, ends, final_end))
        expected = run_filter(directory, 0, quotas, seed)
        for workers in (1, 2):
            assert run_filter(directory, workers, quotas, seed) == expected, workers


def test_cut_lands_on_a_malformed_line_and_a_bad_row(small_ranges, tmp_path):
    # Line 3 is skipped and line 6 is fatal; with 60-byte ranges both sit on cuts.
    rows = [dumps(web_row(i)) for i in range(8)]
    rows[2] = "{oops"
    rows[5] = '{"id": "bad", "url": "https://ex.org/forum/5", "lang": ["eng"]}'
    write_input(tmp_path, ("\r\n".join(rows) + "\n").encode())
    small_ranges(60)
    expected = run_filter(tmp_path, 0)
    assert expected[0] == 2 and expected[3] == [
        ("WARNING", f"{tmp_path}/web.jsonl:3: invalid JSON: Expecting property name enclosed "
                    "in double quotes: line 1 column 2 (char 1); skipped"),
        ("ERROR", f"{tmp_path}/web.jsonl:6 (id 'bad'): lang must be a string, got ['eng']"),
    ]
    for workers in (1, 2):
        assert run_filter(tmp_path, workers) == expected


def test_undecodable_line_is_named_with_its_file_line(small_ranges, tmp_path):
    rows = [dumps(web_row(i)).encode() for i in range(40)]
    rows[25] = rows[25].replace(b'"t"', b'"\xff"')
    write_input(tmp_path, b"\n".join(rows) + b"\n")
    small_ranges(300)
    expected = run_filter(tmp_path, 0)
    assert expected[0] == 2
    assert expected[3] == [("ERROR", f"{tmp_path}/web.jsonl:26: not valid UTF-8: "
                                     "can't decode byte 0xff: invalid start byte")]
    for workers in (1, 2):
        assert run_filter(tmp_path, workers) == expected


@pytest.mark.parametrize("bad", BYTE_LINES, ids=["ff", "cut-short", "surrogate", "bom"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", ""], ids=["lf", "crlf", "cr", "eof"])
def test_bad_bytes_at_a_range_start(bad, end, small_ranges, tmp_path):
    # With 60-byte ranges every line is a range of its own: the bad line starts one,
    # and its line end, or the end of the file, ends it.
    rows = [dumps(web_row(i)).encode() for i in range(6)]
    data = b"\n".join(rows[:3] + [bad]) + (end.encode() + b"\n".join(rows[3:]) + b"\n" if end else b"")
    write_input(tmp_path, data)
    small_ranges(60)
    expected = run_filter(tmp_path, 0)
    assert expected[0] == (0 if bad.startswith(b"\xef\xbb\xbf") else 2)
    assert expected[3][0][1].startswith(f"{tmp_path}/web.jsonl:4: ")
    for workers in (1, 2):
        assert run_filter(tmp_path, workers) == expected


def web_lines(n_bytes):
    """Web records of at least ``n_bytes`` in all, as JSON lines, three of them malformed."""
    lines, size = [], 0
    while size < n_bytes:
        i = len(lines)
        lines.append(dumps(web_row(i, "abcd"[i % 4], i % 3 > 0, f"text {i} é ")) + "\n")
        size += len(lines[-1].encode())
    for i in (10, len(lines) // 2, len(lines) - 1):
        lines[i] = "{oops\n"
    return "".join(lines).encode()


def test_every_line_end_cuts_the_input(small_ranges, tmp_path):
    # Cuts fell only after "\n": a file of CR-ended lines was one range, however
    # large, and one worker held all of it.
    small_ranges(4096)
    lf = web_lines(int(15.5 * 4096))
    cuts = {}
    for end in (b"\n", b"\r", b"\r\n"):
        data = lf.replace(b"\n", end)
        write_input(tmp_path, data)
        with open(tmp_path / "web.jsonl", "rb") as fp:
            cuts[end] = filtering._cuts(fp.fileno()).tolist()
        assert all(data[cut - len(end):cut] == end for cut in cuts[end][1:]), end
    assert cuts[b"\r"] == cuts[b"\n"]  # the same bytes, but for the line ends
    assert len(cuts[b"\r\n"]) == len(cuts[b"\n"]) == 17


def test_input_cat_twice_at_default_range_size(tmp_path):
    write_input(tmp_path, web_lines(filtering.RANGE_BYTES * 3 // 4) * 2)
    assert (tmp_path / "web.jsonl").stat().st_size > filtering.RANGE_BYTES
    quotas = (("a", 100), ("b", 0))
    kept = {}
    for run_quotas in ((), quotas):
        expected = run_filter(tmp_path, 0, run_quotas, 7)
        assert expected[0] == 0 and len(expected[3]) == 6
        on_workers = run_filter(tmp_path, 2, run_quotas, 7)
        assert on_workers == expected
        kept[run_quotas] = on_workers[1]
    # The workers' sample is the reference replay of Algorithm R over their unquota'd output.
    lines = [SimpleNamespace(lang=json.loads(line)["lang"], line=line)
             for line in kept[()].splitlines(keepends=True)]
    sample = reservoir_sample(lines, dict(quotas), 7)
    assert kept[quotas] == b"".join(record.line for record in sample)


def test_every_fork_finds_one_thread(small_ranges, tmp_path):
    # A child of fork runs only the forking thread: a lock that another thread held
    # at the fork stays held in the child for good.
    forks = []
    recording = threading.Event()
    recording.set()

    def before_fork():
        if recording.is_set():
            forks.append(threading.active_count())

    os.register_at_fork(before=before_fork)
    small_ranges(4096)
    write_input(tmp_path, web_lines(8 * 4096))
    try:
        code, *_ = run_filter(tmp_path, 2)
    finally:
        recording.clear()  # an at-fork hook cannot be removed
    assert code == 0 and forks == [1, 1]


def test_no_more_workers_than_ranges(small_ranges, monkeypatch, tmp_path):
    # Eight CPUs forked eight workers for two ranges, six of them idle.
    forks = []
    recording = threading.Event()
    recording.set()

    def before_fork():
        if recording.is_set():
            forks.append(threading.active_count())

    os.register_at_fork(before=before_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    small_ranges(4096)
    write_input(tmp_path, web_lines(4096 + 2048))
    expected = run_filter(tmp_path, 0)
    try:
        on_workers = run_filter(tmp_path, None)
    finally:
        recording.clear()  # an at-fork hook cannot be removed
    assert len(forks) == 2
    assert on_workers == expected and expected[0] == 0


def test_a_file_read_from_through_its_buffer_streams(small_ranges, monkeypatch, tmp_path):
    # The cuts start at the descriptor's offset, which the buffer's read-ahead has
    # moved past the file's: on 2 workers, the bytes read ahead were never filtered.
    small_ranges(4096)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    write_input(tmp_path, web_lines(8 * 4096))

    def run():
        with open(tmp_path / "web.jsonl", "rb") as fp:
            fp.readline()
            errors = []
            chunks, stats = filtering.filter_file(fp, filtering.FilterConfig(), errors.append)
            kept = [chunk for chunk, _ in chunks]
            return kept, stats.to_dict(), [str(error) for error in errors]

    on_workers = run()
    monkeypatch.setattr(filtering, "_filter_workers", lambda _: 0)
    expected = run()
    assert b"".join(on_workers[0]) == b"".join(expected[0])
    assert on_workers[1:] == expected[1:]
    assert expected[1]["records_seen"] > 0 and len(expected[2]) == 3


def test_workers_leave_stdin_at_its_end(small_ranges, tmp_path):
    # The workers ``pread``, which moves no offset. A shell that shares the
    # descriptor must find nothing left to read, as after the one-process path.
    small_ranges(4096)
    write_input(tmp_path, web_lines(8 * 4096))
    expected = run_filter(tmp_path, 0)
    stdin = open(tmp_path / "web.jsonl", "rb", buffering=0)
    shared = os.dup(stdin.fileno())
    try:
        assert run_filter(tmp_path, 2, stdin=stdin)[:3] == expected[:3]
        assert os.read(shared, 1) == b""
    finally:
        os.close(shared)


def test_parent_memory_does_not_grow_with_the_input(small_ranges, monkeypatch, tmp_path):
    small_ranges(4096)
    monkeypatch.setattr(filtering, "_filter_workers", lambda _: 2)
    args = ["filter", "--input", str(tmp_path / "web.jsonl"), "--output",
            str(tmp_path / "kept.jsonl"), "--stats", str(tmp_path / "stats.json"),
            "--quota", "b=20"]

    def peak_bytes(n_bytes):
        write_input(tmp_path, web_lines(n_bytes))
        gc.collect()  # the peak of this run, not of garbage left by the one before
        tracemalloc.reset_peak()
        assert cli.main(args) == 0
        # The command's peak: reading the kept records back would add their size.
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        peak_bytes(8 * 4096)  # warm-up: imports and first-use caches
        small, large = peak_bytes(8 * 4096), peak_bytes(32 * 4096)
    finally:
        tracemalloc.stop()
    # 24 more ranges, three quarters of their records passed through, may not add to the peak.
    assert large - small < 32 * 1024, (small, large)


def test_worker_memory_does_not_grow_with_the_ranges(small_ranges, tmp_path):
    # A range held in a reference cycle outlives its call until a full collection:
    # one did, and a worker's peak grew by a range with each range until then.
    range_bytes = 64 * 1024
    small_ranges(range_bytes)
    config = filtering.FilterConfig()

    def peak_bytes(n_ranges):
        write_input(tmp_path, web_lines(n_ranges * range_bytes))
        path = str(tmp_path / "web.jsonl")
        gc.collect()  # the peak of this run, not of garbage left by the one before
        tracemalloc.reset_peak()
        with open(path, "rb") as fp, open(os.devnull, "wb") as out:
            cuts = filtering._cuts(fp.fileno())
            for start, end in zip(cuts, cuts[1:]):  # a worker's loop
                pickle.dump(filtering._range_result(fp.fileno(), path, start, end, config), out)
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        peak_bytes(8)  # warm-up: imports and first-use caches
        small, large = peak_bytes(8), peak_bytes(32)
    finally:
        tracemalloc.stop()
    assert large - small < range_bytes, (small, large)


@pytest.mark.parametrize("output", ["file", "stdout"])
def test_workers_make_no_file_but_the_outputs(output, small_ranges, monkeypatch, tmp_path):
    # The workers once handed their results back in part files, in a directory next
    # to the output, or in the temp directory when the output is stdout. While the
    # workers run, the output's temp file must be the only file either place holds.
    out, tmp = tmp_path / "out", tmp_path / "tmp"
    out.mkdir()
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(filtering, "_filter_workers", lambda _: 2)
    seen = []
    real_write_kept = filtering.write_kept

    def write_kept(chunks, *args):
        def watched():
            for chunk in chunks:
                seen.append((sorted(p.name for p in out.iterdir()), list(tmp.iterdir())))
                yield chunk

        return real_write_kept(watched(), *args)

    monkeypatch.setattr(filtering, "write_kept", write_kept)
    small_ranges(4096)
    write_input(tmp_path, web_lines(8 * 4096))
    kept = "-" if output == "stdout" else str(out / "kept.jsonl")
    assert cli.main(["filter", "--input", str(tmp_path / "web.jsonl"), "--output", kept]) == 0
    assert len(seen) >= 8  # one look per range
    for in_out, in_tmp in seen:
        assert in_tmp == []
        assert len(in_out) == (output == "file")
        assert all(re.fullmatch(r"\.tmp-[0-9a-f]{16}\.part", name) for name in in_out)
    assert [p.name for p in out.iterdir()] == ([] if output == "stdout" else ["kept.jsonl"])
    assert list(tmp.iterdir()) == []


# --- no worker outlives the command ------------------------------------------


needs_cpus = pytest.mark.skipif(not MULTI_CPU, reason="filter runs on workers only with 2+ CPUs")


@pytest.fixture(scope="module")
def web_file(tmp_path_factory):
    """An input of four default ranges, and next to it, ``bad.jsonl``: the same with
    a bad row at the start of its third range."""
    path = tmp_path_factory.mktemp("hygiene") / "web.jsonl"
    data = web_lines(4 * filtering.RANGE_BYTES)
    path.write_bytes(data)
    cut = data.index(b"\n", 2 * filtering.RANGE_BYTES) + 1
    path.with_name("bad.jsonl").write_bytes(
        data[:cut] + BAD_ROW + b"\n" + data[cut:]
    )
    return path


@pytest.fixture(scope="module")
def loud_file(tmp_path_factory):
    """An input that ``filter`` cannot finish while its stderr is not read: it starts
    with 4,000 malformed lines, whose warnings overfill a pipe. It holds at least two
    ranges more than there are CPUs, so ranges are still handed out after the first
    ``workers + 1``."""
    path = tmp_path_factory.mktemp("loud") / "web.jsonl"
    cpus = len(os.sched_getaffinity(0))
    path.write_bytes(b"{oops\n" * 4000 + web_lines((cpus + 2) * filtering.RANGE_BYTES))
    return path


def start_filter(path, out):
    """``filter`` on ``path`` into the new directory ``out``, in a session of its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                              if env.get("PYTHONPATH") else "")
    out.mkdir()
    args = [sys.executable, "-m", "hatepool.cli", "filter", "--input", str(path),
            "--output", str(out / "kept.jsonl"), "--stats", str(out / "stats.json"),
            "--quota", "a=50"]
    return subprocess.Popen(args, env=env, start_new_session=True, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def assert_session_is_empty(proc):
    """Once the command has exited, no process of its session is left."""
    proc.wait(timeout=120)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@needs_cpus
def test_no_worker_left_after_success(web_file, tmp_path):
    proc = start_filter(web_file, tmp_path / "out")
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert_session_is_empty(proc)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["kept.jsonl", "stats.json"]


@needs_cpus
def test_no_worker_left_after_a_bad_row(web_file, tmp_path):
    proc = start_filter(web_file.with_name("bad.jsonl"), tmp_path / "out")
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert "bad.jsonl:" in err and "(id 'bad'): lang must be a string, got None" in err
    assert_session_is_empty(proc)
    assert list((tmp_path / "out").iterdir()) == []


def children(pid):
    """The child pids of ``pid`` as Linux lists them, or None where it does not."""
    try:
        return Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        return None


def wait_for(condition):
    deadline = time.monotonic() + 60
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


def first_worker(proc):
    """The pid of the first worker of the ``filter`` run ``proc``, once there is one."""
    wait_for(lambda: children(proc.pid) != [] or proc.poll() is not None)
    pids = children(proc.pid)
    if pids is None:
        end_session(proc)
        pytest.skip("this system does not list child processes")
    assert proc.poll() is None, "filter ended before its workers were seen"
    return int(pids[0])


def cpu_ticks(pid):
    """The CPU time that ``pid`` has used, in clock ticks."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime and stime


def end_session(proc):
    """Kill whatever is left of the session of ``proc``, so that a failed test leaves nothing."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


@needs_cpus
def test_no_worker_left_after_sigint(loud_file, tmp_path):
    # The run blocks on its stderr until it is read, so it cannot end before the signal.
    proc = start_filter(loud_file, tmp_path / "out")
    try:
        first_worker(proc)
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=120)
        assert proc.returncode != 0
        assert_session_is_empty(proc)
    finally:
        end_session(proc)
    assert list((tmp_path / "out").iterdir()) == []


@needs_cpus
@pytest.mark.parametrize("moment", ["worker-busy", "command-blocked"])
def test_dead_worker_ends_the_command(moment, loud_file, tmp_path):
    # multiprocessing.Pool replaced a killed worker but never finished the range it
    # held, so the command waited for that result forever. A worker killed while it
    # filters fails the result being awaited; one killed while the command is blocked
    # on its stderr breaks the pool before the command's next submit, which raises.
    proc = start_filter(loud_file, tmp_path / "out")
    try:
        worker = first_worker(proc)
        if moment == "worker-busy":
            wait_for(lambda: cpu_ticks(worker) >= 2)
        else:
            wait_for(lambda: "write" in Path(f"/proc/{proc.pid}/wchan").read_text())
        os.kill(worker, signal.SIGKILL)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2, err[-2000:]
        assert_session_is_empty(proc)
    finally:
        end_session(proc)
    errors = [line for line in err.splitlines() if not line.startswith("WARNING ")]
    assert len(errors) == 1 and re.fullmatch(
        rf"ERROR hatepool: {re.escape(str(loud_file))}: a filter worker died before the "
        r"result for bytes \d+-\d+ came back", errors[0]), errors
    assert list((tmp_path / "out").iterdir()) == []


def state(pid):
    """The one-letter state of ``pid``: ``R`` running, ``S`` sleeping, and so on."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]


def idle(pid):
    """True once ``pid`` sleeps and has used no CPU for 0.2 s."""
    ticks = cpu_ticks(pid)
    time.sleep(0.2)
    return state(pid) == "S" and cpu_ticks(pid) == ticks


@needs_cpus
def test_worker_killed_while_the_command_is_stopped(web_file, tmp_path):
    # With the command stopped, a worker that sent a range's kept records, about
    # 1.7 MB here, blocked on the full result pipe in the middle of its message.
    # Killed there, it left the pool's reader waiting for the rest of the message
    # for good: the command and the other worker still held the pipe open, so the
    # reader never saw the end of it, nor the dead worker. Here every worker is
    # killed once none is running, and the command must still end.
    proc = start_filter(web_file, tmp_path / "out")
    try:
        worker = first_worker(proc)
        wait_for(lambda: cpu_ticks(worker) >= 2)
        os.kill(proc.pid, signal.SIGSTOP)
        workers = children(proc.pid)
        wait_for(lambda: all(idle(pid) for pid in workers))
        for pid in workers:
            os.kill(int(pid), signal.SIGKILL)
        os.kill(proc.pid, signal.SIGCONT)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 2, err[-2000:]
        assert_session_is_empty(proc)
    finally:
        end_session(proc)
    errors = [line for line in err.splitlines() if not line.startswith("WARNING ")]
    assert len(errors) == 1 and re.fullmatch(
        rf"ERROR hatepool: {re.escape(str(web_file))}: a filter worker died before the "
        r"result for bytes \d+-\d+ came back", errors[0]), errors
    assert list((tmp_path / "out").iterdir()) == []


# --- a signal to the command ---------------------------------------------------


def all_workers(proc):
    """The pids of the workers of the ``filter`` run ``proc`` on ``loud_file``, once all
    are forked: one per CPU, as the file has more ranges than there are CPUs."""
    first_worker(proc)
    cpus = len(os.sched_getaffinity(0))
    wait_for(lambda: len(children(proc.pid) or ()) >= cpus or proc.poll() is not None)
    return [int(pid) for pid in children(proc.pid) or ()]


def exited(pid):
    """True once ``pid`` has exited: it is gone, or a zombie not reaped yet."""
    try:
        return state(pid) == "Z"
    except OSError:
        return True


def assert_exited_within(pids, seconds):
    deadline = time.monotonic() + seconds
    while not all(exited(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in pids if not exited(pid)] == []


@needs_cpus
def test_no_worker_left_after_sigkill(loud_file, tmp_path):
    # A worker of a process pool waited on the pool's call queue, whose write end
    # every worker held too, so it never saw the command go, and slept on for good.
    proc = start_filter(loud_file, tmp_path / "out")
    try:
        workers = all_workers(proc)
        wait_for(lambda: cpu_ticks(workers[0]) >= 2)
        proc.kill()
        proc.wait(timeout=60)  # not its pipes, which a worker left running would hold
        assert_exited_within(workers, 5)
    finally:
        end_session(proc)
    assert [p.name for p in (tmp_path / "out").iterdir() if p.name.startswith(".filter-")] == []


@needs_cpus
def test_sigterm_ends_the_command_as_ctrl_c_does(loud_file, tmp_path):
    # The command died by the signal, with no cleanup: its workers slept on, and its
    # temp files stayed next to the output. It must still end by the signal.
    proc = start_filter(loud_file, tmp_path / "out")
    try:
        workers = all_workers(proc)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGTERM
        assert_exited_within(workers, 5)
    finally:
        end_session(proc)
    assert list((tmp_path / "out").iterdir()) == []
