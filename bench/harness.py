"""Child-process accounting for the hatepool CLI steps.

Each step is one ``python -m hatepool.cli`` child. Wall time comes from
the harness clock around spawn and reap; CPU time and peak RSS come
from ``os.wait4`` on that child alone, never from machine-wide counters.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class StepResult:
    name: str
    code: int
    expected: int
    wall_s: float
    cpu_s: float
    rss_mb: float

    @property
    def ok(self) -> bool:
        return self.code == self.expected


class CliRunner:
    """Spawns CLI steps against the checkout's ``src`` and records their cost."""

    def __init__(self, root: Path, log_dir: Path) -> None:
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.root = root
        self.log_dir = log_dir
        self.steps: list[StepResult] = []
        self.startup: list[float] = []

    def run(self, name: str, args: list[str], expected: int = 0) -> StepResult:
        argv = [sys.executable, "-m", "hatepool.cli", *args]
        log = self.log_dir / f"{len(self.steps):03d}-{name}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        result = StepResult(name, code, expected, wall, usage.ru_utime + usage.ru_stime,
                            usage.ru_maxrss / 1024.0)
        self.steps.append(result)
        if not result.ok:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"step {name} exited {code}, expected {expected}:\n{tail}", file=sys.stderr)
        return result

    def startup_s(self, spawns: int) -> list[float]:
        """Wall times of ``--version`` spawns: interpreter start plus package import."""
        return [self.run("version", ["--version"]).wall_s for _ in range(spawns)]


def digest_files(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }
