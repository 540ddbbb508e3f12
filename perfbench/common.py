"""Shared helpers of the benchmark: paths, child processes, statistics and
the run record.

The benchmark never imports the program into its own orchestrating process
before it has to: every timed job runs in a fresh child interpreter that
imports ``repro`` from ``src/`` of the checkout, so set-up time is what a
user starting the command pays.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for run artefacts (caches, maps, CSVs, run records).  It
#: is ignored by git, so a benchmark run leaves ``git status`` unchanged.
OUT = ROOT / ".perfbench"

CHILD = HERE / "child.py"
#: Set-up samples per run: the rounds' own plus set-up-only probes.
SETUP_SAMPLES = 11


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed job)."""


def child_env(**extra: str) -> Dict[str, str]:
    """Environment of a child interpreter: the checkout's ``src`` first on
    ``PYTHONPATH`` and instrumentation off unless a traced child turns it
    on itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for key in ("REPRO_OBS", "REPRO_OBS_TRACE"):
        env.pop(key, None)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def require_program() -> None:
    """Fail fast (no result line) when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program found: {SRC / 'repro'} is missing")


def run_child(job: str, config: Dict[str, Any], workdir: Path, *,
              timeout: float = 170.0) -> Dict[str, Any]:
    """Run one job in a fresh interpreter and return its report.

    The spawn instant (``time.monotonic``, one clock for every process on
    the machine) travels in the environment so the child can report its
    readiness relative to its own start.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    report_path = workdir / f"report-{job}-{time.monotonic_ns()}.json"
    config = dict(config, report=str(report_path))
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), job, json.dumps(config)],
        cwd=str(workdir),
        env=child_env(PERFBENCH_SPAWN=repr(spawn)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=timeout,
    )
    exited = time.monotonic()
    if proc.returncode != 0 or not report_path.is_file():
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise BenchError(f"job {job!r} exited {proc.returncode}: {' | '.join(tail)}")
    report = json.loads(report_path.read_text())
    report_path.unlink()
    report["spawn"] = spawn
    report["exited"] = exited
    return report


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return float(ordered[int(rank) - 1])


def tail(values: Sequence[float], q: float = 99.0) -> float:
    """The ``q`` percentile when at least ten samples lie beyond it, else
    the median: a percentile with fewer samples past it is no tail."""
    if len(values) * (100.0 - q) / 100.0 >= 10:
        return percentile(values, q)
    return median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# ---------------------------------------------------------------------- #
# Run record
# ---------------------------------------------------------------------- #
def _git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            timeout=10, text=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_block() -> Dict[str, Any]:
    """Where a result was measured: usable cores, versions, source sha."""
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60,
    ).stdout.strip() or None
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


class Operations:
    """Attempted/failed counts per operation kind."""

    def __init__(self) -> None:
        self.counts: Dict[str, Dict[str, int]] = {}

    def record(self, kind: str, ok: bool, count: int = 1) -> None:
        entry = self.counts.setdefault(kind, {"attempted": 0, "failed": 0})
        entry["attempted"] += count
        if not ok:
            entry["failed"] += count

    @property
    def attempted(self) -> int:
        return sum(entry["attempted"] for entry in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(entry["failed"] for entry in self.counts.values())


class Checks:
    """Named correctness checks, tallied by name; a run is correct when
    every check held.  Each name keeps the detail of its first failure (or
    of its first pass while none failed)."""

    def __init__(self) -> None:
        self.results: Dict[str, Dict[str, Any]] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        entry = self.results.setdefault(name, {"passed": 0, "failed": 0, "detail": detail})
        if ok:
            entry["passed"] += 1
        else:
            if not entry["failed"]:
                entry["detail"] = detail
                print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
            entry["failed"] += 1
        return bool(ok)

    @property
    def correct(self) -> bool:
        return bool(self.results) and all(
            entry["failed"] == 0 for entry in self.results.values()
        )
