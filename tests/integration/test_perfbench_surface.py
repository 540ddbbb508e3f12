"""The names the benchmark harness drives still exist and still agree.

``perfbench/child.py mc-cell`` builds the reference cell's vectorized
engine, runs it through ``ShardedVectorizedExecutor``, walks an event
prefix through ``ParallelMonteCarloExecutor`` and, when traced, installs
``perfbench/layers.py``'s timers, which wrap executor and module
attributes by name.  The same ``layers.install()`` runs in every
``advisor-replay`` round (the ``serve`` child), traced or not.  Running
the child end to end in a subprocess fails here as soon as a name either
of them needs is gone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CHILD = ROOT / "perfbench" / "child.py"

CELL = {
    "name": "mc-cell",
    "protocols": ["PurePeriodicCkpt"],
    "platform": {
        "mtbf": 7200.0,
        "checkpoint": 600.0,
        "recovery": 600.0,
        "downtime": 60.0,
    },
    "workload": {"total_time": 86400.0, "alpha": 0.8},
}


def test_traced_mc_cell_child_runs_the_pinned_surface(tmp_path):
    report = tmp_path / "report.json"
    config = {
        "scenario": CELL,
        "protocol": "PurePeriodicCkpt",
        "runs": 2000,
        "seed": 1,
        "event_prefix": 40,
        "traced": True,
        "report": str(report),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, str(CHILD), "mc-cell", json.dumps(config)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(report.read_text())
    assert result["result"]["trials"] == 2000
    assert result["result"]["event_prefix_identical"] is True
    layers = result["layers"]
    assert layers
    assert layers["engine.trials"] == 2000
    assert layers["executor.campaigns"] >= 1
