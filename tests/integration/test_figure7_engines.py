"""Figure 7 validation runs the across-trials engine on a process pool; the
per-trial event walk stays its reference.

``figure7 --validate`` defaults to the ``auto`` backend and ``--workers
auto``.  Every simulated waste on the reduced grid must equal the event
walk's with ``==``, and the CLI's CSV must not depend on the worker count.
"""

from __future__ import annotations

import multiprocessing

import repro.obs as obs
from repro.cli import main
from repro.experiments import paper_figure7_config, run_figure7
from repro.experiments.figure7 import PROTOCOLS
from repro.scenario.runner import run_scenario

RUNS = 3


def test_figure7_validation_equals_the_event_walk(metrics_on):
    config = paper_figure7_config().reduced()
    spec = config.to_scenario(validate=True, simulation_runs=RUNS)
    assert spec.simulation.backend == "auto"

    result = run_figure7(config, validate=True, simulation_runs=RUNS)
    # Every campaign of the grid ran on the across-trials engine.
    trials = obs.catalog.family("repro_engine_trials_total").values()
    assert sum(trials.values()) == len(result.rows) * len(PROTOCOLS) * RUNS

    event = run_scenario(spec, backend="event")
    assert len(result.rows) == len(event.points) == 20
    for row, point in zip(result.rows, event.points):
        assert (row.mtbf, row.alpha) == (point.mtbf, point.alpha)
        assert row.model_waste == point.model_waste
        for protocol in PROTOCOLS:
            assert row.simulated_waste[protocol] == point.simulated_waste[protocol]


def test_figure7_csv_does_not_depend_on_workers(tmp_path, capsys):
    paths = {}
    for name, extra in (("default", []), ("serial", ["--workers", "1"])):
        paths[name] = tmp_path / f"{name}.csv"
        argv = ["figure7", "--validate", "--reduced", "--runs", str(RUNS)]
        assert main(argv + ["--csv", str(paths[name])] + extra) == 0
    capsys.readouterr()
    assert paths["default"].read_bytes() == paths["serial"].read_bytes()
    assert multiprocessing.active_children() == []
