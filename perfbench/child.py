"""One timed job in a fresh interpreter: ``child.py <job> <config-json>``.

Jobs:

* ``mc-cell`` -- build the reference cell's vectorized engine through the
  public campaign API, then run its campaign serially;
* ``cli`` -- run one ``repro`` CLI command in-process (``config["argv"]``);
* ``serve`` -- run ``repro serve`` with the layer timers installed, and on
  SIGTERM write the server-side figures to ``config["stats"]`` and exit.

Every job writes a JSON report to ``config["report"]`` with monotonic
instants (imports done, ready, job done) and the peak RSS of this process
or of the largest of its finished children (process-pool workers).
With ``config["setup_only"]`` a job stops once ready (a set-up probe).
With ``config["traced"]`` the layer timers of :mod:`layers` are installed
after the imports, and the report carries their snapshot.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of the largest pool worker it waited for."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def mc_cell(config: dict, report: dict) -> None:
    import numpy as np

    from repro.campaign import ParallelMonteCarloExecutor, ShardedVectorizedExecutor
    from repro.core.registry import resolve_protocol
    from repro.scenario.spec import ScenarioSpec

    report["imported"] = time.monotonic()
    if config.get("traced"):
        import layers

        layers.install()
    spec = ScenarioSpec.from_dict(config["scenario"])
    entry = resolve_protocol(config["protocol"])
    parameters, workload = spec.parameters(), spec.application_workload()
    engine = entry.vectorized_cls(parameters, workload)
    report["ready"] = time.monotonic()
    if config.get("setup_only"):
        return

    table = ShardedVectorizedExecutor(workers=1).run(
        engine, runs=config["runs"], seed=config["seed"]
    )
    report["done"] = time.monotonic()
    report["peak_rss_mb"] = _peak_rss_mb()
    if config.get("traced"):
        report["layers"] = layers.snapshot()

    makespan = table.data["makespan"]
    report["result"] = {
        "trials": int(makespan.size),
        "makespan_mean": float(makespan.mean()),
        "makespan_sem": float(makespan.std(ddof=1) / np.sqrt(makespan.size)),
        "truncated": int(table.data["truncated"].sum()),
    }
    prefix = int(config.get("event_prefix", 0))
    if prefix:
        simulator = entry.simulator_cls(parameters, workload)
        event = ParallelMonteCarloExecutor(workers=1).run(
            simulator.simulate_once, runs=prefix, seed=config["seed"]
        )
        head = np.ascontiguousarray(table.data[:prefix])
        walked = np.ascontiguousarray(event.table.data)
        report["result"]["event_prefix_identical"] = (
            head.dtype == walked.dtype and head.tobytes() == walked.tobytes()
        )


def cli(config: dict, report: dict) -> None:
    import repro.cli

    report["imported"] = report["ready"] = time.monotonic()
    if config.get("traced"):
        import layers

        layers.install()
        report["ready"] = time.monotonic()
    if config.get("setup_only"):
        return
    code = repro.cli.main(config["argv"])
    report["done"] = time.monotonic()
    report["peak_rss_mb"] = _peak_rss_mb()
    report["exit_code"] = code
    if config.get("traced"):
        report["layers"] = layers.snapshot()


def serve(config: dict) -> None:
    import repro.cli
    import layers
    from repro.service.http import HTTPServer
    from repro.service.jobs import JobManager

    imported = time.monotonic()
    layers.install()
    server_seconds = []
    pending = []

    respond = HTTPServer._respond

    async def timed_respond(self, request):
        begin = time.perf_counter()
        try:
            return await respond(self, request)
        finally:
            server_seconds.append(time.perf_counter() - begin)

    HTTPServer._respond = timed_respond

    submit = JobManager.submit

    def timed_submit(self, kind, digest, request, fn):
        submitted = time.monotonic()

        def run():
            pending.append(time.monotonic() - submitted)
            return fn()

        return submit(self, kind, digest, request, run)

    JobManager.submit = timed_submit

    def stop(signum, frame):
        stats = {
            "imported": imported,
            "spawn": float(os.environ["PERFBENCH_SPAWN"]),
            "server_seconds": server_seconds,
            "pending_seconds": pending,
            "layers": layers.snapshot(),
        }
        with open(config["stats"], "w") as handle:
            json.dump(stats, handle)
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    repro.cli.main(config["argv"])


JOBS = {"mc-cell": mc_cell, "cli": cli}


def main() -> int:
    job, config = sys.argv[1], json.loads(sys.argv[2])
    if job == "serve":
        serve(config)
        return 0
    report: dict = {}
    JOBS[job](config, report)
    with open(config["report"], "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
