"""The three batch workloads: one Monte-Carlo job per round, each round in
a fresh interpreter, so every round pays (and measures) the set-up a user
starting the command pays.

* ``mc-cell`` -- the ROADMAP reference cell (100k trials of
  PurePeriodicCkpt) through the public campaign API, serial, vectorized;
* ``regime-map-mc`` -- ``repro optimize map --simulate`` over 36 cells at
  the CLI defaults (``--workers auto``, ``--backend auto``), cold cache;
* ``figure7-validate`` -- ``repro figure7 --validate --reduced`` on the
  event backend.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import exact
from common import (SETUP_SAMPLES, SRC, BenchError, Checks, Operations, median,
                    run_child, tail)


class BatchWorkload:
    """One child job per round; subclasses say which job and check it."""

    name = ""
    job = "cli"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops = Operations()
        self.samples: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
        self.setups: List[float] = []
        self.reports: List[Dict[str, Any]] = []
        self.checks = Checks()

    # -- hooks -------------------------------------------------------- #
    def config(self, round_dir: Path, index: int) -> Dict[str, Any]:
        """The child job's configuration for round ``index`` (-1: a probe)."""
        raise NotImplementedError

    def check(self) -> None:
        """Check the rounds' outputs into ``self.checks``."""
        raise NotImplementedError

    # -- rounds ------------------------------------------------------- #
    def round(self, index: int, traced: bool) -> None:
        round_dir = self.workdir / f"round-{index}"
        config = dict(self.config(round_dir, index), traced=traced)
        try:
            report = run_child(self.job, config, round_dir)
        except (BenchError, OSError) as exc:
            print(f"perfbench: {self.name} round {index}: {exc}", file=sys.stderr)
            self.ops.record("job", ok=False)
            return
        ok = report.get("exit_code", 0) == 0
        self.ops.record("job", ok=ok)
        if not ok:
            return
        report["dir"] = str(round_dir)
        self.reports.append(report)
        if not traced:
            self.setups.append(report["ready"] - report["spawn"])
        self.samples[traced].append(
            {
                "setup_s": report["ready"] - report["spawn"],
                "job_s": report["done"] - report["ready"],
                "sim_job_s": report["done"] - report["spawn"],
                "answer_s": report["exited"] - report["spawn"],
                "peak_rss_mb": report["peak_rss_mb"],
                "import_s": report["imported"] - report["spawn"],
                "build_s": report["ready"] - report["imported"],
                "layers": report.get("layers", {}),
            }
        )

    def probe_setups(self) -> None:
        """Set-up-only starts until the run holds enough set-up samples."""
        probe_dir = self.workdir / "probe"
        while len(self.setups) < SETUP_SAMPLES:
            config = dict(self.config(probe_dir, -1), setup_only=True)
            try:
                report = run_child(self.job, config, probe_dir)
            except (BenchError, OSError) as exc:
                print(f"perfbench: {self.name} set-up probe: {exc}", file=sys.stderr)
                self.ops.record("setup", ok=False)
                return
            self.ops.record("setup", ok=True)
            self.setups.append(report["ready"] - report["spawn"])

    # -- metrics ------------------------------------------------------ #
    def end_to_end(self) -> Dict[str, float]:
        rounds = self.samples[False]
        answers = [r["answer_s"] * 1e3 for r in rounds]
        return {
            "setup_s": median(self.setups),
            "job_s": median([r["job_s"] for r in rounds]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
            "answer_p50_ms": median(answers),
            "answer_p99_ms": tail(answers),
            "sim_job_s": median([r["sim_job_s"] for r in rounds]),
        }

    def per_layer(self) -> Dict[str, float]:
        traced, plain = self.samples[True], self.samples[False]
        names = sorted({key for r in traced for key in r["layers"]})
        out = {name: median([r["layers"][name] for r in traced]) for name in names}
        out["setup.import_s"] = median([r["import_s"] for r in plain])
        out["setup.build_s"] = median([r["build_s"] for r in plain])
        base = median([r["job_s"] for r in plain])
        out["trace.overhead_ratio"] = (
            median([r["job_s"] for r in traced]) / base if base else 0.0
        )
        return out

    def describe(self) -> Dict[str, Any]:
        """Per-round figures for the run record."""
        return {
            "setup_s": self.setups,
            "rounds": [
                dict({k: v for k, v in r.items() if k != "layers"}, traced=traced)
                for traced in (False, True) for r in self.samples[traced]
            ],
        }

    def first_report(self) -> Optional[Dict[str, Any]]:
        return self.reports[0] if self.reports else None


def _import_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------- #
# mc-cell
# ---------------------------------------------------------------------- #
MC_CELL = {
    "name": "mc-cell",
    "protocols": ["PurePeriodicCkpt"],
    "platform": {"mtbf": 7200.0, "checkpoint": 600.0, "recovery": 600.0,
                 "downtime": 60.0},
    "workload": {"total_time": 86400.0, "alpha": 0.8},
}
MC_CELL_TRIALS = 100_000
#: Trials walked again by the event interpreter on the first round.
EVENT_PREFIX = 300
#: Allowed distance of the Monte-Carlo mean from the exact expectation.
MC_CELL_SIGMAS = 4.0


class McCell(BatchWorkload):
    name = "mc-cell"
    job = "mc-cell"

    def config(self, round_dir, index):
        return {
            "scenario": MC_CELL,
            "protocol": "PurePeriodicCkpt",
            "runs": MC_CELL_TRIALS,
            "seed": self.seed,
            "event_prefix": EVENT_PREFIX if index == 0 else 0,
        }

    def check(self) -> None:
        checks = self.checks
        platform = MC_CELL["platform"]
        mtbf, c, r, d = (platform[k] for k in ("mtbf", "checkpoint", "recovery", "downtime"))
        period = exact.young_daly_period(c, mtbf, d, r)
        expected = exact.expected_makespan(
            MC_CELL["workload"]["total_time"], period,
            mtbf=mtbf, checkpoint=c, recovery=r, downtime=d,
        )
        for report in self.reports:
            result = report["result"]
            gap = abs(result["makespan_mean"] - expected)
            checks.check(
                "mc-cell mean makespan matches the exact expectation",
                gap <= MC_CELL_SIGMAS * result["makespan_sem"],
                f"mean {result['makespan_mean']:.1f} +- {result['makespan_sem']:.1f} s, "
                f"exact {expected:.1f} s",
            )
            checks.check("mc-cell ran every trial", result["trials"] == MC_CELL_TRIALS,
                         f"{result['trials']} trials")
            checks.check("mc-cell truncated no trial", result["truncated"] == 0,
                         f"{result['truncated']} truncated")
            if "event_prefix_identical" in result:
                checks.check(
                    "event interpreter equals the vectorized table on a prefix",
                    result["event_prefix_identical"],
                    f"first {EVENT_PREFIX} trials",
                )
        checks.check("mc-cell walked the event prefix",
                     any("event_prefix_identical" in r["result"] for r in self.reports))


# ---------------------------------------------------------------------- #
# regime-map-mc
# ---------------------------------------------------------------------- #
MAP_AXES = [
    "--nodes", "1000", "10000", "100000",
    "--node-mtbf-years", "5", "25", "125",
    "--checkpoint", "300", "600",
    "--phi", "1.03", "1.1",
]
MAP_TRIALS = 1000
MAP_DOWNTIME = 60.0
PERIOD_RTOL = 1e-6
#: Largest simulated gap, in standard errors of the difference, by which a
#: protocol may beat the one the model ranks first.
MAP_SIGMAS = 4.0


def _finite(value: Optional[float]) -> float:
    """A waste as the map ranks it: missing counts as infinite."""
    return math.inf if value is None else float(value)


def _standard_error(entry: Dict[str, Any]) -> float:
    """Standard error of a simulated mean waste (0 for a model-only corner)."""
    summary = entry.get("summary")
    if not summary:
        return 0.0
    return summary["waste_std"] / math.sqrt(summary["runs"])


class RegimeMapMc(BatchWorkload):
    name = "regime-map-mc"

    def argv(self, round_dir: Path, *extra: str) -> List[str]:
        return ["optimize", "map", "--simulate", *MAP_AXES,
                "--runs", str(MAP_TRIALS), "--seed", str(self.seed),
                "--cache-dir", str(round_dir / "cache"),
                "--json", str(round_dir / "map.json"), *extra]

    def config(self, round_dir, index):
        return {"argv": self.argv(round_dir)}

    def check(self) -> None:
        checks = self.checks
        first = self.first_report()
        if first is None:
            checks.check("regime-map-mc produced a map", False)
            return
        produced = (Path(first["dir"]) / "map.json").read_bytes()
        for report in self.reports[1:]:
            checks.check(
                "regime map repeats byte for byte",
                (Path(report["dir"]) / "map.json").read_bytes() == produced,
            )
        serial_dir = self.workdir / "serial"
        try:
            run_child("cli", {"argv": self.argv(serial_dir, "--workers", "1")}, serial_dir)
            serial = (serial_dir / "map.json").read_bytes()
            self.ops.record("serial-reference", ok=True)
        except (BenchError, OSError) as exc:
            self.ops.record("serial-reference", ok=False)
            checks.check("serial reference map ran", False, str(exc))
            return
        checks.check("sharded map is byte-identical to --workers 1", serial == produced)

        cells = json.loads(produced)["cells"]
        checks.check("regime map has 36 cells", len(cells) == 36, f"{len(cells)} cells")
        worst = 0.0
        for cell in cells:
            # The map ranks on simulated means; where its winner is not the
            # protocol the model ranks first, the simulated gap between the
            # two must be a Monte-Carlo tie, not a real difference.
            results, winner = cell["results"], cell["winner"]
            model_best = min(results, key=lambda name: _finite(results[name]["waste"]))
            if winner != model_best:
                gap = (_finite(results[model_best].get("simulated_waste"))
                       - _finite(results[winner].get("simulated_waste")))
                error = math.hypot(_standard_error(results[winner]),
                                   _standard_error(results[model_best]))
                checks.check(
                    "a winner the model does not rank first wins within sampling noise",
                    gap <= MAP_SIGMAS * error,
                    f"cell {cell['nodes']}x{cell['node_mtbf']:g}x{cell['checkpoint']:g}"
                    f"x{cell['abft_overhead']:g}: {winner} beats {model_best} by "
                    f"{gap:.5f}, standard error {error:.5f}",
                )
            c = cell["checkpoint"]
            closed = exact.young_daly_period(c, cell["platform_mtbf"], MAP_DOWNTIME, c)
            got = results["PurePeriodicCkpt"]["periods"]["period"]
            worst = max(worst, abs(got - closed) / closed)
        checks.check("PurePeriodicCkpt periods equal sqrt(2C(mu-D-R))",
                     worst <= PERIOD_RTOL, f"worst relative gap {worst:.2e}")


# ---------------------------------------------------------------------- #
# figure7-validate
# ---------------------------------------------------------------------- #
FIGURE7_TRIALS = 20
FIGURE7_PROTOCOLS = ("PurePeriodicCkpt", "BiPeriodicCkpt", "ABFT&PeriodicCkpt")
#: Grid points re-simulated on the vectorized engine per run.
FIGURE7_SAMPLE_POINTS = 3


def _read_series(path: Path) -> List[Dict[str, float]]:
    with path.open(newline="") as handle:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]


class Figure7Validate(BatchWorkload):
    name = "figure7-validate"

    def config(self, round_dir, index):
        return {"argv": ["figure7", "--validate", "--reduced",
                         "--runs", str(FIGURE7_TRIALS), "--seed", str(self.seed),
                         "--csv", str(round_dir / "figure7.csv")]}

    def check(self) -> None:
        checks = self.checks
        first = self.first_report()
        if first is None:
            checks.check("figure7 produced a series", False)
            return
        produced = (Path(first["dir"]) / "figure7.csv").read_bytes()
        for report in self.reports[1:]:
            checks.check(
                "figure7 series repeats byte for byte",
                (Path(report["dir"]) / "figure7.csv").read_bytes() == produced,
            )
        rows = _read_series(Path(first["dir"]) / "figure7.csv")
        checks.check("figure7 reduced grid has 20 points", len(rows) == 20,
                     f"{len(rows)} points")
        by_mtbf: Dict[float, set] = {}
        for row in rows:
            by_mtbf.setdefault(row["mtbf_minutes"], set()).add(
                row["sim_waste[PurePeriodicCkpt]"]
            )
        checks.check(
            "PurePeriodicCkpt simulated waste does not depend on alpha",
            all(len(values) == 1 for values in by_mtbf.values()),
            f"distinct values per MTBF: {[len(v) for v in by_mtbf.values()]}",
        )

        _import_program()
        from repro.campaign import SweepJob, SweepRunner
        from repro.experiments.config import paper_figure7_config

        config = paper_figure7_config().reduced()
        sample = random.Random(self.seed).sample(rows, FIGURE7_SAMPLE_POINTS)
        for row in sample:
            mtbf = row["mtbf_minutes"] * 60.0
            job = SweepJob(
                parameters=config.parameters(config.mtbf_values[0]),
                application_time=config.application_time,
                mtbf_values=(mtbf,),
                alpha_values=(row["alpha"],),
                protocols=FIGURE7_PROTOCOLS,
                library_fraction=config.library_fraction,
                simulate=True,
                simulation_runs=FIGURE7_TRIALS,
                seed=self.seed,
                backend="vectorized",
            )
            point = SweepRunner(workers=1).run(job).points[0]
            self.ops.record("vectorized-reference", ok=True)
            for protocol in FIGURE7_PROTOCOLS:
                vector = point.simulated_waste[protocol]
                event = row[f"sim_waste[{protocol}]"]
                checks.check(
                    "figure7 point equals the vectorized engine bit for bit",
                    vector == event and math.isfinite(event),
                    f"{protocol} at mtbf={row['mtbf_minutes']:g} min, "
                    f"alpha={row['alpha']:g}: event {event!r}, vectorized {vector!r}",
                )
