"""Benchmark + regression gate for the Monte-Carlo engine.

This module records the BENCH trajectory for the simulation hot path and
enforces three hard guarantees of the vectorized engine:

1. **Stream regression**: the event backend's per-seed results (makespan,
   waste, failure count) are pinned bit-for-bit (as IEEE-754 hex) to the
   values produced *before* the columnar refactor, for all four protocols.
   Any change to the failure-stream block pattern, the per-trial RNG
   derivation or the state-machine arithmetic trips these immediately.
2. **Cross-validation**: every vectorized engine (all four protocols, all
   three vectorized laws) must match the event walk trial for trial with
   exact ``==`` on every TrialTable column.
3. **Speedup floors**: a ``SWEEP_TRIALS``-trial exponential sweep point
   must run at least 5x (``PurePeriodicCkpt``) / 3x (the phase-structured
   ``BiPeriodicCkpt`` and ``ABFT&PeriodicCkpt``) faster through
   ``backend="vectorized"`` than through the event walk, and must not
   regress by more than 2x against the per-protocol ratios recorded in
   ``baseline_engine.json`` (ratios are compared, so the gates are
   machine-independent).

The perf *trajectory* -- per-protocol x per-law trials/sec for both
backends plus the speedup ratio -- is written to ``BENCH_PR5.json`` (path
overridable via ``REPRO_BENCH_PR5_PATH``) and uploaded by the CI bench
job as a workflow artifact, so regressions show up as a curve over PRs,
not a single frozen number.

Quick mode (the CI smoke job) sets ``REPRO_BENCH_QUICK=1``, which shrinks
the sweep point to 2000 trials while keeping every gate active.

Run with::

    pytest benchmarks/test_bench_engine.py -q
    REPRO_BENCH_QUICK=1 pytest benchmarks/test_bench_engine.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import ApplicationWorkload, ResilienceParameters
from repro.core.protocols import (
    AbftPeriodicCkptSimulator,
    BiPeriodicCkptSimulator,
    NoFaultToleranceSimulator,
    PurePeriodicCkptSimulator,
)
from repro.core.registry import resolve_protocol
from repro.failures import LogNormalFailureModel, WeibullFailureModel
from repro.simulation.rng import RandomStreams
from repro.simulation.trace import CATEGORIES
from repro.utils import DAY, HOUR, MINUTE

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "", "false")
SWEEP_TRIALS = 2000 if QUICK else 10000
SEED = 2014
BASELINE_PATH = Path(__file__).with_name("baseline_engine.json")
TRAJECTORY_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_PR5_PATH", Path(__file__).with_name("BENCH_PR5.json")
    )
)

#: Pre-refactor per-seed results: ``protocol -> [(makespan.hex(),
#: waste.hex(), failure_count), ...]`` for trials 0..7 of root seed 2014.
#: Captured from the per-call-scalar-draw engine the refactor replaced; the
#: paper protocols use the one-day workload, NoFT the one-hour workload
#: (the one-day NoFT run truncates after ~120k failures, which is pinned
#: separately by the truncation tests).
PINNED_REGRESSION = {
    "NoFT": [
        ("0x1.c200000000000p+11", "0x0.0p+0", 0),
        ("0x1.1e94573c5878ap+13", "0x1.37023500e1f15p-1", 4),
        ("0x1.c200000000000p+11", "0x0.0p+0", 0),
        ("0x1.12940be6e1e03p+12", "0x1.71ca4bbea9934p-3", 1),
        ("0x1.c200000000000p+11", "0x0.0p+0", 0),
        ("0x1.20ffba31025c8p+12", "0x1.c587cbeb13e84p-3", 1),
        ("0x1.c200000000000p+11", "0x0.0p+0", 0),
        ("0x1.eb1694b14ec47p+13", "0x1.8ab59f4ad7d94p-1", 5),
    ],
    "PurePeriodicCkpt": [
        ("0x1.1c941eb1feb26p+17", "0x1.a0c94fb4c0168p-2", 18),
        ("0x1.17bc1794f5956p+17", "0x1.96459cb3f0848p-2", 21),
        ("0x1.44897f5487953p+17", "0x1.eb8ca00f525ecp-2", 32),
        ("0x1.4d94dc02e6117p+17", "0x1.f9fc5280a335ep-2", 33),
        ("0x1.0794f0978eef4p+17", "0x1.706a810680f82p-2", 17),
        ("0x1.12dff37f40e88p+17", "0x1.8b59a53d28eb4p-2", 14),
        ("0x1.35e3bc72c371dp+17", "0x1.d261ce15e1b0ep-2", 26),
        ("0x1.653607b7aab2bp+17", "0x1.0e204dc9ac792p-1", 34),
    ],
    "BiPeriodicCkpt": [
        ("0x1.15f2ed8edb8ecp+17", "0x1.924d963dfda8ep-2", 18),
        ("0x1.16939d4150a50p+17", "0x1.93b4306804d28p-2", 21),
        ("0x1.43610500e2a4ep+17", "0x1.e9a477c7224f4p-2", 32),
        ("0x1.3ce1699fad934p+17", "0x1.deaf1e0a75088p-2", 32),
        ("0x1.041cf3e3142b8p+17", "0x1.67ac70473345ap-2", 17),
        ("0x1.08c77ecadd07ep+17", "0x1.7361863a0152cp-2", 14),
        ("0x1.267df844961acp+17", "0x1.b53a1b9549252p-2", 25),
        ("0x1.37db50fb64414p+17", "0x1.d5e63c5afecf4p-2", 29),
    ],
    "ABFT&PeriodicCkpt": [
        ("0x1.80ba07f20cc25p+16", "0x1.f6ccbf2c99450p-4", 11),
        ("0x1.ab6dba0ad549dp+16", "0x1.aee34c64938bcp-3", 19),
        ("0x1.e29665c5942a3p+16", "0x1.33dc44da01a1ep-2", 25),
        ("0x1.bcb826a79b61cp+16", "0x1.edc2e5d2b84dcp-3", 22),
        ("0x1.82295195a6409p+16", "0x1.02132a05a9d28p-3", 14),
        ("0x1.9f5563052a3e2p+16", "0x1.7fcb9dfb4c8dcp-3", 12),
        ("0x1.b77d3bfa14dc6p+16", "0x1.db43dd34526e4p-3", 21),
        ("0x1.cfa6686c965fcp+16", "0x1.169c369a6e5f0p-2", 20),
    ],
}

EVENT_SIMULATORS = {
    "NoFT": NoFaultToleranceSimulator,
    "PurePeriodicCkpt": PurePeriodicCkptSimulator,
    "BiPeriodicCkpt": BiPeriodicCkptSimulator,
    "ABFT&PeriodicCkpt": AbftPeriodicCkptSimulator,
}

VECTORIZED_ENGINES = {
    name: resolve_protocol(name).vectorized_cls for name in EVENT_SIMULATORS
}

LAW_MODELS = {
    "exponential": lambda mtbf: None,  # the simulators' bit-identical default
    "weibull": lambda mtbf: WeibullFailureModel(mtbf, shape=0.7),
    "lognormal": lambda mtbf: LogNormalFailureModel(mtbf, sigma=1.0),
}

#: Per-protocol vectorized speedup floors on the exponential sweep point.
#: The chunked engine keeps its historical 5x bar; the phase-structured
#: engine's rounds are heavier, so its protocols gate at the acceptance
#: floor of 3x (measured ~14x / ~11x; the recorded-ratio guard below keeps
#: a tighter leash than these absolute minima).
SPEEDUP_FLOORS = {
    "PurePeriodicCkpt": 5.0,
    "BiPeriodicCkpt": 3.0,
    "ABFT&PeriodicCkpt": 3.0,
}


def _parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )


def _workload(protocol: str) -> ApplicationWorkload:
    total = 1 * HOUR if protocol == "NoFT" else 1 * DAY
    return ApplicationWorkload.single_epoch(total, 0.8, library_fraction=0.8)


# --------------------------------------------------------------------- #
# Gate 1: the event backend is bit-identical to its pre-refactor stream.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("protocol", sorted(PINNED_REGRESSION))
def test_event_backend_pinned_per_seed_values(protocol):
    simulator = EVENT_SIMULATORS[protocol](_parameters(), _workload(protocol))
    streams = RandomStreams(SEED)
    for trial, (makespan_hex, waste_hex, failure_count) in enumerate(
        PINNED_REGRESSION[protocol]
    ):
        trace = simulator.simulate(streams.generator_for_trial(trial))
        assert trace.makespan.hex() == makespan_hex, (protocol, trial)
        assert trace.waste.hex() == waste_hex, (protocol, trial)
        assert trace.failure_count == failure_count, (protocol, trial)


# --------------------------------------------------------------------- #
# Gate 2: every vectorized backend reproduces the event walk exactly,
# for all four protocols and all three vectorized laws.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("law", sorted(LAW_MODELS))
@pytest.mark.parametrize("protocol", sorted(VECTORIZED_ENGINES))
def test_vectorized_matches_event_trial_for_trial(protocol, law):
    parameters = _parameters()
    workload = _workload(protocol)
    model = LAW_MODELS[law](parameters.platform_mtbf)
    kwargs = {} if model is None else {"failure_model": model}
    runs = 64 if law == "exponential" else 24
    table = VECTORIZED_ENGINES[protocol](parameters, workload, **kwargs).run_trials(
        runs, seed=SEED
    )
    simulator = EVENT_SIMULATORS[protocol](parameters, workload, **kwargs)
    streams = RandomStreams(SEED)
    for trial in range(runs):
        trace = simulator.simulate(streams.generator_for_trial(trial))
        row = table.data[trial]
        assert float(row["makespan"]) == trace.makespan, (protocol, law, trial)
        assert float(row["waste"]) == trace.waste, (protocol, law, trial)
        assert int(row["failure_count"]) == trace.failure_count, (protocol, trial)
        assert bool(row["truncated"]) == trace.metadata["truncated"]
        for category in CATEGORIES:
            assert float(row[category]) == getattr(trace.breakdown, category), (
                protocol,
                law,
                trial,
                category,
            )


def test_vectorized_matches_json_pinned_values():
    """The per-seed hex values recorded in baseline_engine.json hold.

    The ``protocols`` section of the baseline pins trials 0..7 of root seed
    2014 for the newly vectorized protocols; both backends must keep
    reproducing them bit for bit.
    """
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    for protocol, entry in baseline["protocols"].items():
        table = VECTORIZED_ENGINES[protocol](
            _parameters(), _workload(protocol)
        ).run_trials(len(entry["pinned"]), seed=SEED)
        for trial, (makespan_hex, waste_hex, failure_count) in enumerate(
            entry["pinned"]
        ):
            row = table.data[trial]
            assert float(row["makespan"]).hex() == makespan_hex, (protocol, trial)
            assert float(row["waste"]).hex() == waste_hex, (protocol, trial)
            assert int(row["failure_count"]) == failure_count, (protocol, trial)


# --------------------------------------------------------------------- #
# Gate 3: per-protocol vectorized speedup floors on the sweep point, and
# no >2x regression against the recorded baseline ratios.
# --------------------------------------------------------------------- #
def _time_event_backend(runs: int, protocol: str = "PurePeriodicCkpt") -> float:
    simulator = EVENT_SIMULATORS[protocol](_parameters(), _workload(protocol))
    streams = RandomStreams(SEED)
    start = time.perf_counter()
    for trial in range(runs):
        simulator.simulate(streams.generator_for_trial(trial))
    return time.perf_counter() - start


def _time_vectorized_backend(runs: int, protocol: str = "PurePeriodicCkpt") -> float:
    engine = VECTORIZED_ENGINES[protocol](_parameters(), _workload(protocol))
    start = time.perf_counter()
    engine.run_trials(runs, seed=SEED)
    return time.perf_counter() - start


def _recorded_speedup(baseline: dict, protocol: str) -> float:
    if protocol == "PurePeriodicCkpt":
        return float(baseline["speedup"])
    return float(baseline["protocols"][protocol]["speedup"])


@pytest.mark.parametrize("protocol", sorted(SPEEDUP_FLOORS))
def test_vectorized_speedup_on_sweep_point(protocol):
    # Same best-of-3 policy on both sides so the gated ratio is not biased
    # by asymmetric noise sensitivity: a single transient stall can neither
    # hide a vectorized regression nor fail the gate.
    event_seconds = min(
        _time_event_backend(SWEEP_TRIALS, protocol) for _ in range(3)
    )
    vectorized_seconds = min(
        _time_vectorized_backend(SWEEP_TRIALS, protocol) for _ in range(3)
    )
    speedup = event_seconds / vectorized_seconds
    floor = SPEEDUP_FLOORS[protocol]
    print(
        f"\nengine sweep point ({protocol}, {SWEEP_TRIALS} trials): "
        f"event {event_seconds:.2f}s, vectorized {vectorized_seconds:.3f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= floor, (
        f"vectorized backend is only {speedup:.1f}x faster than the event "
        f"backend on a {SWEEP_TRIALS}-trial {protocol} sweep point "
        f"(acceptance floor: {floor:.0f}x)"
    )
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        recorded = _recorded_speedup(baseline, protocol)
        regression_floor = recorded / 2.0
        assert speedup >= regression_floor, (
            f"engine speedup regressed more than 2x on {protocol}: measured "
            f"{speedup:.1f}x vs recorded baseline {recorded:.1f}x "
            f"(floor {regression_floor:.1f}x); see "
            "benchmarks/baseline_engine.json"
        )


# --------------------------------------------------------------------- #
# Gate 4: the schedule interpreter does not tax the event backend.
# --------------------------------------------------------------------- #
# The pre-IR hand-written walks, verbatim, as _run overrides on the
# production simulators (the base class keeps the building-block helpers
# for exactly this): the timing reference the interpreter is gated
# against.  tests/property/test_property_schedule.py pins that the two
# are bit-identical; this module pins that they cost the same.
class _LegacyNoFT(NoFaultToleranceSimulator):
    def _run(self, timeline, recorder):
        from repro.simulation.events import EventKind

        work = self._workload.total_time
        time_now = 0.0
        while True:
            self._check_cap(time_now)
            next_failure = timeline.next_failure_after(time_now)
            if next_failure >= time_now + work:
                recorder.account("useful_work", work)
                return time_now + work
            recorder.account("lost_work", next_failure - time_now)
            recorder.record(next_failure, EventKind.FAILURE, during="no-ft")
            time_now = self._restart(
                next_failure,
                timeline,
                recorder,
                (("downtime", self._params.downtime),),
            )


class _LegacyPurePeriodic(PurePeriodicCkptSimulator):
    def _run(self, timeline, recorder):
        params = self._params
        return self._periodic_section(
            0.0,
            self._workload.total_time,
            timeline,
            recorder,
            checkpoint_cost=params.full_checkpoint,
            recovery_cost=params.full_recovery,
            period=self.period(),
            trailing_checkpoint=False,
        )


class _LegacyBiPeriodic(BiPeriodicCkptSimulator):
    def _run(self, timeline, recorder):
        from repro.simulation.events import EventKind

        params = self._params
        phases = self._workload.phase_sequence()
        time_now = 0.0
        for index, (kind, duration, _abft_capable) in enumerate(phases):
            is_last = index == len(phases) - 1
            if kind == "general":
                checkpoint, period = params.full_checkpoint, self.general_period()
                enter, leave = (
                    EventKind.GENERAL_PHASE_START,
                    EventKind.GENERAL_PHASE_END,
                )
            else:
                checkpoint, period = params.library_checkpoint, self.library_period()
                enter, leave = (
                    EventKind.LIBRARY_PHASE_START,
                    EventKind.LIBRARY_PHASE_END,
                )
            recorder.record(time_now, enter)
            time_now = self._periodic_section(
                time_now,
                duration,
                timeline,
                recorder,
                checkpoint_cost=checkpoint,
                recovery_cost=params.full_recovery,
                period=period,
                trailing_checkpoint=not is_last,
            )
            recorder.record(time_now, leave)
        return time_now


class _LegacyAbftPeriodic(AbftPeriodicCkptSimulator):
    def _run(self, timeline, recorder):
        import math

        from repro.simulation.events import EventKind

        params = self._params
        time_now = 0.0
        general_period = self.general_period()
        for epoch in self._workload.epochs:
            recorder.record(time_now, EventKind.GENERAL_PHASE_START)
            general_time = epoch.general_time
            if not math.isnan(general_period) and general_time >= general_period:
                time_now = self._periodic_section(
                    time_now,
                    general_time,
                    timeline,
                    recorder,
                    checkpoint_cost=params.full_checkpoint,
                    recovery_cost=params.full_recovery,
                    period=general_period,
                    trailing_checkpoint=True,
                )
            else:
                time_now = self._unprotected_section(
                    time_now,
                    general_time,
                    timeline,
                    recorder,
                    recovery_cost=params.full_recovery,
                    checkpoint_cost=params.remainder_checkpoint,
                )
            recorder.record(time_now, EventKind.GENERAL_PHASE_END)
            if epoch.library_time <= 0.0:
                continue
            if self._library_uses_abft(epoch):
                time_now = self._abft_section(
                    time_now,
                    epoch.library_time,
                    timeline,
                    recorder,
                    exit_checkpoint_cost=params.library_checkpoint,
                )
            else:
                recorder.record(time_now, EventKind.LIBRARY_PHASE_START)
                time_now = self._periodic_section(
                    time_now,
                    epoch.library_time,
                    timeline,
                    recorder,
                    checkpoint_cost=params.library_checkpoint,
                    recovery_cost=params.full_recovery,
                    period=self.library_fallback_period(),
                    trailing_checkpoint=True,
                )
                recorder.record(time_now, EventKind.LIBRARY_PHASE_END)
        return time_now


LEGACY_SIMULATORS = {
    "NoFT": _LegacyNoFT,
    "PurePeriodicCkpt": _LegacyPurePeriodic,
    "BiPeriodicCkpt": _LegacyBiPeriodic,
    "ABFT&PeriodicCkpt": _LegacyAbftPeriodic,
}

#: Interpreter time / legacy-walk time on the summed four-protocol run.
#: The interpreter compiles once and caches the schedule across trials
#: while the legacy walks re-derive their periods every run, so in
#: practice the ratio sits at or below 1.0; the gate allows 10% headroom.
INTERPRETER_OVERHEAD_CEILING = 1.10


def _time_simulator(cls, protocol: str, runs: int) -> float:
    simulator = cls(_parameters(), _workload(protocol))
    streams = RandomStreams(SEED)
    start = time.perf_counter()
    for trial in range(runs):
        simulator.simulate(streams.generator_for_trial(trial))
    return time.perf_counter() - start


def _interpreter_vs_legacy_timings(runs: int) -> dict:
    """Per-protocol min-of-3 seconds for the interpreter and legacy walks."""
    timings = {}
    for protocol in sorted(EVENT_SIMULATORS):
        interpreter_seconds = min(
            _time_simulator(EVENT_SIMULATORS[protocol], protocol, runs)
            for _ in range(3)
        )
        legacy_seconds = min(
            _time_simulator(LEGACY_SIMULATORS[protocol], protocol, runs)
            for _ in range(3)
        )
        timings[protocol] = {
            "interpreter_seconds": interpreter_seconds,
            "legacy_seconds": legacy_seconds,
            "overhead_ratio": interpreter_seconds / legacy_seconds,
        }
    return timings


def test_interpreter_overhead_within_ceiling():
    runs = 100 if QUICK else 300
    timings = _interpreter_vs_legacy_timings(runs)
    total_interpreter = sum(t["interpreter_seconds"] for t in timings.values())
    total_legacy = sum(t["legacy_seconds"] for t in timings.values())
    ratio = total_interpreter / total_legacy
    for protocol, entry in sorted(timings.items()):
        print(
            f"\ninterpreter vs legacy walk ({protocol}, {runs} trials): "
            f"interpreter {entry['interpreter_seconds']:.3f}s, "
            f"legacy {entry['legacy_seconds']:.3f}s, "
            f"ratio {entry['overhead_ratio']:.3f}"
        )
    # Gate on the four-protocol aggregate: per-protocol ratios are recorded
    # in the trajectory for trend-watching, but a single protocol's run is
    # short enough that scheduler noise could trip a per-protocol 10% gate.
    assert ratio <= INTERPRETER_OVERHEAD_CEILING, (
        f"the schedule interpreter costs {ratio:.3f}x the legacy hand-written "
        f"walks over the four-protocol sweep (ceiling "
        f"{INTERPRETER_OVERHEAD_CEILING:.2f}x); per-protocol: "
        + ", ".join(
            f"{p}={t['overhead_ratio']:.3f}" for p, t in sorted(timings.items())
        )
    )


# --------------------------------------------------------------------- #
# Perf trajectory: the full protocol x law matrix, written to
# BENCH_PR5.json and uploaded by CI as a workflow artifact.
# --------------------------------------------------------------------- #
def test_write_perf_trajectory():
    event_runs = 150 if QUICK else 400
    matrix = {}
    for protocol in sorted(VECTORIZED_ENGINES):
        workload = _workload(protocol)
        parameters = _parameters()
        matrix[protocol] = {}
        for law in sorted(LAW_MODELS):
            model = LAW_MODELS[law](parameters.platform_mtbf)
            kwargs = {} if model is None else {"failure_model": model}
            simulator = EVENT_SIMULATORS[protocol](parameters, workload, **kwargs)
            streams = RandomStreams(SEED)
            start = time.perf_counter()
            for trial in range(event_runs):
                simulator.simulate(streams.generator_for_trial(trial))
            event_seconds = time.perf_counter() - start
            engine = VECTORIZED_ENGINES[protocol](parameters, workload, **kwargs)
            start = time.perf_counter()
            engine.run_trials(SWEEP_TRIALS, seed=SEED)
            vectorized_seconds = time.perf_counter() - start
            event_rate = event_runs / event_seconds
            vectorized_rate = SWEEP_TRIALS / vectorized_seconds
            matrix[protocol][law] = {
                "event_trials_per_sec": round(event_rate, 1),
                "vectorized_trials_per_sec": round(vectorized_rate, 1),
                "speedup": round(vectorized_rate / event_rate, 2),
            }
            assert vectorized_rate > 0.0 and event_rate > 0.0
    interpreter_runs = 100 if QUICK else 300
    interpreter = {
        protocol: {
            "interpreter_seconds": round(entry["interpreter_seconds"], 4),
            "legacy_seconds": round(entry["legacy_seconds"], 4),
            "overhead_ratio": round(entry["overhead_ratio"], 3),
        }
        for protocol, entry in _interpreter_vs_legacy_timings(
            interpreter_runs
        ).items()
    }
    payload = {
        "description": (
            "Perf trajectory of the Monte-Carlo engines: trials/sec per "
            "(protocol, failure law) for the event and vectorized backends "
            "plus their ratio, and the schedule interpreter's cost relative "
            "to the legacy hand-written event walks. Written by "
            "benchmarks/test_bench_engine.py (REPRO_BENCH_QUICK shrinks the "
            "vectorized sweep point) and uploaded by the CI bench job as a "
            "workflow artifact."
        ),
        "quick_mode": QUICK,
        "vectorized_trials": SWEEP_TRIALS,
        "event_trials": event_runs,
        "interpreter_trials": interpreter_runs,
        "seed": SEED,
        "matrix": matrix,
        "interpreter_vs_legacy_walk": interpreter,
    }
    TRAJECTORY_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nperf trajectory written to {TRAJECTORY_PATH}")


# --------------------------------------------------------------------- #
# BENCH trajectory: absolute timings tracked by pytest-benchmark.
# --------------------------------------------------------------------- #
def test_bench_event_backend(benchmark):
    runs = 200 if QUICK else 500
    result = benchmark.pedantic(
        _time_event_backend, args=(runs,), iterations=1, rounds=1
    )
    assert result > 0.0


def test_bench_vectorized_backend(benchmark):
    engine = resolve_protocol("PurePeriodicCkpt").vectorized_cls(
        _parameters(), _workload("PurePeriodicCkpt")
    )
    table = benchmark.pedantic(
        engine.run_trials, args=(SWEEP_TRIALS,), kwargs={"seed": SEED},
        iterations=1, rounds=3,
    )
    assert table.runs == SWEEP_TRIALS


@pytest.mark.parametrize(
    "protocol", ["BiPeriodicCkpt", "ABFT&PeriodicCkpt"]
)
def test_bench_vectorized_phased_backend(benchmark, protocol):
    engine = VECTORIZED_ENGINES[protocol](_parameters(), _workload(protocol))
    table = benchmark.pedantic(
        engine.run_trials, args=(SWEEP_TRIALS,), kwargs={"seed": SEED},
        iterations=1, rounds=3,
    )
    assert table.runs == SWEEP_TRIALS
