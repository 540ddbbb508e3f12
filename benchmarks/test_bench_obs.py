"""Overhead gate for the repro.obs instrumentation (PR 9).

Instrumentation is only free if nobody pays for it when it is off.  This
module enforces the acceptance bound from the observability PR:

1. **Disabled overhead <= 2%**: on the 100k-trial ``PurePeriodicCkpt``
   bench cell, the instrumented public entry point
   (``run_trial_range`` with ``repro.obs`` disabled -- one flag check,
   then the bare engine) must stay within 2% of a baseline that calls
   the internal engine body directly, exactly as the pre-instrumentation
   code did.  A small absolute slack absorbs timer granularity on fast
   quick-mode cells.
2. **Bit-identity with tracing on**: the fully instrumented run (spans +
   phase profiling) must produce a table ``==`` to the uninstrumented
   one.  Timers never change values.

The trajectory -- baseline and instrumented seconds, the overhead ratio,
and the traced run's phase breakdown -- is written to the git-ignored
``.bench_build/BENCH_OBS.json`` (path overridable via
``REPRO_BENCH_OBS_PATH``) and uploaded by the CI bench job as a workflow
artifact.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the cell so the suite stays
fast under the tier-1 run; the 2% gate still applies, cushioned by the
absolute slack.

Run with::

    pytest benchmarks/test_bench_obs.py -q
    REPRO_BENCH_QUICK=1 pytest benchmarks/test_bench_obs.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

import repro.obs as obs
from repro import ApplicationWorkload, ResilienceParameters
from repro.core.registry import resolve_protocol
from repro.simulation.vectorized import VectorizedPhasedSimulator
from repro.utils import DAY, MINUTE

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "", "false")
#: The cell the 2% bound is defined on; quick mode shrinks it and leans
#: on the absolute slack instead.
BENCH_TRIALS = 10_000 if QUICK else 100_000
SEED = 2014
REPS = 5
#: Relative ceiling for disabled instrumentation, plus an absolute slack
#: so sub-second quick cells don't fail on scheduler jitter.
OVERHEAD_RATIO = 1.02
ABSOLUTE_SLACK = 0.010
TRAJECTORY_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_OBS_PATH",
        Path(__file__).resolve().parent.parent / ".bench_build" / "BENCH_OBS.json",
    )
)


@pytest.fixture(autouse=True)
def obs_disabled():
    """Benchmarks control instrumentation themselves; restore on exit."""
    was_enabled, was_tracing = obs.enabled(), obs.tracing()
    obs.configure(metrics=False, trace=False)
    obs.reset()
    yield
    obs.configure(trace=was_tracing, metrics=was_enabled)
    obs.reset()


def _parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
    )


def _workload() -> ApplicationWorkload:
    return ApplicationWorkload.single_epoch(1 * DAY, 0.8, library_fraction=0.8)


def _engine() -> VectorizedPhasedSimulator:
    return resolve_protocol("PurePeriodicCkpt").vectorized_cls(
        _parameters(), _workload()
    )


def _time_baseline(engine, trials: int) -> float:
    # The pre-instrumentation body of run_trial_range: run the chunked
    # engine core (each chunk derives its generators), no flag checks and
    # no profiling.
    start = time.perf_counter()
    engine._run_chunks(0, trials, SEED)
    return time.perf_counter() - start


def _time_instrumented(engine, trials: int) -> float:
    start = time.perf_counter()
    engine.run_trial_range(0, trials, seed=SEED)
    return time.perf_counter() - start


def test_disabled_instrumentation_overhead_gate():
    engine = _engine()
    # Warm both paths once (JIT-free, but page/allocator warmup matters),
    # then interleave the reps so drift hits both measurements equally.
    _time_baseline(engine, min(BENCH_TRIALS, 1000))
    _time_instrumented(engine, min(BENCH_TRIALS, 1000))
    baseline_times, instrumented_times = [], []
    for _ in range(REPS):
        baseline_times.append(_time_baseline(engine, BENCH_TRIALS))
        instrumented_times.append(_time_instrumented(engine, BENCH_TRIALS))
    baseline = min(baseline_times)
    instrumented = min(instrumented_times)
    ratio = instrumented / baseline

    # The gated run doubles as a correctness check: the public entry
    # point must match the bare body bit-for-bit.
    assert engine.run_trial_range(0, 200, seed=SEED) == engine._run_chunks(
        0, 200, SEED
    )

    print(
        f"\nobs disabled overhead ({BENCH_TRIALS} trials): baseline "
        f"{baseline:.3f}s, instrumented {instrumented:.3f}s, "
        f"ratio {ratio:.4f}"
    )
    _write_trajectory(baseline, instrumented, ratio)
    assert instrumented <= baseline * OVERHEAD_RATIO + ABSOLUTE_SLACK, (
        f"disabled instrumentation costs {ratio:.4f}x over the bare engine "
        f"on a {BENCH_TRIALS}-trial cell (acceptance bound: "
        f"{OVERHEAD_RATIO:.2f}x + {ABSOLUTE_SLACK * 1000:.0f}ms)"
    )


def test_traced_run_is_bit_identical_and_profiled():
    trials = min(BENCH_TRIALS, 5_000)
    plain = _engine().run_trial_range(0, trials, seed=SEED)

    # Build the engine under tracing too: the "compile" phase is recorded
    # at schedule-lowering time, not per run.
    obs.configure(trace=True)
    traced = _engine().run_trial_range(0, trials, seed=SEED)
    assert traced == plain  # instrumentation never changes values

    records = [r for r in obs.global_tracer().records() if r.name == "engine"]
    assert len(records) == 1
    span = records[0]
    assert span.args["trials"] == trials
    for phase in ("derive", "sample", "execute", "gather"):
        assert span.args[f"{phase}_seconds"] >= 0.0
    phases = obs.catalog.family("repro_engine_phase_seconds_total")
    recorded = {key[0] for key in phases.values()}
    assert recorded == {"compile", "derive", "sample", "execute", "gather"}


def _write_trajectory(
    baseline: float, instrumented: float, ratio: float
) -> None:
    payload = {
        "bench": "obs-overhead",
        "quick": QUICK,
        "trials": BENCH_TRIALS,
        "reps": REPS,
        "seed": SEED,
        "baseline_seconds": round(baseline, 6),
        "instrumented_disabled_seconds": round(instrumented, 6),
        "overhead_ratio": round(ratio, 6),
        "gate": {
            "ratio_ceiling": OVERHEAD_RATIO,
            "absolute_slack_seconds": ABSOLUTE_SLACK,
        },
    }
    TRAJECTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    TRAJECTORY_PATH.write_text(json.dumps(payload, indent=2) + "\n")
