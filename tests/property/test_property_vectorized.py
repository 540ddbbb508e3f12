"""Property test: event/vectorized bit-identity over random configurations.

The across-trials engine's contract is exact equality with the event walk on
every :class:`~repro.simulation.table.TrialTable` column, for every
``(protocol, failure law, period, seed)`` combination it supports --
including the ``max_slowdown`` truncation path and the degenerate regime
where the MTBF is below the downtime + recovery cost.  Hypothesis explores
that space; every assertion is exact ``==``, never approximate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign.executor import ShardedVectorizedExecutor
from repro.core.protocols import (
    AbftPeriodicCkptSimulator,
    BiPeriodicCkptSimulator,
    NoFaultToleranceSimulator,
    PurePeriodicCkptSimulator,
)
from repro.core.registry import resolve_protocol
from repro.failures import (
    ExponentialFailureModel,
    LogNormalFailureModel,
    TraceFailureModel,
    WeibullFailureModel,
)
from repro.simulation.rng import RandomStreams
from repro.simulation.trace import CATEGORIES
from repro.utils import HOUR, MINUTE

PAIRS = {
    name: (simulator, resolve_protocol(name).vectorized_cls)
    for name, simulator in (
        ("NoFT", NoFaultToleranceSimulator),
        ("PurePeriodicCkpt", PurePeriodicCkptSimulator),
        ("BiPeriodicCkpt", BiPeriodicCkptSimulator),
        ("ABFT&PeriodicCkpt", AbftPeriodicCkptSimulator),
    )
}

LAW_MODELS = {
    "exponential": lambda mtbf: ExponentialFailureModel(mtbf),
    "weibull": lambda mtbf: WeibullFailureModel(mtbf, shape=0.7),
    "lognormal": lambda mtbf: LogNormalFailureModel(mtbf, sigma=1.0),
}

#: Downtime + recovery of the shared parameter bundle is 660 s: the 150 s
#: MTBF draw exercises the mtbf <= D + R degenerate regime, where runs only
#: end through the max_slowdown truncation cap.
MTBF_CHOICES = (150.0, 45 * MINUTE, 2 * HOUR)

RUNS = 4


def _parameters(mtbf: float) -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=mtbf,
        checkpoint=10 * MINUTE,
        recovery=1 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )


def _period_kwargs(protocol: str, period: float | None) -> dict:
    if period is None or protocol == "NoFT":
        return {}
    if protocol == "PurePeriodicCkpt":
        return {"period": period}
    if protocol == "BiPeriodicCkpt":
        return {"general_period": period, "library_period": period}
    return {"general_period": period}


@settings(max_examples=30, deadline=None)
@given(
    protocol=st.sampled_from(sorted(PAIRS)),
    law=st.sampled_from(sorted(LAW_MODELS)),
    mtbf=st.sampled_from(MTBF_CHOICES),
    # None defers to the optimal-period formulas; 120 s sits below the
    # checkpoint cost, hitting the degenerate single-chunk path.
    period=st.sampled_from((None, 120.0, 1800.0, 5000.0)),
    alpha=st.sampled_from((0.0, 0.5, 0.8, 1.0)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_event_vectorized_bit_identity(protocol, law, mtbf, period, alpha, seed):
    parameters = _parameters(mtbf)
    workload = ApplicationWorkload.single_epoch(2 * HOUR, alpha, library_fraction=0.8)
    kwargs = _period_kwargs(protocol, period)
    model = LAW_MODELS[law](mtbf)
    # A low cap keeps the degenerate-MTBF walks affordable while exercising
    # the truncation path of both engines.
    event_cls, vectorized_cls = PAIRS[protocol]
    table = vectorized_cls(
        parameters, workload, failure_model=model, max_slowdown=4.0, **kwargs
    ).run_trials(RUNS, seed=seed)
    simulator = event_cls(
        parameters, workload, failure_model=model, max_slowdown=4.0, **kwargs
    )
    streams = RandomStreams(seed)
    for trial in range(RUNS):
        trace = simulator.simulate(streams.generator_for_trial(trial))
        row = table.data[trial]
        assert float(row["makespan"]) == trace.makespan, (protocol, law, trial)
        assert float(row["waste"]) == trace.waste, (protocol, law, trial)
        assert int(row["failure_count"]) == trace.failure_count
        assert bool(row["truncated"]) == trace.metadata["truncated"]
        for category in CATEGORIES:
            assert float(row[category]) == getattr(trace.breakdown, category), (
                protocol,
                law,
                trial,
                category,
            )


@settings(max_examples=10, deadline=None)
@given(
    protocol=st.sampled_from(("BiPeriodicCkpt", "ABFT&PeriodicCkpt")),
    epochs=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_multi_epoch_bit_identity(protocol, epochs, seed):
    """Per-epoch phase schedules stay identical for iterative workloads."""
    parameters = _parameters(2 * HOUR)
    workload = ApplicationWorkload.iterative(
        epochs, 1 * HOUR, 0.6, library_fraction=0.8
    )
    event_cls, vectorized_cls = PAIRS[protocol]
    table = vectorized_cls(parameters, workload).run_trials(RUNS, seed=seed)
    simulator = event_cls(parameters, workload)
    streams = RandomStreams(seed)
    for trial in range(RUNS):
        trace = simulator.simulate(streams.generator_for_trial(trial))
        row = table.data[trial]
        assert float(row["makespan"]) == trace.makespan, (protocol, trial)
        assert int(row["failure_count"]) == trace.failure_count
        for category in CATEGORIES:
            assert float(row[category]) == getattr(trace.breakdown, category)


#: Laws for the sharding property, including the stateful trace replay whose
#: per-trial cursors must survive arbitrary shard boundaries.  Interarrivals
#: scale with the MTBF draw so every regime sees a few failures.
SHARD_LAWS = dict(LAW_MODELS)
SHARD_LAWS["trace"] = lambda mtbf: TraceFailureModel(
    [0.6 * mtbf, 1.7 * mtbf, 0.35 * mtbf, 2.4 * mtbf, 1.1 * mtbf]
)

#: 9 trials shard unevenly under every worker count below: 7 workers yield
#: shards of 2 with a final shard of 1, 2 workers yield 5 + 4, etc.
SHARD_RUNS = 9


@settings(max_examples=20, deadline=None)
@given(
    protocol=st.sampled_from(sorted(PAIRS)),
    law=st.sampled_from(sorted(SHARD_LAWS)),
    mtbf=st.sampled_from(MTBF_CHOICES),
    period=st.sampled_from((None, 120.0, 1800.0)),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from((1, 2, 3, 7)),
)
def test_sharded_serial_event_bit_identity(protocol, law, mtbf, period, seed, workers):
    """Sharded == serial vectorized == event walk, for any worker count.

    The shard decomposition must be invisible: worker counts that split the
    campaign unevenly concatenate to the bit-identical serial table, and the
    trace law's per-trial cursors replay the same failures regardless of
    which shard owns a trial.  The 150 s MTBF draw and the 120 s period keep
    the truncation and degenerate single-chunk paths in scope.
    """
    parameters = _parameters(mtbf)
    workload = ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)
    kwargs = _period_kwargs(protocol, period)
    event_cls, vectorized_cls = PAIRS[protocol]
    engine = vectorized_cls(
        parameters,
        workload,
        failure_model=SHARD_LAWS[law](mtbf),
        max_slowdown=4.0,
        **kwargs,
    )
    serial = engine.run_trials(SHARD_RUNS, seed=seed)
    sharded = ShardedVectorizedExecutor(workers=workers, backend="serial").run(
        engine, runs=SHARD_RUNS, seed=seed
    )
    assert sharded == serial, (protocol, law, workers)
    simulator = event_cls(
        parameters,
        workload,
        failure_model=SHARD_LAWS[law](mtbf),
        max_slowdown=4.0,
        **kwargs,
    )
    streams = RandomStreams(seed)
    for trial in range(SHARD_RUNS):
        trace = simulator.simulate(streams.generator_for_trial(trial))
        row = sharded.data[trial]
        assert float(row["makespan"]) == trace.makespan, (protocol, law, trial)
        assert int(row["failure_count"]) == trace.failure_count
        assert bool(row["truncated"]) == trace.metadata["truncated"]
        for category in CATEGORIES:
            assert float(row[category]) == getattr(trace.breakdown, category)


@pytest.mark.parametrize("law", ("exponential", "trace"))
def test_sharded_process_pool_bit_identity(law):
    """The real process transport round-trips engines and tables losslessly."""
    parameters = _parameters(45 * MINUTE)
    workload = ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)
    engine = PAIRS["PurePeriodicCkpt"][1](
        parameters,
        workload,
        failure_model=SHARD_LAWS[law](45 * MINUTE),
        period=1800.0,
    )
    serial = engine.run_trials(7, seed=23)
    sharded = ShardedVectorizedExecutor(workers=3, backend="process").run(
        engine, runs=7, seed=23
    )
    assert sharded == serial


def test_rle_arrays_sized_by_unique_rounds():
    """A 1000-epoch identical-epoch schedule stores one epoch's rounds.

    The engine executes the *expanded* schedule (segment_count counts every
    repetition) but its per-round arrays are sized by the RLE-compressed
    unique rounds, so memory stays flat in the epoch count.
    """
    parameters = _parameters(2 * HOUR)
    workload = ApplicationWorkload.iterative(
        1000, 1 * HOUR, 0.6, library_fraction=0.8
    )
    engine = PAIRS["BiPeriodicCkpt"][1](parameters, workload)
    assert engine.segment_count >= 1000
    unique = engine.unique_round_count
    assert unique < engine.segment_count / 100  # compressed, not flattened
    for name in ("_kind", "_work", "_chunk", "_ckpt", "_duration", "_init_w"):
        assert len(getattr(engine, name)) == unique, name
    # And the compressed execution still matches the event walk.
    table = engine.run_trials(2, seed=5)
    simulator = BiPeriodicCkptSimulator(parameters, workload)
    streams = RandomStreams(5)
    for trial in range(2):
        trace = simulator.simulate(streams.generator_for_trial(trial))
        assert float(table.data[trial]["makespan"]) == trace.makespan


@pytest.mark.parametrize("protocol", sorted(PAIRS))
def test_degenerate_mtbf_truncates_identically(protocol):
    """mtbf <= D + R: every trial ends through the cap, in both engines."""
    parameters = _parameters(150.0)
    workload = ApplicationWorkload.single_epoch(1 * HOUR, 0.8, library_fraction=0.8)
    event_cls, vectorized_cls = PAIRS[protocol]
    table = vectorized_cls(parameters, workload, max_slowdown=3.0).run_trials(
        6, seed=17
    )
    simulator = event_cls(parameters, workload, max_slowdown=3.0)
    streams = RandomStreams(17)
    truncated = 0
    for trial in range(6):
        trace = simulator.simulate(streams.generator_for_trial(trial))
        row = table.data[trial]
        assert bool(row["truncated"]) == trace.metadata["truncated"]
        assert float(row["makespan"]) == trace.makespan
        truncated += int(row["truncated"])
    assert truncated == 6  # the regime is hopeless by construction
