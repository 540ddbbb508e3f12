"""Property test: storage-stack protocols keep event/vectorized bit-identity.

The storage axis lowers every stack into effective scalar ``(C, R)`` inside
:class:`~repro.core.parameters.ResilienceParameters`, *before* either engine
sees the parameters -- so a protocol checkpointing on a multi-level or buddy
stack must stay bit-identical between the event walk, the serial vectorized
engine and the sharded executor at any worker count, exactly like the flat
scalar configurations of ``test_property_vectorized``.  Every assertion is
exact ``==``, never approximate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign.executor import ShardedVectorizedExecutor
from repro.checkpointing import (
    BuddyStorage,
    LocalStorage,
    MultiLevelStorage,
    RemoteFileSystemStorage,
    StorageStack,
)
from repro.core.protocols import (
    AbftPeriodicCkptSimulator,
    BiPeriodicCkptSimulator,
    PurePeriodicCkptSimulator,
)
from repro.core.registry import resolve_protocol
from repro.failures import ExponentialFailureModel, WeibullFailureModel
from repro.simulation.rng import RandomStreams
from repro.simulation.trace import CATEGORIES
from repro.utils import GB, HOUR, MINUTE, TB

PAIRS = {
    name: (simulator, resolve_protocol(name).vectorized_cls)
    for name, simulator in (
        ("PurePeriodicCkpt", PurePeriodicCkptSimulator),
        ("BiPeriodicCkpt", BiPeriodicCkptSimulator),
        ("ABFT&PeriodicCkpt", AbftPeriodicCkptSimulator),
    )
}

LAW_MODELS = {
    "exponential": lambda mtbf: ExponentialFailureModel(mtbf),
    "weibull": lambda mtbf: WeibullFailureModel(mtbf, shape=0.7),
}

MTBF_CHOICES = (45 * MINUTE, 2 * HOUR, 8 * HOUR)

#: 9 trials shard unevenly under every worker count below (7 -> 2+...+1).
SHARD_RUNS = 9


def _multilevel_stack() -> StorageStack:
    storage = MultiLevelStorage(
        LocalStorage(node_write_bandwidth=5 * GB),
        RemoteFileSystemStorage(write_bandwidth=100 * GB),
        remote_fraction=0.25,
        remote_read_fraction=0.25,
    )
    return StorageStack(storage, data_bytes=64 * TB, node_count=1000)


def _buddy_stack() -> StorageStack:
    storage = BuddyStorage(
        link_bandwidth=10 * GB,
        fallback_storage=RemoteFileSystemStorage(write_bandwidth=100 * GB),
    )
    return StorageStack(storage, data_bytes=64 * TB, node_count=1000)


STACKS = {"multi-level": _multilevel_stack, "buddy": _buddy_stack}


def _storage_parameters(stack_name: str, mtbf: float) -> ResilienceParameters:
    return ResilienceParameters.from_storage(
        platform_mtbf=mtbf,
        storage=STACKS[stack_name](),
        downtime=60.0,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )


def _period_kwargs(protocol: str, period: float | None) -> dict:
    if period is None:
        return {}
    if protocol == "PurePeriodicCkpt":
        return {"period": period}
    if protocol == "BiPeriodicCkpt":
        return {"general_period": period, "library_period": period}
    return {"general_period": period}


@settings(max_examples=25, deadline=None)
@given(
    protocol=st.sampled_from(sorted(PAIRS)),
    stack_name=st.sampled_from(sorted(STACKS)),
    law=st.sampled_from(sorted(LAW_MODELS)),
    mtbf=st.sampled_from(MTBF_CHOICES),
    period=st.sampled_from((None, 1800.0, 5000.0)),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from((1, 2, 3, 7)),
)
def test_storage_stack_bit_identity(
    protocol, stack_name, law, mtbf, period, seed, workers
):
    """Event == serial vectorized == sharded, for storage-lowered parameters.

    The buddy stack's risk-weighted recovery makes the lowered ``R`` depend
    on the platform MTBF; the multi-level stack blends two media.  Either
    way the parameters both engines receive are the same scalars, so the
    identity contract must hold trial for trial and column for column.
    """
    parameters = _storage_parameters(stack_name, mtbf)
    assert parameters.storage is not None
    workload = ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)
    kwargs = _period_kwargs(protocol, period)
    event_cls, vectorized_cls = PAIRS[protocol]
    engine = vectorized_cls(
        parameters,
        workload,
        failure_model=LAW_MODELS[law](mtbf),
        max_slowdown=4.0,
        **kwargs,
    )
    serial = engine.run_trials(SHARD_RUNS, seed=seed)
    sharded = ShardedVectorizedExecutor(workers=workers, backend="serial").run(
        engine, runs=SHARD_RUNS, seed=seed
    )
    assert sharded == serial, (protocol, stack_name, law, workers)
    simulator = event_cls(
        parameters,
        workload,
        failure_model=LAW_MODELS[law](mtbf),
        max_slowdown=4.0,
        **kwargs,
    )
    streams = RandomStreams(seed)
    for trial in range(SHARD_RUNS):
        trace = simulator.simulate(streams.generator_for_trial(trial))
        row = sharded.data[trial]
        assert float(row["makespan"]) == trace.makespan, (protocol, stack_name, trial)
        assert float(row["waste"]) == trace.waste
        assert int(row["failure_count"]) == trace.failure_count
        assert bool(row["truncated"]) == trace.metadata["truncated"]
        for category in CATEGORIES:
            assert float(row[category]) == getattr(trace.breakdown, category), (
                protocol,
                stack_name,
                trial,
                category,
            )


@settings(max_examples=15, deadline=None)
@given(
    protocol=st.sampled_from(sorted(PAIRS)),
    stack_name=st.sampled_from(sorted(STACKS)),
    mtbf=st.sampled_from(MTBF_CHOICES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_storage_kwarg_equals_lowered_scalars(protocol, stack_name, mtbf, seed):
    """``storage=`` on the simulator == flat scalar params at the lowered costs.

    Lowering is the single source of truth: handing the stack to the
    simulator must produce exactly the trials of a scalar parameter bundle
    built from the stack's own lowered ``(C, R)``.
    """
    parameters = _storage_parameters(stack_name, mtbf)
    flat = ResilienceParameters.from_scalars(
        platform_mtbf=mtbf,
        checkpoint=parameters.full_checkpoint,
        recovery=parameters.full_recovery,
        downtime=60.0,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )
    workload = ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)
    event_cls, _ = PAIRS[protocol]
    base = ResilienceParameters.from_scalars(
        platform_mtbf=mtbf,
        checkpoint=1.0,  # overwritten by the storage kwarg
        downtime=60.0,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )
    via_kwarg = event_cls(base, workload, storage=parameters.storage)
    via_scalars = event_cls(flat, workload)
    streams_a, streams_b = RandomStreams(seed), RandomStreams(seed)
    for trial in range(4):
        a = via_kwarg.simulate(streams_a.generator_for_trial(trial))
        b = via_scalars.simulate(streams_b.generator_for_trial(trial))
        assert a.makespan == b.makespan, (protocol, stack_name, trial)
        assert a.waste == b.waste


@pytest.mark.parametrize("stack_name", sorted(STACKS))
def test_storage_stack_process_pool_bit_identity(stack_name):
    """The process transport pickles storage-carrying parameters losslessly."""
    mtbf = 45 * MINUTE
    parameters = _storage_parameters(stack_name, mtbf)
    workload = ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)
    engine = PAIRS["PurePeriodicCkpt"][1](
        parameters,
        workload,
        failure_model=ExponentialFailureModel(mtbf),
        period=1800.0,
    )
    serial = engine.run_trials(7, seed=23)
    sharded = ShardedVectorizedExecutor(workers=3, backend="process").run(
        engine, runs=7, seed=23
    )
    assert sharded == serial
