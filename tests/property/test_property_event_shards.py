"""Event campaigns shard exactly like vectorized ones.

Every event simulator runs a campaign's ``[start, stop)`` slice through
``run_trial_range``, the entry point the across-trials engine has, so
:class:`~repro.campaign.executor.ShardedVectorizedExecutor` splits either
engine into contiguous shards.  For every protocol, under a memoryless and
a Weibull law, the sharded event table must equal the serial
:func:`~repro.simulation.runner.run_monte_carlo` table column for column,
for any worker count and both backends, and an event-backend campaign must
equal the same campaign on the vectorized backend.  Every assertion is
exact ``==``.
"""

from __future__ import annotations

import pytest

from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign.executor import ShardedVectorizedExecutor, campaign_engine
from repro.core.registry import protocol_names, resolve_protocol
from repro.failures import ExponentialFailureModel, WeibullFailureModel
from repro.simulation import run_monte_carlo
from repro.utils import HOUR, MINUTE

MTBF = 45 * MINUTE
RUNS = 23
SEED = 2014

LAWS = {
    "exponential": lambda: ExponentialFailureModel(MTBF),
    "weibull": lambda: WeibullFailureModel(MTBF, shape=0.7),
}


def _parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=MTBF,
        checkpoint=10 * MINUTE,
        recovery=1 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )


def _workload() -> ApplicationWorkload:
    return ApplicationWorkload.single_epoch(2 * HOUR, 0.8, library_fraction=0.8)


def _simulator(protocol: str, law: str):
    return resolve_protocol(protocol).simulator_cls(
        _parameters(), _workload(), failure_model=LAWS[law](), max_slowdown=4.0
    )


def _serial_table(simulator):
    return run_monte_carlo(simulator.simulate_once, runs=RUNS, seed=SEED).table


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("protocol", protocol_names())
def test_serial_shards_equal_the_event_runner(protocol, law, inline_pool):
    simulator = _simulator(protocol, law)
    serial = _serial_table(simulator)
    for workers in (2, 3, 7):
        with inline_pool():
            sharded = ShardedVectorizedExecutor(workers=workers).run(
                simulator, runs=RUNS, seed=SEED
            )
        assert sharded == serial, (protocol, law, workers)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("protocol", protocol_names())
def test_process_shards_equal_the_event_runner(protocol, law):
    simulator = _simulator(protocol, law)
    sharded = ShardedVectorizedExecutor(workers=2).run(
        simulator, runs=RUNS, seed=SEED
    )
    assert sharded == _serial_table(simulator)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("protocol", protocol_names())
def test_event_campaign_equals_vectorized_campaign(protocol, law, inline_pool):
    def campaign(backend: str):
        engine = campaign_engine(
            protocol,
            _parameters(),
            _workload(),
            backend=backend,
            max_slowdown=4.0,
            failure_model=LAWS[law](),
            law=law,
        )
        with inline_pool():
            return ShardedVectorizedExecutor(workers=3).run(
                engine, runs=RUNS, seed=SEED
            )

    assert campaign("event") == campaign("vectorized")
