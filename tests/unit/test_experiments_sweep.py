"""Regression tests pinning the Figure 7 (MTBF, alpha) sweep.

:class:`repro.campaign.SweepRunner` evaluates the Figure 7 heatmap grids,
through the vectorised analytical grid when the job allows it and per point
from the registered models otherwise.  These tests pin the sweep's contract
-- grid ordering, waste-dict keys, numeric values at known points -- against
both the runner and the scalar ``model_cls(...).waste(...)`` of every
protocol, and assert that each evaluation path reproduces the scalar models
bit for bit, so figure data cannot silently change.
"""

from __future__ import annotations

import pytest

from repro.application.workload import ApplicationWorkload
from repro.campaign import SweepJob, SweepRunner
from repro.core.analytical import PurePeriodicCkptModel
from repro.core.analytical.grid import waste_grid
from repro.core.parameters import ResilienceParameters
from repro.core.registry import resolve_protocol
from repro.utils import MINUTE, WEEK

PROTOCOLS = ("PurePeriodicCkpt", "BiPeriodicCkpt", "ABFT&PeriodicCkpt")
MTBFS = (60 * MINUTE, 120 * MINUTE, 240 * MINUTE)
ALPHAS = (0.0, 0.5, 1.0)

#: Paper-parameter waste values, pinned to 15 significant digits.  These are
#: the Figure 7 operating points at three MTBFs; a change here means the
#: figure data changed.
PINNED = {
    (3600.0, 0.0, "PurePeriodicCkpt"): 0.6217491947499509,
    (3600.0, 0.5, "BiPeriodicCkpt"): 0.603469522924179,
    (3600.0, 0.5, "ABFT&PeriodicCkpt"): 0.46384509969613286,
    (3600.0, 1.0, "ABFT&PeriodicCkpt"): 0.07912936833646556,
    (7200.0, 0.0, "PurePeriodicCkpt"): 0.43908725099762513,
    (7200.0, 0.5, "ABFT&PeriodicCkpt"): 0.2960592604495963,
    (7200.0, 1.0, "BiPeriodicCkpt"): 0.4063435502970184,
    (14400.0, 0.0, "PurePeriodicCkpt"): 0.30698207192814375,
    (14400.0, 0.5, "ABFT&PeriodicCkpt"): 0.1960627749244851,
    (14400.0, 1.0, "ABFT&PeriodicCkpt"): 0.04232663540380377,
}


@pytest.fixture(scope="module")
def base_parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=1 * MINUTE,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )


def _job(parameters: ResilienceParameters, **changes) -> SweepJob:
    return SweepJob(
        parameters=parameters,
        application_time=1 * WEEK,
        mtbf_values=MTBFS,
        alpha_values=ALPHAS,
        **changes,
    )


@pytest.fixture(scope="module")
def scalar_points(base_parameters) -> list:
    """``(mtbf, alpha, {protocol: waste})`` from each protocol's scalar
    model, MTBF-major."""
    points = []
    for mtbf in MTBFS:
        models = [
            resolve_protocol(name).model_cls(base_parameters.with_mtbf(mtbf))
            for name in PROTOCOLS
        ]
        for alpha in ALPHAS:
            workload = ApplicationWorkload.single_epoch(
                1 * WEEK, alpha, library_fraction=base_parameters.rho
            )
            points.append(
                (mtbf, alpha, {model.name: model.waste(workload) for model in models})
            )
    return points


@pytest.fixture(scope="module")
def sweep_points(base_parameters) -> list:
    return list(SweepRunner().run(_job(base_parameters)).points)


class TestSweepMtbfAlphaContract:
    def test_grid_ordering_is_mtbf_major(self, sweep_points):
        coords = [(p.mtbf, p.alpha) for p in sweep_points]
        assert coords == [(m, a) for m in MTBFS for a in ALPHAS]

    def test_waste_dict_keys_are_protocol_names(self, sweep_points, scalar_points):
        for point in sweep_points:
            assert tuple(point.model_waste) == PROTOCOLS
        for _, _, waste in scalar_points:
            assert tuple(waste) == PROTOCOLS

    def test_pinned_values(self, sweep_points, scalar_points):
        swept = {(p.mtbf, p.alpha): p.model_waste for p in sweep_points}
        scalar = {(mtbf, alpha): waste for mtbf, alpha, waste in scalar_points}
        for (mtbf, alpha, protocol), expected in PINNED.items():
            for source in (swept, scalar):
                assert source[(mtbf, alpha)][protocol] == pytest.approx(
                    expected, rel=1e-13
                )

    def test_alpha_zero_collapses_to_pure_periodic(self, sweep_points):
        for point in sweep_points:
            if point.alpha == 0.0:
                assert (
                    point.model_waste["BiPeriodicCkpt"]
                    == point.model_waste["ABFT&PeriodicCkpt"]
                    == point.model_waste["PurePeriodicCkpt"]
                )


class TestSweepRunnerEquivalence:
    """Every SweepRunner path reproduces the scalar models bit for bit."""

    #: "vector" is the default job, evaluated in one broadcast pass;
    #: "scalar" names the composite model's default ``per_epoch=True`` as a
    #: model option, which routes the same grid through the per-point
    #: model objects.
    @pytest.mark.parametrize(
        "model_params",
        [(), (("ABFT&PeriodicCkpt", (("per_epoch", True),)),)],
        ids=["vector", "scalar"],
    )
    def test_runner_matches_generator(
        self, base_parameters, scalar_points, model_params
    ):
        job = _job(base_parameters, model_params=model_params)
        result = SweepRunner().run(job)
        assert len(result.points) == len(scalar_points)
        for got, (mtbf, alpha, waste) in zip(result.points, scalar_points):
            assert (got.mtbf, got.alpha) == (mtbf, alpha)
            assert got.model_waste == waste

    def test_vectorized_grid_matches_generator(self, base_parameters, scalar_points):
        grids = waste_grid(base_parameters, 1 * WEEK, MTBFS, ALPHAS, PROTOCOLS)
        for mtbf, alpha, waste in scalar_points:
            i = MTBFS.index(mtbf)
            j = ALPHAS.index(alpha)
            for protocol in PROTOCOLS:
                assert float(grids[protocol][i, j]) == waste[protocol]

    def test_infeasible_regime_waste_is_one(self, base_parameters):
        # MTBF below D + R: checkpointing cannot keep up, waste saturates.
        grids = waste_grid(base_parameters, 1 * WEEK, (10 * MINUTE,), (0.0,))
        assert float(grids["PurePeriodicCkpt"][0, 0]) == 1.0
        scalar = PurePeriodicCkptModel(base_parameters.with_mtbf(10 * MINUTE))
        workload = ApplicationWorkload.single_epoch(1 * WEEK, 0.0)
        assert scalar.waste(workload) == 1.0
