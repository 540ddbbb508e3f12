"""Unit tests for the simulation-backed refinement (repro.optimize.refine)."""

from __future__ import annotations

import math

import pytest

from repro import ApplicationWorkload, ResilienceParameters
from repro.optimize import refine_period, simulate_at_periods
from repro.obs import reset_log_notes
from repro.utils import MINUTE, WEEK


@pytest.fixture
def parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=1 * MINUTE,
        library_fraction=0.8,
    )


@pytest.fixture
def workload() -> ApplicationWorkload:
    return ApplicationWorkload.single_epoch(1 * WEEK, 0.8, library_fraction=0.8)


class TestSimulateAtPeriods:
    def test_backends_are_bit_identical(self, parameters, workload):
        kwargs = dict(runs=40, seed=2014)
        vectorized = simulate_at_periods(
            "PurePeriodicCkpt",
            parameters,
            workload,
            {"period": 3000.0},
            backend="vectorized",
            **kwargs,
        )
        event = simulate_at_periods(
            "PurePeriodicCkpt",
            parameters,
            workload,
            {"period": 3000.0},
            backend="event",
            **kwargs,
        )
        assert vectorized == event

    def test_phased_backends_are_bit_identical(self, parameters, workload):
        kwargs = dict(runs=20, seed=2014)
        periods = {"general_period": 3000.0, "library_period": 2500.0}
        vectorized = simulate_at_periods(
            "BiPeriodicCkpt",
            parameters,
            workload,
            periods,
            backend="vectorized",
            **kwargs,
        )
        event = simulate_at_periods(
            "BiPeriodicCkpt",
            parameters,
            workload,
            periods,
            backend="event",
            **kwargs,
        )
        assert vectorized == event

    def test_auto_uses_vectorized_for_phased_protocols(self, parameters, workload):
        summary = simulate_at_periods(
            "BiPeriodicCkpt",
            parameters,
            workload,
            {"general_period": 3000.0, "library_period": 2500.0},
            runs=5,
            seed=1,
            backend="auto",
        )
        assert summary["runs"] == 5
        assert 0.0 <= summary["waste_mean"] <= 1.0

    def test_non_exponential_law_is_vectorized(self, parameters, workload):
        kwargs = dict(
            runs=5,
            seed=1,
            failure_model="weibull",
            failure_params={"shape": 0.7},
        )
        vectorized = simulate_at_periods(
            "PurePeriodicCkpt",
            parameters,
            workload,
            {"period": 3000.0},
            backend="vectorized",
            **kwargs,
        )
        event = simulate_at_periods(
            "PurePeriodicCkpt",
            parameters,
            workload,
            {"period": 3000.0},
            backend="event",
            **kwargs,
        )
        assert vectorized == event

    def test_trace_law_runs_vectorized(self, parameters, workload, capsys):
        reset_log_notes()
        kwargs = dict(
            runs=5,
            seed=1,
            failure_model="trace",
            failure_params={"interarrivals": [4000.0, 9000.0, 2500.0]},
        )
        summary = simulate_at_periods(
            "PurePeriodicCkpt",
            parameters,
            workload,
            {"period": 3000.0},
            backend="auto",
            **kwargs,
        )
        assert summary["runs"] == 5
        # Trace replay batches through per-trial cursors: no event-engine
        # fallback, so no stderr note.
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == ""
        # And the explicit backends agree bit for bit.
        event = simulate_at_periods(
            "PurePeriodicCkpt",
            parameters,
            workload,
            {"period": 3000.0},
            backend="event",
            **kwargs,
        )
        vectorized = simulate_at_periods(
            "PurePeriodicCkpt",
            parameters,
            workload,
            {"period": 3000.0},
            backend="vectorized",
            **kwargs,
        )
        assert vectorized == event == summary


class TestRefinePeriod:
    def test_candidates_include_analytical_optimum(self, parameters, workload):
        refined = refine_period(
            "PurePeriodicCkpt",
            parameters,
            workload,
            runs=30,
            seed=7,
            points=3,
            rounds=1,
        )
        assert refined.best is not None
        scales = [candidate.scale for candidate in refined.candidates]
        assert any(abs(scale - 1.0) < 1e-12 for scale in scales)
        assert refined.computed == len(refined.candidates)
        assert refined.cached == 0

    def test_best_has_lowest_simulated_waste(self, parameters, workload):
        refined = refine_period(
            "PurePeriodicCkpt",
            parameters,
            workload,
            runs=30,
            seed=7,
            points=5,
            rounds=1,
        )
        best = min(c.waste_mean for c in refined.candidates)
        assert refined.best.waste_mean == best
        assert refined.shift == refined.best.scale

    def test_cache_makes_refinement_resumable(self, parameters, workload, tmp_path):
        kwargs = dict(runs=25, seed=3, points=3, rounds=2, cache_dir=tmp_path)
        first = refine_period("PurePeriodicCkpt", parameters, workload, **kwargs)
        assert first.computed > 0 and first.cached == 0
        second = refine_period("PurePeriodicCkpt", parameters, workload, **kwargs)
        assert second.computed == 0
        assert second.cached == len(second.candidates)
        assert second.refined_periods == first.refined_periods
        assert [c.waste_mean for c in second.candidates] == [
            c.waste_mean for c in first.candidates
        ]

    def test_resume_false_recomputes(self, parameters, workload, tmp_path):
        kwargs = dict(runs=10, seed=3, points=3, rounds=1, cache_dir=tmp_path)
        refine_period("PurePeriodicCkpt", parameters, workload, **kwargs)
        recomputed = refine_period(
            "PurePeriodicCkpt", parameters, workload, resume=False, **kwargs
        )
        assert recomputed.computed == len(recomputed.candidates)

    def test_infeasible_point_refines_to_nothing(self, workload):
        hopeless = ResilienceParameters.from_scalars(
            platform_mtbf=600.0, checkpoint=600.0, recovery=600.0, downtime=60.0
        )
        refined = refine_period("PurePeriodicCkpt", hopeless, workload, runs=5, seed=1)
        assert refined.best is None
        assert refined.candidates == ()
        assert math.isnan(refined.refined_periods["period"])
        assert refined.shift == 1.0

    def test_no_knob_protocol_refines_to_nothing(self, parameters, workload):
        refined = refine_period("NoFT", parameters, workload, runs=5, seed=1)
        assert refined.best is None and refined.candidates == ()

    def test_invalid_fan_geometry_rejected(self, parameters, workload):
        with pytest.raises(ValueError):
            refine_period("pure", parameters, workload, points=0)
        with pytest.raises(ValueError):
            refine_period("pure", parameters, workload, span=1.0)

    def test_simulated_optimum_improves_on_worse_periods(
        self, parameters, workload
    ):
        # With enough runs the simulated ranking should not prefer a period
        # far from the analytical optimum's neighbourhood.
        refined = refine_period(
            "PurePeriodicCkpt",
            parameters,
            workload,
            runs=60,
            seed=11,
            span=4.0,
            points=5,
            rounds=1,
        )
        assert 0.25 <= refined.shift <= 4.0
        assert refined.best.waste_mean <= refined.candidates[0].waste_mean

    def test_two_point_fan_stays_in_span(self, parameters, workload):
        # points=2 used to divide by zero; even counts must stay in span.
        from repro.optimize.refine import _scales

        assert _scales(2.0, 2) == (0.5, 1.0)
        assert _scales(2.0, 3) == (0.5, 1.0, 2.0)
        for points in range(1, 8):
            scales = _scales(2.0, points)
            assert len(scales) == points
            assert 1.0 in scales
            assert all(0.5 - 1e-12 <= s <= 2.0 + 1e-12 for s in scales)
        refined = refine_period(
            "pure", parameters, workload, runs=5, seed=1, points=2, rounds=1
        )
        assert len(refined.candidates) == 2

    def test_simulator_kwargs_reach_candidates_and_cache_key(
        self, parameters, workload, tmp_path
    ):
        # Protocol options beyond the periods must shape the simulated
        # candidates and split the cache: a safeguard=True refinement and a
        # default one must not share entries.
        kwargs = dict(runs=8, seed=3, points=3, rounds=1, cache_dir=tmp_path)
        plain = refine_period("abft", parameters, workload, **kwargs)
        assert plain.computed == len(plain.candidates)
        toggled = refine_period(
            "abft",
            parameters,
            workload,
            model_kwargs={"safeguard": True},
            simulator_kwargs={"safeguard": True},
            **kwargs,
        )
        assert toggled.computed == len(toggled.candidates)  # no cache bleed
        resumed = refine_period(
            "abft",
            parameters,
            workload,
            model_kwargs={"safeguard": True},
            simulator_kwargs={"safeguard": True},
            **kwargs,
        )
        assert resumed.computed == 0  # but same-config re-runs do resume

    def test_simulator_kwargs_change_the_simulation(self, parameters, workload):
        from repro.optimize import simulate_at_periods

        base = simulate_at_periods(
            "pure", parameters, workload, {}, runs=10, seed=4, backend="event",
            simulator_kwargs={"period_formula": "young"},
        )
        paper = simulate_at_periods(
            "pure", parameters, workload, {}, runs=10, seed=4, backend="event",
        )
        assert base != paper  # the option reached the simulator
