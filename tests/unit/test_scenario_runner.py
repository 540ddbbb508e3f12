"""Unit tests for running scenarios end-to-end and the validation guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocols import BiPeriodicCkptSimulator, PurePeriodicCkptSimulator
from repro.experiments.validation import (
    NonExponentialValidationError,
    validate_configuration,
    validate_spec,
)
from repro.failures import (
    LogNormalFailureModel,
    TraceFailureModel,
    WeibullFailureModel,
)
from repro.scenario import (
    ExponentialAssumptionWarning,
    Scenario,
    run_scenario,
    scenario_sweep_job,
)
from repro.utils import HOUR, MINUTE


def quick_scenario(**failure):
    builder = Scenario.quick().with_simulation(runs=20, seed=7)
    if failure:
        builder = builder.with_failures(**failure)
    return builder.build()


class TestRunScenario:
    def test_model_only_run(self):
        spec = Scenario.quick().build()
        result = run_scenario(spec)
        assert len(result.points) == 12
        assert not result.validated
        assert all(not p.simulated_waste for p in result.points)

    def test_validated_run_has_sim_columns(self):
        result = run_scenario(quick_scenario())
        assert result.validated
        for point in result.points:
            assert set(point.simulated_waste) == set(point.model_waste)

    def test_overrides_replace_spec_simulation(self):
        spec = Scenario.quick().build()
        result = run_scenario(spec, validate=True, runs=5, seed=1)
        assert result.spec.simulation.validate
        assert result.spec.simulation.runs == 5
        assert result.spec.simulation.seed == 1

    def test_non_exponential_validation_warns(self):
        spec = quick_scenario(model="weibull", shape=0.7)
        with pytest.warns(ExponentialAssumptionWarning):
            result = run_scenario(spec)
        assert result.validated

    def test_seed_stable_under_weibull(self):
        spec = quick_scenario(model="weibull", shape=0.7)
        with pytest.warns(ExponentialAssumptionWarning):
            first = run_scenario(spec)
            second = run_scenario(spec)
        for a, b in zip(first.points, second.points):
            assert a.simulated_waste == b.simulated_waste

    def test_weibull_differs_from_exponential(self):
        exponential = run_scenario(quick_scenario())
        with pytest.warns(ExponentialAssumptionWarning):
            weibull = run_scenario(quick_scenario(model="weibull", shape=0.5))
        diffs = [
            abs(a.simulated_waste[p] - b.simulated_waste[p])
            for a, b in zip(exponential.points, weibull.points)
            for p in a.simulated_waste
            if a.alpha > 0 or True
        ]
        assert max(diffs) > 1e-3

    def test_sweep_job_carries_failure_spec(self):
        spec = quick_scenario(model="lognormal", sigma=1.5)
        job = scenario_sweep_job(spec)
        assert job.failure_model == "lognormal"
        assert dict(job.failure_params) == {"sigma": 1.5}
        model = job.point_failure_model(3600.0)
        assert isinstance(model, LogNormalFailureModel)
        assert model.mtbf == 3600.0

    def test_exponential_job_uses_default_stream(self):
        job = scenario_sweep_job(Scenario.quick().build())
        assert job.point_failure_model(3600.0) is None

    def test_exponential_alias_canonicalized(self):
        # "exp" must hit the same fast path (and cache keys) as "exponential".
        spec = quick_scenario(model="exp")
        job = scenario_sweep_job(spec)
        assert job.failure_model == "exponential"
        assert job.point_failure_model(3600.0) is None
        assert "failure_model" not in job.point_key(3600.0, 0.5)

    def test_unknown_protocol_message_suggests(self):
        from repro.campaign import SweepJob
        from repro.core.registry import UnknownProtocolError

        spec = Scenario.quick().build()
        with pytest.raises(
            UnknownProtocolError, match="unknown protocols"
        ) as excinfo:
            SweepJob(
                parameters=spec.parameters(),
                application_time=spec.workload.total_time,
                mtbf_values=(3600.0,),
                alpha_values=(0.5,),
                protocols=("BiPeriodikCkpt",),
            )
        assert "did you mean" in str(excinfo.value)

    def test_trace_sweep_shards_match_serial(self, inline_pool):
        # Stateful (trace) models must not carry replay cursors from one
        # trial, or one shard, into the next.
        from repro.campaign import SweepRunner

        spec = (
            Scenario.quick()
            .with_failures("trace", interarrivals=[1800.0, 5400.0, 900.0])
            .with_simulation(runs=16, seed=11)
            .build()
        )
        with pytest.warns(ExponentialAssumptionWarning):
            serial = run_scenario(spec)
        # Direct campaign-layer run: two shards on one simulator, in process.
        with inline_pool():
            sharded = SweepRunner(workers=2).run(scenario_sweep_job(spec))
        for a, b in zip(serial.points, sharded.points):
            assert a.simulated_waste == b.simulated_waste
            assert a.simulated == b.simulated

    def test_table_and_csv(self, tmp_path):
        result = run_scenario(Scenario.quick().build())
        assert "quick" in result.to_table().to_text()
        assert result.write_csv(tmp_path / "scenario.csv").exists()

    def test_cache_resume(self, tmp_path):
        spec = quick_scenario()
        first = run_scenario(spec, cache_dir=tmp_path)
        second = run_scenario(spec, cache_dir=tmp_path)
        assert first.sweep.computed_points == 12
        assert second.sweep.cached_points == 12
        for a, b in zip(first.points, second.points):
            assert a.simulated_waste == b.simulated_waste


class TestSeedStableSimulators:
    """Same seed -> identical traces for every non-exponential law."""

    @pytest.fixture
    def workload_params(self, paper_parameters):
        from repro import ApplicationWorkload

        workload = ApplicationWorkload.single_epoch(
            12 * HOUR, 0.8, library_fraction=0.8
        )
        return paper_parameters, workload

    @pytest.mark.parametrize(
        ("make_model", "seed_sensitive"),
        [
            (lambda mtbf: WeibullFailureModel(mtbf, shape=0.7), True),
            (lambda mtbf: LogNormalFailureModel(mtbf, sigma=1.2), True),
            # Trace replay is deterministic by construction: every seed
            # replays the same recorded failures.
            (
                lambda mtbf: TraceFailureModel([30 * MINUTE, 90 * MINUTE, 2 * HOUR]),
                False,
            ),
        ],
        ids=["weibull", "lognormal", "trace"],
    )
    def test_same_seed_same_trace(self, workload_params, make_model, seed_sensitive):
        parameters, workload = workload_params
        model = make_model(parameters.platform_mtbf)
        simulator = PurePeriodicCkptSimulator(
            parameters, workload, failure_model=model
        )
        first = simulator.simulate(seed=42)
        second = simulator.simulate(seed=42)
        assert first.makespan == second.makespan
        assert first.failure_count == second.failure_count
        third = simulator.simulate(seed=43)
        if seed_sensitive:
            assert (third.makespan, third.failure_count) != (
                first.makespan,
                first.failure_count,
            )
        else:
            assert third.makespan == first.makespan

    def test_trace_model_reset_between_runs(self, workload_params):
        parameters, workload = workload_params
        model = TraceFailureModel([30 * MINUTE, 90 * MINUTE], cycle=True)
        simulator = BiPeriodicCkptSimulator(
            parameters, workload, failure_model=model
        )
        rng = np.random.default_rng(0)
        first = simulator.simulate(rng=rng)
        # A second run must replay the trace from the start, not continue it.
        second = simulator.simulate(rng=np.random.default_rng(0))
        assert first.failure_count == second.failure_count
        assert first.makespan == second.makespan


class TestValidationGuard:
    def test_exponential_default_unchanged(self, paper_parameters, small_workload):
        point = validate_configuration(
            "PurePeriodicCkpt", paper_parameters, small_workload, runs=20
        )
        assert point.has_model_column
        assert abs(point.difference) < 0.2

    def test_non_exponential_raises_by_default(
        self, paper_parameters, small_workload
    ):
        model = WeibullFailureModel(paper_parameters.platform_mtbf, shape=0.7)
        with pytest.raises(NonExponentialValidationError, match="exponential"):
            validate_configuration(
                "PurePeriodicCkpt",
                paper_parameters,
                small_workload,
                runs=10,
                failure_model=model,
            )

    def test_non_exponential_warn_skips_model_column(
        self, paper_parameters, small_workload
    ):
        model = WeibullFailureModel(paper_parameters.platform_mtbf, shape=0.7)
        with pytest.warns(UserWarning, match="NaN"):
            point = validate_configuration(
                "PurePeriodicCkpt",
                paper_parameters,
                small_workload,
                runs=10,
                failure_model=model,
                on_non_exponential="warn",
            )
        assert not point.has_model_column
        assert np.isnan(point.model_waste)
        assert 0.0 <= point.simulated_waste <= 1.0

    def test_explicit_exponential_model_accepted(
        self, paper_parameters, small_workload
    ):
        from repro import ExponentialFailureModel

        point = validate_configuration(
            "bi",
            paper_parameters,
            small_workload,
            runs=10,
            failure_model=ExponentialFailureModel(paper_parameters.platform_mtbf),
        )
        assert point.protocol == "BiPeriodicCkpt"
        assert point.has_model_column

    def test_bad_mode_rejected(self, paper_parameters, small_workload):
        with pytest.raises(ValueError, match="on_non_exponential"):
            validate_configuration(
                "pure",
                paper_parameters,
                small_workload,
                on_non_exponential="ignore",
            )

    def test_validate_spec_raises_for_non_exponential(self):
        spec = quick_scenario(model="weibull", shape=0.7)
        with pytest.raises(NonExponentialValidationError):
            validate_spec(spec, runs=10)

    def test_weak_scaling_spec_reproduces_harness(self):
        # The saved per-node spec must yield the same ABFT waste as the
        # weak-scaling harness (the per_epoch=False override rides in
        # model_params, not in out-of-band Python).
        from repro.experiments import (
            paper_figure8_scenario,
            run_weak_scaling,
            weak_scaling_spec,
        )

        scenario = paper_figure8_scenario()
        harness = run_weak_scaling(scenario, node_counts=(10_000,))
        spec = weak_scaling_spec(scenario, 10_000)
        bound = spec.resolve("ABFT&PeriodicCkpt")
        waste = bound.model.evaluate(spec.application_workload()).waste
        assert waste == harness.rows[0].waste["ABFT&PeriodicCkpt"]

    def test_validate_spec_exponential_path(self):
        spec = quick_scenario()
        point = validate_spec(spec, "abft", runs=10)
        assert point.protocol == "ABFT&PeriodicCkpt"
        assert point.has_model_column


class TestOptimizeScenario:
    """The ScenarioSpec-consuming entry point of the strategy advisor."""

    def test_optimizes_every_grid_point(self):
        from repro.scenario import optimize_scenario

        spec = quick_scenario()
        result = optimize_scenario(spec)
        assert len(result.points) == len(spec.mtbf_axis) * len(spec.alpha_axis)
        for point in result.points:
            assert set(point.optima) == set(spec.canonical_protocols)
            assert point.winner in spec.canonical_protocols
            best = min(point.optima.values(), key=lambda o: o.waste)
            assert point.optima[point.winner].waste == best.waste

    def test_numeric_periods_match_closed_forms(self):
        from repro.scenario import optimize_scenario

        spec = quick_scenario().replace(protocols=("PurePeriodicCkpt",))
        result = optimize_scenario(spec)
        for point in result.points:
            optimum = point.optima["PurePeriodicCkpt"]
            if optimum.feasible and not optimum.flat:
                assert optimum.relative_error("period") < 1e-3

    def test_protocol_override_and_aliases(self):
        from repro.scenario import optimize_scenario

        result = optimize_scenario(quick_scenario(), protocols=("pure", "none"))
        assert result.spec.canonical_protocols == ("PurePeriodicCkpt", "NoFT")
        assert all(
            set(point.optima) == {"PurePeriodicCkpt", "NoFT"}
            for point in result.points
        )

    def test_honours_model_params(self):
        from repro.scenario import optimize_scenario

        spec = quick_scenario().replace(
            protocols=("ABFT&PeriodicCkpt",),
            model_params=(("ABFT&PeriodicCkpt", (("per_epoch", False),)),),
        )
        result = optimize_scenario(spec)  # must not raise: kwargs forwarded
        assert result.points

    def test_table_and_csv(self, tmp_path):
        from repro.scenario import optimize_scenario

        result = optimize_scenario(quick_scenario())
        text = result.to_table().to_text()
        assert "winner" in text and "opt_waste[PurePeriodicCkpt]" in text
        path = result.write_csv(tmp_path / "optimized.csv")
        assert path.exists()
        assert "opt_period[PurePeriodicCkpt]" in path.read_text()

    def test_winner_grid_shape(self):
        from repro.scenario import optimize_scenario

        spec = quick_scenario()
        grid = optimize_scenario(spec).winner_grid()
        assert set(grid) == {
            (m, a) for m in spec.mtbf_axis for a in spec.alpha_axis
        }
