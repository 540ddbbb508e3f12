"""Unit tests for the experiment harness (configs, sweeps, figure generators)."""

from __future__ import annotations

import math

import pytest

from repro.application.scaling import ScalingMode
from repro.campaign import SweepJob, SweepRunner
from repro.experiments import (
    paper_figure7_config,
    paper_figure8_scenario,
    paper_figure9_scenario,
    paper_figure10_scenario,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    validate_configuration,
)
from repro.experiments.figure7 import PROTOCOLS
from repro.utils import MINUTE, WEEK


class TestConfig:
    def test_paper_figure7_grid(self):
        config = paper_figure7_config()
        assert config.application_time == 1 * WEEK
        assert config.checkpoint == 10 * MINUTE
        assert config.mtbf_values[0] == 60 * MINUTE
        assert config.mtbf_values[-1] == 240 * MINUTE
        assert config.alpha_values[0] == 0.0
        assert config.alpha_values[-1] == 1.0

    def test_reduced_grid(self):
        reduced = paper_figure7_config().reduced(mtbf_count=3, alpha_count=4)
        assert len(reduced.mtbf_values) == 3
        assert len(reduced.alpha_values) == 4
        assert reduced.checkpoint == 10 * MINUTE

    def test_parameters_helper(self):
        params = paper_figure7_config().parameters(100 * MINUTE)
        assert params.mtbf == 100 * MINUTE
        assert params.rho == 0.8

    def test_figure_scenarios_differ_as_documented(self):
        fig8 = paper_figure8_scenario()
        fig9 = paper_figure9_scenario()
        fig10 = paper_figure10_scenario()
        assert fig8.general_law.complexity_exponent == 3.0
        assert fig9.general_law.complexity_exponent == 2.0
        assert fig9.checkpoint_scaling is ScalingMode.LINEAR
        assert fig10.checkpoint_scaling is ScalingMode.CONSTANT


class TestSweep:
    def test_sweep_covers_full_grid(self, paper_parameters):
        job = SweepJob(
            parameters=paper_parameters,
            application_time=1 * WEEK,
            mtbf_values=(60 * MINUTE, 120 * MINUTE),
            alpha_values=(0.0, 0.5, 1.0),
            protocols=("PurePeriodicCkpt",),
        )
        points = SweepRunner().run(job).points
        assert len(points) == 6
        assert all("PurePeriodicCkpt" in p.model_waste for p in points)
        assert {p.alpha for p in points} == {0.0, 0.5, 1.0}


class TestFigure7:
    def test_model_only_run(self):
        config = paper_figure7_config().reduced(mtbf_count=3, alpha_count=3)
        result = run_figure7(config)
        assert len(result.rows) == 9
        assert not result.validated
        grid = result.waste_grid("PurePeriodicCkpt")
        assert len(grid) == 9
        assert all(0.0 <= w <= 1.0 for w in grid.values())

    def test_pure_waste_constant_in_alpha_and_composite_decreasing(self):
        config = paper_figure7_config().reduced(mtbf_count=2, alpha_count=5)
        result = run_figure7(config)
        for mtbf in config.mtbf_values:
            pure = [
                result.waste_grid("PurePeriodicCkpt")[(mtbf, a)]
                for a in config.alpha_values
            ]
            composite = [
                result.waste_grid("ABFT&PeriodicCkpt")[(mtbf, a)]
                for a in config.alpha_values
            ]
            assert max(pure) == pytest.approx(min(pure))
            assert composite[-1] < composite[0]

    def test_validation_adds_simulated_columns(self):
        config = paper_figure7_config().reduced(mtbf_count=2, alpha_count=2)
        result = run_figure7(config, validate=True, simulation_runs=20, seed=1)
        assert result.validated
        for row in result.rows:
            assert set(row.simulated_waste) == set(PROTOCOLS)
            for protocol in PROTOCOLS:
                assert row.difference(protocol) is not None
        assert result.max_difference("PurePeriodicCkpt") < 0.15

    def test_table_and_csv(self, tmp_path):
        config = paper_figure7_config().reduced(mtbf_count=2, alpha_count=2)
        result = run_figure7(config)
        text = result.to_table().to_text()
        assert "Figure 7" in text
        path = result.write_csv(tmp_path / "figure7.csv")
        assert path.exists()

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_figure7(protocols=("NotAProtocol",))


class TestWeakScalingFigures:
    def test_figure8_rows_and_series(self):
        result = run_figure8()
        assert [row.node_count for row in result.rows] == [
            1_000,
            10_000,
            100_000,
            1_000_000,
        ]
        assert all(row.alpha == pytest.approx(0.8) for row in result.rows)
        series = result.waste_series("ABFT&PeriodicCkpt")
        assert len(series) == 4

    def test_figure8_composite_wins_at_scale(self):
        result = run_figure8()
        at_100k = next(row for row in result.rows if row.node_count == 100_000)
        assert (
            at_100k.waste["ABFT&PeriodicCkpt"]
            < at_100k.waste["BiPeriodicCkpt"]
            <= at_100k.waste["PurePeriodicCkpt"]
        )
        crossover = result.crossover_node_count()
        assert crossover is not None and crossover <= 100_000

    def test_figure8_composite_slightly_worse_at_small_scale(self):
        result = run_figure8()
        at_1k = next(row for row in result.rows if row.node_count == 1_000)
        assert at_1k.waste["ABFT&PeriodicCkpt"] > at_1k.waste["PurePeriodicCkpt"]

    def test_figure9_alpha_grows_with_scale(self):
        result = run_figure9()
        alphas = [row.alpha for row in result.rows]
        assert alphas == sorted(alphas)
        assert alphas[0] == pytest.approx(0.55, abs=0.01)
        assert alphas[-1] == pytest.approx(0.975, abs=0.001)

    def test_figure10_constant_checkpoint_cost(self):
        result = run_figure10()
        costs = [row.checkpoint_cost for row in result.rows]
        assert all(cost == pytest.approx(60.0) for cost in costs)

    def test_figure10_periodic_protocols_benefit_from_constant_cost(self):
        with_growth = run_figure9(mtbf_scaling=ScalingMode.CONSTANT)
        without_growth = run_figure10(mtbf_scaling=ScalingMode.CONSTANT)
        last_growth = with_growth.rows[-1]
        last_const = without_growth.rows[-1]
        assert (
            last_const.waste["PurePeriodicCkpt"]
            < last_growth.waste["PurePeriodicCkpt"]
        )

    def test_figure10_composite_still_wins_at_million_nodes(self):
        result = run_figure10()
        last = result.rows[-1]
        assert last.waste["ABFT&PeriodicCkpt"] < last.waste["PurePeriodicCkpt"]
        assert last.waste["ABFT&PeriodicCkpt"] < last.waste["BiPeriodicCkpt"]

    def test_expected_failures_increase_with_scale(self):
        result = run_figure9()
        failures = [row.expected_failures["ABFT&PeriodicCkpt"] for row in result.rows]
        assert all(b > a for a, b in zip(failures, failures[1:]))

    def test_table_and_csv(self, tmp_path):
        result = run_figure10()
        assert "Figure 10" in result.to_table().to_text()
        assert result.write_csv(tmp_path / "fig10.csv").exists()

    def test_infeasible_regime_reported_as_full_waste(self):
        # Literal text reading at a million nodes: C = 100 min > mu = 14.4 min.
        result = run_figure8(mtbf_scaling=ScalingMode.INVERSE)
        last = result.rows[-1]
        assert last.waste["PurePeriodicCkpt"] == 1.0
        assert math.isinf(last.expected_failures["PurePeriodicCkpt"])


class TestValidateConfiguration:
    def test_returns_consistent_point(self, paper_parameters, small_workload):
        point = validate_configuration(
            "ABFT&PeriodicCkpt",
            paper_parameters,
            small_workload,
            runs=50,
            seed=9,
        )
        assert point.protocol == "ABFT&PeriodicCkpt"
        assert point.difference == pytest.approx(
            point.simulated_waste - point.model_waste
        )
        assert abs(point.difference) < 0.1
        assert point.simulation.runs == 50

    def test_unknown_protocol(self, paper_parameters, small_workload):
        with pytest.raises(ValueError):
            validate_configuration("Nope", paper_parameters, small_workload)
