"""Integration: end-to-end flows (storage -> parameters -> model -> simulation,
CLI round trips, example-style pipelines)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AbftPeriodicCkptModel,
    AbftPeriodicCkptSimulator,
    ApplicationWorkload,
    DatasetPartition,
    Platform,
    PurePeriodicCkptModel,
    ResilienceParameters,
    run_monte_carlo,
)
from repro.abft import AbftLU, ProcessGrid, measure_overhead
from repro.abft.lu import random_diagonally_dominant
from repro.checkpointing import (
    BuddyStorage,
    CheckpointCostModel,
    RemoteFileSystemStorage,
)
from repro.cli import main
from repro.utils import DAY, GB, HOUR, MINUTE


class TestStorageToWasteFlow:
    """Derive (C, R) from a storage substrate, then compare protocols."""

    def _workload(self) -> ApplicationWorkload:
        return ApplicationWorkload.single_epoch(48 * HOUR, 0.8, library_fraction=0.8)

    def _parameters(self, storage) -> ResilienceParameters:
        platform = Platform.from_platform_mtbf(
            node_count=100_000,
            platform_mtbf_seconds=2 * HOUR,
            memory_per_node=32 * GB,
        )
        dataset = DatasetPartition(
            total_memory=platform.total_memory, library_fraction=0.8
        )
        cost_model = CheckpointCostModel(storage, downtime=60.0)
        return ResilienceParameters.from_platform(
            platform, cost_model, dataset, abft_overhead=1.03, abft_reconstruction=2.0
        )

    def test_remote_fs_vs_buddy_checkpointing(self):
        workload = self._workload()
        remote = self._parameters(RemoteFileSystemStorage(write_bandwidth=1_000 * GB))
        buddy = self._parameters(BuddyStorage(link_bandwidth=10 * GB))
        # The remote file system yields C = 3.2e6 GB / 1000 GB/s = 3200 s;
        # buddy checkpointing only moves the per-node 32 GB over a 10 GB/s
        # link: C = 3.2 s.  Periodic checkpointing should benefit hugely.
        assert remote.full_checkpoint > 100 * buddy.full_checkpoint
        pure_remote = PurePeriodicCkptModel(remote).waste(workload)
        pure_buddy = PurePeriodicCkptModel(buddy).waste(workload)
        assert pure_buddy < pure_remote
        # The composite keeps its advantage under the expensive storage.
        composite_remote = AbftPeriodicCkptModel(remote).waste(workload)
        assert composite_remote < pure_remote

    def test_simulation_agrees_with_model_for_derived_costs(self):
        workload = self._workload()
        parameters = self._parameters(
            RemoteFileSystemStorage(write_bandwidth=10_000 * GB)
        )
        model_waste = AbftPeriodicCkptModel(parameters).waste(workload)
        simulator = AbftPeriodicCkptSimulator(parameters, workload)
        campaign = run_monte_carlo(simulator.simulate_once, runs=60, seed=17)
        assert campaign.mean_waste == pytest.approx(model_waste, abs=0.05)


class TestAbftParametersFeedTheModel:
    def test_measured_overhead_can_parameterise_the_model(self):
        measurement = measure_overhead("lu", n=48, block_size=8, trials=1)
        parameters = ResilienceParameters.from_scalars(
            platform_mtbf=1 * DAY,
            checkpoint=60.0,
            abft_overhead=max(1.0, measurement.phi),
            abft_reconstruction=max(measurement.reconstruction_time, 1e-3),
        )
        workload = ApplicationWorkload.single_epoch(12 * HOUR, 0.9)
        prediction = AbftPeriodicCkptModel(parameters).evaluate(workload)
        assert prediction.feasible
        assert 0.0 <= prediction.waste < 1.0

    def test_abft_recovery_cost_independent_of_progress(self, rng, monkeypatch):
        """The reconstruction repairs lost blocks, not recomputed work: its
        cost must not grow with the step at which the failure strikes --
        the property that justifies a constant Recons_ABFT in the model.

        The cost is counted, not timed: every block the checksum solvers
        rebuild is recorded by its (block row, block column).  A diagonal
        block of the factored region is rebuilt as part of both L and U;
        it is one lost block, counted once.
        """
        import repro.abft.blocked as blocked

        rebuilt = set()
        row_solver = blocked.recover_blocks_in_row
        column_solver = blocked.recover_blocks_in_column

        def rows(matrix, row_slice, lost_block_cols, *, block_size, **kwargs):
            i = row_slice.start // block_size
            rebuilt.update((i, j) for j in lost_block_cols)
            row_solver(
                matrix, row_slice, lost_block_cols, block_size=block_size, **kwargs
            )

        def columns(matrix, col_slice, lost_block_rows, *, block_size, **kwargs):
            j = col_slice.start // block_size
            rebuilt.update((i, j) for i in lost_block_rows)
            column_solver(
                matrix, col_slice, lost_block_rows, block_size=block_size, **kwargs
            )

        monkeypatch.setattr(blocked, "recover_blocks_in_row", rows)
        monkeypatch.setattr(blocked, "recover_blocks_in_column", columns)
        matrix = random_diagonally_dominant(48, rng)
        counts = []
        for step in (1, 3, 5):
            rebuilt.clear()
            result = AbftLU(matrix, block_size=8, grid=ProcessGrid(2, 2)).run(
                fail_at_step=step, fail_process=(0, 0)
            )
            assert result.residual < 1e-8
            assert rebuilt == set(result.lost_blocks)
            counts.append(len(rebuilt))
        assert counts == [len(result.lost_blocks)] * 3


class TestCliRoundTrip:
    def test_figure9_cli_matches_api(self, tmp_path, capsys):
        from repro.experiments import run_figure9

        csv_path = tmp_path / "figure9.csv"
        exit_code = main(["figure9", "--csv", str(csv_path)])
        assert exit_code == 0
        api_result = run_figure9()
        content = csv_path.read_text()
        # The CSV contains one line per node count plus a header.
        assert len(content.strip().splitlines()) == len(api_result.rows) + 1

    def test_quickstart_style_pipeline_runs(self):
        parameters = ResilienceParameters.from_scalars(
            platform_mtbf=2 * HOUR,
            checkpoint=10 * MINUTE,
            recovery=10 * MINUTE,
            downtime=1 * MINUTE,
        )
        workload = ApplicationWorkload.single_epoch(24 * HOUR, 0.8)
        campaign = run_monte_carlo(
            AbftPeriodicCkptSimulator(parameters, workload).simulate_once,
            runs=30,
            seed=1,
        )
        assert 0.0 < campaign.mean_waste < 1.0
        assert campaign.waste.ci_low <= campaign.mean_waste <= campaign.waste.ci_high


class TestNumericalRobustness:
    def test_many_epochs_workload(self):
        parameters = ResilienceParameters.from_scalars(
            platform_mtbf=6 * HOUR, checkpoint=30.0, recovery=30.0, downtime=10.0
        )
        workload = ApplicationWorkload.iterative(500, 4 * MINUTE, 0.8)
        simulator = AbftPeriodicCkptSimulator(parameters, workload)
        trace = simulator.simulate(rng=np.random.default_rng(5))
        assert trace.breakdown.total == pytest.approx(trace.makespan, rel=1e-8)
        assert trace.breakdown.useful_work == pytest.approx(
            workload.total_time, rel=1e-8
        )
