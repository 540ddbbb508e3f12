"""Integration: a SweepRunner job killed mid-grid resumes without recompute.

Simulates the crash by running a job, destroying the runner (keeping only
the cache directory, as a killed process would), then completing the sweep
with a fresh runner.  Resume must recompute zero cached points and match an
uninterrupted run exactly.
"""

from __future__ import annotations

import pytest

from repro.campaign import SweepCache, SweepJob, SweepRunner
from repro.core.parameters import ResilienceParameters
from repro.utils import HOUR, MINUTE


@pytest.fixture()
def job() -> SweepJob:
    parameters = ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
    )
    return SweepJob(
        parameters=parameters,
        application_time=24 * HOUR,
        mtbf_values=(60 * MINUTE, 120 * MINUTE),
        alpha_values=(0.25, 0.75),
        simulate=True,
        simulation_runs=5,
        seed=99,
    )


class TestResume:
    def test_full_resume_recomputes_nothing(self, tmp_path, job):
        cache_dir = tmp_path / "cache"
        runner = SweepRunner(cache_dir=cache_dir)
        first = runner.run(job)
        assert first.computed_points == 4
        assert first.cached_points == 0
        assert len(SweepCache(cache_dir)) == 4

        # "Kill" the runner: only the cache directory survives.
        del runner
        resumed = SweepRunner(cache_dir=cache_dir).run(job)
        assert resumed.computed_points == 0
        assert resumed.cached_points == 4

        fresh = SweepRunner().run(job)
        assert resumed.points == fresh.points

    def test_partial_resume_recomputes_only_missing_points(self, tmp_path, job):
        cache_dir = tmp_path / "cache"
        fresh = SweepRunner(cache_dir=cache_dir).run(job)

        # Simulate a job killed halfway: drop two of the four point files.
        cache = SweepCache(cache_dir)
        for path in list(cache.entries())[:2]:
            path.unlink()
        assert len(cache) == 2

        resumed = SweepRunner(cache_dir=cache_dir).run(job)
        assert resumed.computed_points == 2
        assert resumed.cached_points == 2
        assert resumed.points == fresh.points

    def test_resume_false_recomputes_everything(self, tmp_path, job):
        cache_dir = tmp_path / "cache"
        SweepRunner(cache_dir=cache_dir).run(job)
        rerun = SweepRunner(cache_dir=cache_dir, resume=False).run(job)
        assert rerun.computed_points == 4
        assert rerun.cached_points == 0

    def test_different_seed_does_not_hit_cache(self, tmp_path, job):
        from dataclasses import replace

        cache_dir = tmp_path / "cache"
        SweepRunner(cache_dir=cache_dir).run(job)
        other = replace(job, seed=100)
        result = SweepRunner(cache_dir=cache_dir).run(other)
        assert result.computed_points == 4
        assert result.cached_points == 0

    def test_parallel_and_serial_runs_share_cache_entries(self, tmp_path, job):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = SweepRunner(cache_dir=serial_dir).run(job)
        parallel = SweepRunner(cache_dir=parallel_dir, workers=2).run(job)
        # Determinism makes the cache contents interchangeable: resuming the
        # serial cache with a parallel runner reuses every point, and the
        # values agree exactly.
        assert serial.points == parallel.points
        resumed = SweepRunner(cache_dir=serial_dir, workers=2).run(job)
        assert resumed.computed_points == 0
        assert resumed.points == serial.points
