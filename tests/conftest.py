"""Shared fixtures: the paper's reference configurations, and an
in-process stand-in for the executor's process pool."""

from __future__ import annotations

import contextlib
from concurrent.futures import Future

import numpy as np
import pytest

import repro.campaign.executor as executor_module
import repro.obs as obs
from repro import ApplicationWorkload, ResilienceParameters
from repro.utils import MINUTE, WEEK


@pytest.fixture
def paper_parameters() -> ResilienceParameters:
    """The Figure 7 parameter set at a 120-minute platform MTBF."""
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=1 * MINUTE,
        library_fraction=0.8,
        abft_overhead=1.03,
        abft_reconstruction=2.0,
    )


@pytest.fixture
def paper_workload() -> ApplicationWorkload:
    """The Figure 7 single-epoch, one-week application at alpha = 0.8."""
    return ApplicationWorkload.single_epoch(1 * WEEK, 0.8, library_fraction=0.8)


@pytest.fixture
def small_workload() -> ApplicationWorkload:
    """A smaller single-epoch workload for fast simulation tests."""
    return ApplicationWorkload.single_epoch(
        24 * 60 * MINUTE, 0.8, library_fraction=0.8
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy generator."""
    return np.random.default_rng(2014)


@pytest.fixture
def metrics_on():
    """Metrics on from a clean registry; the process's instrumentation is
    left as found."""
    was_enabled, was_tracing = obs.enabled(), obs.tracing()
    obs.reset()
    obs.configure(metrics=True)
    yield
    obs.configure(trace=was_tracing, metrics=was_enabled)
    obs.reset()


class _CountedFuture(Future):
    def __init__(self, pool):
        super().__init__()
        self._pool = pool
        self._collected = False

    def result(self, timeout=None):
        if not self._collected:
            self._collected = True
            self._pool.in_flight -= 1
        return super().result(timeout)


class InlinePool:
    """Runs each unit at submission and tracks units the executor has
    submitted but not yet collected."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.in_flight = 0
        self.peak = 0
        self.shut_down = False
        InlinePool.made.append(self)

    def submit(self, fn, *args):
        future = _CountedFuture(self)
        future.set_result(fn(*args))
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


@contextlib.contextmanager
def _inline_pool():
    InlinePool.made = []
    original = executor_module.ProcessPoolExecutor
    executor_module.ProcessPoolExecutor = InlinePool
    try:
        yield InlinePool
    finally:
        executor_module.ProcessPoolExecutor = original


@pytest.fixture(scope="session")
def inline_pool():
    """A context manager under which the executor's pool runs every unit
    in this process, at submission: the multi-shard plan of any worker
    count without starting a worker.  Yields :class:`InlinePool`, whose
    ``made`` lists the pools built inside the block.  Not for traced runs:
    a unit mirrors a tracing parent by resetting the tracer it runs in.
    Session-scoped, so hypothesis tests can enter it per example."""
    return _inline_pool
