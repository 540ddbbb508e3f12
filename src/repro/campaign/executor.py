"""Parallel Monte-Carlo campaign execution.

The paper's validation averages 1000 independent executions per parameter
point (Section V-A); :func:`repro.simulation.runner.run_monte_carlo` runs
them one after the other in pure Python.  This module fans the trials out
over a process (or thread) pool in contiguous index *batches*: each worker
simulates one batch and returns a single columnar
:class:`~repro.simulation.table.TrialTable` slice, so inter-process transfer
cost is one structured-array pickle per batch instead of a Python object per
trial.  The slices are concatenated in seed (trial) order and summarised
once, vectorized.

Determinism guarantee
---------------------
Trial ``i`` draws its random generator from
``RandomStreams(seed).generator_for_trial(i)`` -- the exact derivation the
serial path uses -- and the batch tables are reassembled in trial order
before the summaries are computed with the same vectorized reductions as
the serial runner.  The same root seed therefore produces a bit-identical
:class:`~repro.simulation.runner.MonteCarloResult` for any worker count,
batch size or backend (the property tests assert ``==``, not approximate
equality).  With ``seed=None`` each trial draws fresh OS entropy, exactly
like the serial path, and no reproducibility is promised.

Backend selection
-----------------
:func:`run_campaign` is the one place that decides which Monte-Carlo engine
runs a protocol's campaign (``backend="event"``, ``"vectorized"`` or
``"auto"``).  The sweep runner, period refinement, regime maps and the
advisor service all reach it, so the rule and its diagnostics exist once.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional

import repro.obs as _obs

from repro.core.registry import resolve_protocol
from repro.simulation.runner import (
    MonteCarloResult,
    SimulateOnce,
    run_monte_carlo,
    simulate_trial_range,
)
from repro.simulation.table import TrialTable
from repro.simulation.trace import ExecutionTrace
from repro.simulation.vectorized import (
    ENGINE_BACKENDS,
    VectorizedBackendError,
    note_backend_fallback,
    vectorized_backend_obstacle,
)

__all__ = [
    "ParallelMonteCarloExecutor",
    "ShardedVectorizedExecutor",
    "resolve_worker_count",
    "run_campaign",
    "run_monte_carlo_parallel",
]

#: Supported execution backends.
BACKENDS = ("process", "thread", "serial")

#: Backends of :class:`ShardedVectorizedExecutor` ("thread" is pointless:
#: the vectorized engine is pure NumPy under the GIL).
VECTOR_BACKENDS = ("process", "serial")


@dataclass
class _BatchResult:
    """One contiguous batch of a campaign, as a columnar table slice."""

    start: int
    table: TrialTable
    traces: List[ExecutionTrace] = field(default_factory=list)


def _simulate_batch(
    simulate_once: SimulateOnce,
    seed: Optional[int],
    start: int,
    stop: int,
    keep_traces: bool,
) -> _BatchResult:
    """Run trials ``start..stop-1`` into one table slice (module-level so
    process pools can pickle it)."""
    table, traces = simulate_trial_range(
        simulate_once, seed=seed, start=start, stop=stop, keep_traces=keep_traces
    )
    return _BatchResult(start=start, table=table, traces=traces)


class ParallelMonteCarloExecutor:
    """Fan Monte-Carlo trials out over a worker pool, deterministically.

    Parameters
    ----------
    workers:
        Worker count; ``None`` uses ``os.cpu_count()``.  A single worker (or
        the ``"serial"`` backend) falls back to the serial runner -- the
        result is identical either way, by the determinism guarantee.
    backend:
        ``"process"`` (default; ``simulate_once`` must be picklable, which
        every protocol simulator is), ``"thread"`` (for non-picklable
        callables; pure-Python simulators gain no speed under the GIL) or
        ``"serial"``.
    chunk_size:
        Trials per pool task (batch).  ``None`` splits the campaign into
        about four batches per worker, amortising task dispatch without
        starving the pool.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        backend: str = "process",
        chunk_size: Optional[int] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be a positive integer, got {workers}")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be a positive integer, got {chunk_size}"
            )
        self._workers = workers
        self._backend = backend
        self._chunk_size = chunk_size

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Effective worker count."""
        if self._workers is not None:
            return self._workers
        return max(1, os.cpu_count() or 1)

    @property
    def backend(self) -> str:
        """The configured execution backend."""
        return self._backend

    def chunk_ranges(self, runs: int) -> list[tuple[int, int]]:
        """The ``[start, stop)`` trial batches the campaign is split into."""
        size = self._chunk_size
        if size is None:
            size = max(1, math.ceil(runs / (self.workers * 4)))
        return [(start, min(start + size, runs)) for start in range(0, runs, size)]

    # ------------------------------------------------------------------ #
    def run(
        self,
        simulate_once: SimulateOnce,
        *,
        runs: int,
        seed: Optional[int] = None,
        keep_traces: bool = False,
        confidence: float = 0.95,
    ) -> MonteCarloResult:
        """Run the campaign; same signature and result as ``run_monte_carlo``."""
        if runs <= 0:
            raise ValueError(f"runs must be a positive integer, got {runs}")
        if _obs.tracing():
            with _obs.span(
                "campaign",
                category="campaign",
                engine="event",
                backend=self._backend,
                runs=int(runs),
            ):
                return self._run_batches(
                    simulate_once,
                    runs=runs,
                    seed=seed,
                    keep_traces=keep_traces,
                    confidence=confidence,
                )
        return self._run_batches(
            simulate_once,
            runs=runs,
            seed=seed,
            keep_traces=keep_traces,
            confidence=confidence,
        )

    def _run_batches(
        self,
        simulate_once: SimulateOnce,
        *,
        runs: int,
        seed: Optional[int],
        keep_traces: bool,
        confidence: float,
    ) -> MonteCarloResult:
        if self._backend == "serial" or self.workers == 1:
            return run_monte_carlo(
                simulate_once,
                runs=runs,
                seed=seed,
                keep_traces=keep_traces,
                confidence=confidence,
            )
        batches = self.chunk_ranges(runs)
        with self._make_pool(min(self.workers, len(batches))) as pool:
            futures = [
                pool.submit(_simulate_batch, simulate_once, seed, start, stop, keep_traces)
                for start, stop in batches
            ]
            results = [future.result() for future in futures]
        results.sort(key=lambda batch: batch.start)

        table = TrialTable.concatenate([batch.table for batch in results])
        traces: list[ExecutionTrace] = []
        for batch in results:
            traces.extend(batch.traces)
        return MonteCarloResult.from_table(
            table, confidence=confidence, traces=traces
        )

    def _make_pool(self, max_workers: int) -> Executor:
        if self._backend == "process":
            return ProcessPoolExecutor(max_workers=max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ParallelMonteCarloExecutor(workers={self._workers!r}, "
            f"backend={self._backend!r}, chunk_size={self._chunk_size!r})"
        )


def resolve_worker_count(workers, trials: int) -> int:
    """Resolve a ``--workers`` value to an effective worker count.

    ``None`` or ``"auto"`` asks the machine (``os.process_cpu_count()``
    where available -- it respects CPU affinity masks -- else
    ``os.cpu_count()``); explicit values are validated.  Either way the
    count is capped by ``trials``: a shard must hold at least one trial.
    """
    if trials <= 0:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if workers is None or workers == "auto":
        counter = getattr(os, "process_cpu_count", None) or os.cpu_count
        resolved = max(1, counter() or 1)
    else:
        resolved = int(workers)
        if resolved <= 0:
            raise ValueError(
                f"workers must be a positive integer or 'auto', got {workers!r}"
            )
    return min(resolved, int(trials))


def _run_vectorized_shard(engine, seed, start, stop, trace=False):
    """Execute one contiguous trial shard (module-level so process pools
    can pickle it).  The engine reconstructs nothing: the compiled schedule
    arrives once per worker inside the pickled engine.

    With ``trace=True`` (a pool worker mirroring a tracing parent) the
    worker enables span collection in its own process, wraps the shard in
    a root span, and ships the finished records home as a third tuple
    element; the gathering side re-parents them under its campaign span.
    Span ids embed the worker pid, so records from different workers can
    never collide.
    """
    if not trace:
        return start, engine.run_trial_range(start, stop, seed)
    _obs.configure(trace=True)
    tracer = _obs.global_tracer()
    # Forked workers inherit the parent's already-collected records; drop
    # them or drain() would ship the parent's history back and the gather
    # side would re-ingest (and re-duplicate) it once per shard.
    tracer.reset()
    with tracer.span(
        "shard", category="campaign", start=int(start), stop=int(stop)
    ):
        table = engine.run_trial_range(start, stop, seed)
    return start, table, tracer.drain()


class ShardedVectorizedExecutor:
    """Fan a vectorized campaign's trial range out over worker processes.

    Splits ``runs`` trials into one contiguous shard per worker and runs
    ``engine.run_trial_range(start, stop, seed)`` per shard, so each worker
    pays one engine pickle (the compiled schedule ships once) and returns
    one columnar :class:`~repro.simulation.table.TrialTable` slice.  Slices
    are concatenated in trial order.

    Determinism guarantee
    ---------------------
    Trial ``i`` derives its generator from
    ``RandomStreams(seed).generator_for_trial(i)`` regardless of which
    shard executes it, and stateful block samplers (trace replay) rewind
    per trial, so shard boundaries are invisible: the result is
    bit-identical (``==`` on every table column) to the serial
    ``engine.run_trials(runs, seed)`` for **any** worker count -- the same
    guarantee :class:`ParallelMonteCarloExecutor` gives the event walk.

    Parameters
    ----------
    workers:
        Worker count; ``None`` resolves like ``--workers auto`` (see
        :func:`resolve_worker_count`).  One worker runs serially in
        process with no pool.
    backend:
        ``"process"`` (default) or ``"serial"`` -- the latter executes the
        same shard decomposition in-process, which pins the shard-boundary
        arithmetic in fast tests without pool start-up cost.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        backend: str = "process",
    ) -> None:
        if backend not in VECTOR_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {VECTOR_BACKENDS}"
            )
        if workers is not None and workers != "auto" and int(workers) <= 0:
            raise ValueError(f"workers must be a positive integer, got {workers}")
        self._workers = workers
        self._backend = backend

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Effective worker count before the per-campaign trial cap."""
        if self._workers is not None and self._workers != "auto":
            return int(self._workers)
        return resolve_worker_count(None, 1 << 62)

    @property
    def backend(self) -> str:
        """The configured execution backend."""
        return self._backend

    def shard_ranges(self, runs: int) -> list[tuple[int, int]]:
        """The ``[start, stop)`` shards: one contiguous block per worker.

        Unlike the event executor's ~4 batches per worker, one shard per
        worker minimises engine pickles -- vectorized shards have uniform
        cost, so load balancing buys nothing.
        """
        if runs <= 0:
            raise ValueError(f"runs must be a positive integer, got {runs}")
        workers = resolve_worker_count(self._workers, runs)
        size = math.ceil(runs / workers)
        return [(start, min(start + size, runs)) for start in range(0, runs, size)]

    # ------------------------------------------------------------------ #
    def run(self, engine, *, runs: int, seed: Optional[int] = None) -> TrialTable:
        """Run the campaign on ``engine`` (anything with ``run_trial_range``)."""
        if runs <= 0:
            raise ValueError(f"runs must be a positive integer, got {runs}")
        shards = self.shard_ranges(runs)
        if not _obs.tracing():
            if _obs.enabled():
                _obs.catalog.family("repro_campaign_shards_total").inc(
                    len(shards), backend=self._backend
                )
            return self._run_shards(engine, shards, runs, seed, campaign=None)
        with _obs.span(
            "campaign",
            category="campaign",
            engine="vectorized",
            backend=self._backend,
            protocol=getattr(engine, "protocol", None),
            runs=int(runs),
            shards=len(shards),
        ) as campaign:
            _obs.catalog.family("repro_campaign_shards_total").inc(
                len(shards), backend=self._backend
            )
            return self._run_shards(engine, shards, runs, seed, campaign)

    def _run_shards(
        self, engine, shards, runs: int, seed: Optional[int], campaign
    ) -> TrialTable:
        """Execute the shard plan; ``campaign`` is the open campaign span
        when tracing, else ``None`` (the untraced fast path)."""
        if len(shards) == 1:
            # In-process: an engine span (if tracing) nests under the
            # campaign span through the thread-local stack.
            return engine.run_trials(runs, seed)
        tracing = campaign is not None
        if self._backend == "serial":
            results = []
            for start, stop in shards:
                if tracing:
                    # In-process shards parent under the campaign span
                    # implicitly; no drain/ingest round-trip needed.
                    with _obs.span(
                        "shard",
                        category="campaign",
                        start=int(start),
                        stop=int(stop),
                    ):
                        results.append(
                            (start, engine.run_trial_range(start, stop, seed))
                        )
                else:
                    results.append(
                        _run_vectorized_shard(engine, seed, start, stop)
                    )
        else:
            with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                futures = [
                    pool.submit(
                        _run_vectorized_shard, engine, seed, start, stop, tracing
                    )
                    for start, stop in shards
                ]
                gathered = [future.result() for future in futures]
            results = []
            for item in gathered:
                if tracing:
                    start, table, records = item
                    _obs.global_tracer().ingest(records, parent=campaign)
                else:
                    start, table = item
                results.append((start, table))
        results.sort(key=lambda shard: shard[0])
        return TrialTable.concatenate([table for _, table in results])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedVectorizedExecutor(workers={self._workers!r}, "
            f"backend={self._backend!r})"
        )


def run_monte_carlo_parallel(
    simulate_once: SimulateOnce,
    *,
    runs: int,
    seed: Optional[int] = None,
    keep_traces: bool = False,
    confidence: float = 0.95,
    workers: Optional[int] = None,
    backend: str = "process",
    chunk_size: Optional[int] = None,
) -> MonteCarloResult:
    """Functional shortcut: build an executor and run one campaign."""
    executor = ParallelMonteCarloExecutor(
        workers=workers, backend=backend, chunk_size=chunk_size
    )
    return executor.run(
        simulate_once,
        runs=runs,
        seed=seed,
        keep_traces=keep_traces,
        confidence=confidence,
    )


def run_campaign(
    protocol: str,
    parameters: Any,
    workload: Any,
    *,
    runs: int,
    seed: Optional[int],
    backend: str,
    max_slowdown: float,
    failure_model: Any = None,
    law: str = "exponential",
    knobs: Optional[Mapping[str, Any]] = None,
    executor: Optional[ParallelMonteCarloExecutor] = None,
    vector_executor: Optional[ShardedVectorizedExecutor] = None,
) -> TrialTable:
    """Run one protocol's Monte-Carlo campaign on the selected backend.

    Resolves ``protocol`` in the registry and asks
    :func:`~repro.simulation.vectorized.vectorized_backend_obstacle` whether
    the across-trials engine can run it under ``failure_model`` (``None``
    is the simulators' default exponential law; ``law`` is the registered
    law name used in diagnostics).  ``"vectorized"`` raises
    :class:`~repro.simulation.vectorized.VectorizedBackendError` naming the
    obstacle, ``"auto"`` notes the fallback once on stderr and runs the
    event simulator.  ``knobs`` are the protocol's constructor options
    (periods, safeguard, ...), passed to whichever engine runs.

    Vectorized campaigns shard over ``vector_executor`` when one is given
    (in process otherwise); event campaigns fan out over ``executor`` (a
    serial one otherwise).  The engines are bit-identical trial for trial,
    so the returned :class:`~repro.simulation.table.TrialTable` does not
    depend on the backend.
    """
    if backend not in ENGINE_BACKENDS:
        raise ValueError(
            f"unknown engine backend {backend!r}; expected one of {ENGINE_BACKENDS}"
        )
    entry = resolve_protocol(protocol)
    knobs = dict(knobs or {})
    if backend != "event":
        obstacle = vectorized_backend_obstacle(
            entry.name, law, None if failure_model is None else type(failure_model)
        )
        if obstacle is None:
            engine = entry.vectorized_cls(
                parameters,
                workload,
                failure_model=failure_model,
                max_slowdown=max_slowdown,
                **knobs,
            )
            if vector_executor is None:
                return engine.run_trials(runs, seed=seed)
            return vector_executor.run(engine, runs=runs, seed=seed)
        if backend == "vectorized":
            raise VectorizedBackendError(
                f"backend='vectorized' cannot run this campaign: {obstacle}; "
                "use backend='event' or backend='auto'"
            )
        note_backend_fallback(obstacle)
    simulator = entry.simulator_cls(
        parameters,
        workload,
        failure_model=failure_model,
        max_slowdown=max_slowdown,
        **knobs,
    )
    campaign = (executor or ParallelMonteCarloExecutor(workers=1)).run(
        simulator.simulate_once, runs=runs, seed=seed
    )
    return campaign.table
