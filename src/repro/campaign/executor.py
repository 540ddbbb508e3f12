"""Monte-Carlo campaign execution: one trial-range executor for both engines.

The paper's validation averages 1000 independent executions per parameter
point (Section V-A).  Both Monte-Carlo engines expose the same entry point,
``run_trial_range(start, stop, seed) -> TrialTable``: the event simulators
(:class:`~repro.core.protocols.base.ProtocolSimulator`) walk the range one
trial at a time, the across-trials engine
(:class:`~repro.simulation.vectorized.VectorizedPhasedSimulator`) advances
it as arrays.  :class:`ShardedVectorizedExecutor` runs a batch of
campaigns on one process pool: each campaign whole in one worker when the
batch has at least as many campaigns as workers, else cut into contiguous
trial shards, and the columnar :class:`~repro.simulation.table.TrialTable`
slices are concatenated in trial order, so inter-process transfer is one
engine pickle and one structured-array pickle per unit.
:class:`ParallelMonteCarloExecutor` is the ``simulate_once ->
MonteCarloResult`` face of the same executor, for any single-trial
callable.

Determinism guarantee
---------------------
Trial ``i`` draws its random generator from
``RandomStreams(seed).generator_for_trial(i)`` -- the exact derivation the
serial path uses -- whichever unit runs it, so unit boundaries are
invisible: the same root seed produces a bit-identical table (and
:class:`~repro.simulation.runner.MonteCarloResult`) for any worker count,
batch, backend or engine (the property tests assert ``==``, not
approximate equality).  With ``seed=None`` each trial draws fresh OS
entropy, exactly like the serial path, and no reproducibility is promised.

Backend selection
-----------------
:func:`campaign_engine` is the one place that decides which Monte-Carlo
engine runs a protocol's campaign (``backend="event"``, ``"vectorized"``
or ``"auto"``).  The sweep runner, period refinement, regime maps and the
advisor service all build their engines through it and hand them to
:meth:`ShardedVectorizedExecutor.run_many`, so the rule and its
diagnostics exist once.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping, Optional, Tuple

import repro.obs as _obs

from repro.core.registry import resolve_protocol
from repro.simulation.runner import (
    MonteCarloResult,
    SimulateOnce,
    run_monte_carlo,
    simulate_trial_range,
)
from repro.simulation.table import TrialTable
from repro.simulation.vectorized import (
    ENGINE_BACKENDS,
    VectorizedBackendError,
    note_backend_fallback,
    vectorized_backend_obstacle,
)

__all__ = [
    "Campaign",
    "ParallelMonteCarloExecutor",
    "ShardedVectorizedExecutor",
    "campaign_engine",
    "resolve_worker_count",
]

#: Execution backends: worker processes, or the same plan in process.
BACKENDS = ("process", "serial")

#: One campaign of a batch: ``(engine, runs, seed)``.
Campaign = Tuple[Any, int, Optional[int]]


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


def _run_shard(engine, seed, start, stop, trace=False):
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
    # Forked workers inherit the parent's already-collected records and
    # open-span stack; drop both, or drain() would ship the parent's
    # history back (re-ingested, and re-duplicated, once per shard) and the
    # shard span would name whatever span was open at fork time as its
    # parent instead of being re-parented under its campaign.
    tracer.reset()
    with tracer.span(
        "shard", category="campaign", start=int(start), stop=int(stop)
    ):
        table = engine.run_trial_range(start, stop, seed)
    return start, table, tracer.drain()


class ShardedVectorizedExecutor:
    """Run batches of campaigns over one pool of worker processes.

    A campaign is an ``(engine, runs, seed)`` triple; ``engine`` is either
    Monte-Carlo engine (an event simulator or the vectorized engine), and
    everything the executor runs is a *unit*
    ``engine.run_trial_range(start, stop, seed)`` whose columnar
    :class:`~repro.simulation.table.TrialTable` slice ships back as one
    structured-array pickle.  :meth:`run_many` plans a batch from counts
    alone (:meth:`shard_ranges`): with at least as many campaigns as
    workers each campaign runs whole, as one unit in one worker, so the
    across-trials loop runs once per campaign; with fewer, each campaign
    is cut into contiguous shards so every worker has work.  :meth:`run`
    is a batch of one -- one shard per worker.

    Determinism guarantee
    ---------------------
    Trial ``i`` derives its generator from
    ``RandomStreams(seed).generator_for_trial(i)`` regardless of which
    unit executes it, and stateful block samplers (trace replay) rewind
    per trial, so unit boundaries are invisible: every campaign's table is
    bit-identical (``==`` on every table column) to the serial
    ``engine.run_trial_range(0, runs, seed)`` for **any** worker count and
    batch.

    Parameters
    ----------
    workers:
        Worker count; ``None`` or ``"auto"`` resolves through
        :func:`resolve_worker_count`.  One worker runs serially in process
        with no pool.
    backend:
        ``"process"`` (default; the engine must be picklable, which every
        protocol simulator is) or ``"serial"`` -- the latter executes the
        same plan in-process, which pins the shard-boundary arithmetic in
        fast tests without pool start-up cost.
    """

    def __init__(
        self,
        *,
        workers: Optional[int | str] = None,
        backend: str = "process",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
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

    def shard_ranges(self, runs: int, campaigns: int = 1) -> list[tuple[int, int]]:
        """The ``[start, stop)`` units of one campaign in a batch.

        A batch of at least as many ``campaigns`` as workers runs each
        campaign whole; a smaller one cuts each into
        ``ceil(workers / campaigns)`` contiguous shards, capped by its
        ``runs`` (a lone campaign gets one shard per worker).
        """
        if runs <= 0:
            raise ValueError(f"runs must be a positive integer, got {runs}")
        if campaigns <= 0:
            raise ValueError(f"campaigns must be a positive integer, got {campaigns}")
        pieces = min(math.ceil(self.workers / campaigns), runs)
        size = math.ceil(runs / pieces)
        return [(start, min(start + size, runs)) for start in range(0, runs, size)]

    # ------------------------------------------------------------------ #
    def run(self, engine, *, runs: int, seed: Optional[int] = None) -> TrialTable:
        """Run one campaign on ``engine`` (anything with ``run_trial_range``)."""
        [table] = self.run_many([(engine, runs, seed)])
        return table

    def run_many(self, campaigns: Iterable[Campaign]) -> Iterator[TrialTable]:
        """Run a batch of ``(engine, runs, seed)`` campaigns; yield each
        campaign's table in input order.

        The batch shares one process pool, started on the first ``next()``
        and shut down, its workers joined, before the iterator finishes --
        also when a unit raises or the caller closes the iterator early
        (``contextlib.closing``).  At most twice the pool size of units are
        submitted ahead of the consumer, so finished tables do not pile up.
        One worker, one unit or ``backend="serial"`` run in process.
        """
        batch = [(engine, int(runs), seed) for engine, runs, seed in campaigns]
        plans = [self.shard_ranges(runs, len(batch)) for _, runs, _ in batch]
        units = sum(len(shards) for shards in plans)
        workers = self.workers
        pool_size = min(workers, units) if self._backend == "process" else 0
        pooled = pool_size > 1
        if batch and workers > 1:
            plan = {
                "workers": workers,
                "campaigns": len(batch),
                "units": units,
                "unit_trials": max(stop - start for s in plans for start, stop in s),
                "pool": pool_size if pooled else 0,
            }
            _obs.log(
                "note",
                "executor-plan",
                dedupe="executor-plan " + _obs.format_fields(**plan),
                **plan,
            )
        if pooled:
            return self._run_pooled(batch, plans, pool_size)
        return self._run_in_process(batch, plans)

    def _run_in_process(self, batch, plans) -> Iterator[TrialTable]:
        for (engine, runs, seed), shards in zip(batch, plans):
            if _obs.tracing():
                # Engine (and shard) spans nest under the campaign span
                # through the thread-local stack.
                with _obs.span(
                    "campaign",
                    category="campaign",
                    **self._campaign_args(engine, runs, shards),
                ):
                    table = self._run_shards_here(engine, seed, shards, True)
            else:
                table = self._run_shards_here(engine, seed, shards, False)
            yield table

    def _run_shards_here(self, engine, seed, shards, tracing: bool) -> TrialTable:
        self._count_shards(shards)
        if len(shards) == 1:
            start, stop = shards[0]
            return engine.run_trial_range(start, stop, seed)
        tables = []
        for start, stop in shards:
            if tracing:
                with _obs.span(
                    "shard", category="campaign", start=int(start), stop=int(stop)
                ):
                    tables.append(engine.run_trial_range(start, stop, seed))
            else:
                tables.append(engine.run_trial_range(start, stop, seed))
        return TrialTable.concatenate(tables)

    def _run_pooled(self, batch, plans, pool_size: int) -> Iterator[TrialTable]:
        tracing = _obs.tracing()
        units = (
            (engine, seed, start, stop)
            for (engine, _, seed), shards in zip(batch, plans)
            for start, stop in shards
        )
        # Looked up as a module global at call time, so the pool can be
        # swapped for a counting or in-process stand-in.
        pool = ProcessPoolExecutor(max_workers=pool_size)
        if _obs.enabled():
            _obs.catalog.family("repro_executor_pool_starts_total").inc()
        in_flight: deque = deque()
        try:
            for (engine, runs, _), shards in zip(batch, plans):
                parts = []
                for _ in shards:
                    for unit in islice(units, 2 * pool_size - len(in_flight)):
                        in_flight.append(pool.submit(_run_shard, *unit, tracing))
                    parts.append(in_flight.popleft().result())
                yield self._gather(engine, runs, shards, parts, tracing)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _gather(self, engine, runs, shards, parts, tracing: bool) -> TrialTable:
        """One campaign's table from its units' pool results; when tracing,
        its ``campaign`` span adopts the workers' ``shard`` spans."""
        self._count_shards(shards)
        tables = [part[1] for part in parts]
        table = tables[0] if len(tables) == 1 else TrialTable.concatenate(tables)
        if tracing:
            records = [record for part in parts for record in part[2]]
            roots = [record for record in records if record["parent_id"] is None]
            ends = [record["start_us"] + record["duration_us"] for record in roots]
            tracer = _obs.global_tracer()
            campaign = tracer.add(
                "campaign",
                category="campaign",
                start_us=min(record["start_us"] for record in roots),
                end_us=max([time.time_ns() // 1000, *ends]),
                **self._campaign_args(engine, runs, shards),
            )
            tracer.ingest(records, parent=campaign)
        return table

    def _campaign_args(self, engine, runs: int, shards) -> dict:
        return {
            "engine": getattr(engine, "engine_kind", "event"),
            "backend": self._backend,
            "protocol": getattr(engine, "protocol", None),
            "runs": int(runs),
            "shards": len(shards),
        }

    def _count_shards(self, shards) -> None:
        if _obs.enabled():
            _obs.catalog.family("repro_campaign_shards_total").inc(
                len(shards), backend=self._backend
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedVectorizedExecutor(workers={self._workers!r}, "
            f"backend={self._backend!r})"
        )


@dataclass(frozen=True)
class _SimulateOnceEngine:
    """A single-trial callable as a trial-range engine (picklable whenever
    the callable is)."""

    simulate_once: SimulateOnce
    engine_kind = "event"

    def run_trial_range(
        self, start: int, stop: int, seed: Optional[int] = None
    ) -> TrialTable:
        table, _ = simulate_trial_range(
            self.simulate_once, seed=seed, start=start, stop=stop
        )
        return table


class ParallelMonteCarloExecutor:
    """Run a ``simulate_once`` campaign over the trial-range shards.

    Same signature and result as
    :func:`~repro.simulation.runner.run_monte_carlo`, with the trials split
    exactly as :class:`ShardedVectorizedExecutor` splits an engine's, so the
    result is bit-identical to the serial runner for any worker count.
    ``workers`` and ``backend`` are those of
    :class:`ShardedVectorizedExecutor`.  ``keep_traces=True`` runs in
    process through ``run_monte_carlo``: the traces stay where they are
    made.
    """

    def __init__(
        self,
        *,
        workers: Optional[int | str] = None,
        backend: str = "process",
    ) -> None:
        self._shards = ShardedVectorizedExecutor(workers=workers, backend=backend)

    @property
    def workers(self) -> int:
        """Effective worker count before the per-campaign trial cap."""
        return self._shards.workers

    @property
    def backend(self) -> str:
        """The configured execution backend."""
        return self._shards.backend

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
        if keep_traces:
            return run_monte_carlo(
                simulate_once,
                runs=runs,
                seed=seed,
                keep_traces=True,
                confidence=confidence,
            )
        table = self._shards.run(
            _SimulateOnceEngine(simulate_once), runs=runs, seed=seed
        )
        return MonteCarloResult.from_table(table, confidence=confidence)


def campaign_engine(
    protocol: str,
    parameters: Any,
    workload: Any,
    *,
    backend: str,
    max_slowdown: float,
    failure_model: Any = None,
    law: str = "exponential",
    knobs: Optional[Mapping[str, Any]] = None,
):
    """Build the Monte-Carlo engine that runs one protocol's campaign.

    Resolves ``protocol`` in the registry and asks
    :func:`~repro.simulation.vectorized.vectorized_backend_obstacle` whether
    the across-trials engine can run it under ``failure_model`` (``None``
    is the simulators' default exponential law; ``law`` is the registered
    law name used in diagnostics).  ``"vectorized"`` raises
    :class:`~repro.simulation.vectorized.VectorizedBackendError` naming the
    obstacle, ``"auto"`` notes the fallback once on stderr and builds the
    event simulator.  ``knobs`` are the protocol's constructor options
    (periods, safeguard, ...), passed to whichever engine is built.

    Run the engine through :class:`ShardedVectorizedExecutor`.  The engines
    are bit-identical trial for trial, so the campaign's
    :class:`~repro.simulation.table.TrialTable` does not depend on the
    backend.
    """
    if backend not in ENGINE_BACKENDS:
        raise ValueError(
            f"unknown engine backend {backend!r}; expected one of {ENGINE_BACKENDS}"
        )
    entry = resolve_protocol(protocol)
    engine_cls = entry.simulator_cls
    if backend != "event":
        obstacle = vectorized_backend_obstacle(
            entry.name, law, None if failure_model is None else type(failure_model)
        )
        if obstacle is None:
            engine_cls = entry.vectorized_cls
        elif backend == "vectorized":
            raise VectorizedBackendError(
                f"backend='vectorized' cannot run this campaign: {obstacle}; "
                "use backend='event' or backend='auto'"
            )
        else:
            note_backend_fallback(obstacle)
    return engine_cls(
        parameters,
        workload,
        failure_model=failure_model,
        max_slowdown=max_slowdown,
        **dict(knobs or {}),
    )
