"""Monte-Carlo campaign execution: one trial-range executor for both engines.

The paper's validation averages 1000 independent executions per parameter
point (Section V-A).  Both Monte-Carlo engines expose the same entry point,
``run_trial_range(start, stop, seed) -> TrialTable``: the event simulators
(:class:`~repro.core.protocols.base.ProtocolSimulator`) walk the range one
trial at a time, the across-trials engine
(:class:`~repro.simulation.vectorized.VectorizedPhasedSimulator`) advances
it as arrays.  :class:`ShardedVectorizedExecutor` splits a campaign into one
contiguous trial shard per worker, runs the shards in worker processes (or
in process, with ``backend="serial"``) and concatenates the columnar
:class:`~repro.simulation.table.TrialTable` slices in trial order, so
inter-process transfer is one engine pickle and one structured-array pickle
per shard.  :class:`ParallelMonteCarloExecutor` is the
``simulate_once -> MonteCarloResult`` face of the same shards, for any
single-trial callable.

Determinism guarantee
---------------------
Trial ``i`` draws its random generator from
``RandomStreams(seed).generator_for_trial(i)`` -- the exact derivation the
serial path uses -- whichever shard runs it, so shard boundaries are
invisible: the same root seed produces a bit-identical table (and
:class:`~repro.simulation.runner.MonteCarloResult`) for any worker count,
backend or engine (the property tests assert ``==``, not approximate
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping, Optional

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
    "ParallelMonteCarloExecutor",
    "ShardedVectorizedExecutor",
    "resolve_worker_count",
    "run_campaign",
]

#: Execution backends: worker processes, or the same shards in process.
BACKENDS = ("process", "serial")


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
    """Fan a campaign's trial range out over worker processes.

    Splits ``runs`` trials into one contiguous shard per worker and runs
    ``engine.run_trial_range(start, stop, seed)`` per shard, so each worker
    pays one engine pickle (the compiled schedule ships once) and returns
    one columnar :class:`~repro.simulation.table.TrialTable` slice.  Slices
    are concatenated in trial order.  ``engine`` is either Monte-Carlo
    engine: an event simulator or the vectorized engine.

    Determinism guarantee
    ---------------------
    Trial ``i`` derives its generator from
    ``RandomStreams(seed).generator_for_trial(i)`` regardless of which
    shard executes it, and stateful block samplers (trace replay) rewind
    per trial, so shard boundaries are invisible: the result is
    bit-identical (``==`` on every table column) to the serial
    ``engine.run_trial_range(0, runs, seed)`` for **any** worker count.

    Parameters
    ----------
    workers:
        Worker count; ``None`` or ``"auto"`` resolves through
        :func:`resolve_worker_count`.  One worker runs serially in process
        with no pool.
    backend:
        ``"process"`` (default; the engine must be picklable, which every
        protocol simulator is) or ``"serial"`` -- the latter executes the
        same shard decomposition in-process, which pins the shard-boundary
        arithmetic in fast tests without pool start-up cost.
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

    def shard_ranges(self, runs: int) -> list[tuple[int, int]]:
        """The ``[start, stop)`` shards: one contiguous block per worker."""
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
            engine=getattr(engine, "engine_kind", "event"),
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
            return engine.run_trial_range(0, runs, seed)
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
                    results.append(_run_shard(engine, seed, start, stop))
        else:
            with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                futures = [
                    pool.submit(_run_shard, engine, seed, start, stop, tracing)
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
    executor: Optional[ShardedVectorizedExecutor] = None,
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

    Either engine shards its trial range over ``executor`` (one worker in
    process when none is given).  The engines are bit-identical trial for
    trial, so the returned :class:`~repro.simulation.table.TrialTable` does
    not depend on the backend.
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
    engine = engine_cls(
        parameters,
        workload,
        failure_model=failure_model,
        max_slowdown=max_slowdown,
        **dict(knobs or {}),
    )
    return (executor or ShardedVectorizedExecutor(workers=1)).run(
        engine, runs=runs, seed=seed
    )
