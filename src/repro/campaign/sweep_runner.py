"""Resumable (MTBF, alpha) sweep campaigns with an on-disk result cache.

:class:`SweepRunner` is the one way to evaluate an (MTBF, alpha) grid.  It
materialises the grid as a restartable job:

* every grid point is cached on disk (:class:`~repro.campaign.cache.SweepCache`)
  under a key derived from the parameters, the point's coordinates, the
  protocol list and the simulation settings, so an interrupted or repeated
  sweep recomputes only the missing points;
* the analytical wastes of uncached points are evaluated in one vectorised
  NumPy pass (:mod:`repro.core.analytical.grid`) instead of point by point;
* when a simulation campaign is requested, the campaigns of every uncached
  point run as one batch on
  :class:`~repro.campaign.executor.ShardedVectorizedExecutor`, whose results
  are bit-identical to the serial runner for any worker count -- cache
  entries written by a parallel run and a serial run are interchangeable.
"""

from __future__ import annotations

import difflib
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

import repro.obs as _obs
from repro.application.workload import ApplicationWorkload
from repro.campaign.cache import SweepCache
from repro.campaign.executor import ShardedVectorizedExecutor, campaign_engine
from repro.core.analytical.grid import GRID_PROTOCOLS, waste_points
from repro.core.parameters import ResilienceParameters
from repro.core.registry import (
    UnknownProtocolError,
    create_failure_model,
    protocol_names,
    resolve_failure_model,
    resolve_protocol,
)
from repro.simulation.vectorized import ENGINE_BACKENDS

__all__ = ["SweepJob", "GridPoint", "SweepResult", "SweepRunner"]


@dataclass(frozen=True)
class SweepJob:
    """Specification of one sweep campaign over the (MTBF, alpha) plane.

    Attributes
    ----------
    parameters:
        Base parameter bundle; its MTBF is replaced at every grid point.
    application_time:
        Fault-free duration ``T0`` of the single-epoch workload, seconds.
    mtbf_values / alpha_values:
        Grid axes (MTBF in seconds, alpha in [0, 1]).
    protocols:
        Protocol names to evaluate (registered names or aliases; see
        :func:`repro.core.registry.protocol_names`); the paper's three
        protocols by default.
    library_fraction:
        ``rho`` of the workload's dataset; ``None`` uses the parameters'.
    epochs:
        Number of identical epochs the workload is split into (1, the
        Figure 7 single-epoch shape, by default).
    simulate:
        Also run a Monte-Carlo campaign at every grid point.
    simulation_runs / seed:
        Campaign size and root seed when ``simulate`` is set (every grid
        point uses the same root seed, like the Figure 7 harness).
    failure_model / failure_params:
        Failure law driving the simulated campaigns: any registered model
        name (``"exponential"``, ``"weibull"``, ``"lognormal"``,
        ``"trace"``, ...) plus its parameters as a tuple of ``(key, value)``
        pairs (kept hashable for the cache key).  The analytical column
        always uses the closed forms, which assume the exponential law.
    model_params:
        Per-protocol analytical-model constructor options as a tuple of
        ``(protocol name, ((key, value), ...))`` pairs (e.g. the composite
        model's ``per_epoch=False``); selecting any disables the vectorised
        grid path for the affected sweep.
    backend:
        Monte-Carlo engine for simulated points: ``"event"`` (default, the
        per-trial state-machine walk), ``"vectorized"`` (the across-trials
        engine; every selected protocol must have a registered schedule
        compiler and the failure law must be one of the registry's vectorized
        laws -- exponential, Weibull, log-normal, trace -- else the job fails
        with an actionable error) or ``"auto"`` (vectorized where supported,
        event elsewhere).  The engines are bit-identical trial for trial,
        so the backend is *not* part of the cache key -- entries are
        interchangeable.
    max_slowdown:
        Truncation cap forwarded to the simulators: a trial is cut short
        (and counted in the point summaries' ``truncated`` field) once its
        makespan exceeds ``max_slowdown * T0``.  Non-default values are part
        of the cache key.
    """

    parameters: ResilienceParameters
    application_time: float
    mtbf_values: Tuple[float, ...]
    alpha_values: Tuple[float, ...]
    protocols: Tuple[str, ...] = protocol_names(paper_only=True)
    library_fraction: Optional[float] = None
    epochs: int = 1
    simulate: bool = False
    simulation_runs: int = 200
    seed: Optional[int] = 2014
    failure_model: str = "exponential"
    failure_params: Tuple[Tuple[str, Any], ...] = ()
    model_params: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    backend: str = "event"
    max_slowdown: float = 1e4

    def __post_init__(self) -> None:
        object.__setattr__(self, "mtbf_values", tuple(float(m) for m in self.mtbf_values))
        object.__setattr__(self, "alpha_values", tuple(float(a) for a in self.alpha_values))
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "failure_params", tuple(self.failure_params))
        object.__setattr__(
            self,
            "model_params",
            tuple((name, tuple(options)) for name, options in self.model_params),
        )
        unknown = [
            name
            for name in self.protocols
            if not self._is_registered(name)
        ]
        if unknown:
            known = protocol_names()
            suggestions = [
                match
                for name in unknown
                for match in difflib.get_close_matches(name, known, n=1, cutoff=0.4)
            ]
            message = (
                f"unknown protocols {sorted(unknown)}; registered: {sorted(known)}"
            )
            if suggestions:
                message += f" -- did you mean {sorted(set(suggestions))}?"
            raise UnknownProtocolError(unknown[0], known, message=message)
        # Canonicalize the failure-model spelling so aliases ("exp",
        # "poisson") hit the same cache keys and the same exponential fast
        # path as the canonical name.
        object.__setattr__(
            self, "failure_model", resolve_failure_model(self.failure_model).name
        )
        if not self.mtbf_values or not self.alpha_values:
            raise ValueError("mtbf_values and alpha_values must be non-empty")
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.simulate and self.simulation_runs <= 0:
            raise ValueError(
                f"simulation_runs must be positive, got {self.simulation_runs}"
            )
        if self.backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"unknown engine backend {self.backend!r}; "
                f"expected one of {ENGINE_BACKENDS}"
            )
        if self.max_slowdown <= 1.0:
            raise ValueError(
                f"max_slowdown must be > 1, got {self.max_slowdown}"
            )

    @staticmethod
    def _is_registered(name: str) -> bool:
        try:
            resolve_protocol(name)
        except UnknownProtocolError:
            return False
        return True

    # ------------------------------------------------------------------ #
    @property
    def rho(self) -> float:
        """The workload library fraction actually used."""
        if self.library_fraction is None:
            return self.parameters.rho
        return float(self.library_fraction)

    def grid(self) -> list[Tuple[float, float]]:
        """Grid points in sweep order: MTBF-major, alpha varying fastest."""
        return [(m, a) for m in self.mtbf_values for a in self.alpha_values]

    def point_key(self, mtbf: float, alpha: float) -> Dict[str, Any]:
        """Cache key of one grid point.

        The key covers everything the point's value depends on -- parameter
        scalars, coordinates, protocol list, simulation settings -- but not
        the rest of the grid, so jobs with overlapping grids share entries.
        """
        params = self.parameters
        if params.storage is not None and params.storage.mtbf_sensitive:
            # MTBF-sensitive storage (buddy with a fallback level) lowers
            # to different (C, R) at every grid point; key on the point's
            # own lowering.  Sound because equal lowered scalars imply
            # identical behaviour everywhere downstream -- which is also
            # why flat-storage runs share cache entries with scalar runs.
            params = params.with_mtbf(float(mtbf))
        key: Dict[str, Any] = {
            "application_time": self.application_time,
            "checkpoint": params.full_checkpoint,
            "recovery": params.full_recovery,
            "downtime": params.downtime,
            "rho": params.rho,
            "abft_overhead": params.abft_overhead,
            "abft_reconstruction": params.abft_reconstruction,
            "remainder_recovery": params.remainder_recovery,
            "library_fraction": self.rho,
            "protocols": sorted(self.protocols),
            "mtbf": float(mtbf),
            "alpha": float(alpha),
            "simulate": self.simulate,
        }
        if self.simulate:
            key["simulation_runs"] = self.simulation_runs
            key["seed"] = self.seed
        # Non-default shape/law fields are added conditionally so the keys of
        # pre-existing (exponential, single-epoch) caches remain valid.
        if self.epochs != 1:
            key["epochs"] = self.epochs
        if self.failure_model != "exponential" or self.failure_params:
            key["failure_model"] = self.failure_model
            key["failure_params"] = [list(pair) for pair in self.failure_params]
        if self.model_params:
            key["model_params"] = [
                [name, [list(pair) for pair in options]]
                for name, options in self.model_params
            ]
        if self.max_slowdown != 1e4:
            key["max_slowdown"] = self.max_slowdown
        return key

    def model_kwargs_for(self, protocol: str) -> Dict[str, Any]:
        """Analytical-model constructor options for one protocol."""
        canonical = resolve_protocol(protocol).name
        for name, options in self.model_params:
            if resolve_protocol(name).name == canonical:
                return dict(options)
        return {}

    def workload(self, alpha: float) -> ApplicationWorkload:
        """The workload evaluated at one alpha."""
        if self.epochs == 1:
            return ApplicationWorkload.single_epoch(
                self.application_time, alpha, library_fraction=self.rho
            )
        return ApplicationWorkload.iterative(
            self.epochs,
            self.application_time / self.epochs,
            alpha,
            library_fraction=self.rho,
        )

    def point_failure_model(self, mtbf: float):
        """The failure model driving simulated campaigns at one grid point.

        ``None`` for the default exponential law: the simulator then builds
        its own :class:`ExponentialFailureModel`, which keeps the simulation
        stream (and therefore existing cache entries) bit-identical to the
        pre-scenario code path.
        """
        if self.failure_model == "exponential" and not self.failure_params:
            return None
        return create_failure_model(
            self.failure_model, float(mtbf), **dict(self.failure_params)
        )


@dataclass(frozen=True)
class GridPoint:
    """One evaluated grid point: model (and optionally simulated) waste.

    ``simulated`` holds the per-protocol campaign summary derived from the
    point's :class:`~repro.simulation.table.TrialTable` (mean/std/CI of the
    waste, mean makespan and failure count, truncated-trial count); it is
    empty for model-only points and for entries cached before the columnar
    engine existed.
    """

    mtbf: float
    alpha: float
    model_waste: Dict[str, float]
    simulated_waste: Dict[str, float] = field(default_factory=dict)
    simulated: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def truncated_trials(self, protocol: str) -> int:
        """Truncated-trial count of one protocol's campaign (0 if unknown)."""
        return int(self.simulated.get(protocol, {}).get("truncated", 0))


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a sweep campaign, with cache accounting.

    Attributes
    ----------
    job:
        The job specification that produced this result.
    points:
        All grid points in sweep order (MTBF-major).
    computed_points / cached_points:
        How many grid points were evaluated in this run vs loaded from the
        cache.  A fully resumed job reports ``computed_points == 0``.
    """

    job: SweepJob
    points: Tuple[GridPoint, ...]
    computed_points: int
    cached_points: int

    def waste_grid(self, protocol: str, *, simulated: bool = False) -> dict:
        """Map ``(mtbf, alpha) -> waste`` for one protocol."""
        grid = {}
        for point in self.points:
            source = point.simulated_waste if simulated else point.model_waste
            if protocol in source:
                grid[(point.mtbf, point.alpha)] = source[protocol]
        return grid


class SweepRunner:
    """Execute :class:`SweepJob` campaigns, resumably and in parallel.

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk point cache; ``None`` disables caching.
    resume:
        Consult existing cache entries (default).  ``False`` recomputes every
        point (entries are still rewritten, refreshing the cache).
    workers:
        Worker-pool size for the Monte-Carlo campaigns of simulated points:
        a job's campaigns, on either engine, run as one batch on
        :class:`~repro.campaign.executor.ShardedVectorizedExecutor`,
        bit-identically to one worker for any count.

    The analytical wastes of uncached points are evaluated in one NumPy
    broadcast pass when the job allows it (single-epoch workloads, no
    ``model_params``, storage whose costs do not depend on the MTBF), else
    per point from the registered models; both give bit-identical values.
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[str | Path] = None,
        resume: bool = True,
        workers: Optional[int] = None,
    ) -> None:
        self._cache = SweepCache(cache_dir) if cache_dir is not None else None
        self._resume = bool(resume)
        self._executor = ShardedVectorizedExecutor(
            workers=1 if workers is None else workers
        )

    @property
    def cache(self) -> Optional[SweepCache]:
        """The point cache, or ``None`` when caching is disabled."""
        return self._cache

    # ------------------------------------------------------------------ #
    def run(self, job: SweepJob) -> SweepResult:
        """Run (or resume) a sweep job and return every grid point."""
        if _obs.tracing():
            with _obs.span(
                "sweep",
                category="campaign",
                protocols=",".join(job.protocols),
                backend=job.backend,
                simulate=bool(job.simulate),
            ):
                return self._run_job(job)
        return self._run_job(job)

    def _run_job(self, job: SweepJob) -> SweepResult:
        grid = job.grid()
        values: Dict[Tuple[float, float], Dict[str, Any]] = {}
        pending: list[Tuple[float, float]] = []
        for coords in grid:
            cached = None
            if self._cache is not None and self._resume:
                cached = self._cache.load(job.point_key(*coords))
            if cached is not None:
                values[coords] = cached
            else:
                pending.append(coords)
        cached_count = len(grid) - len(pending)
        if _obs.enabled():
            outcomes = _obs.catalog.family("repro_sweep_points_total")
            if cached_count:
                outcomes.inc(cached_count, outcome="cached")
            if pending:
                outcomes.inc(len(pending), outcome="computed")

        if pending:
            model_waste = self._evaluate_models(job, pending)
            # Every pending point's campaigns run as one batch.
            batch = self._executor.run_many(
                (engine, job.simulation_runs, job.seed)
                for coords in (pending if job.simulate else ())
                for engine in self._point_engines(job, *coords)
            )
            with closing(batch) as tables:
                for coords in pending:
                    value: Dict[str, Any] = {"model_waste": model_waste[coords]}
                    if job.simulate:
                        with _point_span(*coords):
                            point = {name: next(tables) for name in job.protocols}
                        value["simulated_waste"] = {
                            name: table.summarize("waste").mean
                            for name, table in point.items()
                        }
                        value["simulated"] = {
                            name: table.summary_dict()
                            for name, table in point.items()
                        }
                    values[coords] = value
                    if self._cache is not None:
                        self._cache.store(job.point_key(*coords), value)

        points = tuple(
            GridPoint(
                mtbf=mtbf,
                alpha=alpha,
                model_waste=dict(values[(mtbf, alpha)]["model_waste"]),
                simulated_waste=dict(values[(mtbf, alpha)].get("simulated_waste", {})),
                simulated=dict(values[(mtbf, alpha)].get("simulated", {})),
            )
            for mtbf, alpha in grid
        )
        return SweepResult(
            job=job,
            points=points,
            computed_points=len(pending),
            cached_points=cached_count,
        )

    # ------------------------------------------------------------------ #
    def _evaluate_models(
        self, job: SweepJob, coords: Sequence[Tuple[float, float]]
    ) -> Dict[Tuple[float, float], Dict[str, float]]:
        """Analytical waste of every protocol at the given points."""
        canonical = tuple(resolve_protocol(name).name for name in job.protocols)
        vectorizable = (
            job.epochs == 1
            and not job.model_params
            and set(canonical) <= set(GRID_PROTOCOLS)
            # The analytical grid broadcasts one fixed (C, R) over the MTBF
            # axis; MTBF-sensitive storage must re-lower per point instead.
            and not (
                job.parameters.storage is not None
                and job.parameters.storage.mtbf_sensitive
            )
        )
        if vectorizable:
            mtbf = np.array([m for m, _ in coords], dtype=float)
            alpha = np.array([a for _, a in coords], dtype=float)
            grids = waste_points(
                job.parameters, job.application_time, mtbf, alpha, canonical
            )
            return {
                pair: {
                    name: float(grids[cname][i])
                    for name, cname in zip(job.protocols, canonical)
                }
                for i, pair in enumerate(coords)
            }
        out: Dict[Tuple[float, float], Dict[str, float]] = {}
        for mtbf, alpha in coords:
            parameters = job.parameters.with_mtbf(mtbf)
            workload = job.workload(alpha)
            out[(mtbf, alpha)] = {
                name: resolve_protocol(name)
                .model_cls(parameters, **job.model_kwargs_for(name))
                .waste(workload)
                for name in job.protocols
            }
        return out

    def _point_engines(self, job: SweepJob, mtbf: float, alpha: float) -> list:
        """The Monte-Carlo engines of one grid point, in protocol order."""
        parameters = job.parameters.with_mtbf(mtbf)
        workload = job.workload(alpha)
        failure_model = job.point_failure_model(mtbf)
        return [
            campaign_engine(
                name,
                parameters,
                workload,
                backend=job.backend,
                max_slowdown=job.max_slowdown,
                failure_model=failure_model,
                law=job.failure_model,
            )
            for name in job.protocols
        ]


def _point_span(mtbf: float, alpha: float):
    """The ``sweep-point`` span a point's campaigns gather under (a no-op
    unless tracing)."""
    if not _obs.tracing():
        return nullcontext()
    return _obs.span(
        "sweep-point", category="campaign", mtbf=float(mtbf), alpha=float(alpha)
    )
