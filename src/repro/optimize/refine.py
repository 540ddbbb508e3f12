"""Simulation-backed refinement of the analytical period optimum.

The analytical optimum of :func:`repro.optimize.period.optimize_period`
minimizes the *model* waste; the Monte-Carlo engine is the ground truth the
paper validates that model against.  :func:`refine_period` closes the loop:
starting from the analytical optimum it evaluates a small geometric fan of
candidate periods with real campaigns -- through the vectorized across-trials
engine where the (protocol, failure law) pair supports it, through the event
simulators otherwise, each round's uncached candidates one batch on
:class:`~repro.campaign.executor.ShardedVectorizedExecutor` -- and returns
the candidate with the lowest simulated mean waste, optionally narrowing the
fan around the winner for further rounds.

Every candidate campaign is cached in a
:class:`~repro.campaign.cache.SweepCache` under a key covering the parameter
scalars, the workload shape, the periods, the campaign size and the failure
law, so an interrupted refinement resumes where it stopped and repeated
refinements of the same configuration are free.  The engine backends are
bit-identical trial for trial, so -- exactly like the sweep cache -- the
backend is *not* part of the key.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

import repro.obs as _obs
from repro.application.workload import ApplicationWorkload
from repro.campaign.cache import SweepCache
from repro.campaign.executor import ShardedVectorizedExecutor, campaign_engine
from repro.core.parameters import ResilienceParameters
from repro.core.registry import (
    create_failure_model,
    resolve_failure_model,
    resolve_protocol,
)
from repro.optimize.period import PeriodOptimum, optimize_period

#: The simulators' truncation-cap default; the candidate cache key includes
#: ``max_slowdown`` only when it differs from this, so the literal must
#: exist exactly once -- drifting defaults would silently reuse summaries
#: computed under a different cap.
DEFAULT_MAX_SLOWDOWN = 1e4

__all__ = [
    "RefineCandidate",
    "RefinedOptimum",
    "engine_at_periods",
    "refine_period",
    "simulate_at_periods",
]


@dataclass(frozen=True)
class RefineCandidate:
    """One simulated candidate: a period assignment and its campaign summary."""

    periods: Mapping[str, float]
    scale: float
    waste_mean: float
    summary: Mapping[str, Any] = field(default_factory=dict)
    cached: bool = False

    @property
    def waste_ci_half_width(self) -> Optional[float]:
        """Half-width of the campaign's waste confidence interval."""
        return self.summary.get("waste_ci_half_width")


@dataclass(frozen=True)
class RefinedOptimum:
    """Outcome of a simulation-backed period refinement.

    Attributes
    ----------
    protocol:
        Canonical protocol name.
    analytical:
        The analytical optimum the refinement started from.
    candidates:
        Every simulated candidate, in evaluation order (all rounds).
    best:
        The candidate with the lowest simulated mean waste (``None`` when
        the analytical point was infeasible, so nothing was simulated).
    runs / seed:
        Campaign size and root seed shared by every candidate.
    computed / cached:
        How many candidate campaigns were simulated in this call vs loaded
        from the cache -- a fully resumed refinement reports ``computed == 0``.
    """

    protocol: str
    analytical: PeriodOptimum
    candidates: Tuple[RefineCandidate, ...]
    best: Optional[RefineCandidate]
    runs: int
    seed: Optional[int]
    computed: int = 0
    cached: int = 0

    @property
    def refined_periods(self) -> Mapping[str, float]:
        """The winning period assignment (analytical one when not simulated)."""
        if self.best is None:
            return self.analytical.periods
        return self.best.periods

    @property
    def shift(self) -> float:
        """Relative scale between the refined and the analytical periods."""
        if self.best is None:
            return 1.0
        return self.best.scale


def _candidate_key(
    protocol: str,
    parameters: ResilienceParameters,
    workload: ApplicationWorkload,
    periods: Mapping[str, float],
    *,
    runs: int,
    seed: Optional[int],
    failure_model: str,
    failure_params: Mapping[str, Any],
    max_slowdown: float,
    simulator_kwargs: Mapping[str, Any] = (),
) -> Dict[str, Any]:
    """Cache key of one candidate campaign (one JSON file per candidate)."""
    key: Dict[str, Any] = {
        "optimize": "refine-candidate",
        "protocol": protocol,
        "application_time": workload.total_time,
        "alpha": workload.alpha,
        "epochs": workload.epoch_count,
        "checkpoint": parameters.full_checkpoint,
        "recovery": parameters.full_recovery,
        "downtime": parameters.downtime,
        "rho": parameters.rho,
        "abft_overhead": parameters.abft_overhead,
        "abft_reconstruction": parameters.abft_reconstruction,
        "remainder_recovery": parameters.remainder_recovery,
        "mtbf": parameters.platform_mtbf,
        "periods": {k: periods[k] for k in sorted(periods)},
        "runs": runs,
        "seed": seed,
    }
    if failure_model != "exponential" or failure_params:
        key["failure_model"] = failure_model
        key["failure_params"] = {
            k: failure_params[k] for k in sorted(failure_params)
        }
    if max_slowdown != DEFAULT_MAX_SLOWDOWN:
        key["max_slowdown"] = max_slowdown
    simulator_kwargs = dict(simulator_kwargs)
    if simulator_kwargs:
        key["simulator_kwargs"] = {
            k: simulator_kwargs[k] for k in sorted(simulator_kwargs)
        }
    return key


def engine_at_periods(
    protocol: str,
    parameters: ResilienceParameters,
    workload: ApplicationWorkload,
    periods: Mapping[str, float],
    *,
    backend: str = "auto",
    failure_model: str = "exponential",
    failure_params: Optional[Mapping[str, Any]] = None,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
    simulator_kwargs: Optional[Mapping[str, Any]] = None,
):
    """The Monte-Carlo engine of one campaign at an explicit period
    assignment, built by :func:`repro.campaign.executor.campaign_engine`
    (arguments as in :func:`simulate_at_periods`)."""
    failure_params = dict(failure_params or {})
    law = resolve_failure_model(failure_model).name
    if law == "exponential" and not failure_params:
        model = None  # the simulators' default: bit-identical fast path
    else:
        model = create_failure_model(
            law, parameters.platform_mtbf, **failure_params
        )
    return campaign_engine(
        protocol,
        parameters,
        workload,
        backend=backend,
        max_slowdown=max_slowdown,
        failure_model=model,
        law=law,
        knobs={**dict(simulator_kwargs or {}), **dict(periods)},
    )


def simulate_at_periods(
    protocol: str,
    parameters: ResilienceParameters,
    workload: ApplicationWorkload,
    periods: Mapping[str, float],
    *,
    runs: int,
    seed: Optional[int],
    backend: str = "auto",
    executor: Optional[ShardedVectorizedExecutor] = None,
    failure_model: str = "exponential",
    failure_params: Optional[Mapping[str, Any]] = None,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
    simulator_kwargs: Optional[Mapping[str, Any]] = None,
) -> Mapping[str, Any]:
    """Run one campaign at an explicit period assignment; return its summary.

    Backend selection is :func:`repro.campaign.executor.campaign_engine`'s:
    ``"vectorized"`` requires a registered schedule compiler and a
    registry-flagged vectorized law (else a
    :class:`~repro.simulation.vectorized.VectorizedBackendError` names the
    obstacle), ``"auto"`` falls back to the event simulators.  Either
    engine shards its trial range over ``executor`` when one is given
    (serial otherwise) -- bit-identical either way.

    ``simulator_kwargs`` carries protocol options beyond the periods (e.g.
    the composite's ``safeguard``) into the engine constructors, following
    the :func:`repro.core.registry.resolve` model/simulator split.
    """
    engine = engine_at_periods(
        protocol,
        parameters,
        workload,
        periods,
        backend=backend,
        failure_model=failure_model,
        failure_params=failure_params,
        max_slowdown=max_slowdown,
        simulator_kwargs=simulator_kwargs,
    )
    executor = executor or ShardedVectorizedExecutor(workers=1)
    return executor.run(engine, runs=runs, seed=seed).summary_dict()


def _scales(span: float, points: int) -> Tuple[float, ...]:
    """Geometric fan of scale factors within ``[1/span, span]``.

    Always contains 1.0 (the analytical optimum itself) exactly; odd counts
    are symmetric around it, even counts place the extra point below it.
    """
    if points == 1:
        return (1.0,)
    half = points // 2
    ratio = span ** (1.0 / half)
    down = [ratio**-i for i in range(half, 0, -1)]
    up = [ratio**i for i in range(1, points - half)]
    return tuple(down) + (1.0,) + tuple(up)


def refine_period(
    protocol: str,
    parameters: ResilienceParameters,
    workload: ApplicationWorkload,
    *,
    runs: int = 200,
    seed: Optional[int] = 2014,
    backend: str = "auto",
    workers: Optional[int] = None,
    cache_dir: Optional["str | Path"] = None,
    resume: bool = True,
    span: float = 2.0,
    points: int = 5,
    rounds: int = 2,
    failure_model: str = "exponential",
    failure_params: Optional[Mapping[str, Any]] = None,
    model_kwargs: Optional[Mapping[str, Any]] = None,
    simulator_kwargs: Optional[Mapping[str, Any]] = None,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
    analytical: Optional[PeriodOptimum] = None,
    executor: Optional[ShardedVectorizedExecutor] = None,
) -> RefinedOptimum:
    """Re-optimize a protocol's period against the Monte-Carlo engine.

    Parameters
    ----------
    protocol / parameters / workload:
        The configuration to refine, as in :func:`optimize_period`.
    runs / seed:
        Campaign size and root seed per candidate (shared, so candidates
        are compared on identical failure streams).
    backend:
        Monte-Carlo engine: ``"auto"`` (default; vectorized where supported,
        event elsewhere), ``"vectorized"`` or ``"event"``.
    workers:
        Worker processes each round's candidate campaigns run over, as one
        batch (:meth:`~repro.campaign.executor.ShardedVectorizedExecutor.run_many`,
        either engine).  Bit-identical for any worker count.
    cache_dir / resume:
        Candidate-campaign cache directory (``None`` disables caching) and
        whether to consult existing entries, exactly like the sweep runner
        -- an interrupted refinement picks up where it stopped.
    span / points / rounds:
        Fan geometry: each round simulates ``points`` candidates scaling
        every tunable period by factors spanning ``[1/span, span]`` around
        the current best, then narrows the span (square root) for the next
        round.
    failure_model / failure_params:
        Failure law of the campaigns (any registered model); laws without
        vectorized block sampling (subclassed or third-party models) force
        the event backend.
    model_kwargs / simulator_kwargs:
        Protocol options beyond the periods, split as in
        :func:`repro.core.registry.resolve`: ``model_kwargs`` shape the
        analytical starting point (:func:`optimize_period`; may include
        model-only options like the composite's ``per_epoch``),
        ``simulator_kwargs`` are forwarded to every simulated candidate's
        engine constructor and become part of the candidate cache keys.
        An option both sides understand (e.g. ``safeguard``) must be passed
        in both to keep the analytical and simulated configurations aligned.
    analytical:
        Reuse a precomputed analytical optimum instead of recomputing it.
    executor:
        Reuse an existing :class:`ShardedVectorizedExecutor` instead of
        constructing one from ``workers`` (the advisor service's background
        jobs share one executor this way).
    """
    if points <= 0 or rounds <= 0:
        raise ValueError("points and rounds must be positive")
    if span <= 1.0:
        raise ValueError(f"span must be > 1, got {span}")
    entry = resolve_protocol(protocol)
    start = analytical if analytical is not None else optimize_period(
        entry.name, parameters, workload, model_kwargs=model_kwargs
    )
    if not start.feasible or not start.periods:
        # Nothing to refine: no tunable period, or no period makes progress.
        return RefinedOptimum(
            protocol=entry.name,
            analytical=start,
            candidates=(),
            best=None,
            runs=runs,
            seed=seed,
        )

    cache = SweepCache(cache_dir) if cache_dir is not None else None
    if executor is None:
        executor = ShardedVectorizedExecutor(
            workers=1 if workers is None else workers
        )
    law = resolve_failure_model(failure_model).name
    law_params = dict(failure_params or {})
    engine_kwargs = dict(simulator_kwargs or {})

    candidates: list[RefineCandidate] = []
    seen: set = set()
    computed = 0
    cached_count = 0
    best: Optional[RefineCandidate] = None
    center = dict(start.periods)
    center_scale = 1.0
    current_span = float(span)
    for _ in range(rounds):
        # The round's candidates, each with its cached summary (or None);
        # the uncached ones run as one batch on the executor.
        fan = []
        for scale in _scales(current_span, points):
            periods = {k: v * scale for k, v in center.items()}
            signature = tuple(sorted(periods.items()))
            if signature in seen:
                continue
            seen.add(signature)
            key = _candidate_key(
                entry.name,
                parameters,
                workload,
                periods,
                runs=runs,
                seed=seed,
                failure_model=law,
                failure_params=law_params,
                max_slowdown=max_slowdown,
                simulator_kwargs=engine_kwargs,
            )
            summary = cache.load(key) if (cache is not None and resume) else None
            if _obs.enabled():
                _obs.catalog.family("repro_refine_candidates_total").inc(
                    outcome="computed" if summary is None else "cached"
                )
            fan.append((periods, center_scale * scale, key, summary))
        batch = executor.run_many(
            (
                engine_at_periods(
                    entry.name,
                    parameters,
                    workload,
                    periods,
                    backend=backend,
                    failure_model=law,
                    failure_params=law_params,
                    max_slowdown=max_slowdown,
                    simulator_kwargs=engine_kwargs,
                ),
                runs,
                seed,
            )
            for periods, _, _, summary in fan
            if summary is None
        )
        with closing(batch) as tables:
            for periods, absolute, key, summary in fan:
                was_cached = summary is not None
                if summary is None:
                    summary = next(tables).summary_dict()
                    if cache is not None:
                        cache.store(key, summary)
                    computed += 1
                else:
                    cached_count += 1
                mean = summary.get("waste_mean")
                candidate = RefineCandidate(
                    periods=periods,
                    scale=absolute,
                    waste_mean=math.nan if mean is None else float(mean),
                    summary=summary,
                    cached=was_cached,
                )
                candidates.append(candidate)
                if (
                    best is None
                    or not math.isfinite(best.waste_mean)
                    or (
                        math.isfinite(candidate.waste_mean)
                        and candidate.waste_mean < best.waste_mean
                    )
                ):
                    best = candidate
        if best is not None:
            center = dict(best.periods)
            center_scale = best.scale
        current_span = math.sqrt(current_span)
    return RefinedOptimum(
        protocol=entry.name,
        analytical=start,
        candidates=tuple(candidates),
        best=best,
        runs=runs,
        seed=seed,
        computed=computed,
        cached=cached_count,
    )
