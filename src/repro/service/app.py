"""The advisor service: tier routing, provenance and counters.

:class:`AdvisorService` answers "which protocol, what period?" over HTTP at
interactive latency.  Requests are frozen-``ScenarioSpec``-shaped JSON and
every answer flows through a three-tier path:

1. **answer cache** (:mod:`repro.service.cache`): a content-addressed map
   from the canonical request to the exact bytes previously served --
   identical questions are free, and hits are byte-identical to their
   misses by construction;
2. **regime-map surface** (:mod:`repro.service.tiers`): bilinear/log-linear
   interpolation over a precomputed :class:`~repro.optimize.regime.RegimeMap`
   loaded at startup -- instant approximate answers inside the map's hull;
3. **analytical optimizer**: the Brent search of
   :func:`repro.optimize.period.optimize_period`, ~ms per protocol,
   computed inline on miss; heavy Monte-Carlo refinement is never computed
   inline but dispatched as a background job (:mod:`repro.service.jobs`)
   and polled via ``GET /jobs/<id>``.

Provenance rides on every response: the body's ``tier`` field names the
tier that *computed* the answer, and the ``X-Repro-Tier`` /
``X-Repro-Cache`` headers name how *this* request was served (``hit``
answers re-serve stored bytes, so their bodies stay byte-identical while
the headers flip to ``answer-cache``/``hit``).  ``GET /healthz`` exposes
per-tier and per-endpoint counters.

Endpoints
---------
``POST /optimize``
    Best protocol + optimal periods for one scenario point.
``POST /compare``
    Full per-protocol ranking over the scenario's sweep grid.
``POST /simulate``
    Monte-Carlo refinement/validation as a background job (``202``).
``GET /jobs/<id>``
    Poll one background job.
``GET /protocols``
    The registry catalog (same serializer as ``scenario list --json``).
``GET /healthz``
    Liveness plus tier/cache/job counters.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import repro.obs as _obs
from repro.campaign.cache import SweepCache, canonical_digest
from repro.campaign.executor import ShardedVectorizedExecutor
from repro.core.registry import (
    UnknownFailureModelError,
    UnknownProtocolError,
    registry_catalog,
    resolve_protocol,
)
from repro.optimize.refine import refine_period, simulate_at_periods
from repro.scenario.runner import optimize_scenario
from repro.scenario.spec import ScenarioError, ScenarioSpec
from repro.service.cache import AnswerCache, CachedAnswer, answer_key
from repro.service.http import HTTPError, HTTPServer, Request, Response, Router
from repro.service.jobs import JobManager
from repro.service.tiers import (
    TIER_ANALYTICAL,
    TIER_BACKGROUND,
    TIER_CACHE,
    TIER_CATALOG,
    TIER_MAP,
    RegimeSurface,
    SurfaceMismatch,
    analytical_answer,
)

__all__ = ["AdvisorService", "create_app", "serve_forever"]

#: Accepted values of the request's ``tier`` routing hint.
TIER_CHOICES = ("auto", "map", "analytical")


def _require_object(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise HTTPError(400, f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def _check_fields(payload: Mapping[str, Any], allowed: Sequence[str], what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise HTTPError(
            400,
            f"unknown {what} field(s) {unknown}; allowed fields: {sorted(allowed)}",
        )


def _parse_scenario(payload: Mapping[str, Any]) -> ScenarioSpec:
    """The request's ``scenario`` section as a validated spec (400 on error)."""
    if "scenario" not in payload:
        raise HTTPError(400, "missing required field 'scenario'")
    scenario = _require_object(payload["scenario"], "'scenario'")
    try:
        return ScenarioSpec.from_dict(scenario)
    except (ScenarioError, UnknownProtocolError, UnknownFailureModelError) as exc:
        raise HTTPError(400, f"invalid scenario: {exc}") from exc


def _parse_protocols(
    payload: Mapping[str, Any], spec: ScenarioSpec
) -> Tuple[str, ...]:
    """The canonical protocol list a request asks about.

    ``protocol`` (one name) and ``protocols`` (a list) are mutually
    exclusive conveniences; both resolve aliases through the registry and
    default to the scenario's own protocol set.
    """
    if "protocol" in payload and "protocols" in payload:
        raise HTTPError(400, "give either 'protocol' or 'protocols', not both")
    names: Sequence[str]
    if "protocol" in payload:
        if not isinstance(payload["protocol"], str):
            raise HTTPError(400, "'protocol' must be a string")
        names = [payload["protocol"]]
    elif "protocols" in payload:
        raw = payload["protocols"]
        if not isinstance(raw, (list, tuple)) or not all(
            isinstance(name, str) for name in raw
        ):
            raise HTTPError(400, "'protocols' must be a list of strings")
        if not raw:
            raise HTTPError(400, "'protocols' must name at least one protocol")
        names = raw
    else:
        names = spec.protocols
    try:
        return tuple(resolve_protocol(name).name for name in names)
    except UnknownProtocolError as exc:
        raise HTTPError(400, str(exc)) from exc


def _optional_number(payload: Mapping[str, Any], key: str) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HTTPError(400, f"'{key}' must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise HTTPError(400, f"'{key}' must be a positive finite number")
    return value


def _positive_int(payload: Mapping[str, Any], key: str, default: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise HTTPError(400, f"'{key}' must be a positive integer, got {value!r}")
    return value


class AdvisorService:
    """Routes, tiers and counters of the advisor HTTP API."""

    def __init__(
        self,
        *,
        surface: Optional[RegimeSurface] = None,
        cache_dir: "str | None" = None,
        workers: int = 2,
        mc_workers: "int | str | None" = 1,
        answer_cache_entries: int = 4096,
    ) -> None:
        self.surface = surface
        self.cache_dir = cache_dir
        self._started = time.monotonic()
        # Per-service registry: concurrent service instances in one test
        # process must not bleed counters into each other.  The full
        # service-scope schema is preregistered so an idle /metrics scrape
        # still shows every family.
        self.metrics = _obs.MetricsRegistry()
        _obs.preregister(self.metrics, (_obs.SCOPE_SERVICE,))
        self._requests_metric = _obs.catalog.family(
            "repro_service_requests_total", self.metrics
        )
        self._answers_metric = _obs.catalog.family(
            "repro_service_answers_total", self.metrics
        )
        self._latency_metric = _obs.catalog.family(
            "repro_service_request_seconds", self.metrics
        )
        self.answers = AnswerCache(answer_cache_entries, registry=self.metrics)
        self.jobs = JobManager(workers, registry=self.metrics)
        self._mc_workers_requested = mc_workers
        # The executor shared by every background campaign, on either
        # engine, sized by ``mc_workers``: 1 keeps campaigns serial in the
        # job thread, "auto" shards each one across the machine's cores.
        self._mc_executor = ShardedVectorizedExecutor(workers=mc_workers)
        self.router = Router()
        self.router.add("POST", "/optimize", self._handle_optimize)
        self.router.add("POST", "/compare", self._handle_compare)
        self.router.add("POST", "/simulate", self._handle_simulate)
        self.router.add("GET", "/protocols", self._handle_protocols)
        self.router.add("GET", "/healthz", self._handle_healthz)
        self.router.add("GET", "/metrics", self._handle_metrics)
        self.router.add("GET", "/jobs/{job_id}", self._handle_job)
        self.server = HTTPServer(self.router)

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def tier_counts(self) -> Dict[str, int]:
        """Answers served, by tier (a view over the metrics registry)."""
        return {
            key[0]: int(count)
            for key, count in self._answers_metric.values().items()
        }

    @property
    def endpoint_counts(self) -> Dict[str, int]:
        """Requests served, by endpoint (a view over the metrics registry)."""
        return {
            key[0]: int(count)
            for key, count in self._requests_metric.values().items()
        }

    def _answer(
        self,
        endpoint: str,
        request_payload: Mapping[str, Any],
        compute: Callable[[], Tuple[Dict[str, Any], int, str]],
    ) -> Response:
        """Serve one cacheable answer through the tier-1 cache.

        ``compute`` returns ``(body payload, status, tier)`` and only runs
        on a miss; its rendered bytes are stored so a later hit re-serves
        them verbatim (the byte-identity contract).
        """
        began = time.perf_counter()
        self._requests_metric.inc(endpoint=endpoint)
        key = answer_key(endpoint, request_payload)
        cached = self.answers.get(key)
        if cached is not None:
            self._answers_metric.inc(tier=TIER_CACHE)
            self._latency_metric.observe(
                time.perf_counter() - began, endpoint=endpoint, tier=TIER_CACHE
            )
            return Response(
                status=cached.status,
                body=cached.body,
                headers=(
                    ("X-Repro-Tier", TIER_CACHE),
                    ("X-Repro-Cache", "hit"),
                    ("X-Repro-Computed-Tier", cached.tier),
                ),
            )
        payload, status, tier = compute()
        self._answers_metric.inc(tier=tier)
        rendered = Response.json(
            payload,
            status=status,
            headers=(
                ("X-Repro-Tier", tier),
                ("X-Repro-Cache", "miss"),
                ("X-Repro-Computed-Tier", tier),
            ),
        )
        self.answers.put(
            key, CachedAnswer(body=rendered.body, status=status, tier=tier)
        )
        self._latency_metric.observe(
            time.perf_counter() - began, endpoint=endpoint, tier=tier
        )
        return rendered

    def _dynamic(self, endpoint: str, payload: Any, *, status: int = 200, tier: str) -> Response:
        """An uncached (dynamic) answer -- health, job polling.

        Dynamic endpoints count toward the per-endpoint request metric and
        latency histogram but *not* the per-tier answer counter: ``tiers``
        in ``/healthz`` keeps meaning "cacheable answers by producing
        tier", exactly as before.
        """
        began = time.perf_counter()
        self._requests_metric.inc(endpoint=endpoint)
        response = Response.json(
            payload,
            status=status,
            headers=(("X-Repro-Tier", tier), ("X-Repro-Cache", "bypass")),
        )
        self._latency_metric.observe(
            time.perf_counter() - began, endpoint=endpoint, tier=tier
        )
        return response

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    async def _handle_optimize(self, request: Request) -> Response:
        payload = _require_object(request.json(), "the request body")
        _check_fields(
            payload,
            ("scenario", "protocol", "protocols", "nodes", "node_mtbf", "tier"),
            "/optimize",
        )
        spec = _parse_scenario(payload)
        protocols = _parse_protocols(payload, spec)
        nodes = _optional_number(payload, "nodes")
        node_mtbf = _optional_number(payload, "node_mtbf")
        tier_hint = payload.get("tier", "auto")
        if tier_hint not in TIER_CHOICES:
            raise HTTPError(
                400, f"'tier' must be one of {list(TIER_CHOICES)}, got {tier_hint!r}"
            )
        canonical = {
            "scenario": spec.to_dict(),
            "protocols": list(protocols),
            "nodes": nodes,
            "node_mtbf": node_mtbf,
            "tier": tier_hint,
        }

        def compute() -> Tuple[Dict[str, Any], int, str]:
            scenario_ref = {
                "name": spec.name,
                "content_hash": spec.content_hash(),
            }
            fallback: Optional[str] = None
            if tier_hint in ("auto", "map"):
                if self.surface is None:
                    if tier_hint == "map":
                        raise HTTPError(
                            400, "tier 'map' requested but no regime map is loaded"
                        )
                    fallback = "no regime map loaded"
                else:
                    try:
                        answer = self.surface.interpolate(
                            spec, protocols, nodes=nodes, node_mtbf=node_mtbf
                        )
                        body = {
                            "tier": TIER_MAP,
                            "scenario": scenario_ref,
                            **answer,
                        }
                        return body, 200, TIER_MAP
                    except SurfaceMismatch as exc:
                        if tier_hint == "map":
                            raise HTTPError(
                                400,
                                f"tier 'map' cannot answer this request: "
                                f"{exc.reason}",
                            ) from exc
                        fallback = exc.reason
            answer = analytical_answer(spec, protocols)
            body = {"tier": TIER_ANALYTICAL, "scenario": scenario_ref, **answer}
            if fallback is not None:
                body["fallback"] = fallback
            return body, 200, TIER_ANALYTICAL

        return self._answer("/optimize", canonical, compute)

    async def _handle_compare(self, request: Request) -> Response:
        payload = _require_object(request.json(), "the request body")
        _check_fields(payload, ("scenario", "protocol", "protocols"), "/compare")
        spec = _parse_scenario(payload)
        protocols = _parse_protocols(payload, spec)
        canonical = {"scenario": spec.to_dict(), "protocols": list(protocols)}

        def compute() -> Tuple[Dict[str, Any], int, str]:
            result = optimize_scenario(spec, protocols=protocols)
            body = {"tier": TIER_ANALYTICAL, **result.to_dict()}
            return body, 200, TIER_ANALYTICAL

        return self._answer("/compare", canonical, compute)

    async def _handle_simulate(self, request: Request) -> Response:
        payload = _require_object(request.json(), "the request body")
        _check_fields(
            payload,
            ("scenario", "protocol", "periods", "runs", "seed", "backend"),
            "/simulate",
        )
        spec = _parse_scenario(payload)
        protocols = _parse_protocols(payload, spec)
        if len(protocols) != 1:
            raise HTTPError(
                400,
                "/simulate refines one protocol; give 'protocol' or a "
                "single-protocol scenario",
            )
        protocol = protocols[0]
        periods = payload.get("periods")
        if periods is not None:
            periods = _require_object(periods, "'periods'")
            parsed: Dict[str, float] = {}
            for keyword, value in periods.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise HTTPError(
                        400, f"periods.{keyword} must be a number, got {value!r}"
                    )
                parsed[str(keyword)] = float(value)
            periods = parsed
        runs = _positive_int(payload, "runs", spec.simulation.runs)
        seed = payload.get("seed", spec.simulation.seed)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise HTTPError(400, f"'seed' must be an integer, got {seed!r}")
        backend = payload.get("backend", "auto")
        if backend not in ("event", "vectorized", "auto"):
            raise HTTPError(
                400,
                f"'backend' must be 'event', 'vectorized' or 'auto', got {backend!r}",
            )
        canonical = {
            "scenario": spec.to_dict(),
            "protocol": protocol,
            "periods": periods,
            "runs": runs,
            "seed": seed,
            "backend": backend,
        }
        digest = canonical_digest(canonical)
        fn = self._simulation_job(spec, protocol, periods, runs, seed, backend, digest)

        def compute() -> Tuple[Dict[str, Any], int, str]:
            job = self.jobs.submit("simulate", digest, canonical, fn)
            body = {
                "tier": TIER_BACKGROUND,
                "scenario": {
                    "name": spec.name,
                    "content_hash": spec.content_hash(),
                },
                "job": {"id": job.id, "kind": job.kind},
                "poll": f"/jobs/{job.id}",
            }
            return body, 202, TIER_BACKGROUND

        return self._answer("/simulate", canonical, compute)

    def _simulation_job(
        self,
        spec: ScenarioSpec,
        protocol: str,
        periods: Optional[Mapping[str, float]],
        runs: int,
        seed: int,
        backend: str,
        digest: str,
    ) -> Callable[[], Dict[str, Any]]:
        """The blocking campaign behind one ``/simulate`` job.

        Explicit ``periods`` run a single campaign at those periods (cached
        under the request digest in the shared :class:`SweepCache`); without
        periods the full :func:`refine_period` fan runs, reusing the
        campaign layer's own candidate cache in the same directory -- the
        shared-directory case the atomic point writes exist for.
        """
        parameters = spec.parameters()
        workload = spec.application_workload()
        law = spec.failures.model
        law_params = spec.failures.params_dict
        model_kwargs = spec.model_kwargs_for(protocol)
        cache_dir = self.cache_dir
        executor = self._mc_executor

        def run_explicit() -> Dict[str, Any]:
            cache = SweepCache(cache_dir) if cache_dir is not None else None
            key = {"service": "simulate-at-periods", "digest": digest}
            summary = cache.load(key) if cache is not None else None
            cached = summary is not None
            if summary is None:
                summary = dict(
                    simulate_at_periods(
                        protocol,
                        parameters,
                        workload,
                        dict(periods or {}),
                        runs=runs,
                        seed=seed,
                        backend=backend,
                        executor=executor,
                        failure_model=law,
                        failure_params=law_params,
                    )
                )
                if cache is not None:
                    cache.store(key, summary)
            return {
                "protocol": protocol,
                "periods": dict(periods or {}),
                "summary": summary,
                "cached": cached,
            }

        def run_refine() -> Dict[str, Any]:
            refined = refine_period(
                protocol,
                parameters,
                workload,
                runs=runs,
                seed=seed,
                backend=backend,
                cache_dir=cache_dir,
                failure_model=law,
                failure_params=law_params,
                model_kwargs=model_kwargs,
                executor=executor,
            )
            result: Dict[str, Any] = {
                "protocol": refined.protocol,
                "analytical": refined.analytical.to_dict(),
                "computed": refined.computed,
                "cached": refined.cached,
                "runs": refined.runs,
                "seed": refined.seed,
            }
            if refined.best is None:
                result["best"] = None
            else:
                result["best"] = {
                    "periods": dict(refined.best.periods),
                    "scale": refined.shift,
                    "waste_mean": refined.best.waste_mean,
                    "summary": dict(refined.best.summary),
                }
            return result

        return run_explicit if periods is not None else run_refine

    async def _handle_protocols(self, request: Request) -> Response:
        def compute() -> Tuple[Dict[str, Any], int, str]:
            return {"tier": TIER_CATALOG, **registry_catalog()}, 200, TIER_CATALOG

        return self._answer("/protocols", {"catalog": True}, compute)

    async def _handle_healthz(self, request: Request) -> Response:
        payload = {
            "status": "ok",
            "tiers": dict(sorted(self.tier_counts.items())),
            "endpoints": dict(sorted(self.endpoint_counts.items())),
            "answer_cache": self.answers.counters(),
            "jobs": self.jobs.counters(),
            "regime_map": (
                None if self.surface is None else self.surface.describe()
            ),
            "cache_dir": self.cache_dir,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "config": {
                "workers": self.jobs.workers,
                "mc_workers": {
                    "requested": self._mc_workers_requested,
                    "resolved": self._mc_executor.workers,
                },
                "answer_cache_entries": self.answers.max_entries,
            },
        }
        return self._dynamic("/healthz", payload, tier="health")

    async def _handle_metrics(self, request: Request) -> Response:
        """Prometheus text exposition of the service + global registries.

        The sampled gauges (job states, uptime) are refreshed at scrape
        time -- they describe "now", not an event stream.
        """
        began = time.perf_counter()
        self._requests_metric.inc(endpoint="/metrics")
        job_counts = self.jobs.counters()
        jobs_gauge = _obs.catalog.family("repro_service_jobs", self.metrics)
        for state in ("pending", "running", "done", "failed"):
            jobs_gauge.set(job_counts[state], state=state)
        _obs.catalog.family("repro_service_uptime_seconds", self.metrics).set(
            time.monotonic() - self._started
        )
        _obs.preregister(_obs.global_registry(), (_obs.SCOPE_GLOBAL,))
        text = self.metrics.render_prometheus(extra=(_obs.global_registry(),))
        self._latency_metric.observe(
            time.perf_counter() - began, endpoint="/metrics", tier="metrics"
        )
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
            headers=(("X-Repro-Tier", "metrics"), ("X-Repro-Cache", "bypass")),
        )

    async def _handle_job(self, request: Request) -> Response:
        job = self.jobs.get(request.params["job_id"])
        if job is None:
            raise HTTPError(404, f"no such job: {request.params['job_id']}")
        return self._dynamic("/jobs", job.to_dict(), tier=TIER_BACKGROUND)

    # ------------------------------------------------------------------ #
    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        """Bind the HTTP server; returns the listening asyncio server."""
        return await self.server.start(host, port)


def create_app(
    *,
    regime_map: "str | None" = None,
    surface: Optional[RegimeSurface] = None,
    cache_dir: "str | None" = None,
    workers: int = 2,
    mc_workers: "int | str | None" = 1,
    answer_cache_entries: int = 4096,
) -> AdvisorService:
    """Build an :class:`AdvisorService`, loading the tier-2 map if given.

    ``regime_map`` is a path to a serialized :class:`RegimeMap` (the
    ``optimize map --json`` output); ``surface`` injects a prebuilt
    :class:`RegimeSurface` directly (tests).  ``workers`` bounds the
    concurrent background MC *jobs*; ``mc_workers`` is the shard-pool
    width of each campaign, on either engine (default 1 = serial in the job
    thread; ``"auto"`` fans each campaign across the machine's cores).
    """
    if regime_map is not None and surface is not None:
        raise ValueError("give either regime_map (a path) or surface, not both")
    if regime_map is not None:
        surface = RegimeSurface.load(regime_map)
    return AdvisorService(
        surface=surface,
        cache_dir=cache_dir,
        workers=workers,
        mc_workers=mc_workers,
        answer_cache_entries=answer_cache_entries,
    )


async def serve_forever(
    service: AdvisorService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Run the service until cancelled (the ``repro serve`` event loop).

    ``ready`` is called with the bound ``(host, port)`` once listening --
    the CLI prints its stderr note there, and tests use it to learn the
    ephemeral port of ``--port 0``.
    """
    server = await service.start(host, port)
    bound = server.sockets[0].getsockname()
    if ready is not None:
        ready(bound[0], bound[1])
    async with server:
        await server.serve_forever()
