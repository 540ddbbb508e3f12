"""The declarative catalog of every metric family the stack emits.

Keeping the catalog in one place buys three things:

* ``GET /metrics`` and ``repro obs dump`` show the complete schema --
  every family renders its ``# HELP`` / ``# TYPE`` header even before
  traffic touches it -- so dashboards can be built against an idle
  service.
* The CI ``service-smoke`` job asserts that a live scrape contains every
  cataloged family, which catches a renamed or dropped metric the day it
  happens instead of when a dashboard goes blank.
* EXPERIMENTS.md documents the same names this module registers; a test
  cross-checks the two so the docs cannot silently rot.

Families are split into two scopes: ``global`` families live on the
process-wide registry (engine, campaign, optimizer, CLI), ``service``
families live on each :class:`~repro.service.app.AdvisorService`'s
private registry so concurrent service instances in one test process do
not bleed counters into each other.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, global_registry

__all__ = ["CATALOG", "MetricSpec", "SCOPE_GLOBAL", "SCOPE_SERVICE",
           "family", "family_names", "preregister"]

SCOPE_GLOBAL = "global"
SCOPE_SERVICE = "service"


class MetricSpec(NamedTuple):
    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labelnames: Tuple[str, ...]
    scope: str


CATALOG: Tuple[MetricSpec, ...] = (
    # -- engine / campaign / CLI (global registry) --------------------- #
    MetricSpec(
        "repro_engine_runs_total",
        "counter",
        "Vectorized engine invocations (one per run_trial_range call).",
        ("protocol",),
        SCOPE_GLOBAL,
    ),
    MetricSpec(
        "repro_engine_trials_total",
        "counter",
        "Monte-Carlo trials simulated by the vectorized engine.",
        ("protocol",),
        SCOPE_GLOBAL,
    ),
    MetricSpec(
        "repro_engine_rounds_total",
        "counter",
        "Execute-loop rounds run by the vectorized engine (one per pass "
        "over a chunk's live trials); only counted while instrumentation "
        "is enabled.",
        ("protocol",),
        SCOPE_GLOBAL,
    ),
    MetricSpec(
        "repro_engine_trial_rounds_total",
        "counter",
        "Live trials summed over the vectorized engine's execute-loop "
        "rounds; only counted while instrumentation is enabled.",
        ("protocol",),
        SCOPE_GLOBAL,
    ),
    MetricSpec(
        "repro_engine_phase_seconds_total",
        "counter",
        "Wall-clock seconds per engine phase "
        "(compile, derive, sample, execute, gather); only accumulated "
        "while instrumentation is enabled.",
        ("phase", "protocol"),
        SCOPE_GLOBAL,
    ),
    MetricSpec(
        "repro_campaign_shards_total",
        "counter",
        "Shards dispatched by the sharded vectorized executor.",
        (),
        SCOPE_GLOBAL,
    ),
    MetricSpec(
        "repro_executor_pool_starts_total",
        "counter",
        "Process pools started by the executor (one per batch of "
        "campaigns that fans out).",
        (),
        SCOPE_GLOBAL,
    ),
    MetricSpec(
        "repro_sweep_points_total",
        "counter",
        "Sweep grid points, by whether the point was computed or "
        "replayed from the campaign cache.",
        ("outcome",),
        SCOPE_GLOBAL,
    ),
    MetricSpec(
        "repro_refine_candidates_total",
        "counter",
        "Candidate periods evaluated by the period refiner, by whether "
        "the simulation was computed or served from the sweep cache.",
        ("outcome",),
        SCOPE_GLOBAL,
    ),
    MetricSpec(
        "repro_log_events_total",
        "counter",
        "Structured log events by level and event name.",
        ("level", "event"),
        SCOPE_GLOBAL,
    ),
    # -- advisor service (per-service registry) ------------------------ #
    MetricSpec(
        "repro_service_requests_total",
        "counter",
        "HTTP requests served, by endpoint.",
        ("endpoint",),
        SCOPE_SERVICE,
    ),
    MetricSpec(
        "repro_service_answers_total",
        "counter",
        "Cacheable answers served, by the tier that produced them.",
        ("tier",),
        SCOPE_SERVICE,
    ),
    MetricSpec(
        "repro_service_request_seconds",
        "histogram",
        "Request service time in seconds, by endpoint and serving tier.",
        ("endpoint", "tier"),
        SCOPE_SERVICE,
    ),
    MetricSpec(
        "repro_service_answer_cache_events_total",
        "counter",
        "Answer-cache events (hit, miss, eviction).",
        ("event",),
        SCOPE_SERVICE,
    ),
    MetricSpec(
        "repro_service_answer_cache_entries",
        "gauge",
        "Entries currently held by the tier-1 answer cache.",
        (),
        SCOPE_SERVICE,
    ),
    MetricSpec(
        "repro_service_jobs_submitted_total",
        "counter",
        "Background Monte-Carlo jobs accepted (deduplicated submissions "
        "count once).",
        (),
        SCOPE_SERVICE,
    ),
    MetricSpec(
        "repro_service_job_transitions_total",
        "counter",
        "Background job state transitions (pending, running, done, "
        "failed).",
        ("state",),
        SCOPE_SERVICE,
    ),
    MetricSpec(
        "repro_service_jobs",
        "gauge",
        "Background jobs currently in each state (sampled at scrape).",
        ("state",),
        SCOPE_SERVICE,
    ),
    MetricSpec(
        "repro_service_uptime_seconds",
        "gauge",
        "Seconds since the service instance was constructed (sampled at "
        "scrape).",
        (),
        SCOPE_SERVICE,
    ),
)


_SPEC_BY_NAME = {spec.name: spec for spec in CATALOG}


def family_names(scope: Optional[str] = None) -> Tuple[str, ...]:
    """Cataloged family names, optionally restricted to one scope."""
    return tuple(
        spec.name
        for spec in CATALOG
        if scope is None or spec.scope == scope
    )


def family(name: str, registry: Optional[MetricsRegistry] = None):
    """The live family for a cataloged name, registered on first use.

    The single way instrumented code obtains a metric handle: the kind,
    help text, and label names come from the catalog entry, so call
    sites cannot drift from the documented schema.  ``registry``
    defaults to the global registry (the right home for every
    ``global``-scope family).
    """
    spec = _SPEC_BY_NAME[name]
    target = registry if registry is not None else global_registry()
    if spec.kind == "counter":
        return target.counter(spec.name, spec.help, spec.labelnames)
    if spec.kind == "gauge":
        return target.gauge(spec.name, spec.help, spec.labelnames)
    if spec.kind == "histogram":
        return target.histogram(spec.name, spec.help, spec.labelnames)
    raise ValueError(f"unknown metric kind {spec.kind!r}")  # pragma: no cover


def preregister(
    registry: MetricsRegistry, scopes: Sequence[str] = (SCOPE_GLOBAL,)
) -> None:
    """Register every cataloged family for ``scopes`` on ``registry``.

    Registration is idempotent, so callers that already hold live family
    handles (the service does) can preregister safely; the point is that
    a scrape of an idle registry still shows the full schema.
    """
    wanted: Iterable[MetricSpec] = (
        spec for spec in CATALOG if spec.scope in scopes
    )
    for spec in wanted:
        family(spec.name, registry)
