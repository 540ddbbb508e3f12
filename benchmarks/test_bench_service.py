"""Load benchmark of the advisor service: the CI ``service-smoke`` gate.

Boots the tiered advisor in-process (:class:`ServiceThread`), replays a
mixed ~200-request workload over real HTTP (keep-alive per client batch),
and gates three contracts:

* **byte-identity** -- every cache-hit answer is bit-for-bit the body its
  miss produced;
* **interactive latency** -- p99 per tier stays under the gate (tier 1,
  the answer cache, must be sub-10 ms even on a busy CI box; tier 2, map
  interpolation, under 250 ms);
* **tier routing** -- the workload's hit/miss mix lands in the expected
  tiers (repeats hit tier 1, on/off-grid map questions hit tier 2,
  out-of-hull ones fall back to tier 3).

Per-tier latency percentiles are appended to the BENCH trajectory as the
git-ignored ``.bench_build/BENCH_SERVICE.json`` (path overridable via
``REPRO_BENCH_SERVICE_PATH``) and uploaded as a CI artifact, so latency
regressions are visible across PRs.  ``REPRO_BENCH_QUICK=1`` shrinks the workload.

Run locally with::

    REPRO_BENCH_QUICK=1 pytest benchmarks/test_bench_service.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.optimize.regime import RegimeMapSpec, compute_regime_map
from repro.service import create_app
from repro.service.testing import ServiceThread
from repro.service.tiers import RegimeSurface

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "", "false")

TRAJECTORY_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_SERVICE_PATH",
        Path(__file__).resolve().parent.parent / ".bench_build" / "BENCH_SERVICE.json",
    )
)

#: p99 latency gates per serving tier, in seconds.  Generous versus the
#: observed numbers (tier 1 is typically < 1 ms, tier 2 a few ms) so only a
#: real regression -- a recomputation sneaking into the cache path, the
#: interpolator going quadratic -- trips them on shared CI runners.
P99_GATE_SECONDS = {"answer-cache": 0.050, "map": 0.250}

NODES = 1000
PLATFORM_MTBFS = tuple(3600.0 * 2**k for k in range(6))
TOTAL_TIME = 360000.0
PROTOCOLS = ["PurePeriodicCkpt", "BiPeriodicCkpt", "ABFT&PeriodicCkpt"]


def scenario(mtbf: float) -> dict:
    return {
        "name": "bench",
        "platform": {"mtbf": mtbf, "checkpoint": 600.0},
        "workload": {"total_time": TOTAL_TIME, "alpha": 0.8},
        "protocols": PROTOCOLS,
    }


def build_workload(total_requests: int) -> List[dict]:
    """The mixed request stream: unique misses plus ~70% repeats.

    Mimics advisor traffic: a few distinct questions asked many times.
    Deterministic (round-robin over a fixed question pool) so the workload
    -- and therefore the latency distribution -- is comparable across runs.
    """
    questions = []
    # On-grid and off-grid map questions (tier 2), one per platform MTBF
    # and one per geometric midpoint.
    for mtbf in PLATFORM_MTBFS:
        questions.append({"scenario": scenario(mtbf)})
    for lo, hi in zip(PLATFORM_MTBFS, PLATFORM_MTBFS[1:]):
        questions.append({"scenario": scenario((lo * hi) ** 0.5)})
    # Out-of-hull questions (tier-3 fallback).
    questions.append({"scenario": scenario(PLATFORM_MTBFS[0] / 8)})
    questions.append({"scenario": scenario(PLATFORM_MTBFS[-1] * 8)})
    # Forced-analytical questions (tier 3 by request).
    questions.append({"scenario": scenario(PLATFORM_MTBFS[2]), "tier": "analytical"})
    return [questions[i % len(questions)] for i in range(total_requests)]


def percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def test_service_load_replay_and_latency_gate():
    total_requests = 60 if QUICK else 200
    map_spec = RegimeMapSpec(
        node_counts=(NODES,),
        node_mtbf_values=tuple(mu * NODES for mu in PLATFORM_MTBFS),
        checkpoint_costs=(600.0,),
        abft_overheads=(1.03,),
        application_time=TOTAL_TIME,
    )
    surface = RegimeSurface(compute_regime_map(map_spec))
    app = create_app(surface=surface)
    workload = build_workload(total_requests)

    latencies: Dict[str, List[float]] = {}
    bodies_by_miss: Dict[bytes, bytes] = {}
    tier_mix: Dict[str, int] = {}
    hit_count = 0
    byte_checks = 0

    with ServiceThread(app) as svc:
        # Warm nothing: the first pass over the question pool is all misses,
        # later passes replay them as answer-cache hits.
        for body in workload:
            request_key = json.dumps(body, sort_keys=True).encode()
            start = time.perf_counter()
            reply = svc.request("POST", "/optimize", body)
            elapsed = time.perf_counter() - start
            assert reply.status == 200, reply.body
            tier = reply.tier
            latencies.setdefault(tier, []).append(elapsed)
            tier_mix[tier] = tier_mix.get(tier, 0) + 1
            if reply.cache == "miss":
                bodies_by_miss[request_key] = reply.body
            else:
                hit_count += 1
                byte_checks += 1
                # The load test's core contract: a hit re-serves the exact
                # bytes its miss produced.
                assert reply.body == bodies_by_miss[request_key]
        health = svc.healthz()

    # Tier routing sanity: all three serving tiers participated.
    assert tier_mix.get("answer-cache", 0) > 0, tier_mix
    assert tier_mix.get("map", 0) > 0, tier_mix
    assert tier_mix.get("analytical", 0) > 0, tier_mix
    assert hit_count == byte_checks and byte_checks > 0
    # Every repeated question must have hit the cache: hits = total - unique.
    assert hit_count == total_requests - len(bodies_by_miss)
    assert health["answer_cache"]["hits"] == hit_count

    summary: Dict[str, Dict[str, float]] = {}
    for tier, samples in latencies.items():
        summary[tier] = {
            "requests": len(samples),
            "p50_ms": round(percentile(samples, 0.50) * 1e3, 3),
            "p99_ms": round(percentile(samples, 0.99) * 1e3, 3),
            "max_ms": round(max(samples) * 1e3, 3),
        }
    print(f"\nservice latency by tier: {json.dumps(summary, sort_keys=True)}")

    payload = {
        "description": (
            "Advisor-service load replay: per-tier request latency over a "
            "mixed /optimize workload with ~70% repeats, plus the byte-"
            "identity check hits vs misses. Written by "
            "benchmarks/test_bench_service.py (REPRO_BENCH_QUICK shrinks "
            "the workload) and uploaded by the CI service-smoke job as a "
            "workflow artifact."
        ),
        "quick_mode": QUICK,
        "total_requests": total_requests,
        "unique_questions": len(bodies_by_miss),
        "cache_hits": hit_count,
        "tier_mix": dict(sorted(tier_mix.items())),
        "latency_by_tier": summary,
        "p99_gate_seconds": P99_GATE_SECONDS,
    }
    TRAJECTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    TRAJECTORY_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"service latency trajectory written to {TRAJECTORY_PATH}")

    # Latency gates last, so a gate trip still leaves the artifact behind
    # for diagnosis.
    for tier, gate in P99_GATE_SECONDS.items():
        observed = percentile(latencies[tier], 0.99)
        assert observed <= gate, (
            f"tier {tier!r} p99 latency {observed * 1e3:.1f} ms exceeds the "
            f"{gate * 1e3:.0f} ms gate"
        )


def test_background_job_does_not_block_interactive_tiers():
    """A running Monte-Carlo job must not stall answer-cache reads."""
    app = create_app()
    doc = scenario(PLATFORM_MTBFS[2])
    doc["simulation"] = {"runs": 100 if QUICK else 300, "seed": 7}
    with ServiceThread(app) as svc:
        warm = svc.request("POST", "/optimize", {"scenario": doc})
        assert warm.status == 200
        job_reply = svc.request(
            "POST",
            "/simulate",
            {"scenario": doc, "protocol": "PurePeriodicCkpt"},
        )
        assert job_reply.status == 202
        # While the job computes, cached answers must stay interactive.
        stalls = []
        for _ in range(20):
            start = time.perf_counter()
            reply = svc.request("POST", "/optimize", {"scenario": doc})
            stalls.append(time.perf_counter() - start)
            assert reply.cache == "hit"
        snapshot = svc.wait_for_job(job_reply.json()["job"]["id"])
        assert snapshot["state"] == "done"
        assert percentile(stalls, 0.99) <= P99_GATE_SECONDS["answer-cache"]


@pytest.mark.skipif(QUICK, reason="eviction churn is exercised in full runs only")
def test_answer_cache_eviction_under_churn():
    """A tiny cache under a wide workload keeps answering correctly."""
    map_spec = RegimeMapSpec(
        node_counts=(NODES,),
        node_mtbf_values=tuple(mu * NODES for mu in PLATFORM_MTBFS),
        checkpoint_costs=(600.0,),
        abft_overheads=(1.03,),
        application_time=TOTAL_TIME,
    )
    surface = RegimeSurface(compute_regime_map(map_spec))
    app = create_app(surface=surface, answer_cache_entries=4)
    with ServiceThread(app) as svc:
        reference: Dict[float, bytes] = {}
        for sweep in range(3):
            for mtbf in PLATFORM_MTBFS:
                reply = svc.request(
                    "POST", "/optimize", {"scenario": scenario(mtbf)}
                )
                assert reply.status == 200
                if sweep == 0:
                    reference[mtbf] = reply.body
                else:
                    # Evicted-and-recomputed answers are still byte-identical
                    # because the body is deterministically rendered.
                    assert reply.body == reference[mtbf]
        health = svc.healthz()
        assert health["answer_cache"]["evictions"] > 0
        assert health["answer_cache"]["entries"] <= 4
