"""Service observability: GET /metrics, healthz config, provenance under load.

The scrape contract: Prometheus text exposition 0.0.4, every cataloged
service- and global-scope family present even when idle, and counters
that exactly reconcile with the provenance headers the service handed
out -- checked here under concurrent mixed traffic.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.obs as obs
from repro.service import create_app
from repro.service.testing import ServiceThread


def scenario(mtbf: float = 86400.0, runs: int = 10) -> dict:
    return {
        "name": "obs-test",
        "platform": {"mtbf": mtbf, "checkpoint": 600.0},
        "workload": {"total_time": 360000.0, "alpha": 0.8},
        "protocols": ["PurePeriodicCkpt"],
        "simulation": {"runs": runs, "seed": 7},
    }


@pytest.fixture()
def service():
    with ServiceThread(create_app()) as svc:
        yield svc


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self, service):
        reply = service.request("GET", "/metrics")
        assert reply.status == 200
        assert reply.headers["content-type"].startswith("text/plain")
        assert "version=0.0.4" in reply.headers["content-type"]
        text = reply.body.decode("utf-8")
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name, f"unparseable sample line: {line!r}"
            float(value)  # every sample value parses as a number

    def test_idle_scrape_shows_every_cataloged_family(self, service):
        text = service.request("GET", "/metrics").body.decode("utf-8")
        for name in obs.family_names():
            assert f"# TYPE {name} " in text, f"{name} missing from scrape"

    def test_requests_and_tiers_counted(self, service):
        service.request("POST", "/optimize", {"scenario": scenario()})
        service.request("POST", "/optimize", {"scenario": scenario()})
        text = service.request("GET", "/metrics").body.decode("utf-8")
        assert (
            'repro_service_requests_total{endpoint="/optimize"} 2' in text
        )
        assert 'repro_service_answers_total{tier="analytical"} 1' in text
        assert 'repro_service_answers_total{tier="answer-cache"} 1' in text
        assert (
            'repro_service_answer_cache_events_total{event="hit"} 1' in text
        )
        assert (
            'repro_service_answer_cache_events_total{event="miss"} 1' in text
        )

    def test_latency_histogram_per_endpoint_and_tier(self, service):
        service.request("POST", "/optimize", {"scenario": scenario()})
        service.request("POST", "/optimize", {"scenario": scenario()})
        text = service.request("GET", "/metrics").body.decode("utf-8")
        assert (
            'repro_service_request_seconds_count'
            '{endpoint="/optimize",tier="analytical"} 1'
        ) in text
        assert (
            'repro_service_request_seconds_count'
            '{endpoint="/optimize",tier="answer-cache"} 1'
        ) in text
        assert 'le="+Inf"' in text

    def test_uptime_gauge_sampled_at_scrape(self, service):
        text = service.request("GET", "/metrics").body.decode("utf-8")
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_service_uptime_seconds ")
        )
        assert float(line.split()[-1]) >= 0.0

    def test_two_services_do_not_bleed_counters(self, service):
        service.request("POST", "/optimize", {"scenario": scenario()})
        with ServiceThread(create_app()) as other:
            text = other.request("GET", "/metrics").body.decode("utf-8")
        # The fresh service has served nothing but its own scrape.
        assert 'endpoint="/optimize"' not in text
        assert 'repro_service_requests_total{endpoint="/metrics"} 1' in text


class TestHealthzAdditions:
    def test_uptime_and_config_reported(self, service):
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0.0
        config = health["config"]
        assert config["workers"] == 2
        assert config["answer_cache_entries"] == 4096
        assert config["mc_workers"]["requested"] == 1
        # One resolved worker runs each campaign in the job thread.
        assert config["mc_workers"] == {"requested": 1, "resolved": 1}

    def test_resolved_mc_workers_reflects_requested_count(self):
        with ServiceThread(create_app(mc_workers=3)) as svc:
            config = svc.healthz()["config"]
        assert config["mc_workers"]["requested"] == 3
        assert config["mc_workers"]["resolved"] == 3
        assert set(config["mc_workers"]) == {"requested", "resolved"}

    def test_auto_mc_workers_resolves_to_machine_width(self):
        with ServiceThread(create_app(mc_workers="auto")) as svc:
            config = svc.healthz()["config"]
        assert config["mc_workers"]["requested"] == "auto"
        assert config["mc_workers"]["resolved"] >= 1

    def test_legacy_payload_shape_is_preserved(self, service):
        service.request("POST", "/optimize", {"scenario": scenario()})
        service.request("POST", "/optimize", {"scenario": scenario()})
        health = service.healthz()
        assert health["tiers"] == {"analytical": 1, "answer-cache": 1}
        assert health["endpoints"]["/optimize"] == 2
        assert health["answer_cache"]["hits"] == 1
        assert health["answer_cache"]["misses"] == 1
        assert health["jobs"]["workers"] == 2
        assert health["cache_dir"] is None
        assert health["regime_map"] is None


class TestProvenanceUnderConcurrentLoad:
    """Satellite: every X-Repro-Tier header reconciles with the counters."""

    def test_tier_headers_match_tier_counters_exactly(self, service):
        # Mixed workload: one repeated /optimize body (first request a
        # miss, the rest answer-cache hits), distinct /optimize bodies
        # (all misses), /compare, and /protocols -- fired concurrently.
        requests = []
        for _ in range(10):
            requests.append(("POST", "/optimize", {"scenario": scenario()}))
        for index in range(10):
            requests.append(
                (
                    "POST",
                    "/optimize",
                    {"scenario": scenario(mtbf=86400.0 + index + 1)},
                )
            )
        for _ in range(5):
            requests.append(("POST", "/compare", {"scenario": scenario()}))
        for _ in range(5):
            requests.append(("GET", "/protocols", None))

        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(
                pool.map(lambda r: service.request(r[0], r[1], r[2]), requests)
            )

        assert all(reply.status == 200 for reply in replies)
        served = TallyCounter(reply.tier for reply in replies)
        health = service.healthz()
        # The /healthz tier counters must equal the multiset of tiers the
        # service claimed in its own response headers -- no lost or
        # double-counted increments under concurrency.
        assert health["tiers"] == dict(served)
        assert health["endpoints"]["/optimize"] == 20
        assert health["endpoints"]["/compare"] == 5
        assert health["endpoints"]["/protocols"] == 5
        # Exactly one miss per distinct body; every repeat is a hit.
        assert health["answer_cache"]["misses"] == 13
        assert health["answer_cache"]["hits"] == 17
        assert served["answer-cache"] == 17

    def test_counters_survive_a_metrics_scrape_interleaved(self, service):
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(
                    service.request, "POST", "/optimize",
                    {"scenario": scenario()},
                )
                for _ in range(6)
            ] + [pool.submit(service.request, "GET", "/metrics")]
            replies = [f.result() for f in futures]
        assert all(r.status == 200 for r in replies)
        health = service.healthz()
        assert sum(health["tiers"].values()) == 6
