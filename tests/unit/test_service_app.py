"""Full-stack advisor-service tests over a live (threaded) server.

These drive real HTTP round-trips through :class:`ServiceThread`: tier
routing and the fallback chain, the byte-identity contract of cache hits,
content-addressed background jobs, error mapping and the /healthz counters.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.optimize.regime import RegimeMapSpec, compute_regime_map
from repro.service import create_app
from repro.service.testing import ServiceThread
from repro.service.tiers import RegimeSurface

NODES = 1000
PLATFORM_MTBFS = (21600.0, 43200.0, 86400.0, 172800.0)
TOTAL_TIME = 360000.0


def scenario(mtbf: float = 86400.0) -> dict:
    return {
        "name": "app-test",
        "platform": {"mtbf": mtbf, "checkpoint": 600.0},
        "workload": {"total_time": TOTAL_TIME, "alpha": 0.8},
        "protocols": ["PurePeriodicCkpt", "BiPeriodicCkpt", "ABFT&PeriodicCkpt"],
        "simulation": {"runs": 10, "seed": 7},
    }


@pytest.fixture(scope="module")
def surface() -> RegimeSurface:
    spec = RegimeMapSpec(
        node_counts=(NODES,),
        node_mtbf_values=tuple(mu * NODES for mu in PLATFORM_MTBFS),
        checkpoint_costs=(600.0,),
        abft_overheads=(1.03,),
        application_time=TOTAL_TIME,
    )
    return RegimeSurface(compute_regime_map(spec))


@pytest.fixture()
def service(surface, tmp_path):
    app = create_app(surface=surface, cache_dir=str(tmp_path / "jobs-cache"))
    with ServiceThread(app) as svc:
        yield svc


@pytest.fixture()
def bare_service():
    with ServiceThread(create_app()) as svc:
        yield svc


class TestMixedReplay:
    def test_every_repeat_hits_and_reserves_its_miss_bytes(self, service):
        # The correctness half of the service load-replay benchmark: a
        # fixed question pool asked three times over, mixing on-grid and
        # off-grid map questions, out-of-hull and forced-analytical ones.
        pool = [{"scenario": scenario(mtbf)} for mtbf in PLATFORM_MTBFS]
        pool += [
            {"scenario": scenario((lo * hi) ** 0.5)}
            for lo, hi in zip(PLATFORM_MTBFS, PLATFORM_MTBFS[1:])
        ]
        pool.append({"scenario": scenario(PLATFORM_MTBFS[0] / 8)})
        pool.append({"scenario": scenario(PLATFORM_MTBFS[-1] * 8)})
        pool.append({"scenario": scenario(PLATFORM_MTBFS[1]), "tier": "analytical"})
        bodies_by_miss, tiers, hits = {}, set(), 0
        for body in pool * 3:
            key = json.dumps(body, sort_keys=True)
            reply = service.request("POST", "/optimize", body)
            assert reply.status == 200, reply.body
            tiers.add(reply.tier)
            if reply.cache == "miss":
                assert key not in bodies_by_miss
                bodies_by_miss[key] = reply.body
            else:
                hits += 1
                assert reply.body == bodies_by_miss[key]
        assert tiers == {"map", "analytical", "answer-cache"}
        assert len(bodies_by_miss) == len(pool)
        assert hits == 2 * len(pool)
        assert service.healthz()["answer_cache"]["hits"] == hits


class TestOptimizeTiers:
    def test_grid_point_served_from_map(self, service):
        reply = service.request("POST", "/optimize", {"scenario": scenario()})
        assert reply.status == 200
        assert reply.tier == "map" and reply.cache == "miss"
        doc = reply.json()
        assert doc["tier"] == "map"
        assert doc["winner"] in scenario()["protocols"]
        assert doc["scenario"]["name"] == "app-test"
        assert len(doc["scenario"]["content_hash"]) == 64

    def test_cache_hit_is_byte_identical(self, service):
        miss = service.request("POST", "/optimize", {"scenario": scenario()})
        hit = service.request("POST", "/optimize", {"scenario": scenario()})
        assert miss.cache == "miss" and hit.cache == "hit"
        assert hit.tier == "answer-cache"
        assert hit.headers["x-repro-computed-tier"] == "map"
        assert hit.body == miss.body

    def test_field_order_and_defaults_share_one_cache_entry(self, service):
        doc = scenario()
        reordered = {"tier": "auto", "scenario": dict(reversed(list(doc.items())))}
        spelled = copy.deepcopy(doc)
        spelled["failures"] = {"model": "exponential"}  # the default, spelled out
        first = service.request("POST", "/optimize", {"scenario": doc})
        second = service.request("POST", "/optimize", reordered)
        third = service.request("POST", "/optimize", {"scenario": spelled})
        assert second.cache == "hit" and third.cache == "hit"
        assert first.body == second.body == third.body

    def test_out_of_hull_falls_back_to_analytical(self, service):
        low = scenario(PLATFORM_MTBFS[0] / 10)
        reply = service.request("POST", "/optimize", {"scenario": low})
        assert reply.status == 200 and reply.tier == "analytical"
        doc = reply.json()
        assert doc["tier"] == "analytical"
        assert "below the map hull" in doc["fallback"]

    def test_forced_analytical_skips_the_map(self, service):
        reply = service.request(
            "POST", "/optimize", {"scenario": scenario(), "tier": "analytical"}
        )
        assert reply.tier == "analytical"
        assert "fallback" not in reply.json()

    def test_forced_map_errors_when_unanswerable(self, service):
        low = scenario(PLATFORM_MTBFS[0] / 10)
        reply = service.request(
            "POST", "/optimize", {"scenario": low, "tier": "map"}
        )
        assert reply.status == 400
        assert "tier 'map' cannot answer" in reply.json()["error"]["detail"]

    def test_no_map_loaded_reports_fallback(self, bare_service):
        reply = bare_service.request("POST", "/optimize", {"scenario": scenario()})
        assert reply.tier == "analytical"
        assert reply.json()["fallback"] == "no regime map loaded"

    def test_map_and_analytical_agree_at_grid_point(self, service):
        mapped = service.request(
            "POST", "/optimize", {"scenario": scenario()}
        ).json()
        exact = service.request(
            "POST", "/optimize", {"scenario": scenario(), "tier": "analytical"}
        ).json()
        assert mapped["winner"] == exact["winner"]
        for name in scenario()["protocols"]:
            assert mapped["results"][name]["waste"] == pytest.approx(
                exact["results"][name]["waste"], rel=1e-9
            )


class TestValidation:
    def test_invalid_scenario_is_400_with_path(self, bare_service):
        reply = bare_service.request(
            "POST", "/optimize", {"scenario": {"bogus": True}}
        )
        assert reply.status == 400
        assert "invalid scenario" in reply.json()["error"]["detail"]

    def test_unknown_field_is_400(self, bare_service):
        reply = bare_service.request(
            "POST", "/optimize", {"scenario": scenario(), "surprise": 1}
        )
        assert reply.status == 400
        assert "surprise" in reply.json()["error"]["detail"]

    def test_unknown_protocol_is_400(self, bare_service):
        reply = bare_service.request(
            "POST", "/optimize", {"scenario": scenario(), "protocol": "Nope"}
        )
        assert reply.status == 400

    def test_protocol_and_protocols_conflict(self, bare_service):
        reply = bare_service.request(
            "POST",
            "/optimize",
            {"scenario": scenario(), "protocol": "NoFT", "protocols": ["NoFT"]},
        )
        assert reply.status == 400

    def test_bad_tier_value_is_400(self, bare_service):
        reply = bare_service.request(
            "POST", "/optimize", {"scenario": scenario(), "tier": "quantum"}
        )
        assert reply.status == 400

    def test_malformed_json_body_is_400(self, bare_service):
        reply = bare_service.request(
            "POST", "/optimize", raw_body=b"{not json"
        )
        assert reply.status == 400

    def test_unknown_endpoint_is_404(self, bare_service):
        assert bare_service.request("GET", "/nope").status == 404

    def test_wrong_method_is_405(self, bare_service):
        assert bare_service.request("GET", "/optimize").status == 405


class TestCompareAndCatalog:
    def test_compare_returns_ranking_points(self, bare_service):
        reply = bare_service.request("POST", "/compare", {"scenario": scenario()})
        assert reply.status == 200 and reply.tier == "analytical"
        doc = reply.json()
        assert doc["tier"] == "analytical"
        assert doc["protocols"] == scenario()["protocols"]
        assert len(doc["points"]) == 1
        point = doc["points"][0]
        assert point["winner"] in scenario()["protocols"]
        assert set(point["optima"]) == set(scenario()["protocols"])

    def test_compare_hits_cache_on_repeat(self, bare_service):
        first = bare_service.request("POST", "/compare", {"scenario": scenario()})
        second = bare_service.request("POST", "/compare", {"scenario": scenario()})
        assert second.cache == "hit" and second.body == first.body

    def test_protocols_catalog_matches_cli_serializer(self, bare_service):
        from repro.core.registry import registry_catalog

        reply = bare_service.request("GET", "/protocols")
        assert reply.status == 200 and reply.tier == "catalog"
        doc = reply.json()
        catalog = registry_catalog()
        assert doc["protocols"] == catalog["protocols"]
        assert doc["failure_models"] == catalog["failure_models"]
        assert doc["tier"] == "catalog"


class TestSimulateJobs:
    def test_job_lifecycle_and_result(self, service):
        reply = service.request(
            "POST",
            "/simulate",
            {
                "scenario": scenario(),
                "protocol": "PurePeriodicCkpt",
                "runs": 10,
                "periods": {"period": 50000.0},
            },
        )
        assert reply.status == 202 and reply.tier == "background"
        doc = reply.json()
        assert doc["tier"] == "background"
        snapshot = service.wait_for_job(doc["job"]["id"])
        assert snapshot["state"] == "done"
        result = snapshot["result"]
        assert result["protocol"] == "PurePeriodicCkpt"
        assert result["periods"] == {"period": 50000.0}
        assert 0.0 <= result["summary"]["waste_mean"] <= 1.0

    def test_identical_requests_share_a_job(self, service):
        body = {
            "scenario": scenario(),
            "protocol": "PurePeriodicCkpt",
            "runs": 10,
            "periods": {"period": 60000.0},
        }
        first = service.request("POST", "/simulate", body)
        second = service.request("POST", "/simulate", body)
        assert first.json()["job"]["id"] == second.json()["job"]["id"]
        assert second.cache == "hit"
        assert second.body == first.body

    def test_refine_job_without_periods(self, service):
        reply = service.request(
            "POST",
            "/simulate",
            {"scenario": scenario(), "protocol": "PurePeriodicCkpt", "runs": 10},
        )
        snapshot = service.wait_for_job(reply.json()["job"]["id"])
        assert snapshot["state"] == "done"
        result = snapshot["result"]
        assert result["analytical"]["protocol"] == "PurePeriodicCkpt"
        assert result["best"] is not None
        assert result["best"]["periods"]

    def test_cached_answers_stay_hits_while_a_job_runs(self, service):
        # The correctness half of the background-job stall benchmark.
        doc = scenario()
        warm = service.request("POST", "/optimize", {"scenario": doc})
        assert warm.status == 200
        job = service.request(
            "POST", "/simulate", {"scenario": doc, "protocol": "PurePeriodicCkpt"}
        )
        assert job.status == 202
        for _ in range(5):
            reply = service.request("POST", "/optimize", {"scenario": doc})
            assert reply.cache == "hit" and reply.body == warm.body
        snapshot = service.wait_for_job(job.json()["job"]["id"])
        assert snapshot["state"] == "done"

    def test_multi_protocol_simulate_is_400(self, service):
        reply = service.request("POST", "/simulate", {"scenario": scenario()})
        assert reply.status == 400
        assert "one protocol" in reply.json()["error"]["detail"]

    def test_unknown_job_is_404(self, service):
        assert service.request("GET", "/jobs/job-999999-cafecafecafe").status == 404


class TestHealthz:
    def test_counters_track_tiers_and_endpoints(self, service):
        service.request("POST", "/optimize", {"scenario": scenario()})
        service.request("POST", "/optimize", {"scenario": scenario()})
        service.request(
            "POST", "/optimize", {"scenario": scenario(), "tier": "analytical"}
        )
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["tiers"]["map"] == 1
        assert health["tiers"]["answer-cache"] == 1
        assert health["tiers"]["analytical"] == 1
        assert health["endpoints"]["/optimize"] == 3
        assert health["answer_cache"]["hits"] == 1
        assert health["answer_cache"]["misses"] == 2
        assert health["regime_map"]["cells"] == len(PLATFORM_MTBFS)
        assert health["jobs"]["workers"] == 2

    def test_healthz_without_map(self, bare_service):
        health = bare_service.healthz()
        assert health["regime_map"] is None
        assert health["cache_dir"] is None
