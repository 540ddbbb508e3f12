"""Integration tests: instrumentation across engine, campaign, and CLI.

Two invariants dominate: instrumentation must never change computed
values (bit-identity with tracing on), and the exported span hierarchy
must be explicit -- shard spans carry the campaign span's id even when
they were recorded in pool worker processes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.obs as obs
from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign import SweepJob, SweepRunner
from repro.campaign.executor import ShardedVectorizedExecutor
from repro.core.registry import resolve_protocol
from repro.simulation.vectorized import VectorizedPhasedSimulator
from repro.utils import HOUR, MINUTE


@pytest.fixture(autouse=True)
def restore_obs_state():
    """Tests toggle global instrumentation; leave the process as found."""
    was_enabled, was_tracing = obs.enabled(), obs.tracing()
    obs.reset()
    yield
    obs.configure(trace=was_tracing, metrics=was_enabled)
    obs.reset()


def _parameters() -> ResilienceParameters:
    return ResilienceParameters.from_scalars(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
    )


def _workload() -> ApplicationWorkload:
    return ApplicationWorkload.single_epoch(6 * HOUR, 0.8, library_fraction=0.8)


def _engine() -> VectorizedPhasedSimulator:
    return resolve_protocol("PurePeriodicCkpt").vectorized_cls(
        _parameters(), _workload()
    )


class TestEnginePhaseMetrics:
    def test_disabled_engine_records_nothing(self):
        obs.configure(metrics=False, trace=False)
        _engine().run_trials(20, seed=7)
        phases = obs.global_registry().get("repro_engine_phase_seconds_total")
        assert phases is None or phases.values() == {}

    def test_enabled_engine_records_all_five_phases(self):
        obs.configure(metrics=True)
        _engine().run_trials(20, seed=7)
        phases = obs.catalog.family("repro_engine_phase_seconds_total")
        recorded = {key[0] for key in phases.values()}
        assert recorded == {"compile", "derive", "sample", "execute", "gather"}
        assert all(value >= 0.0 for value in phases.values().values())
        runs = obs.catalog.family("repro_engine_runs_total")
        trials = obs.catalog.family("repro_engine_trials_total")
        assert sum(runs.values().values()) == 1.0
        assert sum(trials.values().values()) == 20.0

    def test_instrumentation_is_bit_identical(self):
        obs.configure(metrics=False, trace=False)
        plain = _engine().run_trials(30, seed=11)
        obs.configure(trace=True)
        with obs.span("test-root"):
            traced = _engine().run_trials(30, seed=11)
        assert traced == plain

    def test_engine_span_nests_and_carries_phase_timings(self):
        obs.configure(trace=True)
        with obs.span("campaign") as campaign:
            _engine().run_trials(10, seed=3)
        records = {r.name: r for r in obs.global_tracer().records()}
        engine_span = records["engine"]
        assert engine_span.parent_id == records["campaign"].span_id
        assert engine_span.args["trials"] == 10
        for phase in ("derive", "sample", "execute", "gather"):
            assert engine_span.args[f"{phase}_seconds"] >= 0.0

    def test_disabled_chunked_run_reads_no_clock(self, monkeypatch):
        import repro.simulation.vectorized as vectorized_module

        class NoClock:
            @staticmethod
            def perf_counter():
                raise AssertionError("disabled engine read the clock")

        obs.configure(metrics=False, trace=False)
        engine = _engine()
        monkeypatch.setattr(vectorized_module, "TRIAL_CHUNK", 16)
        monkeypatch.setattr(vectorized_module, "time", NoClock)
        assert engine.run_trials(40, seed=5).runs == 40

    def test_chunked_range_is_one_engine_run(self, monkeypatch):
        import repro.simulation.vectorized as vectorized_module

        obs.configure(metrics=False, trace=False)
        plain = _engine().run_trials(40, seed=5)
        monkeypatch.setattr(vectorized_module, "TRIAL_CHUNK", 16)
        obs.configure(trace=True)
        traced = _engine().run_trials(40, seed=5)
        assert traced == plain
        engine_spans = [
            r for r in obs.global_tracer().records() if r.name == "engine"
        ]
        assert len(engine_spans) == 1
        assert engine_spans[0].args["trials"] == 40
        assert engine_spans[0].args["derive_seconds"] > 0.0
        runs = obs.catalog.family("repro_engine_runs_total")
        trials = obs.catalog.family("repro_engine_trials_total")
        assert sum(runs.values().values()) == 1.0
        assert sum(trials.values().values()) == 40.0


class TestShardedCampaignTracing:
    def _assert_hierarchy(self, records, shards):
        campaigns = [r for r in records if r.name == "campaign"]
        shard_spans = [r for r in records if r.name == "shard"]
        engine_spans = [r for r in records if r.name == "engine"]
        assert len(campaigns) == 1
        assert len(shard_spans) == shards
        assert len(engine_spans) == shards
        campaign = campaigns[0]
        assert all(s.parent_id == campaign.span_id for s in shard_spans)
        shard_ids = {s.span_id for s in shard_spans}
        assert all(e.parent_id in shard_ids for e in engine_spans)
        return campaign

    def test_serial_backend_nests_in_process(self):
        obs.configure(trace=True)
        executor = ShardedVectorizedExecutor(workers=2, backend="serial")
        executor.run(_engine(), runs=40, seed=5)
        self._assert_hierarchy(obs.global_tracer().records(), shards=2)

    def test_process_backend_reparents_worker_spans(self):
        obs.configure(trace=True)
        executor = ShardedVectorizedExecutor(workers=4, backend="process")
        table = executor.run(_engine(), runs=40, seed=5)
        records = obs.global_tracer().records()
        campaign = self._assert_hierarchy(records, shards=4)

        obs.configure(metrics=False, trace=False)
        serial = ShardedVectorizedExecutor(workers=1, backend="serial").run(
            _engine(), runs=40, seed=5
        )
        assert table == serial  # tracing never changes computed values

        doc = obs.global_tracer().chrome_trace()
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        shard_events = [e for e in events if e["name"] == "shard"]
        assert len(shard_events) == 4
        assert all(
            e["args"]["parent_id"] == campaign.span_id for e in shard_events
        )

    def test_worker_drain_does_not_duplicate_parent_history(self):
        # Forked pool workers inherit the parent tracer's records; a shard
        # must ship home only its own spans or repeated campaigns would
        # re-ingest (and exponentially duplicate) the parent's history.
        obs.configure(trace=True)
        executor = ShardedVectorizedExecutor(workers=2, backend="process")
        executor.run(_engine(), runs=20, seed=1)
        first = len(obs.global_tracer().records())
        executor.run(_engine(), runs=20, seed=1)
        second = len(obs.global_tracer().records())
        assert second == 2 * first

    def test_shard_counter_when_metrics_only(self):
        obs.configure(metrics=True, trace=False)
        executor = ShardedVectorizedExecutor(workers=2, backend="serial")
        executor.run(_engine(), runs=20, seed=2)
        shards = obs.catalog.family("repro_campaign_shards_total")
        assert shards.value(backend="serial") == 2.0
        assert obs.global_tracer().records() == []


class TestSweepPointMetrics:
    def _job(self, *, simulate: bool = False) -> SweepJob:
        return SweepJob(
            parameters=_parameters(),
            application_time=1 * HOUR,
            mtbf_values=(3600.0, 7200.0),
            alpha_values=(0.5,),
            simulate=simulate,
            simulation_runs=8,
            seed=3,
        )

    def test_computed_and_cached_outcomes(self, tmp_path):
        obs.configure(metrics=True)
        runner = SweepRunner(cache_dir=str(tmp_path), resume=True)
        runner.run(self._job())
        points = obs.catalog.family("repro_sweep_points_total")
        assert points.value(outcome="computed") == 2.0
        assert points.value(outcome="cached") == 0.0
        runner.run(self._job())
        assert points.value(outcome="computed") == 2.0
        assert points.value(outcome="cached") == 2.0


class TestCliObservability:
    def _scenario_file(self, tmp_path: Path) -> Path:
        spec = {
            "name": "obs-cli",
            "platform": {
                "mtbf": 7200,
                "checkpoint": 600,
                "downtime": 60,
                "library_fraction": 0.8,
                "abft_overhead": 1.03,
            },
            "workload": {"total_time": 86400, "alpha": 0.8},
            "sweep": {"mtbf_values": [7200.0], "alpha_values": [0.8]},
            "simulation": {
                "validate": True,
                "runs": 8,
                "seed": 3,
                "backend": "vectorized",
            },
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        return path

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.trace.json"
        code = main(
            [
                "scenario",
                "run",
                str(self._scenario_file(tmp_path)),
                "--workers",
                "2",
                "--trace-out",
                str(out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "event=trace-written" in err
        doc = json.loads(out.read_text())
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in events}
        assert {"sweep", "sweep-point", "campaign", "shard", "engine"} <= names
        sweeps = [e for e in events if e["name"] == "sweep"]
        assert len(sweeps) == 1
        points = [e for e in events if e["name"] == "sweep-point"]
        assert all(
            p["args"]["parent_id"] == sweeps[0]["args"]["span_id"]
            for p in points
        )

    def test_trace_out_restores_instrumentation_flags(self, tmp_path, capsys):
        from repro.cli import main

        obs.configure(metrics=False, trace=False)
        out = tmp_path / "run.trace.json"
        main(
            [
                "scenario",
                "run",
                str(self._scenario_file(tmp_path)),
                "--trace-out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert not obs.enabled() and not obs.tracing()

    def test_obs_dump_emits_full_catalog_json(self, capsys):
        from repro.cli import main

        assert main(["obs", "dump"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for name in obs.family_names(obs.SCOPE_GLOBAL):
            assert name in payload["families"]

    def test_obs_dump_prometheus(self, capsys):
        from repro.cli import main

        assert main(["obs", "dump", "--prometheus"]) == 0
        text = capsys.readouterr().out
        for name in obs.family_names(obs.SCOPE_GLOBAL):
            assert f"# TYPE {name} " in text

    def test_workers_note_is_structured(self, capsys):
        from repro.cli import _resolve_workers

        resolved = _resolve_workers(2, 100)
        err = capsys.readouterr().err
        assert resolved == 2
        assert "note: event=workers-resolved workers=2" in err
        assert "runs=100" in err


class TestDocsStayInSync:
    def test_every_cataloged_family_is_documented(self):
        experiments = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
        text = experiments.read_text(encoding="utf-8")
        for name in obs.family_names():
            assert name in text, f"{name} missing from EXPERIMENTS.md"
