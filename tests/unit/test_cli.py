"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure7_flags(self):
        args = build_parser().parse_args(
            ["figure7", "--validate", "--runs", "10", "--reduced"]
        )
        assert args.command == "figure7"
        assert args.validate and args.reduced
        assert args.runs == 10

    def test_weak_scaling_flags(self):
        args = build_parser().parse_args(
            ["figure9", "--mtbf-scaling", "constant", "--nodes", "1000", "10000"]
        )
        assert args.mtbf_scaling == "constant"
        assert args.nodes == [1000, 10000]

    def test_abft_flags(self):
        args = build_parser().parse_args(["abft", "--kernel", "cholesky", "--n", "32"])
        assert args.kernel == "cholesky"
        assert args.n == 32

    def test_campaign_flags(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "--validate",
                "--runs",
                "25",
                "--reduced",
                "--workers",
                "3",
                "--cache-dir",
                "/tmp/some-cache",
                "--resume",
            ]
        )
        assert args.command == "campaign"
        assert args.validate and args.reduced and args.resume
        assert args.runs == 25
        assert args.workers == 3
        assert args.cache_dir == "/tmp/some-cache"

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert not args.resume
        assert args.cache_dir is None
        assert args.workers == "auto"

    def test_figure7_workers_flag(self):
        args = build_parser().parse_args(["figure7", "--workers", "2"])
        assert args.workers == 2

    def test_figure7_defaults(self):
        args = build_parser().parse_args(["figure7"])
        assert args.workers == "auto"
        args = build_parser().parse_args(["figure7", "--workers", "auto"])
        assert args.workers == "auto"

    def test_campaign_workers_accepts_count_and_auto(self):
        args = build_parser().parse_args(["campaign", "--workers", "3"])
        assert args.workers == 3
        args = build_parser().parse_args(["campaign", "--workers", "auto"])
        assert args.workers == "auto"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--workers", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--workers", "some"])


class TestMain:
    def test_figure8_runs_and_prints(self, capsys):
        exit_code = main(["figure8", "--nodes", "1000", "10000"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 8" in captured
        assert "waste[ABFT&PeriodicCkpt]" in captured

    def test_figure10_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "fig10.csv"
        exit_code = main(["figure10", "--csv", str(csv_path)])
        assert exit_code == 0
        assert csv_path.exists()
        assert "nodes" in csv_path.read_text()

    def test_figure7_reduced(self, capsys):
        exit_code = main(["figure7", "--reduced"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 7" in captured

    def test_figure7_without_validate_starts_no_pool(self, capsys, inline_pool):
        # --workers only applies to --validate: the model-only heatmaps
        # resolve no workers and build no pool.
        with inline_pool() as pool:
            assert main(["figure7", "--reduced"]) == 0
        assert pool.made == []
        assert "workers-resolved" not in capsys.readouterr().err

    def test_abft_command(self, capsys):
        exit_code = main(["abft", "--kernel", "lu", "--n", "32", "--block-size", "8", "--trials", "1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "measured phi" in captured

    def test_main_resets_fallback_note_dedup(self, capsys):
        # The fallback-note dedup set is module-global so one *run* reports
        # each obstacle once; a fresh CLI invocation must start clean, not
        # inherit the previous run's suppressions (long-lived test processes
        # and REPLs call main() repeatedly).
        from repro.obs import reset_log_notes
        from repro.simulation.vectorized import note_backend_fallback

        try:
            note_backend_fallback("sentinel obstacle")
            note_backend_fallback("sentinel obstacle")  # deduplicated
            assert capsys.readouterr().err.count("sentinel obstacle") == 1
            assert main(["scenario", "list"]) == 0
            capsys.readouterr()
            note_backend_fallback("sentinel obstacle")  # fresh run notes again
            assert "sentinel obstacle" in capsys.readouterr().err
        finally:
            reset_log_notes()


class TestCampaignCommand:
    def test_campaign_model_only(self, capsys):
        exit_code = main(["campaign", "--reduced"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Campaign: waste vs (MTBF, alpha)" in captured.out
        # Run diagnostics go to stderr; stdout stays machine-parseable.
        assert "computed 20, reused 0 cached" in captured.err
        assert "cached" not in captured.out

    def test_campaign_cache_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["campaign", "--reduced", "--cache-dir", cache_dir]

        exit_code = main(args)
        first = capsys.readouterr()
        assert exit_code == 0
        assert "computed 20, reused 0 cached" in first.err
        assert cache_dir in first.err
        assert cache_dir not in first.out

        # Rerun with --resume: every point comes from the cache.
        exit_code = main(args + ["--resume"])
        second = capsys.readouterr()
        assert exit_code == 0
        assert "computed 0, reused 20 cached" in second.err

    def test_campaign_validate_with_workers_and_csv(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        csv_path = tmp_path / "campaign.csv"
        exit_code = main(
            [
                "campaign",
                "--reduced",
                "--validate",
                "--runs",
                "3",
                "--seed",
                "7",
                "--workers",
                "1",
                "--cache-dir",
                cache_dir,
                "--csv",
                str(csv_path),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "sim_waste[PurePeriodicCkpt]" in captured
        assert csv_path.exists()
        assert "mtbf_minutes" in csv_path.read_text()

    def test_figure7_with_workers(self, capsys):
        exit_code = main(["figure7", "--reduced", "--workers", "1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 7" in captured


class TestScenarioCommand:
    @staticmethod
    def write_spec(tmp_path, **overrides):
        from repro.scenario import Scenario

        builder = Scenario.quick().with_simulation(
            validate=overrides.pop("validate", False), runs=5, seed=3
        )
        if overrides.get("failures"):
            model, params = overrides.pop("failures")
            builder = builder.with_failures(model, **params)
        return str(builder.build().save(tmp_path / "spec.json"))

    def test_scenario_flags(self, tmp_path):
        path = self.write_spec(tmp_path)
        args = build_parser().parse_args(
            ["scenario", "run", path, "--validate", "--runs", "5", "--workers", "2"]
        )
        assert args.command == "scenario"
        assert args.scenario_command == "run"
        assert args.spec == path
        assert args.validate and args.runs == 5 and args.workers == 2

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_list(self, capsys):
        exit_code = main(["scenario", "list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "ABFT&PeriodicCkpt" in captured
        assert "weibull" in captured
        assert "aliases" in captured

    def test_scenario_run_model_only(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        exit_code = main(["scenario", "run", path])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario 'quick'" in captured
        assert "model_waste[ABFT&PeriodicCkpt]" in captured
        assert "sim_waste" not in captured

    def test_scenario_run_validated_weibull(self, tmp_path, capsys):
        import warnings

        path = self.write_spec(
            tmp_path, validate=True, failures=("weibull", {"shape": 0.7})
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exit_code = main(["scenario", "run", path])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "sim_waste[ABFT&PeriodicCkpt]" in captured

    def test_scenario_run_csv_and_cache(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        cache_dir = str(tmp_path / "cache")
        csv_path = tmp_path / "out.csv"
        exit_code = main(
            ["scenario", "run", path, "--cache-dir", cache_dir, "--csv", str(csv_path)]
        )
        first = capsys.readouterr()
        assert exit_code == 0
        assert csv_path.exists()
        assert "computed 12, reused 0 cached" in first.err
        assert "cached" not in first.out

        exit_code = main(["scenario", "run", path, "--cache-dir", cache_dir, "--resume"])
        second = capsys.readouterr()
        assert exit_code == 0
        assert "computed 0, reused 12 cached" in second.err

    def test_scenario_run_missing_file(self, tmp_path, capsys):
        exit_code = main(["scenario", "run", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not found" in captured.err

    def test_scenario_run_unknown_protocol_suggests(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "protocols": ["BiPeriodikCkpt"],
                    "platform": {"mtbf": 3600.0, "checkpoint": 60.0},
                    "workload": {"total_time": 7200.0},
                }
            )
        )
        exit_code = main(["scenario", "run", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "did you mean 'BiPeriodicCkpt'" in captured.err

    def test_scenario_run_schema_error_names_path(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "platform": {"mtbf": 3600.0, "checkpoint": "ten"},
                    "workload": {"total_time": 7200.0},
                }
            )
        )
        exit_code = main(["scenario", "run", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "platform.checkpoint" in captured.err


class TestScenarioValidateCommand:
    write_spec = staticmethod(TestScenarioCommand.write_spec)

    def test_validate_flags(self, tmp_path):
        path = self.write_spec(tmp_path)
        args = build_parser().parse_args(["scenario", "validate", path])
        assert args.scenario_command == "validate"
        assert args.spec == path

    def test_valid_spec_passes_without_simulating(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        exit_code = main(["scenario", "validate", path])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "is valid" in captured
        assert "would evaluate 12 grid point(s)" in captured
        assert "model_waste" not in captured  # nothing was run

    def test_missing_file_exits_2(self, tmp_path, capsys):
        exit_code = main(["scenario", "validate", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not found" in captured.err

    def test_schema_error_names_path(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "platform": {"mtbf": "ten minutes", "checkpoint": 600.0},
                    "workload": {"total_time": 3600.0},
                }
            )
        )
        exit_code = main(["scenario", "validate", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "platform.mtbf" in captured.err

    def test_unknown_protocol_exits_2_with_suggestion(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "protocols": ["PurePeriodikCkpt"],
                    "platform": {"mtbf": 7200.0, "checkpoint": 600.0},
                    "workload": {"total_time": 3600.0},
                }
            )
        )
        exit_code = main(["scenario", "validate", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "did you mean" in captured.err

    def test_trace_vectorized_backend_validates(self, tmp_path, capsys):
        # Trace replay batches through per-trial cursors now, so a
        # backend='vectorized' spec over the trace law is valid.
        import json

        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps(
                {
                    "protocols": ["BiPeriodicCkpt"],
                    "platform": {"mtbf": 7200.0, "checkpoint": 600.0},
                    "workload": {"total_time": 3600.0},
                    "failures": {
                        "model": "trace",
                        "params": {"interarrivals": [100.0, 200.0]},
                    },
                    "simulation": {"backend": "vectorized"},
                }
            )
        )
        exit_code = main(["scenario", "validate", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "is valid" in captured.out


class TestScenarioBackendFlag:
    @staticmethod
    def write_spec(tmp_path):
        from repro.scenario import Scenario

        builder = (
            Scenario.quick()
            .with_protocols("PurePeriodicCkpt")
            .with_simulation(validate=True, runs=5, seed=3)
        )
        return str(builder.build().save(tmp_path / "spec.json"))

    def test_backend_flag_parsed(self, tmp_path):
        path = self.write_spec(tmp_path)
        args = build_parser().parse_args(
            ["scenario", "run", path, "--backend", "vectorized"]
        )
        assert args.backend == "vectorized"

    def test_backend_flag_rejects_unknown(self, tmp_path):
        path = self.write_spec(tmp_path)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run", path, "--backend", "gpu"])

    def test_vectorized_run_matches_event_run(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        assert main(["scenario", "run", path, "--backend", "event"]) == 0
        event_out = capsys.readouterr().out
        assert main(["scenario", "run", path, "--backend", "vectorized"]) == 0
        vectorized_out = capsys.readouterr().out
        event_rows = [l for l in event_out.splitlines() if "sim_waste" in l or "|" in l]
        vectorized_rows = [
            l for l in vectorized_out.splitlines() if "sim_waste" in l or "|" in l
        ]
        assert event_rows == vectorized_rows

    def test_vectorized_phased_run_matches_event_run(self, tmp_path, capsys):
        from repro.scenario import Scenario

        path = str(
            Scenario.quick()
            .with_protocols("BiPeriodicCkpt", "ABFT&PeriodicCkpt")
            .with_simulation(validate=True, runs=5, seed=3)
            .build()
            .save(tmp_path / "spec.json")
        )
        assert main(["scenario", "run", path, "--backend", "event"]) == 0
        event_out = capsys.readouterr().out
        assert main(["scenario", "run", path, "--backend", "vectorized"]) == 0
        vectorized_out = capsys.readouterr().out
        event_rows = [l for l in event_out.splitlines() if "sim_waste" in l or "|" in l]
        vectorized_rows = [
            l for l in vectorized_out.splitlines() if "sim_waste" in l or "|" in l
        ]
        assert event_rows == vectorized_rows

    def test_trace_vectorized_run_matches_event_run(self, tmp_path, capsys):
        from repro.scenario import Scenario

        path = str(
            Scenario.quick()
            .with_protocols("BiPeriodicCkpt")
            .with_failures("trace", interarrivals=[100.0, 200.0, 300.0])
            .with_simulation(validate=True, runs=5, seed=3)
            .build()
            .save(tmp_path / "spec.json")
        )
        assert main(["scenario", "run", path, "--backend", "event"]) == 0
        event_out = capsys.readouterr().out
        assert main(["scenario", "run", path, "--backend", "vectorized"]) == 0
        vectorized_out = capsys.readouterr().out
        assert event_out == vectorized_out


class TestScenarioListBackends:
    def test_lists_failure_models_and_backend_support(self, capsys):
        exit_code = main(["scenario", "list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        # Failure models stay listed, and every protocol line now names its
        # engine backends so users can pick a valid backend= without
        # reading source.
        assert "registered failure models:" in captured
        assert "lognormal (aliases: log-normal) " \
               "[backends: event+vectorized]" in captured
        assert "trace (aliases: trace-based, replay) " \
               "[backends: event+vectorized]" in captured
        assert "PurePeriodicCkpt (aliases: pure, pure-periodic) " \
               "[backends: event+vectorized; storage: any registered stack]" \
               in captured
        assert "BiPeriodicCkpt (aliases: bi, bi-periodic) " \
               "[backends: event+vectorized; storage: any registered stack]" \
               in captured
        assert "ABFT&PeriodicCkpt (aliases: abft, composite, abft-periodic) " \
               "[backends: event+vectorized; storage: any registered stack]" \
               in captured
        assert "NoFT (aliases: none, no-ft, restart) " \
               "[backends: event+vectorized; storage: none]" in captured
        assert "registered storage stacks (scenario 'storage.kind'):" \
               in captured
        assert "multi-level (aliases: multilevel) " \
               "[nested media: local, remote]" in captured
        assert "buddy [nested media: fallback_storage] " \
               "[MTBF-sensitive lowering]" in captured
        assert "engine backends (scenario 'simulation.backend'): " \
               "event, vectorized, auto" in captured
        assert (
            "a vectorized failure law (exponential, weibull, lognormal, trace)"
            in captured
        )


class TestOptimizeCommand:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize"])

    def test_period_flags(self):
        args = build_parser().parse_args(
            [
                "optimize", "period", "--protocol", "pure", "--mtbf", "7200",
                "--checkpoint", "600", "--refine", "--runs", "50",
                "--backend", "vectorized", "--workers", "2",
                "--cache-dir", "/tmp/x", "--resume",
            ]
        )
        assert args.command == "optimize"
        assert args.optimize_command == "period"
        assert args.protocol == "pure" and args.refine
        assert args.runs == 50 and args.backend == "vectorized"
        assert args.workers == 2 and args.resume

    def test_period_prints_closed_form_agreement(self, capsys):
        exit_code = main(
            ["optimize", "period", "--protocol", "PurePeriodicCkpt",
             "--mtbf", "7200", "--checkpoint", "600", "--t0", "86400"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "closed form (Eq. 11)" in captured
        assert "minimal model waste" in captured
        # Acceptance bar: <= 0.1% relative error against Eq. 11.
        import re

        match = re.search(r"relative error ([0-9.e+-]+)", captured)
        assert match is not None
        assert float(match.group(1)) <= 1e-3

    def test_period_infeasible_regime(self, capsys):
        exit_code = main(
            ["optimize", "period", "--protocol", "pure",
             "--mtbf", "600", "--checkpoint", "600", "--t0", "86400"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "infeasible" in captured

    def test_period_unknown_protocol_exits_2(self, capsys):
        exit_code = main(["optimize", "period", "--protocol", "PureCkptt"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "did you mean" in captured.err

    def test_period_refine_with_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = [
            "optimize", "period", "--protocol", "pure", "--t0", "86400",
            "--refine", "--runs", "10", "--backend", "auto",
            "--cache-dir", cache_dir, "--resume",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "refined periods" in first and "simulated waste" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 campaigns computed" in second

    def test_compare_names_a_winner(self, capsys):
        exit_code = main(["optimize", "compare", "--t0", "86400"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "winning protocol(s) over the grid:" in captured
        assert "opt_waste[NoFT]" in captured

    def test_compare_from_spec_csv(self, tmp_path, capsys):
        spec_path = TestScenarioCommand.write_spec(tmp_path)
        csv_path = tmp_path / "compare.csv"
        exit_code = main(
            ["optimize", "compare", "--spec", spec_path, "--csv", str(csv_path)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert csv_path.exists()
        assert "winner" in csv_path.read_text()

    def test_map_flags(self):
        args = build_parser().parse_args(
            [
                "optimize", "map", "--nodes", "1000", "100000",
                "--node-mtbf-years", "5", "125", "--checkpoint", "600",
                "--phi", "1.03", "--simulate", "--runs", "8",
                "--workers", "2", "--resume", "--json", "/tmp/map.json",
            ]
        )
        assert args.optimize_command == "map"
        assert args.nodes == [1000, 100000]
        assert args.node_mtbf_years == [5.0, 125.0]
        assert args.simulate and args.resume and args.workers == 2

    def test_map_model_only_round_trip(self, tmp_path, capsys):
        json_path = tmp_path / "map.json"
        cache_dir = str(tmp_path / "cache")
        args = [
            "optimize", "map", "--nodes", "1000", "100000",
            "--node-mtbf-years", "5", "125", "--t0", "86400",
            "--cache-dir", cache_dir, "--resume", "--json", str(json_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "winning protocol" in first.out
        assert "computed 4, reused 0 cached" in first.err
        assert "cached" not in first.out
        first_map = json_path.read_text()

        # Resumed re-run: all cells cached, identical winners and bytes.
        assert main(args) == 0
        second = capsys.readouterr()
        assert "computed 0, reused 4 cached" in second.err
        assert json_path.read_text() == first_map

    def test_map_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "map.csv"
        exit_code = main(
            ["optimize", "map", "--nodes", "1000", "--node-mtbf-years", "25",
             "--t0", "86400", "--csv", str(csv_path)]
        )
        assert exit_code == 0
        assert csv_path.exists()
        assert "winner" in csv_path.read_text()

    def test_map_rejects_bad_phi(self, capsys):
        exit_code = main(
            ["optimize", "map", "--nodes", "1000", "--node-mtbf-years", "25",
             "--phi", "0.5"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "phi" in captured.err


class TestServeCommand:
    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--host",
                "0.0.0.0",
                "--port",
                "9001",
                "--regime-map",
                "/tmp/regime.json",
                "--cache-dir",
                "/tmp/advisor-cache",
                "--workers",
                "4",
                "--answer-cache-size",
                "128",
            ]
        )
        assert args.command == "serve"
        assert args.host == "0.0.0.0"
        assert args.port == 9001
        assert args.regime_map == "/tmp/regime.json"
        assert args.cache_dir == "/tmp/advisor-cache"
        assert args.workers == 4
        assert args.answer_cache_size == 128

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.regime_map is None
        assert args.cache_dir is None
        assert args.workers == 2
        assert args.answer_cache_size == 4096

    def test_serve_rejects_nonpositive_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "0"])

    def test_serve_missing_regime_map_exits_2(self, capsys):
        exit_code = main(["serve", "--regime-map", "/nonexistent/map.json"])
        assert exit_code == 2
        assert "cannot start advisor service" in capsys.readouterr().err


class TestScenarioListJson:
    def test_json_catalog_on_stdout(self, capsys):
        import json

        exit_code = main(["scenario", "list", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        catalog = json.loads(captured.out)  # stdout is pure JSON
        protocol_names = [entry["name"] for entry in catalog["protocols"]]
        assert "PurePeriodicCkpt" in protocol_names
        assert "ABFT&PeriodicCkpt" in protocol_names
        model_names = [entry["name"] for entry in catalog["failure_models"]]
        assert "exponential" in model_names
        assert catalog["engine_backends"] == ["event", "vectorized", "auto"]

    def test_json_matches_the_service_catalog(self, capsys):
        import json

        from repro.core.registry import registry_catalog

        main(["scenario", "list", "--json"])
        assert json.loads(capsys.readouterr().out) == registry_catalog()


class TestOptimizeCompareJson:
    def test_json_ranking_on_stdout(self, capsys):
        import json

        exit_code = main(
            [
                "optimize",
                "compare",
                "--json",
                "--mtbf",
                "86400",
                "--t0",
                "360000",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        ranking = json.loads(captured.out)  # stdout is pure JSON
        assert len(ranking["content_hash"]) == 64
        assert ranking["spec"]["platform"]["mtbf"] == 86400.0
        (point,) = ranking["points"]
        assert point["winner"] in ranking["protocols"]
        for name in ranking["protocols"]:
            assert "waste" in point["optima"][name]

    def test_json_and_table_modes_agree_on_the_winner(self, capsys):
        import json

        main(["optimize", "compare", "--json", "--mtbf", "7200"])
        winner = json.loads(capsys.readouterr().out)["points"][0]["winner"]
        main(["optimize", "compare", "--mtbf", "7200"])
        assert winner in capsys.readouterr().out
