"""Unit tests for the vectorized across-trials engine and backend selection.

The engine's contract is exact: for a given root seed it must reproduce the
event backend trial for trial, bit for bit -- every assertion here uses
``==``, never approximate equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ApplicationWorkload, ResilienceParameters
from repro.campaign import SweepJob, SweepRunner
from repro.core import registry
from repro.core.protocols import (
    AbftPeriodicCkptSimulator,
    BiPeriodicCkptSimulator,
    NoFaultToleranceSimulator,
    PurePeriodicCkptSimulator,
)
from repro.core.registry import (
    resolve_protocol,
    vectorized_law_names,
    vectorized_protocol_names,
)
from repro.failures import (
    ExponentialFailureModel,
    LogNormalFailureModel,
    TraceFailureModel,
    WeibullFailureModel,
)
from repro.obs import reset_log_notes
from repro.simulation.rng import RandomStreams
from repro.simulation.schedule import PeriodicSegment
from repro.simulation.trace import CATEGORIES
from repro.simulation.vectorized import (
    ENGINE_BACKENDS,
    VectorizedBackendError,
    VectorizedPhasedSimulator,
    vectorized_backend_obstacle,
    vectorized_failure_model_or_raise,
)
from repro.utils import HOUR, MINUTE

PAIRS = {
    name: (simulator, resolve_protocol(name).vectorized_cls)
    for name, simulator in (
        ("NoFT", NoFaultToleranceSimulator),
        ("PurePeriodicCkpt", PurePeriodicCkptSimulator),
        ("BiPeriodicCkpt", BiPeriodicCkptSimulator),
        ("ABFT&PeriodicCkpt", AbftPeriodicCkptSimulator),
    )
}

LAW_MODELS = {
    "exponential": lambda mtbf: ExponentialFailureModel(mtbf),
    "weibull": lambda mtbf: WeibullFailureModel(mtbf, shape=0.7),
    "lognormal": lambda mtbf: LogNormalFailureModel(mtbf, sigma=1.0),
}


def _parameters(**overrides) -> ResilienceParameters:
    defaults = dict(
        platform_mtbf=120 * MINUTE,
        checkpoint=10 * MINUTE,
        recovery=10 * MINUTE,
        downtime=60.0,
        library_fraction=0.8,
    )
    defaults.update(overrides)
    return ResilienceParameters.from_scalars(**defaults)


def _workload(total: float = 6 * HOUR) -> ApplicationWorkload:
    return ApplicationWorkload.single_epoch(total, 0.8, library_fraction=0.8)


def assert_tables_match_event(protocol, vectorized_cls, parameters, workload,
                              *, runs, seed, **kwargs):
    """Exact per-trial equality of the vectorized table vs the event walk."""
    table = vectorized_cls(parameters, workload, **kwargs).run_trials(runs, seed=seed)
    simulator = PAIRS[protocol][0](parameters, workload, **kwargs)
    streams = RandomStreams(seed)
    for trial in range(runs):
        trace = simulator.simulate(streams.generator_for_trial(trial))
        row = table.data[trial]
        assert float(row["makespan"]) == trace.makespan, trial
        assert float(row["waste"]) == trace.waste, trial
        assert int(row["failure_count"]) == trace.failure_count, trial
        assert bool(row["truncated"]) == trace.metadata["truncated"], trial
        for category in CATEGORIES:
            assert float(row[category]) == getattr(trace.breakdown, category), (
                trial,
                category,
            )


class TestCrossValidation:
    @pytest.mark.parametrize("protocol", sorted(PAIRS))
    def test_bit_identical_to_event(self, protocol):
        assert_tables_match_event(
            protocol, PAIRS[protocol][1], _parameters(), _workload(),
            runs=40, seed=2014,
        )

    @pytest.mark.parametrize("law", sorted(LAW_MODELS))
    @pytest.mark.parametrize("protocol", sorted(PAIRS))
    def test_bit_identical_under_every_vectorized_law(self, protocol, law):
        model = LAW_MODELS[law](90 * MINUTE)
        assert_tables_match_event(
            protocol, PAIRS[protocol][1], _parameters(), _workload(),
            runs=16, seed=11, failure_model=model,
        )

    @pytest.mark.parametrize("seed", [0, 1, 99, 20140527])
    def test_bit_identical_across_seeds(self, seed):
        assert_tables_match_event(
            "PurePeriodicCkpt", PAIRS["PurePeriodicCkpt"][1],
            _parameters(), _workload(), runs=12, seed=seed,
        )

    @pytest.mark.parametrize("protocol", sorted(PAIRS))
    def test_truncation_path_identical(self, protocol):
        # MTBF far below the checkpoint cost: runs essentially never finish
        # and hit the max_slowdown cap.
        params = _parameters(platform_mtbf=120.0)
        assert_tables_match_event(
            protocol, PAIRS[protocol][1], params,
            _workload(1 * HOUR), runs=15, seed=5, max_slowdown=3.0,
        )

    def test_degenerate_period_identical(self):
        # Explicit period below the checkpoint cost degenerates to a single
        # chunk in both engines.
        assert_tables_match_event(
            "PurePeriodicCkpt", PAIRS["PurePeriodicCkpt"][1], _parameters(),
            _workload(2 * HOUR), runs=15, seed=8, period=30.0,
        )

    def test_degenerate_periods_identical_bi_periodic(self):
        assert_tables_match_event(
            "BiPeriodicCkpt", PAIRS["BiPeriodicCkpt"][1], _parameters(),
            _workload(2 * HOUR), runs=15, seed=8,
            general_period=30.0, library_period=float("nan"),
        )

    def test_degenerate_period_identical_composite(self):
        assert_tables_match_event(
            "ABFT&PeriodicCkpt", PAIRS["ABFT&PeriodicCkpt"][1], _parameters(),
            _workload(2 * HOUR), runs=15, seed=8,
            general_period=float("nan"),
        )

    def test_composite_safeguard_identical(self):
        # Short library phases flip to fallback periodic checkpointing
        # under the Section III-B safeguard.
        workload = ApplicationWorkload.iterative(
            4, 2 * HOUR, 0.05, library_fraction=0.8
        )
        assert_tables_match_event(
            "ABFT&PeriodicCkpt", PAIRS["ABFT&PeriodicCkpt"][1], _parameters(),
            workload, runs=12, seed=13, safeguard=True,
        )

    @pytest.mark.parametrize("protocol", ["BiPeriodicCkpt", "ABFT&PeriodicCkpt"])
    def test_multi_epoch_identical(self, protocol):
        workload = ApplicationWorkload.iterative(
            5, 2 * HOUR, 0.6, library_fraction=0.8
        )
        assert_tables_match_event(
            protocol, PAIRS[protocol][1], _parameters(), workload,
            runs=12, seed=21,
        )

    def test_explicit_exponential_model_identical(self):
        model = ExponentialFailureModel(90 * MINUTE)
        assert_tables_match_event(
            "NoFT", PAIRS["NoFT"][1], _parameters(),
            _workload(2 * HOUR), runs=15, seed=4, failure_model=model,
        )

    def test_zero_downtime_restart(self):
        params = _parameters(downtime=0.0)
        assert_tables_match_event(
            "NoFT", PAIRS["NoFT"][1], params, _workload(2 * HOUR),
            runs=15, seed=6,
        )


class TestValidation:
    @pytest.mark.parametrize("protocol", sorted(PAIRS))
    def test_every_adapter_accepts_trace_replay(self, protocol):
        # Trace replay batches through per-trial cursors now: every adapter
        # takes it, and the result stays bit-identical to the event walk.
        assert_tables_match_event(
            protocol, PAIRS[protocol][1], _parameters(), _workload(),
            runs=8, seed=33,
            failure_model=TraceFailureModel(
                [900.0, 5200.0, 1700.0, 12000.0, 400.0]
            ),
        )

    def test_trace_subclass_rejected(self):
        # Subclasses may override the cursor semantics the batched sampler
        # replays, so only the exact class is eligible.
        class RecordedTrace(TraceFailureModel):
            pass

        with pytest.raises(VectorizedBackendError, match="RecordedTrace"):
            PAIRS["PurePeriodicCkpt"][1](
                _parameters(), _workload(),
                failure_model=RecordedTrace([100.0, 200.0, 300.0]),
            )

    def test_vectorized_model_helper_passes_flagged_laws_through(self):
        default = vectorized_failure_model_or_raise(None, 123.0, protocol="p")
        assert default == ExponentialFailureModel(123.0)
        for law, build in LAW_MODELS.items():
            model = build(456.0)
            assert (
                vectorized_failure_model_or_raise(model, 123.0, protocol="p")
                is model
            ), law

    def test_no_obstacle_for_trace_replay(self):
        detail = vectorized_backend_obstacle(
            "PurePeriodicCkpt", "trace", TraceFailureModel
        )
        assert detail is None

    def test_obstacle_names_registry_laws(self):
        class RecordedTrace(TraceFailureModel):
            pass

        detail = vectorized_backend_obstacle(
            "PurePeriodicCkpt", "trace", RecordedTrace
        )
        assert "RecordedTrace" in detail
        for law in vectorized_law_names():
            assert law in detail

    def test_obstacle_names_missing_engine(self):
        @registry.register_protocol("ThirdPartyCkpt", kind="simulator")
        class ThirdPartySimulator:
            pass

        try:
            detail = vectorized_backend_obstacle("ThirdPartyCkpt")
        finally:
            registry._PROTOCOLS.pop("ThirdPartyCkpt")
            registry._PROTOCOL_LOOKUP.pop("thirdpartyckpt", None)
        assert "ThirdPartyCkpt" in detail
        assert "no vectorized engine" in detail

    def test_invalid_runs_rejected(self):
        engine = PAIRS["PurePeriodicCkpt"][1](_parameters(), _workload())
        with pytest.raises(ValueError, match="runs"):
            engine.run_trials(0)

    def test_invalid_max_slowdown_rejected(self):
        with pytest.raises(ValueError, match="max_slowdown"):
            PAIRS["NoFT"][1](
                _parameters(), _workload(), max_slowdown=0.5
            )

    def test_engine_rejects_unknown_restart_category(self):
        with pytest.raises(KeyError, match="coffee"):
            VectorizedPhasedSimulator(
                protocol="x", application_time=10.0,
                segments=(
                    PeriodicSegment(
                        work=10.0, chunk_size=5.0, checkpoint_cost=0.0,
                        trailing=False, stages=(("coffee", 1.0),),
                    ),
                ),
                failure_model=ExponentialFailureModel(100.0),
                max_makespan=1e5,
            )


class TestRegistry:
    def test_all_four_protocols_registered(self):
        names = vectorized_protocol_names()
        for protocol in PAIRS:
            assert protocol in names

    def test_entry_exposes_vectorized_cls(self):
        for alias, name in (
            ("pure-periodic", "PurePeriodicCkpt"),
            ("BiPeriodicCkpt", "BiPeriodicCkpt"),
            ("abft", "ABFT&PeriodicCkpt"),
        ):
            engine = resolve_protocol(alias).vectorized_cls(
                _parameters(), _workload()
            )
            assert isinstance(engine, VectorizedPhasedSimulator)
            assert engine.protocol == name

    def test_vectorized_laws_registered(self):
        assert set(vectorized_law_names()) == {
            "exponential",
            "weibull",
            "lognormal",
            "trace",
        }

    def test_engine_backends_tuple(self):
        assert ENGINE_BACKENDS == ("event", "vectorized", "auto")


class TestSweepBackendSelection:
    def _job(self, **overrides) -> SweepJob:
        defaults = dict(
            parameters=_parameters(),
            application_time=6 * HOUR,
            mtbf_values=(90 * MINUTE, 120 * MINUTE),
            alpha_values=(0.5,),
            protocols=("PurePeriodicCkpt",),
            simulate=True,
            simulation_runs=8,
            seed=11,
        )
        defaults.update(overrides)
        return SweepJob(**defaults)

    def test_vectorized_backend_matches_event_backend(self):
        event = SweepRunner().run(self._job(backend="event"))
        vectorized = SweepRunner().run(self._job(backend="vectorized"))
        for a, b in zip(event.points, vectorized.points):
            assert a.simulated_waste == b.simulated_waste
            assert a.simulated == b.simulated

    def test_default_backend_is_auto_and_matches_event_backend(self):
        job = self._job()
        assert job.backend == "auto"
        default = SweepRunner().run(job)
        event = SweepRunner().run(self._job(backend="event"))
        assert default.points == event.points

    def test_auto_backend_matches_event_backend(self):
        event = SweepRunner().run(self._job(backend="event"))
        auto = SweepRunner().run(
            self._job(backend="auto", protocols=("PurePeriodicCkpt", "NoFT"))
        )
        assert (
            auto.points[0].simulated_waste["PurePeriodicCkpt"]
            == event.points[0].simulated_waste["PurePeriodicCkpt"]
        )
        # NoFT runs vectorized under "auto" too; its summary must be present.
        assert "NoFT" in auto.points[0].simulated

    @pytest.mark.parametrize(
        "protocol", ["BiPeriodicCkpt", "ABFT&PeriodicCkpt"]
    )
    def test_vectorized_backend_runs_phased_protocols(self, protocol):
        event = SweepRunner().run(self._job(backend="event", protocols=(protocol,)))
        vectorized = SweepRunner().run(
            self._job(backend="vectorized", protocols=(protocol,))
        )
        for a, b in zip(event.points, vectorized.points):
            assert a.simulated_waste == b.simulated_waste
            assert a.simulated == b.simulated

    @pytest.mark.parametrize("law", ["weibull", "lognormal"])
    def test_vectorized_backend_runs_non_exponential_laws(self, law):
        params = (("shape", 0.7),) if law == "weibull" else (("sigma", 1.0),)
        event = SweepRunner().run(
            self._job(backend="event", failure_model=law, failure_params=params)
        )
        vectorized = SweepRunner().run(
            self._job(
                backend="vectorized", failure_model=law, failure_params=params
            )
        )
        for a, b in zip(event.points, vectorized.points):
            assert a.simulated_waste == b.simulated_waste
            assert a.simulated == b.simulated

    def test_vectorized_backend_accepts_trace_law(self):
        kwargs = dict(
            failure_model="trace",
            failure_params=(("interarrivals", (100.0, 200.0, 300.0)),),
            simulation_runs=4,
        )
        event = SweepRunner().run(self._job(backend="event", **kwargs))
        vectorized = SweepRunner().run(self._job(backend="vectorized", **kwargs))
        for a, b in zip(event.points, vectorized.points):
            assert a.simulated_waste == b.simulated_waste

    def test_auto_backend_vectorizes_trace_law(self, capsys):
        reset_log_notes()
        job = self._job(
            backend="auto",
            failure_model="trace",
            failure_params=(("interarrivals", (100.0, 200.0, 300.0)),),
            simulation_runs=4,
        )
        result = SweepRunner().run(job)
        assert 0.0 <= result.points[0].simulated_waste["PurePeriodicCkpt"] <= 1.0
        assert "falling back" not in capsys.readouterr().err

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            self._job(backend="gpu")

    def test_backend_not_in_cache_key(self):
        event_job = self._job(backend="event")
        vectorized_job = self._job(backend="vectorized")
        assert event_job.point_key(90 * MINUTE, 0.5) == vectorized_job.point_key(
            90 * MINUTE, 0.5
        )

    def test_backends_share_cache_entries(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = SweepRunner(cache_dir=cache_dir).run(self._job(backend="vectorized"))
        resumed = SweepRunner(cache_dir=cache_dir).run(self._job(backend="event"))
        assert resumed.computed_points == 0
        assert resumed.points == first.points


class TestExponentialSubclassRejection:
    """A subclass of ExponentialFailureModel may override the sampling, so
    the vectorized engine must treat it as a foreign law (exact type check),
    not silently draw from a fresh pure-exponential model."""

    class TweakedExponential(ExponentialFailureModel):
        def sample_interarrival(self, rng):
            return 42.0

        def sample_interarrivals(self, rng, count):
            return np.full(count, 42.0)

    def test_helper_rejects_subclass(self):
        with pytest.raises(VectorizedBackendError, match="TweakedExponential"):
            vectorized_failure_model_or_raise(
                self.TweakedExponential(3600.0), 3600.0, protocol="p"
            )

    def test_adapter_rejects_subclass(self):
        with pytest.raises(VectorizedBackendError):
            PAIRS["PurePeriodicCkpt"][1](
                _parameters(), _workload(),
                failure_model=self.TweakedExponential(3600.0),
            )


class TestSingleRunSummaryStaysJson:
    def test_summary_dict_replaces_nan_with_none(self):
        table = PAIRS["PurePeriodicCkpt"][1](_parameters(), _workload()).run_trials(
            1, seed=3
        )
        payload = table.summary_dict()
        assert payload["runs"] == 1
        assert payload["waste_std"] is None
        assert payload["waste_ci_half_width"] is None
        import json

        text = json.dumps(payload, allow_nan=False)  # strict JSON must succeed
        assert json.loads(text)["waste_mean"] == payload["waste_mean"]

    def test_single_run_sweep_cache_is_strict_json(self, tmp_path):
        import json

        from repro.campaign import SweepCache

        job = SweepJob(
            parameters=_parameters(),
            application_time=6 * HOUR,
            mtbf_values=(120 * MINUTE,),
            alpha_values=(0.5,),
            protocols=("PurePeriodicCkpt",),
            simulate=True,
            simulation_runs=1,
            seed=9,
        )
        cache_dir = tmp_path / "cache"
        SweepRunner(cache_dir=cache_dir).run(job)
        for path in SweepCache(cache_dir).entries():
            # parse_constant raises on the non-standard NaN/Infinity tokens.
            json.loads(
                path.read_text(),
                parse_constant=lambda token: (_ for _ in ()).throw(
                    ValueError(f"non-strict JSON token {token}")
                ),
            )
