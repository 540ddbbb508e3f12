"""Unit tests for the extensible protocol / failure-model registry."""

from __future__ import annotations

import pytest

from repro.core import registry
from repro.core.analytical import (
    AbftPeriodicCkptModel,
    BiPeriodicCkptModel,
    PurePeriodicCkptModel,
)
from repro.core.protocols import (
    AbftPeriodicCkptSimulator,
    BiPeriodicCkptSimulator,
    PurePeriodicCkptSimulator,
)
from repro.failures import (
    ExponentialFailureModel,
    LogNormalFailureModel,
    TraceFailureModel,
    WeibullFailureModel,
)


class TestProtocolLookup:
    def test_canonical_names_in_paper_order(self):
        assert registry.protocol_names(paper_only=True) == (
            "PurePeriodicCkpt",
            "BiPeriodicCkpt",
            "ABFT&PeriodicCkpt",
        )

    def test_noft_registered_but_not_in_pairs(self):
        assert "NoFT" in registry.protocol_names()
        assert "NoFT" not in registry.PROTOCOL_PAIRS

    def test_alias_and_case_insensitive_lookup(self):
        assert registry.resolve_protocol("abft").name == "ABFT&PeriodicCkpt"
        assert registry.resolve_protocol("COMPOSITE").name == "ABFT&PeriodicCkpt"
        assert registry.resolve_protocol("purEPeriodicCkpt").name == "PurePeriodicCkpt"

    def test_entry_pairs_match_classes(self):
        assert registry.resolve_protocol("PurePeriodicCkpt").pair == (
            PurePeriodicCkptModel,
            PurePeriodicCkptSimulator,
        )
        assert registry.resolve_protocol("bi").pair == (
            BiPeriodicCkptModel,
            BiPeriodicCkptSimulator,
        )
        assert registry.resolve_protocol("composite").pair == (
            AbftPeriodicCkptModel,
            AbftPeriodicCkptSimulator,
        )

    def test_unknown_protocol_error_lists_and_suggests(self):
        with pytest.raises(registry.UnknownProtocolError) as excinfo:
            registry.resolve_protocol("BiPeriodikCkpt")
        message = str(excinfo.value)
        assert "BiPeriodicCkpt" in message
        assert "did you mean" in message
        assert "PurePeriodicCkpt" in message

    def test_unknown_protocol_error_is_keyerror_and_valueerror(self):
        with pytest.raises(KeyError):
            registry.resolve_protocol("nope")
        with pytest.raises(ValueError):
            registry.resolve_protocol("nope")


class TestProtocolPairsShim:
    def test_mapping_protocol(self):
        pairs = registry.PROTOCOL_PAIRS
        assert len(pairs) == 3
        assert sorted(pairs) == [
            "ABFT&PeriodicCkpt",
            "BiPeriodicCkpt",
            "PurePeriodicCkpt",
        ]
        assert pairs["PurePeriodicCkpt"][0] is PurePeriodicCkptModel
        assert dict(pairs)  # Mapping -> dict round trip works

    def test_getitem_unknown_raises_keyerror(self):
        with pytest.raises(KeyError):
            registry.PROTOCOL_PAIRS["NotAProtocol"]

    def test_getitem_agrees_with_contains(self):
        # The view keeps the original dict's contract: exact canonical paper
        # names only.  Aliases and non-paper entries belong to
        # resolve_protocol, and __getitem__ must match __contains__.
        for name in ("NoFT", "pure", "purePeriodicCkpt"):
            assert name not in registry.PROTOCOL_PAIRS
            with pytest.raises(KeyError):
                registry.PROTOCOL_PAIRS[name]
            assert registry.PROTOCOL_PAIRS.get(name) is None

    def test_protocol_names_constant(self):
        assert registry.PROTOCOL_NAMES == tuple(registry.PROTOCOL_PAIRS)


class TestRegistration:
    def test_register_and_resolve_custom_protocol(self):
        @registry.register_protocol("TestOnlyCkpt", kind="model", aliases=("toc",))
        class TestOnlyModel:
            def __init__(self, parameters):
                self.parameters = parameters

        @registry.register_protocol("TestOnlyCkpt", kind="simulator")
        class TestOnlySimulator:
            def __init__(self, parameters, workload, *, failure_model=None):
                self.failure_model = failure_model

        try:
            entry = registry.resolve_protocol("toc")
            assert entry.name == "TestOnlyCkpt"
            assert entry.pair == (TestOnlyModel, TestOnlySimulator)
            # The new protocol shows up in the listing but not in the paper view.
            assert "TestOnlyCkpt" in registry.protocol_names()
            assert "TestOnlyCkpt" in registry.PROTOCOL_PAIRS
        finally:
            registry._PROTOCOLS.pop("TestOnlyCkpt")
            for key in ("testonlyckpt", "toc"):
                registry._PROTOCOL_LOOKUP.pop(key, None)

    def test_bad_kind_rejected(self):
        # "vectorized" is no kind: the engine is derived from the schedule.
        for kind in ("neither", "vectorized"):
            with pytest.raises(ValueError, match="kind"):
                registry.register_protocol("X", kind=kind)

    def test_schedule_registration_gives_the_vectorized_backend(
        self, paper_parameters, small_workload
    ):
        # A protocol registered as model + simulator + schedule compiler,
        # and nothing else, runs on the vectorized backend bit for bit.
        from repro.core.protocols import ProtocolSimulator
        from repro.optimize import simulate_at_periods
        from repro.simulation.schedule import (
            PeriodicSegment,
            Schedule,
            periodic_chunk_size,
        )

        @registry.register_protocol("TestOnlySchedule", kind="schedule")
        def compile_test_schedule(parameters, workload, *, period=3600.0):
            total = workload.total_time
            checkpoint = parameters.full_checkpoint
            return Schedule.from_segments(
                (
                    PeriodicSegment(
                        work=total,
                        chunk_size=periodic_chunk_size(period, checkpoint, total),
                        checkpoint_cost=checkpoint,
                        trailing=False,
                        stages=(
                            ("downtime", parameters.downtime),
                            ("recovery", parameters.full_recovery),
                        ),
                    ),
                )
            )

        @registry.register_protocol("TestOnlySchedule", kind="model")
        class TestOnlyScheduleModel:
            def __init__(self, parameters, *, period=None):
                self.parameters = parameters

        @registry.register_protocol("TestOnlySchedule", kind="simulator")
        class TestOnlyScheduleSimulator(ProtocolSimulator):
            name = "TestOnlySchedule"

            def __init__(self, parameters, workload, *, period=3600.0, **kwargs):
                super().__init__(parameters, workload, **kwargs)
                self._period = period

            def compile_schedule(self):
                return compile_test_schedule(
                    self._params, self._workload, period=self._period
                )

        try:
            assert "TestOnlySchedule" in registry.vectorized_protocol_names()
            from repro.campaign.executor import (
                ShardedVectorizedExecutor,
                campaign_engine,
            )

            knobs = {"period": 1800.0}

            def run_campaign(backend):
                engine = campaign_engine(
                    "TestOnlySchedule", paper_parameters, small_workload,
                    backend=backend, knobs=knobs, max_slowdown=1e4,
                )
                return ShardedVectorizedExecutor(workers=1).run(
                    engine, runs=24, seed=5
                )

            vectorized = run_campaign("vectorized")
            event = run_campaign("event")
            assert vectorized == event
            assert vectorized.data["failure_count"].sum() > 0
            summary = simulate_at_periods(
                "TestOnlySchedule", paper_parameters, small_workload, knobs,
                runs=24, seed=5, backend="vectorized",
            )
            assert summary == vectorized.summary_dict()
        finally:
            registry._PROTOCOLS.pop("TestOnlySchedule")
            registry._PROTOCOL_LOOKUP.pop("testonlyschedule", None)

    def test_conflicting_alias_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @registry.register_protocol("Imposter", kind="model", aliases=("pure",))
            class ImposterModel:
                pass

        registry._PROTOCOLS.pop("Imposter", None)
        registry._PROTOCOL_LOOKUP.pop("imposter", None)


class TestFailureModelLookup:
    def test_names(self):
        assert registry.failure_model_names() == (
            "exponential",
            "weibull",
            "lognormal",
            "trace",
        )

    def test_create_each_builtin(self):
        exp = registry.create_failure_model("exponential", 3600.0)
        assert isinstance(exp, ExponentialFailureModel) and exp.mtbf == 3600.0
        wbl = registry.create_failure_model("weibull", 3600.0, shape=0.7)
        assert isinstance(wbl, WeibullFailureModel) and wbl.shape == 0.7
        logn = registry.create_failure_model("log-normal", 3600.0, sigma=1.5)
        assert isinstance(logn, LogNormalFailureModel) and logn.sigma == 1.5

    def test_trace_factory_requires_data(self):
        with pytest.raises(ValueError, match="interarrivals"):
            registry.create_failure_model("trace", 3600.0)

    def test_trace_factory_rescales_to_target_mtbf(self):
        model = registry.create_failure_model(
            "trace", 100.0, interarrivals=(10.0, 30.0)
        )
        assert isinstance(model, TraceFailureModel)
        assert model.mtbf == pytest.approx(100.0)

    def test_trace_factory_from_failure_times(self):
        model = registry.create_failure_model(
            "trace", None, failure_times=(5.0, 10.0, 20.0), cycle=False
        )
        assert isinstance(model, TraceFailureModel)
        assert not model.cycle

    def test_exponential_requires_mtbf(self):
        with pytest.raises(ValueError, match="mtbf"):
            registry.create_failure_model("exponential")

    def test_unknown_failure_model_suggests(self):
        with pytest.raises(registry.UnknownFailureModelError) as excinfo:
            registry.resolve_failure_model("weibul")
        assert "did you mean 'weibull'" in str(excinfo.value)


class TestResolveTriple:
    def test_bound_triple(self, paper_parameters, paper_workload):
        bound = registry.resolve(
            "abft",
            paper_parameters,
            paper_workload,
            failure_model="weibull",
            failure_params={"shape": 0.7},
        )
        assert isinstance(bound.model, AbftPeriodicCkptModel)
        assert isinstance(bound.simulator, AbftPeriodicCkptSimulator)
        assert isinstance(bound.failure_model, WeibullFailureModel)
        assert bound.failure_model.mtbf == paper_parameters.platform_mtbf
        assert bound.simulator.failure_model is bound.failure_model

    def test_default_exponential(self, paper_parameters, paper_workload):
        bound = registry.resolve("pure", paper_parameters, paper_workload)
        assert isinstance(bound.failure_model, ExponentialFailureModel)
