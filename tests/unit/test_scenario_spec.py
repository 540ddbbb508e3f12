"""Unit tests for the ScenarioSpec schema, serialization and builder."""

from __future__ import annotations

import json

import pytest

from repro.core.registry import UnknownFailureModelError, UnknownProtocolError
from repro.failures import WeibullFailureModel
from repro.scenario import (
    Scenario,
    ScenarioSpec,
    ScenarioSpecError,
    FailureSpec,
    PlatformSpec,
    WorkloadSpec,
)
from repro.utils import MINUTE, WEEK


def minimal_dict() -> dict:
    return {
        "platform": {"mtbf": 7200.0, "checkpoint": 600.0},
        "workload": {"total_time": 86400.0},
    }


class TestFromDict:
    def test_minimal_document(self):
        spec = ScenarioSpec.from_dict(minimal_dict())
        assert spec.platform.mtbf == 7200.0
        assert spec.workload.alpha == 0.8  # default
        assert spec.failures.model == "exponential"
        assert spec.canonical_protocols == (
            "PurePeriodicCkpt",
            "BiPeriodicCkpt",
            "ABFT&PeriodicCkpt",
        )

    def test_unknown_top_level_key_names_path(self):
        data = minimal_dict()
        data["platforn"] = {}
        with pytest.raises(ScenarioSpecError, match="platforn"):
            ScenarioSpec.from_dict(data)

    def test_missing_required_field_names_path(self):
        data = minimal_dict()
        del data["platform"]["mtbf"]
        with pytest.raises(ScenarioSpecError, match=r"platform: missing required"):
            ScenarioSpec.from_dict(data)

    def test_wrong_type_names_path_and_value(self):
        data = minimal_dict()
        data["platform"]["checkpoint"] = "ten minutes"
        with pytest.raises(
            ScenarioSpecError, match=r"platform\.checkpoint: expected a number"
        ):
            ScenarioSpec.from_dict(data)

    def test_bad_alpha_range(self):
        data = minimal_dict()
        data["workload"]["alpha"] = 1.5
        with pytest.raises(ScenarioSpecError, match=r"workload\.alpha"):
            ScenarioSpec.from_dict(data)

    def test_bad_sweep_entry_reports_index(self):
        data = minimal_dict()
        data["sweep"] = {"mtbf_values": [3600.0, "x"]}
        with pytest.raises(
            ScenarioSpecError, match=r"sweep\.mtbf_values\[1\]"
        ):
            ScenarioSpec.from_dict(data)

    def test_unknown_protocol_suggests(self):
        data = minimal_dict()
        data["protocols"] = ["BiPeriodikCkpt"]
        with pytest.raises(UnknownProtocolError, match="did you mean"):
            ScenarioSpec.from_dict(data)

    def test_unknown_failure_model_suggests(self):
        data = minimal_dict()
        data["failures"] = {"model": "weibul"}
        with pytest.raises(UnknownFailureModelError, match="did you mean"):
            ScenarioSpec.from_dict(data)

    def test_bad_simulation_runs(self):
        data = minimal_dict()
        data["simulation"] = {"runs": 0}
        with pytest.raises(ScenarioSpecError, match=r"simulation\.runs"):
            ScenarioSpec.from_dict(data)


class TestRoundTrip:
    def test_dict_round_trip_minimal(self):
        spec = ScenarioSpec.from_dict(minimal_dict())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_full(self):
        spec = (
            Scenario.paper_figure7()
            .with_failures("trace", interarrivals=[100.0, 50.0, 200.0], cycle=True)
            .with_protocols("bi", "abft")
            .with_simulation(runs=77, seed=99)
            .build()
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = Scenario.quick().with_failures("lognormal", sigma=1.2).build()
        text = spec.to_json()
        assert ScenarioSpec.from_json(text) == spec
        # The JSON form is plain data, no Python reprs.
        json.loads(text)

    def test_file_round_trip(self, tmp_path):
        spec = Scenario.quick().build()
        path = spec.save(tmp_path / "scenario.json")
        assert ScenarioSpec.load(path) == spec

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ScenarioSpecError, match="not found"):
            ScenarioSpec.load(tmp_path / "nope.json")

    def test_invalid_json_reported(self):
        with pytest.raises(ScenarioSpecError, match="invalid JSON"):
            ScenarioSpec.from_json("{not json")


class TestBuilder:
    def test_paper_figure7_matches_paper_caption(self):
        spec = Scenario.paper_figure7().build()
        assert spec.platform.checkpoint == 10 * MINUTE
        assert spec.platform.recovery == 10 * MINUTE
        assert spec.platform.downtime == 1 * MINUTE
        assert spec.workload.total_time == 1 * WEEK
        assert spec.sweep.mtbf_values[0] == 60 * MINUTE
        assert spec.sweep.mtbf_values[-1] == 240 * MINUTE
        assert len(spec.sweep.alpha_values) == 11

    def test_fluent_chain_is_immutable(self):
        base = Scenario.paper_figure7()
        derived = base.with_failures("weibull", shape=0.7)
        assert base.build().failures.model == "exponential"
        assert derived.build().failures.model == "weibull"
        assert derived.build().failures.params_dict == {"shape": 0.7}

    def test_with_protocol_singular_alias(self):
        spec = Scenario.paper_figure7().with_protocol("BiPeriodicCkpt").build()
        assert spec.protocols == ("BiPeriodicCkpt",)

    def test_build_without_platform_is_actionable(self):
        with pytest.raises(ScenarioSpecError, match="with_platform"):
            Scenario().build()

    def test_build_without_workload_is_actionable(self):
        with pytest.raises(ScenarioSpecError, match="with_workload"):
            Scenario().with_platform(mtbf=3600.0, checkpoint=60.0).build()

    def test_empty_protocols_rejected(self):
        with pytest.raises(ScenarioSpecError, match="at least one"):
            Scenario.paper_figure7().with_protocols()


class TestResolution:
    def test_parameters_and_workload(self):
        spec = Scenario.paper_figure7().build()
        params = spec.parameters()
        assert params.platform_mtbf == spec.platform.mtbf
        assert params.full_checkpoint == spec.platform.checkpoint
        workload = spec.application_workload(0.5)
        assert workload.alpha == pytest.approx(0.5)
        assert workload.total_time == pytest.approx(spec.workload.total_time)

    def test_resolve_binds_failure_model(self):
        spec = (
            Scenario.paper_figure7().with_failures("weibull", shape=0.7).build()
        )
        bound = spec.resolve("abft", mtbf=3600.0)
        assert isinstance(bound.failure_model, WeibullFailureModel)
        assert bound.failure_model.mtbf == 3600.0
        assert bound.simulator.failure_model is bound.failure_model

    def test_axes_fall_back_to_point_values(self):
        spec = ScenarioSpec(
            platform=PlatformSpec(mtbf=3600.0, checkpoint=60.0),
            workload=WorkloadSpec(total_time=7200.0, alpha=0.3),
        )
        assert spec.mtbf_axis == (3600.0,)
        assert spec.alpha_axis == (0.3,)

    def test_multi_epoch_workload(self):
        spec = ScenarioSpec(
            platform=PlatformSpec(mtbf=3600.0, checkpoint=60.0),
            workload=WorkloadSpec(total_time=6000.0, alpha=0.5, epochs=10),
        )
        workload = spec.application_workload()
        assert workload.epoch_count == 10
        assert workload.total_time == pytest.approx(6000.0)

    def test_describe_mentions_protocols_and_law(self):
        spec = Scenario.quick().with_failures("weibull", shape=0.7).build()
        text = spec.describe()
        assert "weibull" in text and "shape=0.7" in text
        assert "ABFT&PeriodicCkpt" in text


class TestModelParams:
    def test_round_trip(self):
        spec = (
            Scenario.quick()
            .with_model_params("abft", per_epoch=False)
            .build()
        )
        # Keys are canonicalized at construction.
        assert spec.model_params == (
            ("ABFT&PeriodicCkpt", (("per_epoch", False),)),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert spec.model_kwargs_for("composite") == {"per_epoch": False}
        assert spec.model_kwargs_for("PurePeriodicCkpt") == {}

    def test_from_dict_validates_shape(self):
        data = minimal_dict()
        data["model_params"] = {"ABFT&PeriodicCkpt": 3}
        with pytest.raises(ScenarioSpecError, match="model_params"):
            ScenarioSpec.from_dict(data)

    def test_resolve_applies_model_params(self):
        spec = (
            Scenario.quick()
            .with_workload(epochs=100)
            .with_model_params("abft", per_epoch=False)
            .build()
        )
        bound = spec.resolve("abft")
        assert bound.model._per_epoch is False


class TestFailureParamProbe:
    def test_typo_in_params_fails_at_load_with_path(self):
        data = minimal_dict()
        data["failures"] = {"model": "weibull", "params": {"shap": 0.7}}
        with pytest.raises(ScenarioSpecError, match=r"failures\.params"):
            ScenarioSpec.from_dict(data)

    def test_trace_without_data_fails_at_load(self):
        data = minimal_dict()
        data["failures"] = {"model": "trace"}
        with pytest.raises(ScenarioSpecError, match="interarrivals"):
            ScenarioSpec.from_dict(data)

    def test_builder_probes_too(self):
        with pytest.raises(ScenarioSpecError, match=r"failures\.params"):
            Scenario.quick().with_failures("lognormal", sigm=2.0).build()


class TestFailureSpec:
    def test_params_dict_restores_lists(self):
        spec = FailureSpec(
            model="trace", params=(("interarrivals", (1.0, 2.0)), ("cycle", True))
        )
        assert spec.params_dict == {"interarrivals": [1.0, 2.0], "cycle": True}

    def test_is_exponential_through_alias(self):
        assert FailureSpec(model="exp").is_exponential
        assert not FailureSpec(model="weibull").is_exponential


class TestSimulationBackend:
    def test_spec_and_campaign_name_the_same_obstacle(self):
        # ScenarioSpec validation and the campaign runner share one rule
        # and one wording for "cannot run vectorized".
        from repro.core import registry
        from repro.optimize import simulate_at_periods
        from repro.simulation.vectorized import (
            VectorizedBackendError,
            vectorized_backend_obstacle,
        )

        @registry.register_failure_model("test-weibull-variant")
        class WeibullVariant(WeibullFailureModel):
            pass

        @registry.register_protocol("TestNoSchedule", kind="model")
        class TestNoScheduleModel:
            def __init__(self, parameters):
                self.parameters = parameters

        @registry.register_protocol("TestNoSchedule", kind="simulator")
        class TestNoScheduleSimulator:
            def __init__(self, parameters, workload, **kwargs):
                pass

        cases = (
            ("PurePeriodicCkpt", "test-weibull-variant", {"shape": 0.7},
             WeibullVariant, "WeibullVariant"),
            ("TestNoSchedule", "exponential", {}, None, "no vectorized engine"),
        )
        try:
            for protocol, law, params, law_cls, phrase in cases:
                obstacle = vectorized_backend_obstacle(protocol, law, law_cls)
                assert phrase in obstacle
                data = minimal_dict()
                data["protocols"] = [protocol]
                data["failures"] = {"model": law, "params": params}
                data["simulation"] = {"backend": "vectorized"}
                with pytest.raises(ScenarioSpecError) as spec_error:
                    ScenarioSpec.from_dict(data)
                spec = ScenarioSpec.from_dict(
                    {**data, "simulation": {"backend": "event"}}
                )
                with pytest.raises(VectorizedBackendError) as run_error:
                    simulate_at_periods(
                        protocol, spec.parameters(),
                        spec.application_workload(), {}, runs=2, seed=1,
                        backend="vectorized", failure_model=law,
                        failure_params=params,
                    )
                assert obstacle in str(spec_error.value)
                assert obstacle in str(run_error.value)
        finally:
            registry._FAILURE_MODELS.pop("test-weibull-variant")
            registry._FAILURE_LOOKUP.pop("test-weibull-variant", None)
            registry._PROTOCOLS.pop("TestNoSchedule")
            registry._PROTOCOL_LOOKUP.pop("testnoschedule", None)

    def test_default_backend_is_event(self):
        spec = ScenarioSpec.from_dict(minimal_dict())
        assert spec.simulation.backend == "event"

    def test_backend_round_trips(self):
        data = minimal_dict()
        data["protocols"] = ["PurePeriodicCkpt"]
        data["simulation"] = {"validate": True, "runs": 5, "backend": "vectorized"}
        spec = ScenarioSpec.from_dict(data)
        assert spec.simulation.backend == "vectorized"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["simulation"]["backend"] == "vectorized"

    def test_unknown_backend_names_path(self):
        data = minimal_dict()
        data["simulation"] = {"backend": "gpu"}
        with pytest.raises(ScenarioSpecError, match=r"simulation\.backend"):
            ScenarioSpec.from_dict(data)

    def test_vectorized_backend_accepts_phased_protocols(self):
        data = minimal_dict()
        data["protocols"] = ["BiPeriodicCkpt", "ABFT&PeriodicCkpt"]
        data["simulation"] = {"backend": "vectorized"}
        spec = ScenarioSpec.from_dict(data)
        assert spec.simulation.backend == "vectorized"

    def test_vectorized_backend_accepts_vectorized_laws(self):
        for model, params in (
            ("weibull", {"shape": 0.7}),
            ("lognormal", {"sigma": 1.0}),
        ):
            data = minimal_dict()
            data["protocols"] = ["PurePeriodicCkpt"]
            data["failures"] = {"model": model, "params": params}
            data["simulation"] = {"backend": "vectorized"}
            assert ScenarioSpec.from_dict(data).failures.model == model

    def test_vectorized_backend_accepts_trace_law(self):
        data = minimal_dict()
        data["protocols"] = ["PurePeriodicCkpt"]
        data["failures"] = {
            "model": "trace",
            "params": {"interarrivals": [100.0, 200.0, 300.0]},
        }
        data["simulation"] = {"backend": "vectorized"}
        assert ScenarioSpec.from_dict(data).failures.model == "trace"

    def test_auto_backend_accepts_anything_registered(self):
        data = minimal_dict()
        data["failures"] = {
            "model": "trace",
            "params": {"interarrivals": [100.0, 200.0, 300.0]},
        }
        data["simulation"] = {"backend": "auto"}
        assert ScenarioSpec.from_dict(data).simulation.backend == "auto"

    def test_builder_sets_backend(self):
        spec = (
            Scenario.quick()
            .with_protocols("PurePeriodicCkpt")
            .with_simulation(validate=True, runs=5, backend="vectorized")
            .build()
        )
        assert spec.simulation.backend == "vectorized"


class TestContentHash:
    """The spec's content address: stable across processes and field order."""

    PINNED_DOCUMENT = {
        "name": "pin",
        "platform": {"mtbf": 7200.0, "checkpoint": 600.0},
        "workload": {"total_time": 86400.0},
    }
    # sha256 of the canonical sorted-key JSON of the canonicalized spec.
    # This value is shared by the advisor service's answer cache and the
    # SweepCache point keys; changing serialization invalidates both, so a
    # failure here means "bump the answer schema version", not "update the
    # pin and move on".
    PINNED_HASH = "b1af2cde5d6d7a0a711b385203d14139cb1b5f607faaa975dd1c47645c154bf2"

    def test_pinned_value(self):
        spec = ScenarioSpec.from_dict(self.PINNED_DOCUMENT)
        assert spec.content_hash() == self.PINNED_HASH

    def test_stable_across_field_order_permutations(self):
        import itertools

        reference = ScenarioSpec.from_dict(self.PINNED_DOCUMENT).content_hash()
        items = list(self.PINNED_DOCUMENT.items())
        for permutation in itertools.permutations(items):
            shuffled = dict(permutation)
            shuffled["platform"] = dict(
                reversed(list(self.PINNED_DOCUMENT["platform"].items()))
            )
            assert ScenarioSpec.from_dict(shuffled).content_hash() == reference

    def test_stable_across_processes(self):
        # Guards against accidental reliance on per-process state (hash
        # randomization, dict iteration artifacts): a fresh interpreter must
        # reproduce the pin bit-for-bit.
        import json as json_module
        import subprocess
        import sys

        program = (
            "import json, sys\n"
            "from repro.scenario import ScenarioSpec\n"
            "doc = json.loads(sys.argv[1])\n"
            "print(ScenarioSpec.from_dict(doc).content_hash())\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program, json_module.dumps(self.PINNED_DOCUMENT)],
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout.strip() == self.PINNED_HASH

    def test_spelled_out_defaults_share_the_address(self):
        # Canonicalization happens at the spec layer: writing a default
        # explicitly does not change the content address.
        spelled = dict(self.PINNED_DOCUMENT)
        spelled["failures"] = {"model": "exponential"}
        spelled["workload"] = dict(self.PINNED_DOCUMENT["workload"], alpha=0.8)
        assert (
            ScenarioSpec.from_dict(spelled).content_hash() == self.PINNED_HASH
        )

    def test_value_changes_change_the_address(self):
        changed = dict(self.PINNED_DOCUMENT)
        changed["platform"] = dict(self.PINNED_DOCUMENT["platform"], mtbf=7201.0)
        assert ScenarioSpec.from_dict(changed).content_hash() != self.PINNED_HASH

    def test_matches_canonical_digest_of_to_dict(self):
        # The format-version field is stripped before digesting: it
        # describes the file layout, not the experiment, so a v1 file and
        # its re-serialization share one content address.
        from repro.campaign.cache import canonical_digest

        spec = ScenarioSpec.from_dict(self.PINNED_DOCUMENT)
        data = spec.to_dict()
        data.pop("version")
        assert spec.content_hash() == canonical_digest(data)
