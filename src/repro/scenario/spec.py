"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` is the single description every layer of the
reproduction speaks: protocol set x failure law x platform costs x workload
x sweep axes x simulation settings.  It is

* **frozen** -- specs are values; deriving a variant goes through
  :meth:`ScenarioSpec.replace` or the fluent
  :class:`~repro.scenario.builder.Scenario` builder;
* **serializable** -- :meth:`to_dict` / :meth:`from_dict` round-trip exactly
  (``from_dict(to_dict(s)) == s``), with :meth:`to_json` / :meth:`from_json`
  / :meth:`save` / :meth:`load` for files, so a JSON file can drive an
  end-to-end run through the CLI, the simulators and the campaign layer;
* **validated** -- :meth:`from_dict` checks every section against
  :data:`SCENARIO_SCHEMA` and reports the exact path of a problem
  (``"platform.checkpoint: expected a number, got 'ten minutes'"``) instead
  of a bare ``KeyError`` / ``TypeError`` deep inside a consumer.

The spec resolves names through :mod:`repro.core.registry`, so protocols and
failure models registered by third parties are immediately expressible.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.application.workload import ApplicationWorkload
from repro.checkpointing.stack import StorageStack
from repro.core.parameters import ResilienceParameters
from repro.core.registry import (
    ResolvedProtocol,
    build_storage,
    create_failure_model,
    resolve,
    resolve_failure_model,
    resolve_protocol,
)

__all__ = [
    "ScenarioError",
    "ScenarioSpecError",
    "FailureSpec",
    "PlatformSpec",
    "WorkloadSpec",
    "StorageSpec",
    "SweepSpec",
    "SimulationSpec",
    "ScenarioSpec",
    "SCENARIO_SCHEMA",
    "SCENARIO_SPEC_VERSION",
]

#: Version of the scenario-file format.  Version 1 is the pre-storage
#: layout; version 2 adds the optional top-level ``storage`` section (and
#: makes ``platform.checkpoint`` optional when one is given).  Files
#: without a ``version`` field are read as version 1 and re-serialize at
#: the current version -- the formats are forward-compatible because every
#: v2 addition is optional.
SCENARIO_SPEC_VERSION = 2


class ScenarioError(ValueError):
    """Base class of scenario-layer errors."""


class ScenarioSpecError(ScenarioError):
    """A scenario document failed schema validation.

    The message always names the offending path (``section.field``) and what
    was expected, so a hand-written JSON file can be fixed from the error
    alone.
    """

    def __init__(self, path: str, problem: str) -> None:
        super().__init__(f"{path}: {problem}" if path else problem)
        self.path = path
        self.problem = problem


# ---------------------------------------------------------------------- #
# Conversion helpers
# ---------------------------------------------------------------------- #
def _freeze(value: Any, path: str) -> Any:
    """Normalise JSON-compatible data into hashable, comparable form."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v, path) for v in value)
    if isinstance(value, Mapping):
        return tuple(
            (str(k), _freeze(v, f"{path}.{k}")) for k, v in sorted(value.items())
        )
    raise ScenarioSpecError(path, f"unsupported value type {type(value).__name__}")


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for serialization: tuples back to lists."""
    if isinstance(value, tuple):
        if value and all(
            isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
            for item in value
        ):
            return {k: _thaw(v) for k, v in value}
        return [_thaw(v) for v in value]
    return value


def _number(value: Any, path: str, *, minimum: Optional[float] = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioSpecError(path, f"expected a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise ScenarioSpecError(path, f"must be >= {minimum}, got {value}")
    return value


def _check_keys(
    data: Mapping[str, Any], allowed: Sequence[str], required: Sequence[str], path: str
) -> None:
    if not isinstance(data, Mapping):
        raise ScenarioSpecError(path, f"expected an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioSpecError(
            path,
            f"unknown field(s) {unknown}; allowed fields: {sorted(allowed)}",
        )
    missing = sorted(set(required) - set(data))
    if missing:
        raise ScenarioSpecError(path, f"missing required field(s) {missing}")


#: Declarative description of the scenario-file format: section ->
#: ``(field -> (type description, required))``.  Used by the validator and
#: rendered in EXPERIMENTS.md; the JSON layout mirrors it exactly.
SCENARIO_SCHEMA: Dict[str, Dict[str, Tuple[str, bool]]] = {
    "": {
        "version": (
            f"spec format version (default 1; current {SCENARIO_SPEC_VERSION})",
            False,
        ),
        "name": ("string label of the scenario", False),
        "protocols": ("list of registered protocol names/aliases", False),
        "platform": ("object (see 'platform')", True),
        "workload": ("object (see 'workload')", True),
        "storage": ("object (see 'storage')", False),
        "failures": ("object (see 'failures')", False),
        "sweep": ("object (see 'sweep')", False),
        "simulation": ("object (see 'simulation')", False),
        "model_params": (
            "per-protocol analytical-model options, e.g. "
            "{'ABFT&PeriodicCkpt': {'per_epoch': false}}",
            False,
        ),
    },
    "platform": {
        "mtbf": ("platform MTBF mu in seconds (> 0)", True),
        "checkpoint": (
            "full checkpoint cost C in seconds (>= 0); required unless a "
            "'storage' section lowers C from a storage stack",
            False,
        ),
        "recovery": ("full recovery cost R in seconds (default: C)", False),
        "downtime": ("downtime D in seconds (default 60)", False),
        "library_fraction": ("memory fraction rho in [0, 1] (default 0.8)", False),
        "abft_overhead": ("ABFT slowdown phi >= 1 (default 1.03)", False),
        "abft_reconstruction": ("Recons_ABFT in seconds (default 2)", False),
        "remainder_recovery": ("R_Rem override in seconds (default (1-rho)R)", False),
    },
    "workload": {
        "total_time": ("fault-free duration T0 in seconds (> 0)", True),
        "alpha": ("LIBRARY time fraction in [0, 1] (default 0.8)", False),
        "epochs": ("number of identical epochs (default 1)", False),
    },
    "storage": {
        "kind": ("registered storage name/alias, e.g. 'multi-level'", True),
        "params": (
            "storage constructor parameters; nested media are "
            "{'kind': ..., 'params': {...}} objects",
            False,
        ),
        "data_bytes": ("checkpointed volume in bytes (default 0)", False),
        "node_count": ("nodes writing/reading concurrently (default 1)", False),
    },
    "failures": {
        "model": ("registered failure-model name (default 'exponential')", False),
        "params": ("model parameters, e.g. {'shape': 0.7}", False),
    },
    "sweep": {
        "mtbf_values": ("platform MTBFs in seconds forming the x-axis", False),
        "alpha_values": ("library-time ratios forming the y-axis", False),
    },
    "simulation": {
        "validate": ("run Monte-Carlo campaigns (default false)", False),
        "runs": ("simulated executions per grid point (default 200)", False),
        "seed": ("root seed of the campaigns (default 2014)", False),
        "backend": (
            "Monte-Carlo engine: 'event', 'vectorized' or 'auto' "
            "(default 'event'; both engines are bit-identical where "
            "'vectorized' is supported)",
            False,
        ),
    },
}


# ---------------------------------------------------------------------- #
# Section specs
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlatformSpec:
    """Platform and cost parameters (the paper's Section IV scalars)."""

    mtbf: float
    checkpoint: Optional[float] = None
    recovery: Optional[float] = None
    downtime: float = 60.0
    library_fraction: float = 0.8
    abft_overhead: float = 1.03
    abft_reconstruction: float = 2.0
    remainder_recovery: Optional[float] = None

    def parameters(
        self,
        mtbf: Optional[float] = None,
        *,
        storage: Optional[StorageStack] = None,
    ) -> ResilienceParameters:
        """The equivalent :class:`ResilienceParameters` bundle.

        With a ``storage`` stack, ``C``/``R`` are lowered from it (at the
        effective MTBF) and :attr:`checkpoint`/:attr:`recovery` are unused.
        """
        mtbf_value = self.mtbf if mtbf is None else float(mtbf)
        if storage is not None:
            return ResilienceParameters.from_storage(
                platform_mtbf=mtbf_value,
                storage=storage,
                downtime=self.downtime,
                library_fraction=self.library_fraction,
                abft_overhead=self.abft_overhead,
                abft_reconstruction=self.abft_reconstruction,
                remainder_recovery=self.remainder_recovery,
            )
        if self.checkpoint is None:
            raise ScenarioSpecError(
                "platform.checkpoint",
                "required unless a 'storage' section is given",
            )
        return ResilienceParameters.from_scalars(
            platform_mtbf=mtbf_value,
            checkpoint=self.checkpoint,
            recovery=self.recovery,
            downtime=self.downtime,
            library_fraction=self.library_fraction,
            abft_overhead=self.abft_overhead,
            abft_reconstruction=self.abft_reconstruction,
            remainder_recovery=self.remainder_recovery,
        )

    @classmethod
    def _from_dict(cls, data: Mapping[str, Any], path: str) -> "PlatformSpec":
        schema = SCENARIO_SCHEMA["platform"]
        _check_keys(data, tuple(schema), [f for f, (_, r) in schema.items() if r], path)
        optional_numbers = ("checkpoint", "recovery", "remainder_recovery")
        values: Dict[str, Any] = {}
        for key, value in data.items():
            if key in optional_numbers and value is None:
                values[key] = None
            else:
                values[key] = _number(value, f"{path}.{key}")
        spec = cls(**values)
        if spec.mtbf <= 0:
            raise ScenarioSpecError(f"{path}.mtbf", "must be > 0")
        if not 0.0 <= spec.library_fraction <= 1.0:
            raise ScenarioSpecError(f"{path}.library_fraction", "must be in [0, 1]")
        if spec.abft_overhead < 1.0:
            raise ScenarioSpecError(f"{path}.abft_overhead", "phi must be >= 1")
        return spec


@dataclass(frozen=True)
class WorkloadSpec:
    """The protected application: total duration, alpha, epoch structure."""

    total_time: float
    alpha: float = 0.8
    epochs: int = 1

    def workload(
        self, alpha: Optional[float] = None, *, library_fraction: float = 0.8
    ) -> ApplicationWorkload:
        """Materialise the :class:`ApplicationWorkload` at one alpha."""
        alpha_value = self.alpha if alpha is None else float(alpha)
        if self.epochs == 1:
            return ApplicationWorkload.single_epoch(
                self.total_time, alpha_value, library_fraction=library_fraction
            )
        return ApplicationWorkload.iterative(
            self.epochs,
            self.total_time / self.epochs,
            alpha_value,
            library_fraction=library_fraction,
        )

    @classmethod
    def _from_dict(cls, data: Mapping[str, Any], path: str) -> "WorkloadSpec":
        schema = SCENARIO_SCHEMA["workload"]
        _check_keys(data, tuple(schema), [f for f, (_, r) in schema.items() if r], path)
        total_time = _number(data["total_time"], f"{path}.total_time")
        if total_time <= 0:
            raise ScenarioSpecError(f"{path}.total_time", "must be > 0")
        alpha = _number(data.get("alpha", 0.8), f"{path}.alpha")
        if not 0.0 <= alpha <= 1.0:
            raise ScenarioSpecError(f"{path}.alpha", "must be in [0, 1]")
        epochs = data.get("epochs", 1)
        if isinstance(epochs, bool) or not isinstance(epochs, int) or epochs <= 0:
            raise ScenarioSpecError(
                f"{path}.epochs", f"expected a positive integer, got {epochs!r}"
            )
        return cls(total_time=total_time, alpha=alpha, epochs=epochs)


@dataclass(frozen=True)
class StorageSpec:
    """The checkpoint-storage stack: a registered medium plus its binding.

    ``kind`` names a medium registered with
    :func:`repro.core.registry.register_storage`; ``params`` are its
    constructor parameters (nested media appear as ``{"kind": ...,
    "params": {...}}`` sub-objects and are built recursively).  Stored as a
    sorted tuple of ``(key, value)`` pairs like :class:`FailureSpec` so the
    spec stays frozen and comparable.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()
    data_bytes: float = 0.0
    node_count: int = 1

    @property
    def params_dict(self) -> Dict[str, Any]:
        """Constructor parameters as a plain dict (nested trees restored)."""
        return {key: _thaw(value) for key, value in self.params}

    def tree(self) -> Dict[str, Any]:
        """The plain ``{"kind", "params"}`` tree :func:`build_storage` eats."""
        return {"kind": self.kind, "params": self.params_dict}

    def build(self):
        """Instantiate the (possibly nested) storage medium."""
        return build_storage(self.tree(), path="storage")

    def stack(self) -> StorageStack:
        """The medium bound to this spec's data volume and node count."""
        return StorageStack(self.build(), self.data_bytes, self.node_count)

    @classmethod
    def _from_dict(cls, data: Mapping[str, Any], path: str) -> "StorageSpec":
        schema = SCENARIO_SCHEMA["storage"]
        _check_keys(data, tuple(schema), [f for f, (_, r) in schema.items() if r], path)
        kind = data["kind"]
        if not isinstance(kind, str) or not kind:
            raise ScenarioSpecError(
                f"{path}.kind", f"expected a storage kind string, got {kind!r}"
            )
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ScenarioSpecError(
                f"{path}.params", f"expected an object, got {type(params).__name__}"
            )
        data_bytes = _number(data.get("data_bytes", 0.0), f"{path}.data_bytes")
        if data_bytes < 0:
            raise ScenarioSpecError(f"{path}.data_bytes", "must be >= 0")
        node_count = data.get("node_count", 1)
        if (
            isinstance(node_count, bool)
            or not isinstance(node_count, int)
            or node_count <= 0
        ):
            raise ScenarioSpecError(
                f"{path}.node_count",
                f"expected a positive integer, got {node_count!r}",
            )
        return cls(
            kind=kind,
            params=_freeze(params, f"{path}.params"),
            data_bytes=data_bytes,
            node_count=node_count,
        )


def _wrap_storage_error(exc: Exception) -> ScenarioSpecError:
    """Turn a :func:`build_storage` error into a path-bearing spec error.

    ``build_storage`` already prefixes its messages with the dotted path of
    the offending field (``storage.params.local.kind: ...``); split that
    prefix back out so :class:`ScenarioSpecError` reports ``section.field``
    like every other section.
    """
    message = str(exc)
    prefix, separator, problem = message.partition(": ")
    if separator and prefix.startswith("storage") and " " not in prefix:
        return ScenarioSpecError(prefix, problem)
    return ScenarioSpecError("storage", message)


@dataclass(frozen=True)
class FailureSpec:
    """The failure law: a registered model name plus its parameters.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so the
    spec stays frozen and comparable; :attr:`params_dict` gives it back as a
    dict.
    """

    model: str = "exponential"
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def params_dict(self) -> Dict[str, Any]:
        """Model parameters as a plain dict (lists restored from tuples)."""
        return {key: _thaw(value) for key, value in self.params}

    @property
    def is_exponential(self) -> bool:
        """Whether the law is the paper's memoryless model."""
        return resolve_failure_model(self.model).name == "exponential"

    def create(self, mtbf: Optional[float] = None):
        """Instantiate the registered failure model for a target MTBF."""
        return create_failure_model(self.model, mtbf, **self.params_dict)

    @classmethod
    def _from_dict(cls, data: Mapping[str, Any], path: str) -> "FailureSpec":
        schema = SCENARIO_SCHEMA["failures"]
        _check_keys(data, tuple(schema), (), path)
        model = data.get("model", "exponential")
        if not isinstance(model, str):
            raise ScenarioSpecError(f"{path}.model", f"expected a string, got {model!r}")
        resolve_failure_model(model)  # raises UnknownFailureModelError early
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ScenarioSpecError(
                f"{path}.params", f"expected an object, got {type(params).__name__}"
            )
        return cls(model=model, params=_freeze(params, f"{path}.params"))


@dataclass(frozen=True)
class SweepSpec:
    """Grid axes; empty axes fall back to the scenario's point values."""

    mtbf_values: Tuple[float, ...] = ()
    alpha_values: Tuple[float, ...] = ()

    @classmethod
    def _from_dict(cls, data: Mapping[str, Any], path: str) -> "SweepSpec":
        schema = SCENARIO_SCHEMA["sweep"]
        _check_keys(data, tuple(schema), (), path)
        axes: Dict[str, Tuple[float, ...]] = {}
        for axis in ("mtbf_values", "alpha_values"):
            values = data.get(axis, ())
            if not isinstance(values, (list, tuple)):
                raise ScenarioSpecError(
                    f"{path}.{axis}", f"expected a list, got {type(values).__name__}"
                )
            axes[axis] = tuple(
                _number(v, f"{path}.{axis}[{i}]") for i, v in enumerate(values)
            )
        return cls(**axes)


@dataclass(frozen=True)
class SimulationSpec:
    """Monte-Carlo campaign settings."""

    validate: bool = False
    runs: int = 200
    seed: int = 2014
    backend: str = "event"

    @classmethod
    def _from_dict(cls, data: Mapping[str, Any], path: str) -> "SimulationSpec":
        schema = SCENARIO_SCHEMA["simulation"]
        _check_keys(data, tuple(schema), (), path)
        validate = data.get("validate", False)
        if not isinstance(validate, bool):
            raise ScenarioSpecError(
                f"{path}.validate", f"expected a boolean, got {validate!r}"
            )
        runs = data.get("runs", 200)
        if isinstance(runs, bool) or not isinstance(runs, int) or runs <= 0:
            raise ScenarioSpecError(
                f"{path}.runs", f"expected a positive integer, got {runs!r}"
            )
        seed = data.get("seed", 2014)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ScenarioSpecError(
                f"{path}.seed", f"expected an integer, got {seed!r}"
            )
        backend = data.get("backend", "event")
        from repro.simulation.vectorized import ENGINE_BACKENDS

        if backend not in ENGINE_BACKENDS:
            raise ScenarioSpecError(
                f"{path}.backend",
                f"expected one of {list(ENGINE_BACKENDS)}, got {backend!r}",
            )
        return cls(validate=validate, runs=runs, seed=seed, backend=backend)


# ---------------------------------------------------------------------- #
# The scenario spec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, declarative experiment description.

    Examples
    --------
    >>> from repro.scenario import Scenario
    >>> spec = (Scenario.paper_figure7()
    ...         .with_failures("weibull", shape=0.7)
    ...         .with_protocols("BiPeriodicCkpt")
    ...         .build())
    >>> spec.failures.model
    'weibull'
    >>> ScenarioSpec.from_dict(spec.to_dict()) == spec
    True
    """

    platform: PlatformSpec
    workload: WorkloadSpec
    name: str = "scenario"
    protocols: Tuple[str, ...] = ("PurePeriodicCkpt", "BiPeriodicCkpt", "ABFT&PeriodicCkpt")
    failures: FailureSpec = field(default_factory=FailureSpec)
    storage: Optional[StorageSpec] = None
    sweep: SweepSpec = field(default_factory=SweepSpec)
    simulation: SimulationSpec = field(default_factory=SimulationSpec)
    #: Per-protocol analytical-model constructor options, stored as a sorted
    #: tuple of ``(canonical protocol name, ((key, value), ...))`` pairs.
    #: This is how a spec expresses modelling choices like the composite
    #: model's ``per_epoch=False`` (the weak-scaling reading).
    model_params: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", tuple(self.protocols))
        if not self.protocols:
            raise ScenarioSpecError("protocols", "must name at least one protocol")
        for name in self.protocols:
            resolve_protocol(name)  # raises UnknownProtocolError with suggestions
        resolve_failure_model(self.failures.model)
        # Probe the failure-model parameters now: a typo'd or missing model
        # parameter should fail at construction with its spec path, not
        # mid-campaign with a bare TypeError.
        try:
            self.failures.create(1.0)
        except (TypeError, ValueError) as exc:
            raise ScenarioSpecError("failures.params", str(exc)) from exc
        # Same early-failure contract for the storage section: a typo'd
        # storage kind or constructor parameter surfaces now, with its
        # dotted spec path, not when parameters() is first materialised.
        if self.storage is not None:
            try:
                self.storage.stack()
            except ScenarioSpecError:
                raise
            except (TypeError, ValueError) as exc:
                raise _wrap_storage_error(exc) from exc
        elif self.platform.checkpoint is None:
            raise ScenarioSpecError(
                "platform.checkpoint",
                "required unless a 'storage' section is given",
            )
        # Engine-backend compatibility is a spec-validity question: a
        # vectorized-only spec naming a protocol or failure law without
        # vectorized support should fail at load/validate time with the
        # offending path, not mid-campaign.  The rule and its wording are
        # the campaign runner's own (vectorized_backend_obstacle).
        from repro.simulation.vectorized import (
            ENGINE_BACKENDS,
            vectorized_backend_obstacle,
        )

        backend = self.simulation.backend
        if backend not in ENGINE_BACKENDS:
            raise ScenarioSpecError(
                "simulation.backend",
                f"expected one of {list(ENGINE_BACKENDS)}, got {backend!r}",
            )
        if backend == "vectorized":
            law = resolve_failure_model(self.failures.model)
            for name in self.canonical_protocols:
                obstacle = vectorized_backend_obstacle(name, law.name, law.cls)
                if obstacle is not None:
                    raise ScenarioSpecError(
                        "simulation.backend", f"{obstacle}; use 'event' or 'auto'"
                    )
        # Canonicalize the model-option keys and keep them sorted so specs
        # built from aliases compare (and serialize) identically.
        canonical_options = tuple(
            sorted(
                (resolve_protocol(protocol).name, tuple(options))
                for protocol, options in self.model_params
            )
        )
        object.__setattr__(self, "model_params", canonical_options)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def canonical_protocols(self) -> Tuple[str, ...]:
        """Protocol names resolved to their canonical (paper) spelling."""
        return tuple(resolve_protocol(name).name for name in self.protocols)

    @property
    def mtbf_axis(self) -> Tuple[float, ...]:
        """The MTBF sweep axis (the platform MTBF when no sweep is set)."""
        return self.sweep.mtbf_values or (self.platform.mtbf,)

    @property
    def alpha_axis(self) -> Tuple[float, ...]:
        """The alpha sweep axis (the workload alpha when no sweep is set)."""
        return self.sweep.alpha_values or (self.workload.alpha,)

    def parameters(self, mtbf: Optional[float] = None) -> ResilienceParameters:
        """Parameter bundle, optionally at a swept MTBF.

        With a ``storage`` section the bundle carries the built
        :class:`~repro.checkpointing.stack.StorageStack` and its lowered
        ``(C, R)``; every consumer downstream (sweeps, optimizer, service)
        picks the storage axis up from here.
        """
        stack = self.storage.stack() if self.storage is not None else None
        return self.platform.parameters(mtbf, storage=stack)

    def application_workload(
        self, alpha: Optional[float] = None
    ) -> ApplicationWorkload:
        """Workload, optionally at a swept alpha."""
        return self.workload.workload(
            alpha, library_fraction=self.platform.library_fraction
        )

    def failure_model(self, mtbf: Optional[float] = None):
        """The failure model instance at one platform MTBF."""
        return self.failures.create(self.platform.mtbf if mtbf is None else mtbf)

    def model_kwargs_for(self, protocol: str) -> Dict[str, Any]:
        """Analytical-model constructor options for one protocol."""
        canonical = resolve_protocol(protocol).name
        for name, options in self.model_params:
            if name == canonical:
                return {key: _thaw(value) for key, value in options}
        return {}

    def resolve(
        self,
        protocol: Optional[str] = None,
        *,
        mtbf: Optional[float] = None,
        alpha: Optional[float] = None,
        model_kwargs: Optional[Mapping[str, Any]] = None,
        simulator_kwargs: Optional[Mapping[str, Any]] = None,
    ) -> ResolvedProtocol:
        """Bind one protocol of the scenario to concrete instances.

        Returns the ``(analytical model, simulator, failure model)`` triple
        of :func:`repro.core.registry.resolve`, evaluated at the scenario's
        (or the given) MTBF and alpha.
        """
        name = protocol if protocol is not None else self.protocols[0]
        merged_model_kwargs = {
            **self.model_kwargs_for(name),
            **dict(model_kwargs or {}),
        }
        return resolve(
            name,
            self.parameters(mtbf),
            self.application_workload(alpha),
            failure_model=self.failures.model,
            failure_params=self.failures.params_dict,
            model_kwargs=merged_model_kwargs,
            simulator_kwargs=simulator_kwargs,
        )

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data (JSON-compatible) form; inverse of :meth:`from_dict`."""
        platform: Dict[str, Any] = {
            "mtbf": self.platform.mtbf,
            "downtime": self.platform.downtime,
            "library_fraction": self.platform.library_fraction,
            "abft_overhead": self.platform.abft_overhead,
            "abft_reconstruction": self.platform.abft_reconstruction,
        }
        if self.platform.checkpoint is not None:
            platform["checkpoint"] = self.platform.checkpoint
        if self.platform.recovery is not None:
            platform["recovery"] = self.platform.recovery
        if self.platform.remainder_recovery is not None:
            platform["remainder_recovery"] = self.platform.remainder_recovery
        data: Dict[str, Any] = {
            "version": SCENARIO_SPEC_VERSION,
            "name": self.name,
            "protocols": list(self.protocols),
            "platform": platform,
            "workload": {
                "total_time": self.workload.total_time,
                "alpha": self.workload.alpha,
                "epochs": self.workload.epochs,
            },
            "failures": {
                "model": self.failures.model,
                "params": self.failures.params_dict,
            },
            "simulation": {
                "validate": self.simulation.validate,
                "runs": self.simulation.runs,
                "seed": self.simulation.seed,
                "backend": self.simulation.backend,
            },
        }
        if self.storage is not None:
            storage: Dict[str, Any] = {"kind": self.storage.kind}
            if self.storage.params:
                storage["params"] = self.storage.params_dict
            if self.storage.data_bytes:
                storage["data_bytes"] = self.storage.data_bytes
            if self.storage.node_count != 1:
                storage["node_count"] = self.storage.node_count
            data["storage"] = storage
        sweep: Dict[str, Any] = {}
        if self.sweep.mtbf_values:
            sweep["mtbf_values"] = list(self.sweep.mtbf_values)
        if self.sweep.alpha_values:
            sweep["alpha_values"] = list(self.sweep.alpha_values)
        if sweep:
            data["sweep"] = sweep
        if self.model_params:
            data["model_params"] = {
                name: {key: _thaw(value) for key, value in options}
                for name, options in self.model_params
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build (and validate) a spec from plain data.

        Raises :class:`ScenarioSpecError` naming the exact offending path on
        any schema violation, and the registry's unknown-name errors (with
        nearest-match suggestions) for unregistered protocols or failure
        models.
        """
        schema = SCENARIO_SCHEMA[""]
        _check_keys(data, tuple(schema), [f for f, (_, r) in schema.items() if r], "")
        # Forward-migration shim: files without a version field are the
        # pre-storage v1 layout, whose every field is still valid; anything
        # newer than this build cannot be trusted to parse.
        version = data.get("version", 1)
        if isinstance(version, bool) or not isinstance(version, int) or version < 1:
            raise ScenarioSpecError(
                "version", f"expected a positive integer, got {version!r}"
            )
        if version > SCENARIO_SPEC_VERSION:
            raise ScenarioSpecError(
                "version",
                f"document version {version} is newer than the supported "
                f"version {SCENARIO_SPEC_VERSION}; upgrade repro to read it",
            )
        name = data.get("name", "scenario")
        if not isinstance(name, str):
            raise ScenarioSpecError("name", f"expected a string, got {name!r}")
        protocols = data.get(
            "protocols", ["PurePeriodicCkpt", "BiPeriodicCkpt", "ABFT&PeriodicCkpt"]
        )
        if not isinstance(protocols, (list, tuple)) or not all(
            isinstance(p, str) for p in protocols
        ):
            raise ScenarioSpecError(
                "protocols", f"expected a list of strings, got {protocols!r}"
            )
        model_params = data.get("model_params", {})
        if not isinstance(model_params, Mapping):
            raise ScenarioSpecError(
                "model_params",
                f"expected an object, got {type(model_params).__name__}",
            )
        frozen_options = []
        for protocol, options in model_params.items():
            if not isinstance(options, Mapping):
                raise ScenarioSpecError(
                    f"model_params.{protocol}",
                    f"expected an object, got {type(options).__name__}",
                )
            frozen_options.append(
                (protocol, _freeze(options, f"model_params.{protocol}"))
            )
        storage = None
        if data.get("storage") is not None:
            storage = StorageSpec._from_dict(data["storage"], "storage")
        return cls(
            name=name,
            protocols=tuple(protocols),
            platform=PlatformSpec._from_dict(data["platform"], "platform"),
            workload=WorkloadSpec._from_dict(data["workload"], "workload"),
            failures=FailureSpec._from_dict(data.get("failures", {}), "failures"),
            storage=storage,
            sweep=SweepSpec._from_dict(data.get("sweep", {}), "sweep"),
            simulation=SimulationSpec._from_dict(
                data.get("simulation", {}), "simulation"
            ),
            model_params=tuple(frozen_options),
        )

    def to_json(self, *, indent: int = 2) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def content_hash(self) -> str:
        """SHA-256 content address of the spec (canonical sorted-key JSON).

        Delegates to :func:`repro.campaign.cache.canonical_digest` -- the
        digest behind :class:`~repro.campaign.cache.SweepCache` point keys --
        applied to :meth:`to_dict`, so two logically equal specs share one
        hash regardless of field order, construction path or process: this
        is the key the advisor service's content-addressed answer cache and
        the on-disk sweep caches agree on.  The hash is pinned by a test;
        changing :meth:`to_dict`'s layout invalidates existing caches.

        The ``version`` field is stripped before digesting: it describes
        the file format, not the experiment, so a v1 file and its v2
        re-serialization stay one cache entry.
        """
        from repro.campaign.cache import canonical_digest

        data = self.to_dict()
        data.pop("version", None)
        return canonical_digest(data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse and validate a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioSpecError("", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: "str | Path") -> Path:
        """Write the spec to a JSON file; returns the path."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: "str | Path") -> "ScenarioSpec":
        """Read and validate a spec from a JSON file."""
        source = Path(path)
        if not source.exists():
            raise ScenarioSpecError("", f"scenario file not found: {source}")
        return cls.from_json(source.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-paragraph human summary (used by ``scenario run``)."""
        grid = f"{len(self.mtbf_axis)} MTBF x {len(self.alpha_axis)} alpha"
        failures = self.failures.model
        if self.failures.params:
            args = ", ".join(f"{k}={v!r}" for k, v in self.failures.params)
            failures += f"({args})"
        sim = (
            f"validated with {self.simulation.runs} runs (seed {self.simulation.seed})"
            if self.simulation.validate
            else "model only"
        )
        storage = ""
        if self.storage is not None:
            storage = f"; checkpoints on {self.storage.stack().describe()}"
        return (
            f"scenario {self.name!r}: {', '.join(self.canonical_protocols)} under "
            f"{failures} failures; grid {grid}; {sim}{storage}"
        )
