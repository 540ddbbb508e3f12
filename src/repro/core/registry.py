"""Extensible protocol / failure-model registry behind the Scenario API.

Several layers need the same mapping from a paper name to an implementation
-- the validation harness (Figures 7b/7d/7f), the campaign sweep runner, the
scenario runner, reports and the CLI.  This module keeps those mappings in
one place and makes them *extensible*: implementations register themselves
with the :func:`register_protocol` / :func:`register_failure_model` class
decorators, so adding a protocol or a failure law is a single edit next to
the class that implements it, and every layer immediately sees it.

Lookups accept canonical names and aliases, case-insensitively.  Unknown
names raise :class:`UnknownProtocolError` / :class:`UnknownFailureModelError`
(both are also ``KeyError`` *and* ``ValueError`` subclasses, for
compatibility with the pre-registry call sites) whose message lists the
registered names and the nearest match.

The historical ``PROTOCOL_PAIRS`` dict survives as a live, read-only mapping
view over the registry restricted to the paper's three protocols, so code
written against it keeps working unchanged; new code should prefer
:func:`resolve_protocol` / :func:`resolve`.
"""

from __future__ import annotations

import difflib
import functools
import inspect
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)

__all__ = [
    "UnknownProtocolError",
    "UnknownFailureModelError",
    "UnknownStorageError",
    "ProtocolEntry",
    "FailureModelEntry",
    "StorageEntry",
    "register_protocol",
    "register_failure_model",
    "register_storage",
    "protocol_names",
    "vectorized_protocol_names",
    "failure_model_names",
    "vectorized_law_names",
    "vectorized_law_classes",
    "storage_names",
    "registry_catalog",
    "resolve_protocol",
    "resolve_failure_model",
    "resolve_storage",
    "create_failure_model",
    "build_storage",
    "resolve",
    "ResolvedProtocol",
    "PROTOCOL_PAIRS",
    "PROTOCOL_NAMES",
]

T = TypeVar("T", bound=type)


# ---------------------------------------------------------------------- #
# Errors
# ---------------------------------------------------------------------- #
def _unknown_message(kind: str, name: object, known: Tuple[str, ...]) -> str:
    message = f"unknown {kind} {name!r}; registered: {sorted(known)}"
    if isinstance(name, str) and known:
        close = difflib.get_close_matches(name, known, n=1, cutoff=0.4)
        if close:
            message += f" -- did you mean {close[0]!r}?"
    return message


class UnknownProtocolError(KeyError, ValueError):
    """An unregistered protocol name was looked up.

    Subclasses both ``KeyError`` (the ``PROTOCOL_PAIRS[name]`` contract) and
    ``ValueError`` (the pre-registry validation contract) so every historical
    ``except`` clause keeps catching it.  The message lists the registered
    names and suggests the nearest match.
    """

    def __init__(
        self,
        name: object,
        known: Tuple[str, ...] = (),
        *,
        message: Optional[str] = None,
    ) -> None:
        super().__init__(message or _unknown_message("protocol", name, known))
        self.name = name
        self.known = known

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class UnknownFailureModelError(KeyError, ValueError):
    """An unregistered failure-model name was looked up."""

    def __init__(self, name: object, known: Tuple[str, ...] = ()) -> None:
        super().__init__(_unknown_message("failure model", name, known))
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return self.args[0]


class UnknownStorageError(KeyError, ValueError):
    """An unregistered checkpoint-storage name was looked up."""

    def __init__(self, name: object, known: Tuple[str, ...] = ()) -> None:
        super().__init__(_unknown_message("storage", name, known))
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return self.args[0]


# ---------------------------------------------------------------------- #
# Entries
# ---------------------------------------------------------------------- #
@dataclass
class ProtocolEntry:
    """One registered protocol: its analytical model, simulator and schedule.

    A protocol is three registrations under one name: the analytical model
    (``kind="model"``), the event simulator (``kind="simulator"``) and the
    segment-schedule compiler (``kind="schedule"``).  The across-trials
    engine is not registered separately -- :attr:`vectorized_cls` derives it
    from the schedule compiler.  Any part may be missing while registration
    is in flight (the parts live in different modules);
    :func:`protocol_names` only lists entries with a model and a simulator.
    """

    name: str
    aliases: Tuple[str, ...] = ()
    model_cls: Optional[type] = None
    simulator_cls: Optional[type] = None
    #: Optional schedule compiler (``register_protocol(name,
    #: kind="schedule")``): a function ``schedule_fn(parameters, workload,
    #: **knobs) -> Schedule`` producing the segment IR both Monte-Carlo
    #: backends execute (see :mod:`repro.simulation.schedule`).
    schedule_fn: Optional[Callable[..., Any]] = None
    #: Whether the entry belongs to the paper's headline comparison, i.e.
    #: appears in the ``PROTOCOL_PAIRS`` compatibility view (the NoFT
    #: baseline registers with ``paper=False``).
    paper: bool = True
    #: Explicit tunable-period constructor keywords (``register_protocol``'s
    #: ``tunable=`` option).  ``None`` means "introspect the model
    #: constructor"; see :attr:`period_parameters`.
    tunable: Optional[Tuple[str, ...]] = None
    #: Whether the protocol checkpoints at all and therefore supports the
    #: storage axis (every registered storage stack).  The NoFT baseline
    #: registers with ``storage=False``; its catalog entry reports an empty
    #: ``storage_stacks`` list.
    storage: bool = True

    @property
    def has_schedule(self) -> bool:
        """Whether a segment-IR schedule compiler is registered.

        Exactly the protocols with a schedule run on the vectorized
        backend (for the laws it supports).
        """
        return self.schedule_fn is not None

    @property
    def vectorized_cls(self) -> Optional[Callable[..., Any]]:
        """The across-trials engine factory, derived from :attr:`schedule_fn`.

        ``None`` when no schedule compiler is registered.  Otherwise a
        callable ``(parameters, workload, *, failure_model=None,
        max_slowdown=1e4, **knobs) -> VectorizedPhasedSimulator``: it
        compiles ``schedule_fn(parameters, workload, **knobs)`` and hands
        the schedule to the phased engine, whose ``run_trials`` /
        ``run_trial_range`` reproduce the event simulator bit for bit.
        ``failure_model=None`` is the exponential law at the platform MTBF;
        a law without vectorized block sampling raises
        :class:`~repro.simulation.vectorized.VectorizedBackendError`.
        """
        if self.schedule_fn is None:
            return None
        return functools.partial(_vectorized_engine, self.name, self.schedule_fn)

    @property
    def period_parameters(self) -> Tuple[str, ...]:
        """Tunable period keywords shared by the model and the simulator.

        These are the knobs :mod:`repro.optimize` searches over.  Unless the
        registration pinned them explicitly (``tunable=``), they are
        discovered from the analytical model's constructor: every
        keyword-only parameter named ``period`` or ``*_period`` counts
        (``period_formula`` does not match and is excluded by construction).
        An empty tuple means the protocol has nothing to optimize -- its
        model is simply evaluated as-is (the NoFT baseline).
        """
        if self.tunable is not None:
            return self.tunable
        if self.model_cls is None:
            return ()
        try:
            signature = inspect.signature(self.model_cls.__init__)
        except (TypeError, ValueError):  # pragma: no cover - C extensions
            return ()
        return tuple(
            parameter.name
            for parameter in signature.parameters.values()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
            and (
                parameter.name == "period" or parameter.name.endswith("_period")
            )
        )

    @property
    def pair(self) -> Tuple[type, type]:
        """The historical ``(model class, simulator class)`` pair."""
        if self.model_cls is None or self.simulator_cls is None:
            raise UnknownProtocolError(self.name, protocol_names())
        return (self.model_cls, self.simulator_cls)


@dataclass
class FailureModelEntry:
    """One registered failure model class plus its spec-level factory."""

    name: str
    cls: type
    aliases: Tuple[str, ...] = ()
    #: Builds an instance from spec-level data: ``factory(cls, mtbf, **params)``.
    factory: Optional[Callable[..., Any]] = None
    #: Whether the across-trials engine can draw this law's inter-arrival
    #: blocks (``register_failure_model(vectorized=True)``): either the
    #: model is stateless and its ``sample_interarrivals`` is a pure
    #: function of the generator, or it provides a batched
    #: ``trial_block_sampler`` with per-trial state (trace replay keeps one
    #: rewindable cursor per trial) -- either way the vectorized backend
    #: reproduces the event stream bit for bit.  The flag applies to
    #: *exact* instances of :attr:`cls` only -- subclasses may override the
    #: sampling and always fall back to the event backend.
    vectorized: bool = False

    def create(self, mtbf: Optional[float] = None, **params: Any) -> Any:
        """Instantiate the model for a target MTBF and model parameters."""
        if self.factory is not None:
            return self.factory(self.cls, mtbf, **params)
        if mtbf is None:
            raise ValueError(
                f"failure model {self.name!r} requires an 'mtbf' value"
            )
        return self.cls(mtbf, **params)


@dataclass
class StorageEntry:
    """One registered checkpoint-storage medium.

    ``analytical`` records whether the medium's scalar lowering is *exact*
    for the paper's waste model -- flat media and deterministic composites
    lower to the very ``(C, R)`` a flat run would use, while risk-weighted
    media (buddy checkpointing with a fallback level) lower to an
    expectation that the closed forms only approximate, so Monte-Carlo
    refinement is advised.  ``nested`` names the constructor parameters
    that are themselves storage media; :func:`build_storage` recurses into
    them when building a stack from spec data.
    """

    name: str
    cls: type
    aliases: Tuple[str, ...] = ()
    analytical: bool = True
    nested: Tuple[str, ...] = ()


_PROTOCOLS: Dict[str, ProtocolEntry] = {}
_PROTOCOL_LOOKUP: Dict[str, str] = {}  # casefolded name/alias -> canonical
_FAILURE_MODELS: Dict[str, FailureModelEntry] = {}
_FAILURE_LOOKUP: Dict[str, str] = {}
_STORAGES: Dict[str, StorageEntry] = {}
_STORAGE_LOOKUP: Dict[str, str] = {}

_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the modules that register the built-in implementations.

    The concrete classes register themselves at import time; importing their
    packages here (lazily, on first lookup) keeps this module free of import
    cycles while guaranteeing the registry is populated before use.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import repro.checkpointing  # noqa: F401  (registers the storage media)
    import repro.core.analytical  # noqa: F401  (registers the models)
    import repro.core.protocols  # noqa: F401  (registers the simulators)
    import repro.failures  # noqa: F401  (registers the failure models)


def _register_lookup(
    lookup: Dict[str, str], canonical: str, aliases: Tuple[str, ...], kind: str
) -> None:
    for key in (canonical, *aliases):
        folded = key.casefold()
        owner = lookup.get(folded)
        if owner is not None and owner != canonical:
            raise ValueError(
                f"{kind} name {key!r} is already registered for {owner!r}"
            )
        lookup[folded] = canonical


# ---------------------------------------------------------------------- #
# Registration decorators
# ---------------------------------------------------------------------- #
def register_protocol(
    name: str,
    *,
    kind: str,
    aliases: Tuple[str, ...] = (),
    paper: bool = True,
    tunable: Optional[Tuple[str, ...]] = None,
    storage: bool = True,
) -> Callable[[T], T]:
    """Decorator registering one part of a protocol.

    A protocol is its model, its simulator and its schedule compiler,
    registered under one name.  Nothing else is needed for every backend:
    the vectorized engine is derived from the schedule compiler (see
    :attr:`ProtocolEntry.vectorized_cls`).

    Parameters
    ----------
    name:
        Canonical protocol name (the paper's spelling).  The parts of one
        protocol register under the same name and are paired by it.
    kind:
        ``"model"`` for :class:`~repro.core.analytical.base.AnalyticalModel`
        subclasses, ``"simulator"`` for
        :class:`~repro.core.protocols.base.ProtocolSimulator` subclasses,
        ``"schedule"`` for segment-IR compiler functions ``(parameters,
        workload, **knobs) ->`` :class:`~repro.simulation.schedule.Schedule`.
    aliases:
        Alternative lookup names (case-insensitive, shared by all parts).
    paper:
        Whether the protocol belongs to the paper's headline comparison and
        therefore appears in the ``PROTOCOL_PAIRS`` compatibility view.
    tunable:
        Constructor keywords :mod:`repro.optimize` may search over.  Omitted
        (the common case), they are introspected from the model constructor
        -- any keyword-only ``period`` / ``*_period`` parameter -- so a newly
        registered protocol is optimizable without further wiring; pass an
        explicit tuple (possibly empty) to override the discovery.
    storage:
        Whether the protocol writes checkpoints and therefore supports the
        storage axis (default ``True``; the NoFT baseline passes ``False``).

    Examples
    --------
    >>> @register_protocol("MyCkpt", kind="model", aliases=("mine",))
    ... class MyCkptModel:  # doctest: +SKIP
    ...     ...
    """
    if kind not in ("model", "simulator", "schedule"):
        raise ValueError(
            f"kind must be 'model', 'simulator' or 'schedule', got {kind!r}"
        )

    def decorator(cls: T) -> T:
        entry = _PROTOCOLS.get(name)
        if entry is None:
            entry = ProtocolEntry(name=name, aliases=tuple(aliases), paper=paper)
            _PROTOCOLS[name] = entry
        else:
            entry.aliases = tuple(dict.fromkeys((*entry.aliases, *aliases)))
            entry.paper = entry.paper and paper
        entry.storage = entry.storage and storage
        if tunable is not None:
            entry.tunable = tuple(tunable)
        if kind == "model":
            entry.model_cls = cls
        elif kind == "simulator":
            entry.simulator_cls = cls
        else:
            entry.schedule_fn = cls
        _register_lookup(_PROTOCOL_LOOKUP, name, entry.aliases, "protocol")
        return cls

    return decorator


def register_failure_model(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    factory: Optional[Callable[..., Any]] = None,
    vectorized: bool = False,
) -> Callable[[T], T]:
    """Class decorator registering a failure model under a spec-level name.

    ``factory(cls, mtbf, **params)`` customises construction from scenario
    data; the default calls ``cls(mtbf, **params)``.  ``vectorized`` marks
    the law as batchable by the across-trials engine (see
    :attr:`FailureModelEntry.vectorized`); every backend-selection layer and
    diagnostic derives its supported-law list from this flag.
    """

    def decorator(cls: T) -> T:
        entry = FailureModelEntry(
            name=name,
            cls=cls,
            aliases=tuple(aliases),
            factory=factory,
            vectorized=bool(vectorized),
        )
        _FAILURE_MODELS[name] = entry
        _register_lookup(_FAILURE_LOOKUP, name, entry.aliases, "failure model")
        return cls

    return decorator


def register_storage(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    analytical: bool = True,
    nested: Tuple[str, ...] = (),
) -> Callable[[T], T]:
    """Class decorator registering a checkpoint-storage medium.

    Parameters
    ----------
    name:
        Canonical storage name used in scenario specs and on the CLI.
    aliases:
        Alternative lookup names (case-insensitive).
    analytical:
        Whether the medium's scalar lowering is exact for the closed-form
        waste models (``False`` for risk-weighted approximations such as
        buddy checkpointing with a fallback level -- Monte-Carlo refinement
        is advised there).
    nested:
        Constructor parameter names whose values are themselves storage
        media; :func:`build_storage` recurses into them, so composites
        (multi-level, incremental, buddy-with-fallback) are expressible as
        nested ``{"kind": ..., "params": {...}}`` trees in scenario JSON.
    """

    def decorator(cls: T) -> T:
        entry = StorageEntry(
            name=name,
            cls=cls,
            aliases=tuple(aliases),
            analytical=bool(analytical),
            nested=tuple(nested),
        )
        _STORAGES[name] = entry
        _register_lookup(_STORAGE_LOOKUP, name, entry.aliases, "storage")
        return cls

    return decorator


# ---------------------------------------------------------------------- #
# Lookup
# ---------------------------------------------------------------------- #
def protocol_names(*, paper_only: bool = False) -> Tuple[str, ...]:
    """Canonical protocol names, in registration (paper) order."""
    _ensure_builtins()
    return tuple(
        entry.name
        for entry in _PROTOCOLS.values()
        if entry.model_cls is not None
        and entry.simulator_cls is not None
        and (entry.paper or not paper_only)
    )


def vectorized_protocol_names() -> Tuple[str, ...]:
    """Canonical names of protocols the vectorized engine can run.

    These are the protocols with a registered schedule compiler.
    """
    _ensure_builtins()
    return tuple(entry.name for entry in _PROTOCOLS.values() if entry.has_schedule)


def failure_model_names() -> Tuple[str, ...]:
    """Canonical failure-model names, in registration order."""
    _ensure_builtins()
    return tuple(_FAILURE_MODELS)


def storage_names() -> Tuple[str, ...]:
    """Canonical storage-medium names, in registration order."""
    _ensure_builtins()
    return tuple(_STORAGES)


def resolve_storage(name: str) -> StorageEntry:
    """Look a storage medium up by canonical name or alias."""
    _ensure_builtins()
    canonical = _STORAGE_LOOKUP.get(str(name).casefold())
    if canonical is None:
        raise UnknownStorageError(name, storage_names())
    return _STORAGES[canonical]


def build_storage(data: Any, *, path: str = "storage") -> Any:
    """Build a (possibly nested) storage medium from plain spec data.

    ``data`` is a ``{"kind": <name>, "params": {...}}`` mapping; parameters
    a medium registered as ``nested`` are themselves such mappings and are
    built recursively, so a whole hierarchy (node-local NVRAM under a
    multi-level stack under incremental checkpointing) round-trips through
    scenario JSON.  Errors are ``ValueError`` with messages prefixed by the
    dotted ``path`` of the offending field, ready to be wrapped in a
    :class:`~repro.scenario.spec.ScenarioSpecError`.
    """
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{path}: expected a mapping with a 'kind' key, "
            f"got {type(data).__name__}"
        )
    unknown = set(data) - {"kind", "params"}
    if unknown:
        raise ValueError(
            f"{path}: unknown keys {sorted(unknown)}; allowed: ['kind', 'params']"
        )
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ValueError(f"{path}.kind: expected a storage kind string")
    try:
        entry = resolve_storage(kind)
    except UnknownStorageError as exc:
        raise ValueError(f"{path}.kind: {exc}") from exc
    params = data.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(
            f"{path}.params: expected a mapping, got {type(params).__name__}"
        )
    kwargs: Dict[str, Any] = {}
    for key, value in params.items():
        if key in entry.nested and value is not None:
            kwargs[str(key)] = build_storage(value, path=f"{path}.params.{key}")
        else:
            kwargs[str(key)] = value
    try:
        return entry.cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}.params: {exc}") from exc


def vectorized_law_names() -> Tuple[str, ...]:
    """Canonical names of failure laws the vectorized engine can sample.

    Derived from the ``register_failure_model(vectorized=True)`` flag, so
    backend diagnostics and ``scenario list`` guidance stay truthful as the
    engine's law coverage widens.
    """
    _ensure_builtins()
    return tuple(
        entry.name for entry in _FAILURE_MODELS.values() if entry.vectorized
    )


def registry_catalog() -> Dict[str, Any]:
    """JSON-compatible snapshot of everything the registry can resolve.

    One serializer, two consumers: ``scenario list --json`` prints it and
    the advisor service's ``GET /protocols`` endpoint returns it, so
    machine-readable discovery is identical on the CLI and over HTTP.  The
    layout is deliberately plain data (sorted, no classes): protocol entries
    carry their aliases, engine backends and tunable period keywords;
    failure-model entries their aliases and vectorized flag.
    """
    _ensure_builtins()
    from repro.simulation.vectorized import ENGINE_BACKENDS

    all_storages = list(storage_names())
    protocols = []
    for name in protocol_names():
        entry = resolve_protocol(name)
        protocols.append(
            {
                "name": entry.name,
                "aliases": list(entry.aliases),
                "paper": bool(entry.paper),
                "backends": (
                    ["event", "vectorized"] if entry.has_schedule else ["event"]
                ),
                "has_schedule": entry.has_schedule,
                "period_parameters": list(entry.period_parameters),
                # Storage stacks the protocol accepts: any registered medium
                # for checkpointing protocols, nothing for NoFT.
                "storage_stacks": list(all_storages) if entry.storage else [],
            }
        )
    failure_models = []
    for name in failure_model_names():
        entry = resolve_failure_model(name)
        failure_models.append(
            {
                "name": entry.name,
                "aliases": list(entry.aliases),
                "backends": (
                    ["event", "vectorized"] if entry.vectorized else ["event"]
                ),
            }
        )
    storages = []
    for name in storage_names():
        entry = resolve_storage(name)
        storages.append(
            {
                "name": entry.name,
                "aliases": list(entry.aliases),
                "analytical": bool(entry.analytical),
                "nested": list(entry.nested),
            }
        )
    return {
        "protocols": protocols,
        "failure_models": failure_models,
        "storages": storages,
        "engine_backends": list(ENGINE_BACKENDS),
        "vectorized_protocols": list(vectorized_protocol_names()),
        "vectorized_laws": list(vectorized_law_names()),
    }


def vectorized_law_classes() -> Tuple[type, ...]:
    """Model classes behind :func:`vectorized_law_names` (exact types).

    The across-trials engine only trusts *exact* instances of these classes:
    a subclass may override the sampling, which the engine could not honour,
    so it falls back to the event backend.
    """
    _ensure_builtins()
    return tuple(
        entry.cls for entry in _FAILURE_MODELS.values() if entry.vectorized
    )


def resolve_protocol(name: str) -> ProtocolEntry:
    """Look a protocol up by canonical name or alias (case-insensitive)."""
    _ensure_builtins()
    canonical = _PROTOCOL_LOOKUP.get(str(name).casefold())
    if canonical is None:
        raise UnknownProtocolError(name, protocol_names())
    return _PROTOCOLS[canonical]


def resolve_failure_model(name: str) -> FailureModelEntry:
    """Look a failure model up by canonical name or alias."""
    _ensure_builtins()
    canonical = _FAILURE_LOOKUP.get(str(name).casefold())
    if canonical is None:
        raise UnknownFailureModelError(name, failure_model_names())
    return _FAILURE_MODELS[canonical]


def create_failure_model(
    name: str, mtbf: Optional[float] = None, **params: Any
) -> Any:
    """Instantiate a registered failure model for a target MTBF."""
    return resolve_failure_model(name).create(mtbf, **params)


def _vectorized_engine(
    protocol: str,
    schedule_fn: Callable[..., Any],
    parameters: Any,
    workload: Any,
    *,
    failure_model: Any = None,
    max_slowdown: float = 1e4,
    **knobs: Any,
) -> Any:
    """Build the across-trials engine of a protocol (see ``vectorized_cls``)."""
    from repro.simulation.vectorized import (
        VectorizedPhasedSimulator,
        vectorized_failure_model_or_raise,
    )

    total = workload.total_time
    return VectorizedPhasedSimulator(
        protocol=protocol,
        application_time=total,
        segments=schedule_fn(parameters, workload, **knobs),
        failure_model=vectorized_failure_model_or_raise(
            failure_model, parameters.platform_mtbf, protocol=protocol
        ),
        max_makespan=float(max_slowdown) * total,
    )


class ResolvedProtocol(NamedTuple):
    """A protocol bound to concrete parameters: the tentpole triple."""

    model: Any
    simulator: Any
    failure_model: Any


def resolve(
    protocol: str,
    parameters: Any,
    workload: Any,
    *,
    failure_model: str = "exponential",
    failure_params: Optional[Mapping[str, Any]] = None,
    model_kwargs: Optional[Mapping[str, Any]] = None,
    simulator_kwargs: Optional[Mapping[str, Any]] = None,
) -> ResolvedProtocol:
    """Bind a protocol name to concrete instances.

    Returns the ``(analytical model, simulator, failure model)`` triple:
    the model constructed on ``parameters``, the failure model constructed
    for ``parameters.platform_mtbf`` and the simulator constructed on
    ``parameters``/``workload`` *with that failure model*, so simulated
    campaigns follow whatever failure law the caller selected.
    """
    entry = resolve_protocol(protocol)
    model_cls, simulator_cls = entry.pair
    fm = create_failure_model(
        failure_model, parameters.platform_mtbf, **dict(failure_params or {})
    )
    model = model_cls(parameters, **dict(model_kwargs or {}))
    simulator = simulator_cls(
        parameters, workload, failure_model=fm, **dict(simulator_kwargs or {})
    )
    return ResolvedProtocol(model=model, simulator=simulator, failure_model=fm)


# ---------------------------------------------------------------------- #
# Backwards-compatible PROTOCOL_PAIRS view
# ---------------------------------------------------------------------- #
class _ProtocolPairsView(Mapping):
    """Live, read-only ``name -> (model class, simulator class)`` mapping.

    Deprecated in favour of :func:`resolve_protocol`; kept so that code and
    tests written against the original ``PROTOCOL_PAIRS`` dict keep working.
    Restricted to the paper's headline protocols, in paper order.
    """

    def __getitem__(self, name: str) -> Tuple[type, type]:
        # Exact canonical keys only, like the original dict: alias and
        # case-insensitive lookups belong to resolve_protocol(), and
        # __getitem__ must agree with __iter__/__contains__ (the Mapping
        # invariant).
        if name not in protocol_names(paper_only=True):
            raise UnknownProtocolError(name, protocol_names(paper_only=True))
        return resolve_protocol(name).pair

    def __iter__(self) -> Iterator[str]:
        return iter(protocol_names(paper_only=True))

    def __len__(self) -> int:
        return len(protocol_names(paper_only=True))

    def __contains__(self, name: object) -> bool:
        # Membership mirrors iteration (the paper's protocol set), not the
        # full registry: ``"NoFT" in PROTOCOL_PAIRS`` stays False as it was
        # for the original dict.
        return name in protocol_names(paper_only=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PROTOCOL_PAIRS({', '.join(protocol_names(paper_only=True))})"


#: Deprecated: analytical model and simulator classes per paper protocol
#: name.  A live view over the registry; prefer :func:`resolve_protocol`.
PROTOCOL_PAIRS: Mapping[str, Tuple[type, type]] = _ProtocolPairsView()


def __getattr__(attr: str) -> Any:
    if attr == "PROTOCOL_NAMES":
        # Computed lazily so importing this module never forces the builtin
        # implementation imports.
        return protocol_names(paper_only=True)
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")
