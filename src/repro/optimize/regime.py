"""Protocol regime maps: which strategy wins where, at its optimal period.

The paper's headline result is a *comparison*: NoFT, PurePeriodicCkpt,
BiPeriodicCkpt and ABFT&PeriodicCkpt each dominate a different region of the
platform-parameter space, provided every strategy runs at its own optimal
period (Equation 11).  A :class:`RegimeMap` materialises that comparison as
data: a grid over

* **node count** ``n`` (the platform MTBF is the per-node MTBF divided by
  ``n``, the paper's weak-scaling law),
* **per-node MTBF** ``mu_ind``,
* **checkpoint cost** ``C`` (with ``R = C`` unless overridden) *or* a set of
  named checkpoint-storage stacks (``storage_stacks``), in which case every
  cell lowers its stack into effective ``(C, R)`` for that cell's data
  volume, node count and platform MTBF, and
* **ABFT overhead** ``phi``

where every cell optimizes every registered protocol numerically
(:func:`~repro.optimize.period.optimize_period`), records the per-protocol
optimal periods and minimal wastes, optionally validates the ranking with
Monte-Carlo campaigns (vectorized engine where supported, event
simulators otherwise, either one sharded over
:class:`~repro.campaign.executor.ShardedVectorizedExecutor`), and names the
winning protocol.

Cells are cached one JSON file each
(:class:`~repro.campaign.cache.SweepCache`), so an interrupted map resumes,
and the serialized map (:meth:`RegimeMap.to_json`) is deterministic: same
spec, same seed, same winners -- the CI smoke job asserts exactly that
across a resumed re-run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.application.workload import ApplicationWorkload
from repro.campaign.cache import SweepCache
from repro.campaign.executor import ShardedVectorizedExecutor
from repro.checkpointing.stack import StorageStack
from repro.core.parameters import ResilienceParameters
from repro.core.registry import build_storage, resolve_protocol
from repro.optimize.period import optimize_period
from repro.optimize.refine import simulate_at_periods
from repro.simulation.vectorized import ENGINE_BACKENDS
from repro.utils.tables import Table
from repro.utils.units import MINUTE, YEAR

__all__ = [
    "DEFAULT_REGIME_PROTOCOLS",
    "RegimeMapSpec",
    "RegimeCell",
    "RegimeMap",
    "compute_regime_map",
]

#: Bump when the serialized map layout changes incompatibly.
REGIME_SCHEMA_VERSION = 1

#: The paper's comparison set: the NoFT baseline plus the three strategies.
DEFAULT_REGIME_PROTOCOLS: Tuple[str, ...] = (
    "NoFT",
    "PurePeriodicCkpt",
    "BiPeriodicCkpt",
    "ABFT&PeriodicCkpt",
)

#: Compact winner labels for the ASCII crossover tables.
_SHORT_NAMES = {
    "NoFT": "NoFT",
    "PurePeriodicCkpt": "Pure",
    "BiPeriodicCkpt": "BiCkpt",
    "ABFT&PeriodicCkpt": "ABFT&PC",
}

#: Above this analytical waste a cell is not worth simulating: the protocol
#: makes essentially no progress and every trial would just walk failures
#: until the truncation cap.  The analytical value is recorded instead.
SIMULATION_WASTE_CUTOFF = 0.999


def _short(name: str) -> str:
    return _SHORT_NAMES.get(name, name[:12])


def _freeze_storage_stacks(stacks: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalise the storage axis into hashable ``(label, frozen-tree)`` pairs.

    Accepts a mapping ``label -> tree`` or a sequence of ``(label, tree)``
    pairs (the serialized form); every tree is probed through
    :func:`~repro.core.registry.build_storage` so a misspelt kind or bad
    parameter fails at spec construction, not mid-map.
    """
    from repro.scenario.spec import _freeze, _thaw

    items = stacks.items() if isinstance(stacks, Mapping) else stacks
    frozen: list[Tuple[str, Any]] = []
    seen: set[str] = set()
    for item in items:
        label, tree = item
        label = str(label)
        if label in seen:
            raise ValueError(f"duplicate storage stack label {label!r}")
        seen.add(label)
        path = f"storage_stacks[{label}]"
        normalised = _thaw(_freeze(tree, path))
        build_storage(normalised, path=path)
        frozen.append((label, _freeze(normalised, path)))
    return tuple(frozen)


@dataclass(frozen=True)
class RegimeMapSpec:
    """Declarative description of one regime map.

    Attributes
    ----------
    node_counts / node_mtbf_values / checkpoint_costs / abft_overheads:
        The four grid axes: platform sizes, per-node MTBFs (seconds),
        full-checkpoint costs ``C`` (seconds) and ABFT slowdowns ``phi``.
        The platform MTBF of a cell is ``node_mtbf / nodes``.
    protocols:
        Registered protocol names to compare (aliases accepted); defaults to
        the NoFT baseline plus the paper's three strategies.  Every complete
        registry entry is optimizable, so third-party protocols join the
        comparison by simply being registered.
    application_time / alpha / library_fraction:
        The protected workload: fault-free duration ``T0``, LIBRARY time
        fraction and memory fraction ``rho``.
    downtime / recovery / abft_reconstruction:
        Remaining platform scalars; ``recovery=None`` uses ``R = C``.
    storage_stacks / memory_per_node:
        Optional storage axis.  ``storage_stacks`` names checkpoint-storage
        stacks (label to ``{"kind", "params"}`` tree, as in scenario JSON);
        when non-empty it *replaces* the ``checkpoint_costs`` axis: the
        third cell coordinate becomes the stack label, and each cell lowers
        its stack into effective ``(C, R)`` for ``memory_per_node * nodes``
        bytes across ``nodes`` nodes at that cell's platform MTBF (weak
        scaling: the protected data grows with the machine).  ``recovery``
        is ignored in storage mode -- ``R`` comes from the stack.
    simulate / simulation_runs / seed / backend:
        Validate each cell's ranking with Monte-Carlo campaigns at the
        numerically optimal periods.  ``backend`` follows the engine
        convention (``"auto"`` default).
    max_slowdown:
        Truncation cap of simulated trials.  Deliberately lower than the
        simulators' default: regime maps visit hopeless corners (NoFT at
        huge scale) where trials only end by truncation.
    """

    node_counts: Tuple[int, ...]
    node_mtbf_values: Tuple[float, ...]
    checkpoint_costs: Tuple[float, ...] = (10 * MINUTE,)
    abft_overheads: Tuple[float, ...] = (1.03,)
    protocols: Tuple[str, ...] = DEFAULT_REGIME_PROTOCOLS
    application_time: float = 60.0 * 60.0 * 24.0
    alpha: float = 0.8
    library_fraction: float = 0.8
    downtime: float = 60.0
    recovery: Optional[float] = None
    abft_reconstruction: float = 2.0
    storage_stacks: Tuple[Tuple[str, Any], ...] = ()
    memory_per_node: float = 0.0
    simulate: bool = False
    simulation_runs: int = 100
    seed: int = 2014
    backend: str = "auto"
    max_slowdown: float = 100.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "node_counts", tuple(int(n) for n in self.node_counts)
        )
        object.__setattr__(
            self, "node_mtbf_values", tuple(float(m) for m in self.node_mtbf_values)
        )
        object.__setattr__(
            self, "checkpoint_costs", tuple(float(c) for c in self.checkpoint_costs)
        )
        object.__setattr__(
            self, "abft_overheads", tuple(float(p) for p in self.abft_overheads)
        )
        for axis in (
            "node_counts",
            "node_mtbf_values",
            "checkpoint_costs",
            "abft_overheads",
        ):
            if not getattr(self, axis):
                raise ValueError(f"{axis} must be non-empty")
        if any(n <= 0 for n in self.node_counts):
            raise ValueError("node_counts must be positive")
        if any(m <= 0 for m in self.node_mtbf_values):
            raise ValueError("node_mtbf_values must be positive")
        if any(c < 0 for c in self.checkpoint_costs):
            raise ValueError("checkpoint_costs must be non-negative")
        if any(p < 1.0 for p in self.abft_overheads):
            raise ValueError("abft_overheads (phi) must be >= 1")
        object.__setattr__(
            self, "storage_stacks", _freeze_storage_stacks(self.storage_stacks)
        )
        object.__setattr__(self, "memory_per_node", float(self.memory_per_node))
        if self.memory_per_node < 0:
            raise ValueError("memory_per_node must be non-negative")
        if self.storage_stacks and self.checkpoint_costs != (float(10 * MINUTE),):
            raise ValueError(
                "checkpoint_costs and storage_stacks are mutually exclusive: "
                "the storage axis replaces the checkpoint-cost axis"
            )
        # Canonicalize protocol spellings up front: unknown names raise the
        # registry's nearest-match error before any cell is evaluated.
        object.__setattr__(
            self,
            "protocols",
            tuple(resolve_protocol(name).name for name in self.protocols),
        )
        if self.application_time <= 0:
            raise ValueError("application_time must be > 0")
        if self.backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"unknown engine backend {self.backend!r}; "
                f"expected one of {ENGINE_BACKENDS}"
            )
        if self.simulate and self.simulation_runs <= 0:
            raise ValueError("simulation_runs must be positive")
        if self.max_slowdown <= 1.0:
            raise ValueError("max_slowdown must be > 1")

    # ------------------------------------------------------------------ #
    @property
    def storage_mode(self) -> bool:
        """Whether the third axis is storage stacks instead of scalar ``C``."""
        return bool(self.storage_stacks)

    @property
    def storage_labels(self) -> Tuple[str, ...]:
        """The storage-axis labels, in axis order."""
        return tuple(label for label, _ in self.storage_stacks)

    def storage_tree(self, label: str) -> Dict[str, Any]:
        """The ``{"kind", "params"}`` tree of one named stack (thawed)."""
        from repro.scenario.spec import _thaw

        for name, tree in self.storage_stacks:
            if name == label:
                return _thaw(tree)
        raise KeyError(
            f"unknown storage stack {label!r}; "
            f"expected one of {list(self.storage_labels)}"
        )

    def storage_stack_at(self, label: str, nodes: int) -> StorageStack:
        """The concrete stack of one cell: label bound to the cell's scale."""
        return StorageStack(
            build_storage(self.storage_tree(label)),
            data_bytes=self.memory_per_node * nodes,
            node_count=int(nodes),
        )

    def coordinates(self) -> Iterator[Tuple[int, float, Any, float]]:
        """Cell coordinates ``(nodes, node_mtbf, checkpoint, phi)``, nodes-major.

        In storage mode the third coordinate is the storage label (a string)
        rather than a scalar checkpoint cost.
        """
        third_axis: Tuple[Any, ...] = (
            self.storage_labels if self.storage_mode else self.checkpoint_costs
        )
        for nodes in self.node_counts:
            for node_mtbf in self.node_mtbf_values:
                for checkpoint in third_axis:
                    for phi in self.abft_overheads:
                        yield nodes, node_mtbf, checkpoint, phi

    @property
    def cell_count(self) -> int:
        """Number of grid cells."""
        third = (
            len(self.storage_stacks)
            if self.storage_mode
            else len(self.checkpoint_costs)
        )
        return (
            len(self.node_counts)
            * len(self.node_mtbf_values)
            * third
            * len(self.abft_overheads)
        )

    def parameters_at(
        self, nodes: int, node_mtbf: float, checkpoint: Any, phi: float
    ) -> ResilienceParameters:
        """The parameter bundle of one cell.

        A string ``checkpoint`` is a storage label: the stack is lowered
        into effective ``(C, R)`` at this cell's data volume, node count and
        platform MTBF.
        """
        if isinstance(checkpoint, str):
            return ResilienceParameters.from_storage(
                platform_mtbf=node_mtbf / nodes,
                storage=self.storage_stack_at(checkpoint, nodes),
                downtime=self.downtime,
                library_fraction=self.library_fraction,
                abft_overhead=phi,
                abft_reconstruction=self.abft_reconstruction,
            )
        return ResilienceParameters.from_scalars(
            platform_mtbf=node_mtbf / nodes,
            checkpoint=checkpoint,
            recovery=self.recovery,
            downtime=self.downtime,
            library_fraction=self.library_fraction,
            abft_overhead=phi,
            abft_reconstruction=self.abft_reconstruction,
        )

    def workload(self) -> ApplicationWorkload:
        """The (shared) protected workload."""
        return ApplicationWorkload.single_epoch(
            self.application_time, self.alpha, library_fraction=self.library_fraction
        )

    def replace(self, **changes: Any) -> "RegimeMapSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def cell_key(
        self, nodes: int, node_mtbf: float, checkpoint: Any, phi: float
    ) -> Dict[str, Any]:
        """Cache key of one cell (everything its value depends on)."""
        key: Dict[str, Any] = {
            "optimize": "regime-cell",
            "schema": REGIME_SCHEMA_VERSION,
            "nodes": int(nodes),
            "node_mtbf": float(node_mtbf),
            "abft_overhead": float(phi),
            # Order matters (it is the winner tie-break), so the key keeps
            # it: reordered protocol lists must not share cached cells.
            "protocols": list(self.protocols),
            "application_time": self.application_time,
            "alpha": self.alpha,
            "library_fraction": self.library_fraction,
            "downtime": self.downtime,
            "recovery": self.recovery,
            "abft_reconstruction": self.abft_reconstruction,
            "simulate": self.simulate,
        }
        if isinstance(checkpoint, str):
            # Storage cells key on the label *and* the stack's content, so
            # renaming or retuning a stack never reuses a stale cell.
            key["storage"] = checkpoint
            key["storage_tree"] = self.storage_tree(checkpoint)
            key["memory_per_node"] = float(self.memory_per_node)
        else:
            key["checkpoint"] = float(checkpoint)
        if self.simulate:
            key["simulation_runs"] = self.simulation_runs
            key["seed"] = self.seed
            key["max_slowdown"] = self.max_slowdown
        return key

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (embedded in the serialized map).

        The storage axis is emitted as a list of ``[label, tree]`` pairs
        (axis order matters for coordinates), and only when set, so legacy
        scalar maps serialize byte-identically to before.
        """
        data: Dict[str, Any] = {
            "node_counts": list(self.node_counts),
            "node_mtbf_values": list(self.node_mtbf_values),
            "checkpoint_costs": list(self.checkpoint_costs),
            "abft_overheads": list(self.abft_overheads),
            "protocols": list(self.protocols),
            "application_time": self.application_time,
            "alpha": self.alpha,
            "library_fraction": self.library_fraction,
            "downtime": self.downtime,
            "recovery": self.recovery,
            "abft_reconstruction": self.abft_reconstruction,
            "simulate": self.simulate,
            "simulation_runs": self.simulation_runs,
            "seed": self.seed,
            "backend": self.backend,
            "max_slowdown": self.max_slowdown,
        }
        if self.storage_mode:
            data["storage_stacks"] = [
                [label, self.storage_tree(label)] for label in self.storage_labels
            ]
            data["memory_per_node"] = self.memory_per_node
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RegimeMapSpec":
        """Inverse of :meth:`to_dict`; maps without a storage axis load as
        scalar-checkpoint maps."""
        return cls(**{key: data[key] for key in data})


@dataclass(frozen=True)
class RegimeCell:
    """One evaluated grid cell: per-protocol optima and the winner.

    ``results`` maps each canonical protocol name to its summary dict --
    ``waste`` (model, at the numeric optimum), ``periods``, ``closed_form``,
    ``feasible`` and, on simulated maps, ``simulated_waste`` plus the
    campaign ``summary``.

    On storage-axis maps ``storage`` holds the stack label and
    ``checkpoint`` the *effective* lowered checkpoint cost of the cell (so
    downstream tables and the service keep working on scalars).
    """

    nodes: int
    node_mtbf: float
    checkpoint: float
    abft_overhead: float
    platform_mtbf: float
    results: Mapping[str, Mapping[str, Any]]
    winner: str
    margin: float
    storage: Optional[str] = None

    def waste(self, protocol: str, *, simulated: Optional[bool] = None) -> float:
        """The decisive waste of one protocol in this cell.

        ``simulated=None`` (default) returns whatever the winner was ranked
        on -- the simulated mean on validated maps, the model value
        otherwise.
        """
        entry = self.results[protocol]
        if simulated is None:
            simulated = "simulated_waste" in entry
        if simulated:
            value = entry.get("simulated_waste")
            return math.nan if value is None else float(value)
        return float(entry["waste"])

    @property
    def axis_value(self) -> Any:
        """The cell's third coordinate: storage label or checkpoint cost."""
        return self.storage if self.storage is not None else self.checkpoint

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (non-finite margins map to ``None``)."""
        data = {
            "nodes": self.nodes,
            "node_mtbf": self.node_mtbf,
            "checkpoint": self.checkpoint,
            "abft_overhead": self.abft_overhead,
            "platform_mtbf": self.platform_mtbf,
            "results": {name: dict(value) for name, value in self.results.items()},
            "winner": self.winner,
            "margin": self.margin if math.isfinite(self.margin) else None,
        }
        if self.storage is not None:
            data["storage"] = self.storage
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RegimeCell":
        """Inverse of :meth:`to_dict`."""
        margin = data.get("margin")
        storage = data.get("storage")
        return cls(
            nodes=int(data["nodes"]),
            node_mtbf=float(data["node_mtbf"]),
            checkpoint=float(data["checkpoint"]),
            abft_overhead=float(data["abft_overhead"]),
            platform_mtbf=float(data["platform_mtbf"]),
            results={str(k): dict(v) for k, v in data["results"].items()},
            winner=str(data["winner"]),
            margin=math.nan if margin is None else float(margin),
            storage=None if storage is None else str(storage),
        )


@dataclass(frozen=True)
class RegimeMap:
    """A fully evaluated regime map, with cache accounting.

    ``computed_cells`` / ``cached_cells`` mirror the sweep runner's
    convention: a fully resumed map reports ``computed_cells == 0`` and
    bit-identical cells.
    """

    spec: RegimeMapSpec
    cells: Tuple[RegimeCell, ...]
    computed_cells: int = 0
    cached_cells: int = 0

    # ------------------------------------------------------------------ #
    def cell_index(self) -> Dict[Tuple[int, float, Any, float], RegimeCell]:
        """O(1) lookup table ``(nodes, node_mtbf, C-or-label, phi) -> cell``.

        The third key component matches :meth:`RegimeMapSpec.coordinates`:
        the storage label on storage-axis maps, the scalar checkpoint cost
        otherwise.  The advisor service's tier-2 surface queries corner
        cells per request; a fresh dict per call keeps the dataclass
        frozen/hashable while callers that care (the surface) build it once
        and keep it.
        """
        return {
            (cell.nodes, cell.node_mtbf, cell.axis_value, cell.abft_overhead):
            cell
            for cell in self.cells
        }

    def cell_at(
        self, nodes: int, node_mtbf: float, checkpoint: Any, phi: float
    ) -> RegimeCell:
        """The cell at one coordinate tuple (third slot: ``C`` or label)."""
        cell = self.cell_index().get((nodes, node_mtbf, checkpoint, phi))
        if cell is None:
            raise KeyError(
                f"no cell at nodes={nodes}, node_mtbf={node_mtbf}, "
                f"checkpoint={checkpoint}, phi={phi}"
            )
        return cell

    def winners(self) -> Dict[Tuple[int, float, Any, float], str]:
        """Map of cell coordinates to winning protocol."""
        return {
            (cell.nodes, cell.node_mtbf, cell.axis_value, cell.abft_overhead):
            cell.winner
            for cell in self.cells
        }

    def winner_counts(self) -> Dict[str, int]:
        """How many cells each protocol wins (zero-win protocols included)."""
        counts = {name: 0 for name in self.spec.protocols}
        for cell in self.cells:
            counts[cell.winner] = counts.get(cell.winner, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def crossover_tables(self) -> list[Table]:
        """One winners table per (checkpoint, phi) slice: nodes x node-MTBF.

        This is the paper's strategy-crossover narrative as a grid: reading
        a column top to bottom shows the winner flipping from the cheap
        strategies to the composite as the platform grows and failures
        dominate.
        """
        winners = self.winners()
        tables: list[Table] = []
        third_axis: Tuple[Any, ...] = (
            self.spec.storage_labels
            if self.spec.storage_mode
            else self.spec.checkpoint_costs
        )
        for checkpoint in third_axis:
            for phi in self.spec.abft_overheads:
                headers = ["nodes \\ node-MTBF"] + [
                    f"{mtbf / YEAR:.3g}y" for mtbf in self.spec.node_mtbf_values
                ]
                slice_label = (
                    f"storage = {checkpoint}"
                    if isinstance(checkpoint, str)
                    else f"C = {checkpoint / MINUTE:.3g} min"
                )
                table = Table(
                    headers,
                    title=f"winning protocol ({slice_label}, phi = {phi:g})",
                )
                for nodes in self.spec.node_counts:
                    row: list[Any] = [nodes]
                    for node_mtbf in self.spec.node_mtbf_values:
                        row.append(
                            _short(winners[(nodes, node_mtbf, checkpoint, phi)])
                        )
                    table.add_row(row)
                tables.append(table)
        return tables

    def to_ascii(self) -> str:
        """Every crossover table, rendered as text."""
        return "\n\n".join(table.to_text() for table in self.crossover_tables())

    def to_table(self) -> Table:
        """Long-format table: one row per cell with every protocol's waste."""
        headers = [
            "nodes",
            "node_mtbf_years",
            "platform_mtbf_minutes",
        ]
        if self.spec.storage_mode:
            headers.append("storage")
        headers.extend(
            [
                "checkpoint_minutes",
                "phi",
                "winner",
                "margin",
            ]
        )
        headers.extend(f"waste[{name}]" for name in self.spec.protocols)
        headers.extend(f"period[{name}]" for name in self.spec.protocols)
        table = Table(headers, title="Regime map: minimal waste per protocol")
        for cell in self.cells:
            row: list[Any] = [
                cell.nodes,
                cell.node_mtbf / YEAR,
                cell.platform_mtbf / MINUTE,
            ]
            if self.spec.storage_mode:
                row.append(cell.storage or "")
            row.extend(
                [
                    cell.checkpoint / MINUTE,
                    cell.abft_overhead,
                    cell.winner,
                    cell.margin,
                ]
            )
            row.extend(cell.waste(name) for name in self.spec.protocols)
            for name in self.spec.protocols:
                periods = cell.results[name].get("periods") or {}
                finite = [v for v in periods.values() if v is not None]
                row.append(min(finite) if finite else float("nan"))
            table.add_row(row)
        return table

    def write_csv(self, path: "str | Path") -> Path:
        """Write the long-format table as CSV."""
        return self.to_table().write(path)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form; deterministic for a given spec and seed."""
        return {
            "schema": REGIME_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
            "winner_counts": self.winner_counts(),
        }

    def to_json(self, *, indent: int = 1) -> str:
        """Serialize to deterministic JSON (sorted keys, no timestamps)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: "str | Path") -> Path:
        """Write the map to a JSON file; returns the path."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RegimeMap":
        """Rebuild a map from its serialized form."""
        return cls(
            spec=RegimeMapSpec.from_dict(data["spec"]),
            cells=tuple(RegimeCell.from_dict(cell) for cell in data["cells"]),
        )

    @classmethod
    def load(cls, path: "str | Path") -> "RegimeMap":
        """Read a map back from a JSON file."""
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


# ---------------------------------------------------------------------- #
# Computation
# ---------------------------------------------------------------------- #
def _evaluate_cell(
    spec: RegimeMapSpec,
    nodes: int,
    node_mtbf: float,
    checkpoint: Any,
    phi: float,
    executor: ShardedVectorizedExecutor,
) -> Dict[str, Any]:
    """Evaluate one cell into its cacheable plain-data form.

    ``checkpoint`` is the third coordinate: a scalar cost, or a storage
    label whose stack is lowered through ``spec.parameters_at`` (the
    recorded ``checkpoint`` is then the effective lowered cost).
    """
    parameters = spec.parameters_at(nodes, node_mtbf, checkpoint, phi)
    workload = spec.workload()
    results: Dict[str, Dict[str, Any]] = {}
    for name in spec.protocols:
        optimum = optimize_period(name, parameters, workload)
        entry = optimum.to_dict()
        del entry["protocol"]
        if spec.simulate:
            if optimum.waste >= SIMULATION_WASTE_CUTOFF:
                # Hopeless corner: every trial would only end by truncation;
                # record the analytical value instead of burning the budget.
                entry["simulated_waste"] = float(optimum.waste)
                entry["simulated"] = False
            else:
                periods = {
                    k: v for k, v in optimum.periods.items() if math.isfinite(v)
                }
                summary = simulate_at_periods(
                    name,
                    parameters,
                    workload,
                    periods,
                    runs=spec.simulation_runs,
                    seed=spec.seed,
                    backend=spec.backend,
                    executor=executor,
                    max_slowdown=spec.max_slowdown,
                )
                entry["simulated_waste"] = summary.get("waste_mean")
                entry["summary"] = dict(summary)
                entry["simulated"] = True
        results[name] = entry

    def decisive(name: str) -> float:
        entry = results[name]
        value = entry.get("simulated_waste") if spec.simulate else entry["waste"]
        return math.inf if value is None else float(value)

    # Ties break towards the spec's protocol order (registration order for
    # the defaults), which keeps winners deterministic.
    winner = min(spec.protocols, key=lambda name: (decisive(name),))
    others = sorted(decisive(name) for name in spec.protocols if name != winner)
    margin = (others[0] - decisive(winner)) if others else math.nan
    value: Dict[str, Any] = {
        "nodes": int(nodes),
        "node_mtbf": float(node_mtbf),
        "checkpoint": float(parameters.full_checkpoint)
        if isinstance(checkpoint, str)
        else float(checkpoint),
        "abft_overhead": float(phi),
        "platform_mtbf": parameters.platform_mtbf,
        "results": results,
        "winner": winner,
        "margin": margin if math.isfinite(margin) else None,
    }
    if isinstance(checkpoint, str):
        value["storage"] = checkpoint
    return value


def compute_regime_map(
    spec: RegimeMapSpec,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional["str | Path"] = None,
    resume: bool = True,
) -> RegimeMap:
    """Evaluate (or resume) a regime map.

    Parameters
    ----------
    spec:
        The map description.
    workers:
        Worker processes the campaigns of simulated maps shard their trial
        ranges over (:class:`ShardedVectorizedExecutor`, either engine;
        analytical cells are CPU-light and run inline).
    cache_dir / resume:
        Per-cell cache directory and whether to consult existing entries;
        semantics identical to :class:`~repro.campaign.sweep_runner.SweepRunner`.
    """
    cache = SweepCache(cache_dir) if cache_dir is not None else None
    executor = ShardedVectorizedExecutor(workers=1 if workers is None else workers)
    cells: list[RegimeCell] = []
    computed = 0
    cached_count = 0
    for coords in spec.coordinates():
        key = spec.cell_key(*coords)
        value = cache.load(key) if (cache is not None and resume) else None
        if value is None:
            value = _evaluate_cell(spec, *coords, executor)
            if cache is not None:
                cache.store(key, value)
            computed += 1
        else:
            cached_count += 1
        margin = value.get("margin")
        storage = value.get("storage")
        cells.append(
            RegimeCell(
                nodes=int(value["nodes"]),
                node_mtbf=float(value["node_mtbf"]),
                checkpoint=float(value["checkpoint"]),
                abft_overhead=float(value["abft_overhead"]),
                platform_mtbf=float(value["platform_mtbf"]),
                results={
                    str(k): dict(v) for k, v in value["results"].items()
                },
                winner=str(value["winner"]),
                margin=math.nan if margin is None else float(margin),
                storage=None if storage is None else str(storage),
            )
        )
    return RegimeMap(
        spec=spec,
        cells=tuple(cells),
        computed_cells=computed,
        cached_cells=cached_count,
    )
