"""Figure 7: waste heatmaps and model validation over the (MTBF, alpha) grid.

Reproduces the six panels of Figure 7:

* 7a / 7c / 7e -- waste predicted by the model for PurePeriodicCkpt,
  BiPeriodicCkpt and ABFT&PeriodicCkpt, as a function of the platform MTBF
  (x-axis, 60-240 minutes) and of the fraction of time spent in the LIBRARY
  phase (y-axis, 0-1);
* 7b / 7d / 7f -- the difference ``WASTE_simul - WASTE_model`` for the same
  protocols (model validation).

The result holds one row per grid point with the model waste of each
protocol and, when validation is enabled, the simulated waste and the
difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.config import Figure7Config, paper_figure7_config
from repro.scenario.runner import run_scenario
from repro.utils.tables import Table
from repro.utils.units import MINUTE

__all__ = ["Figure7Row", "Figure7Result", "run_figure7", "PROTOCOLS"]

#: Protocol names in the order the paper presents them.
PROTOCOLS: tuple[str, ...] = (
    "PurePeriodicCkpt",
    "BiPeriodicCkpt",
    "ABFT&PeriodicCkpt",
)


@dataclass(frozen=True)
class Figure7Row:
    """One (MTBF, alpha) grid point of the Figure 7 experiment."""

    mtbf: float
    alpha: float
    model_waste: dict[str, float]
    simulated_waste: dict[str, float] = field(default_factory=dict)

    def difference(self, protocol: str) -> Optional[float]:
        """``WASTE_simul - WASTE_model`` for ``protocol`` (None if not simulated)."""
        if protocol not in self.simulated_waste:
            return None
        return self.simulated_waste[protocol] - self.model_waste[protocol]


@dataclass(frozen=True)
class Figure7Result:
    """All grid points of the Figure 7 experiment."""

    config: Figure7Config
    rows: tuple[Figure7Row, ...]
    validated: bool
    simulation_runs: int

    # ------------------------------------------------------------------ #
    def waste_grid(self, protocol: str, *, simulated: bool = False) -> dict:
        """Map ``(mtbf, alpha) -> waste`` for one protocol."""
        grid = {}
        for row in self.rows:
            source = row.simulated_waste if simulated else row.model_waste
            if protocol in source:
                grid[(row.mtbf, row.alpha)] = source[protocol]
        return grid

    def max_difference(self, protocol: str) -> float:
        """Largest absolute model/simulation difference for one protocol."""
        diffs = [
            abs(row.difference(protocol))
            for row in self.rows
            if row.difference(protocol) is not None
        ]
        return max(diffs) if diffs else 0.0

    # ------------------------------------------------------------------ #
    def to_table(self) -> Table:
        """Render the result as the paper-style series table."""
        headers = ["mtbf_minutes", "alpha"]
        for protocol in PROTOCOLS:
            headers.append(f"model_waste[{protocol}]")
        if self.validated:
            for protocol in PROTOCOLS:
                headers.append(f"sim_waste[{protocol}]")
            for protocol in PROTOCOLS:
                headers.append(f"diff[{protocol}]")
        table = Table(headers, title="Figure 7: waste vs (MTBF, alpha)")
        for row in self.rows:
            cells: list = [row.mtbf / MINUTE, row.alpha]
            cells.extend(row.model_waste[p] for p in PROTOCOLS)
            if self.validated:
                cells.extend(row.simulated_waste.get(p, float("nan")) for p in PROTOCOLS)
                diffs = [row.difference(p) for p in PROTOCOLS]
                cells.extend(d if d is not None else float("nan") for d in diffs)
            table.add_row(cells)
        return table

    def write_csv(self, path: str | Path) -> Path:
        """Write the series table as CSV."""
        return self.to_table().write(path)


def run_figure7(
    config: Optional[Figure7Config] = None,
    *,
    validate: bool = False,
    simulation_runs: int = 200,
    seed: int = 2014,
    protocols: Sequence[str] = PROTOCOLS,
    workers: Optional[int] = None,
    cache_dir: Optional[str | Path] = None,
    resume: bool = True,
) -> Figure7Result:
    """Run the Figure 7 experiment.

    Parameters
    ----------
    config:
        Grid and application parameters; defaults to the paper's values.
    validate:
        Also run the Monte-Carlo simulation at every grid point and report
        the waste difference (Figures 7b/7d/7f).  This multiplies the cost by
        the number of simulation runs.
    simulation_runs:
        Number of simulated executions per grid point when validating (the
        paper uses 1000).
    seed:
        Root seed of the simulation campaigns.
    protocols:
        Subset of protocols to evaluate (all three by default).
    workers:
        Run the grid's Monte-Carlo campaigns on a pool of this many worker
        processes (``None``/1 runs serially; results are identical either
        way).
    cache_dir:
        Cache completed grid points in this directory so an interrupted or
        repeated run recomputes only the missing points.
    resume:
        Consult existing cache entries (default).  ``False`` recomputes the
        full grid, refreshing the cache.
    """
    config = config or paper_figure7_config()
    spec = config.to_scenario(
        protocols=tuple(protocols),
        validate=validate,
        simulation_runs=simulation_runs,
        seed=seed,
    )
    scenario = run_scenario(
        spec,
        workers=workers,
        cache_dir=cache_dir,
        resume=resume,
    )
    rows = tuple(
        Figure7Row(
            mtbf=point.mtbf,
            alpha=point.alpha,
            model_waste=point.model_waste,
            simulated_waste=point.simulated_waste,
        )
        for point in scenario.points
    )
    return Figure7Result(
        config=config,
        rows=rows,
        validated=validate,
        simulation_runs=simulation_runs if validate else 0,
    )
