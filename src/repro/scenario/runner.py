"""Execute a :class:`ScenarioSpec` end-to-end through the campaign layer.

:func:`run_scenario` is the one call behind both the ``scenario run`` CLI
subcommand and :meth:`Scenario.run`: it lowers the spec onto a
:class:`~repro.campaign.sweep_runner.SweepJob`, runs it (resumably, in
parallel when asked) and wraps the grid in a :class:`ScenarioResult` that
renders the same table/CSV output as the figure harnesses.

When the spec selects a non-exponential failure law *and* asks for the
analytical column, an :class:`ExponentialAssumptionWarning` is emitted: the
closed-form waste formulas of Section IV hold for the memoryless law only,
so the model column is then a reference curve, not a prediction (the
Monte-Carlo column is exact either way).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.campaign.sweep_runner import SweepJob, SweepResult, SweepRunner
from repro.scenario.spec import ScenarioSpec
from repro.utils.tables import Table
from repro.utils.units import MINUTE

__all__ = [
    "ExponentialAssumptionWarning",
    "ScenarioResult",
    "run_scenario",
    "OptimizedPoint",
    "ScenarioOptimizationResult",
    "optimize_scenario",
]


class ExponentialAssumptionWarning(UserWarning):
    """The analytical column was requested under a non-exponential law.

    The Section IV closed forms assume memoryless (exponential) failures;
    under Weibull / log-normal / trace-based laws they are only an
    exponential-equivalent reference.  Compare against the simulated column.
    """


def scenario_sweep_job(spec: ScenarioSpec) -> SweepJob:
    """Lower a scenario spec onto the campaign layer's job description."""
    return SweepJob(
        parameters=spec.parameters(spec.mtbf_axis[0]),
        application_time=spec.workload.total_time,
        mtbf_values=spec.mtbf_axis,
        alpha_values=spec.alpha_axis,
        protocols=spec.canonical_protocols,
        library_fraction=spec.platform.library_fraction,
        epochs=spec.workload.epochs,
        simulate=spec.simulation.validate,
        simulation_runs=spec.simulation.runs,
        seed=spec.simulation.seed,
        failure_model=spec.failures.model,
        failure_params=spec.failures.params,
        model_params=spec.model_params,
        backend=spec.simulation.backend,
    )


@dataclass(frozen=True)
class ScenarioResult:
    """A scenario's evaluated grid, with the spec that produced it."""

    spec: ScenarioSpec
    sweep: SweepResult

    @property
    def points(self):
        """The evaluated grid points, MTBF-major."""
        return self.sweep.points

    @property
    def validated(self) -> bool:
        """Whether the Monte-Carlo columns are present."""
        return self.spec.simulation.validate

    def waste_grid(self, protocol: str, *, simulated: bool = False) -> dict:
        """Map ``(mtbf, alpha) -> waste`` for one protocol."""
        return self.sweep.waste_grid(protocol, simulated=simulated)

    @property
    def truncated_trials(self) -> int:
        """Total truncated trials over all grid points and protocols.

        Non-zero counts flag infeasible regimes (a simulated execution hit
        the ``max_slowdown`` cap); the affected campaigns report a waste of
        ~1 rather than looping forever.
        """
        return sum(
            point.truncated_trials(name)
            for point in self.points
            for name in self.spec.canonical_protocols
        )

    def to_table(self) -> Table:
        """Render the grid as the paper-style series table."""
        protocols = self.spec.canonical_protocols
        headers = ["mtbf_minutes", "alpha"]
        headers.extend(f"model_waste[{name}]" for name in protocols)
        if self.validated:
            headers.extend(f"sim_waste[{name}]" for name in protocols)
        table = Table(headers, title=self.spec.describe())
        for point in self.points:
            cells: list = [point.mtbf / MINUTE, point.alpha]
            cells.extend(point.model_waste.get(name, float("nan")) for name in protocols)
            if self.validated:
                cells.extend(
                    point.simulated_waste.get(name, float("nan"))
                    for name in protocols
                )
            table.add_row(cells)
        return table

    def write_csv(self, path: "str | Path") -> Path:
        """Write the series table as CSV."""
        return self.to_table().write(path)


def run_scenario(
    spec: ScenarioSpec,
    *,
    validate: Optional[bool] = None,
    runs: Optional[int] = None,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    cache_dir: Optional["str | Path"] = None,
    resume: bool = True,
) -> ScenarioResult:
    """Run a scenario spec end-to-end and return its grid.

    Parameters
    ----------
    spec:
        The scenario to run.
    validate / runs / seed / backend:
        Override the spec's ``simulation`` section (CLI flags land here);
        ``None`` keeps the spec's values.  ``backend`` selects the
        Monte-Carlo engine (``"event"``, ``"vectorized"`` or ``"auto"``).
    workers / cache_dir / resume:
        Campaign execution knobs, as in
        :class:`~repro.campaign.sweep_runner.SweepRunner`.
    """
    simulation = spec.simulation
    changes = {}
    if validate is not None:
        changes["validate"] = bool(validate)
    if runs is not None:
        changes["runs"] = int(runs)
    if seed is not None:
        changes["seed"] = int(seed)
    if backend is not None:
        changes["backend"] = str(backend)
    if changes:
        import dataclasses

        spec = spec.replace(simulation=dataclasses.replace(simulation, **changes))

    if spec.simulation.validate and not spec.failures.is_exponential:
        warnings.warn(
            f"scenario {spec.name!r} simulates {spec.failures.model!r} failures; "
            "the analytical (model_waste) column assumes exponential failures "
            "and is only an exponential-equivalent reference here",
            ExponentialAssumptionWarning,
            stacklevel=2,
        )

    runner = SweepRunner(
        cache_dir=cache_dir,
        resume=resume,
        workers=workers,
    )
    sweep = runner.run(scenario_sweep_job(spec))
    return ScenarioResult(spec=spec, sweep=sweep)


# ---------------------------------------------------------------------- #
# Numeric period optimization over a scenario grid
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class OptimizedPoint:
    """One grid point of an optimized scenario.

    ``optima`` maps each canonical protocol name to its
    :class:`~repro.optimize.period.PeriodOptimum`; ``winner`` is the
    protocol with the lowest optimized waste (ties break towards the
    scenario's protocol order).
    """

    mtbf: float
    alpha: float
    optima: Dict[str, "object"]
    winner: str

    def waste(self, protocol: str) -> float:
        """Minimal waste of one protocol at this point."""
        return self.optima[protocol].waste


@dataclass(frozen=True)
class ScenarioOptimizationResult:
    """Per-point numeric optima and winners over a scenario's grid."""

    spec: ScenarioSpec
    points: Tuple[OptimizedPoint, ...]

    def winner_grid(self) -> Dict[Tuple[float, float], str]:
        """Map ``(mtbf, alpha) -> winning protocol``."""
        return {(p.mtbf, p.alpha): p.winner for p in self.points}

    def to_table(self) -> Table:
        """Paper-style series table: optimal period and waste per protocol."""
        protocols = self.spec.canonical_protocols
        headers = ["mtbf_minutes", "alpha", "winner"]
        headers.extend(f"opt_waste[{name}]" for name in protocols)
        headers.extend(f"opt_period[{name}]" for name in protocols)
        table = Table(
            headers,
            title=f"optimized {self.spec.describe()}",
        )
        for point in self.points:
            cells: list = [point.mtbf / MINUTE, point.alpha, point.winner]
            cells.extend(point.optima[name].waste for name in protocols)
            for name in protocols:
                periods = point.optima[name].periods
                finite = [
                    value
                    for value in periods.values()
                    if value == value  # not NaN
                ]
                cells.append(min(finite) if finite else float("nan"))
            table.add_row(cells)
        return table

    def write_csv(self, path: "str | Path") -> Path:
        """Write the series table as CSV."""
        return self.to_table().write(path)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form: the spec plus per-point optima and winners.

        This is the machine-readable shape behind both ``optimize compare
        --json`` (printed to stdout) and the advisor service's ``/compare``
        endpoint, so scripted consumers see one layout everywhere.  Non-
        finite periods serialize as ``null`` (via
        :meth:`~repro.optimize.period.PeriodOptimum.to_dict`).
        """
        protocols = self.spec.canonical_protocols
        return {
            "spec": self.spec.to_dict(),
            "content_hash": self.spec.content_hash(),
            "protocols": list(protocols),
            "points": [
                {
                    "mtbf": point.mtbf,
                    "alpha": point.alpha,
                    "winner": point.winner,
                    "optima": {
                        name: point.optima[name].to_dict() for name in protocols
                    },
                }
                for point in self.points
            ],
        }


def optimize_scenario(
    spec: ScenarioSpec,
    *,
    protocols: Optional[Tuple[str, ...]] = None,
    rtol: float = 1e-10,
) -> ScenarioOptimizationResult:
    """Numerically optimize every protocol over a scenario's sweep grid.

    For each ``(mtbf, alpha)`` grid point of the spec, every protocol's
    tunable periods are optimized with
    :func:`repro.optimize.period.optimize_period` (honouring the spec's
    ``model_params``, e.g. the composite's ``per_epoch=False``) and the
    protocol with the lowest optimized waste is named the point's winner.

    This is the analytical strategy advisor behind ``optimize compare``;
    Monte-Carlo refinement and the four-axis regime maps live in
    :mod:`repro.optimize.refine` / :mod:`repro.optimize.regime`.
    """
    from repro.core.registry import resolve_protocol
    from repro.optimize.period import optimize_period

    names = tuple(
        resolve_protocol(name).name
        for name in (protocols if protocols is not None else spec.protocols)
    )
    points: list[OptimizedPoint] = []
    for mtbf in spec.mtbf_axis:
        parameters = spec.parameters(mtbf)
        for alpha in spec.alpha_axis:
            workload = spec.application_workload(alpha)
            optima = {
                name: optimize_period(
                    name,
                    parameters,
                    workload,
                    model_kwargs=spec.model_kwargs_for(name),
                    rtol=rtol,
                )
                for name in names
            }
            winner = min(names, key=lambda name: (optima[name].waste,))
            points.append(
                OptimizedPoint(
                    mtbf=float(mtbf),
                    alpha=float(alpha),
                    optima=optima,
                    winner=winner,
                )
            )
    result_spec = spec if protocols is None else spec.replace(protocols=names)
    return ScenarioOptimizationResult(spec=result_spec, points=tuple(points))
