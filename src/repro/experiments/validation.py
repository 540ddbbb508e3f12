"""Model-vs-simulation validation (the machinery behind Figures 7b/7d/7f).

For one configuration (parameters + workload + protocol) the validation runs
the analytical model and a Monte-Carlo simulation campaign and reports both
wastes and their difference -- the quantity plotted in the right-hand column
of Figure 7.

The closed-form waste formulas of Section IV hold for the *exponential*
(memoryless) failure law only.  When a non-exponential failure model is
passed, :func:`validate_configuration` therefore refuses by default
(:class:`NonExponentialValidationError`); pass
``on_non_exponential="warn"`` to run the simulation anyway and report the
analytical column as ``NaN`` (the comparison would be meaningless, not
merely imprecise).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from repro.application.workload import ApplicationWorkload
from repro.core.parameters import ResilienceParameters
from repro.core.registry import resolve_protocol
from repro.failures.base import FailureModel
from repro.failures.exponential import ExponentialFailureModel
from repro.simulation.runner import MonteCarloResult, run_monte_carlo

__all__ = [
    "ValidationPoint",
    "validate_configuration",
    "validate_spec",
    "NonExponentialValidationError",
]


class NonExponentialValidationError(ValueError):
    """Analytical validation was requested under a non-exponential law.

    The Section IV closed forms are derived for memoryless failures; under
    Weibull / log-normal / trace-based laws the model column would not be a
    prediction of the simulated system, so comparing the two is a category
    error rather than an approximation.  Pass ``on_non_exponential="warn"``
    to run the simulation anyway with a ``NaN`` model column.
    """


@dataclass(frozen=True)
class ValidationPoint:
    """Model and simulation waste for one configuration.

    Attributes
    ----------
    protocol:
        Protocol name.
    model_waste:
        Waste predicted by the closed-form model (``NaN`` when the
        analytical column was skipped for a non-exponential failure law).
    simulated_waste:
        Mean waste over the Monte-Carlo campaign.
    difference:
        ``simulated_waste - model_waste`` (the quantity of Figures 7b/7d/7f).
    simulation:
        The full Monte-Carlo result (confidence intervals, failure counts).
    """

    protocol: str
    model_waste: float
    simulated_waste: float
    simulation: MonteCarloResult

    @property
    def difference(self) -> float:
        """``WASTE_simul - WASTE_model``."""
        return self.simulated_waste - self.model_waste

    @property
    def relative_difference(self) -> float:
        """Difference normalised by the simulated waste (when non-zero)."""
        if self.simulated_waste == 0:
            return 0.0
        return self.difference / self.simulated_waste

    @property
    def has_model_column(self) -> bool:
        """False when the analytical column was skipped (non-exponential)."""
        return not math.isnan(self.model_waste)


def validate_configuration(
    protocol: str,
    parameters: ResilienceParameters,
    workload: ApplicationWorkload,
    *,
    runs: int = 200,
    seed: Optional[int] = 12345,
    failure_model: Optional[FailureModel] = None,
    on_non_exponential: str = "raise",
) -> ValidationPoint:
    """Compare the analytical model and the simulator for one configuration.

    Parameters
    ----------
    protocol:
        A registered protocol name or alias (see
        :func:`repro.core.registry.protocol_names`).
    parameters / workload:
        The configuration to evaluate.
    runs:
        Number of Monte-Carlo runs (the paper uses 1000; 200 keeps the
        default harness fast while staying well within the reported
        confidence bands).
    seed:
        Root seed of the campaign.
    failure_model:
        Failure law driving the simulation; ``None`` (default) is the
        paper's exponential law at the parameters' platform MTBF.
    on_non_exponential:
        What to do when ``failure_model`` is not exponential: ``"raise"``
        (default) raises :class:`NonExponentialValidationError`; ``"warn"``
        emits a warning, skips the analytical column (``model_waste`` is
        ``NaN``) and still runs the simulation.
    """
    if on_non_exponential not in ("raise", "warn"):
        raise ValueError(
            "on_non_exponential must be 'raise' or 'warn', "
            f"got {on_non_exponential!r}"
        )
    entry = resolve_protocol(protocol)
    model_cls, simulator_cls = entry.pair

    non_exponential = failure_model is not None and not isinstance(
        failure_model, ExponentialFailureModel
    )
    if non_exponential:
        message = (
            f"validate_configuration({entry.name!r}) was given a "
            f"{type(failure_model).__name__}: the closed-form waste formulas "
            "assume exponential failures, so the analytical column does not "
            "apply"
        )
        if on_non_exponential == "raise":
            raise NonExponentialValidationError(
                message + "; pass on_non_exponential='warn' to run the "
                "simulation with a NaN model column"
            )
        warnings.warn(message + "; reporting model_waste=NaN", stacklevel=2)

    if non_exponential:
        model_waste = float("nan")
    else:
        model_waste = model_cls(parameters).evaluate(workload).waste
    simulator = simulator_cls(parameters, workload, failure_model=failure_model)
    campaign = run_monte_carlo(simulator.simulate_once, runs=runs, seed=seed)
    return ValidationPoint(
        protocol=entry.name,
        model_waste=model_waste,
        simulated_waste=campaign.mean_waste,
        simulation=campaign,
    )


def validate_spec(
    spec,
    protocol: Optional[str] = None,
    *,
    mtbf: Optional[float] = None,
    alpha: Optional[float] = None,
    runs: Optional[int] = None,
    seed: Optional[int] = None,
    on_non_exponential: str = "raise",
) -> ValidationPoint:
    """Validate one protocol of a :class:`~repro.scenario.ScenarioSpec`.

    Extracts the parameters, workload and failure model from the spec
    (optionally at swept ``mtbf`` / ``alpha`` coordinates) and delegates to
    :func:`validate_configuration`, inheriting its non-exponential guard --
    the spec-level entrance to the same trap door.
    """
    name = protocol if protocol is not None else spec.protocols[0]
    point_mtbf = spec.platform.mtbf if mtbf is None else float(mtbf)
    failure_model = (
        None if spec.failures.is_exponential else spec.failure_model(point_mtbf)
    )
    return validate_configuration(
        name,
        spec.parameters(point_mtbf),
        spec.application_workload(alpha),
        runs=spec.simulation.runs if runs is None else runs,
        seed=spec.simulation.seed if seed is None else seed,
        failure_model=failure_model,
        on_non_exponential=on_non_exponential,
    )
