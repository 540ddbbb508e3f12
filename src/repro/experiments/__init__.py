"""Experiment harness: regenerate every figure of the evaluation section.

Each figure of the paper has a dedicated generator that produces the same
rows/series the paper plots, as structured results, plain-text tables and CSV
files:

* :mod:`repro.experiments.figure7` -- waste heatmaps of the three protocols
  over the (MTBF, alpha) grid, plus the model-vs-simulation validation
  (Figures 7a-7f).
* :mod:`repro.experiments.figure8` -- weak scaling with fixed alpha = 0.8 and
  checkpoint cost growing with the machine (Figure 8).
* :mod:`repro.experiments.figure9` -- weak scaling with alpha growing with
  the machine (O(n^3) library phase vs O(n^2) general phase, Figure 9).
* :mod:`repro.experiments.figure10` -- same as Figure 9 with a constant
  (perfectly scalable) checkpoint cost (Figure 10).
* :mod:`repro.experiments.validation` -- model-vs-simulation comparison for
  arbitrary configurations (the machinery behind Figures 7b/7d/7f).
* :mod:`repro.experiments.config` -- the paper's parameter values, in one
  place.
"""

from repro.experiments.config import (
    Figure7Config,
    WeakScalingConfig,
    paper_figure7_config,
    paper_figure8_scenario,
    paper_figure9_scenario,
    paper_figure10_scenario,
)
from repro.experiments.validation import (
    NonExponentialValidationError,
    ValidationPoint,
    validate_configuration,
    validate_spec,
)
from repro.experiments.figure7 import Figure7Result, run_figure7
from repro.experiments.weak_scaling import (
    WeakScalingResult,
    run_weak_scaling,
    weak_scaling_spec,
)
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.report import ReproductionReport, reproduction_report

__all__ = [
    "Figure7Config",
    "WeakScalingConfig",
    "paper_figure7_config",
    "paper_figure8_scenario",
    "paper_figure9_scenario",
    "paper_figure10_scenario",
    "ValidationPoint",
    "validate_configuration",
    "validate_spec",
    "NonExponentialValidationError",
    "weak_scaling_spec",
    "Figure7Result",
    "run_figure7",
    "WeakScalingResult",
    "run_weak_scaling",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "ReproductionReport",
    "reproduction_report",
]
