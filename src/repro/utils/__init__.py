"""Small shared utilities used throughout :mod:`repro`.

The sub-modules are intentionally dependency-free (NumPy only) so that every
other package can import them without creating cycles:

* :mod:`repro.utils.units` -- canonical time and data-size units.  The whole
  library works in **seconds** and **bytes** internally; these constants make
  parameter files readable (``10 * MINUTE``, ``1 * WEEK``, ...).
* :mod:`repro.utils.validation` -- argument checking helpers that raise
  consistent, descriptive exceptions.
* :mod:`repro.utils.stats` -- streaming statistics (Welford), confidence
  intervals and summary containers used to aggregate Monte-Carlo simulation
  results.
* :mod:`repro.utils.tables` -- plain-text/CSV table rendering used by the
  experiment harness to print paper-style result rows.
"""

from repro.utils.units import (
    SECOND,
    MINUTE,
    HOUR,
    DAY,
    WEEK,
    YEAR,
    KB,
    MB,
    GB,
    TB,
    PB,
    format_duration,
    to_seconds,
)
from repro.utils.validation import (
    require_positive,
    require_non_negative,
    require_in_range,
    require_probability,
    require_fraction,
)
from repro.utils.stats import (
    RunningStatistics,
    SummaryStatistics,
    confidence_interval,
    summarize,
)
from repro.utils.tables import Table, format_table, write_csv

__all__ = [
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "YEAR",
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "format_duration",
    "to_seconds",
    "require_positive",
    "require_non_negative",
    "require_in_range",
    "require_probability",
    "require_fraction",
    "RunningStatistics",
    "SummaryStatistics",
    "confidence_interval",
    "summarize",
    "Table",
    "format_table",
    "write_csv",
]
