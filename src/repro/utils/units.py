"""Canonical units used across the library.

Internally every duration is a ``float`` number of **seconds** and every data
size a ``float`` number of **bytes**.  The constants below are multipliers so
that user-facing code can write ``10 * MINUTE`` or ``2 * GB`` instead of raw
magic numbers; :func:`format_duration` renders a duration for reporting.

The paper quotes its parameters in minutes (checkpoint cost ``C = R = 10
minutes``), days (MTBF) and weeks (epoch duration); keeping a single internal
unit avoids an entire class of unit-mismatch bugs in the model formulas.
"""

from __future__ import annotations

import math

# --------------------------------------------------------------------------- #
# Time units (seconds)
# --------------------------------------------------------------------------- #
SECOND: float = 1.0
MINUTE: float = 60.0 * SECOND
HOUR: float = 60.0 * MINUTE
DAY: float = 24.0 * HOUR
WEEK: float = 7.0 * DAY
YEAR: float = 365.0 * DAY

# --------------------------------------------------------------------------- #
# Data-size units (bytes)
# --------------------------------------------------------------------------- #
KB: float = 1e3
MB: float = 1e6
GB: float = 1e9
TB: float = 1e12
PB: float = 1e15

_TIME_STEPS = (
    (YEAR, "y"),
    (WEEK, "w"),
    (DAY, "d"),
    (HOUR, "h"),
    (MINUTE, "min"),
    (SECOND, "s"),
)


def to_seconds(value: float, unit: float = SECOND) -> float:
    """Convert ``value`` expressed in ``unit`` into seconds.

    Parameters
    ----------
    value:
        Magnitude in the given unit.
    unit:
        One of the module-level constants (:data:`MINUTE`, :data:`HOUR`, ...).

    Examples
    --------
    >>> to_seconds(10, MINUTE)
    600.0
    """
    return float(value) * float(unit)


def format_duration(seconds: float, precision: int = 2) -> str:
    """Render a duration as a short human-readable string.

    The largest unit whose magnitude is at least one is used, e.g.
    ``format_duration(90)`` returns ``"1.50 min"`` and
    ``format_duration(604800)`` returns ``"1.00 w"``.

    Parameters
    ----------
    seconds:
        Duration in seconds.  Negative durations are rendered with a leading
        minus sign; ``nan``/``inf`` are rendered as-is.
    precision:
        Number of decimal digits.
    """
    if math.isnan(seconds) or math.isinf(seconds):
        return str(seconds)
    sign = "-" if seconds < 0 else ""
    magnitude = abs(float(seconds))
    for step, suffix in _TIME_STEPS:
        if magnitude >= step:
            return f"{sign}{magnitude / step:.{precision}f} {suffix}"
    return f"{sign}{magnitude:.{precision}f} s"
