"""Independent reference computations used by the correctness checks.

Nothing here calls the program: the figures follow from the model the
program implements, computed again from first principles.
"""

from __future__ import annotations

import math
from typing import List


def young_daly_period(checkpoint: float, mtbf: float, downtime: float,
                      recovery: float) -> float:
    """Equation 11 of the paper: ``sqrt(2 C (mu - D - R))``."""
    return math.sqrt(2.0 * checkpoint * (mtbf - downtime - recovery))


def periodic_segments(work: float, period: float, checkpoint: float) -> List[float]:
    """Wall-clock lengths of the failure-free segments of one periodically
    checkpointed section: chunks of ``period - C`` seconds of work, each
    followed by a checkpoint except the last (no trailing checkpoint)."""
    chunk = period - checkpoint
    if not chunk > 0.0:
        return [work]
    full = int(work // chunk)
    remainder = work - full * chunk
    if remainder <= 1e-9 * work:
        # The work divides evenly: the last full chunk is the final one.
        return [chunk + checkpoint] * (full - 1) + [chunk]
    return [chunk + checkpoint] * full + [remainder]


def expected_makespan(work: float, period: float, *, mtbf: float,
                      checkpoint: float, recovery: float, downtime: float) -> float:
    """Exact mean makespan of periodic checkpointing under exponential
    failures (rate ``1/mtbf``), failures striking during downtime and
    recovery too.

    A segment of failure-free length ``L`` completes after an expected
    ``e^{lambda (D + R)} (e^{lambda L} - 1) / lambda`` seconds: the classic
    renewal argument, each failure costing a downtime-plus-recovery stage
    that may itself be interrupted.  Segments are independent, so their
    expectations add.
    """
    rate = 1.0 / mtbf
    restart = math.exp(rate * (downtime + recovery))
    return sum(
        restart * math.expm1(rate * length) / rate
        for length in periodic_segments(work, period, checkpoint)
    )
