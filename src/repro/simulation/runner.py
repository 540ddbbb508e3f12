"""Monte-Carlo driver: repeat a stochastic simulation and aggregate results.

The paper's validation averages one thousand independent executions for every
parameter combination (Section V-A).  :func:`run_monte_carlo` reproduces this
campaign structure: a *single-run* callable is invoked with independent,
deterministically derived random generators, the per-trial samples are
collected into a columnar :class:`~repro.simulation.table.TrialTable`, and
the waste / makespan / failure-count distributions are summarised with
vectorized reductions over its columns.

:func:`simulate_trial_range` runs any contiguous ``[start, stop)`` slice of
a campaign; it is the event simulators' ``run_trial_range``, the entry point
both Monte-Carlo engines share.  For large campaigns,
:class:`repro.campaign.ShardedVectorizedExecutor` splits the trial range
into shards over worker processes with bit-identical results (same root
seed, any worker count).  The fully vectorized across-trials engine
(:mod:`repro.simulation.vectorized`) produces the same tables without a
Python loop at all, for the protocols and failure laws it supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.simulation.rng import TrialStreams
from repro.simulation.table import TrialTable
from repro.simulation.trace import ExecutionTrace
from repro.utils.stats import SummaryStatistics

__all__ = [
    "MonteCarloResult",
    "run_monte_carlo",
    "simulate_trial_range",
]

SimulateOnce = Callable[[np.random.Generator], ExecutionTrace]


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregated outcome of a Monte-Carlo simulation campaign.

    Attributes
    ----------
    protocol:
        Protocol name (taken from the first trace).
    runs:
        Number of independent executions.
    waste:
        Summary statistics of the per-run waste.
    makespan:
        Summary statistics of the per-run makespan (seconds).
    failures:
        Summary statistics of the per-run failure counts.
    application_time:
        The common fault-free application duration ``T0`` (seconds).
    table:
        The columnar per-trial results backing the summaries (the canonical
        campaign output; summaries are vectorized reductions over it).
    traces:
        The individual traces when ``keep_traces`` was requested, else empty.
    """

    protocol: str
    runs: int
    waste: SummaryStatistics
    makespan: SummaryStatistics
    failures: SummaryStatistics
    application_time: float
    table: Optional[TrialTable] = None
    traces: tuple[ExecutionTrace, ...] = field(default_factory=tuple)

    @classmethod
    def from_table(
        cls,
        table: TrialTable,
        *,
        confidence: float = 0.95,
        traces: Sequence[ExecutionTrace] = (),
    ) -> "MonteCarloResult":
        """Summarise a :class:`TrialTable` into a campaign result."""
        return cls(
            protocol=table.protocol,
            runs=table.runs,
            waste=table.summarize("waste", confidence),
            makespan=table.summarize("makespan", confidence),
            failures=table.summarize("failure_count", confidence),
            application_time=table.application_time,
            table=table,
            traces=tuple(traces),
        )

    @property
    def mean_waste(self) -> float:
        """Convenience accessor for the mean simulated waste."""
        return self.waste.mean

    @property
    def mean_makespan(self) -> float:
        """Convenience accessor for the mean simulated makespan."""
        return self.makespan.mean

    @property
    def mean_failures(self) -> float:
        """Convenience accessor for the mean number of failures per run."""
        return self.failures.mean

    @property
    def truncated(self) -> int:
        """Number of trials cut short by the ``max_slowdown`` cap."""
        if self.table is None:
            return 0
        return self.table.truncated_count


def run_monte_carlo(
    simulate_once: SimulateOnce,
    *,
    runs: int,
    seed: Optional[int] = None,
    keep_traces: bool = False,
    confidence: float = 0.95,
) -> MonteCarloResult:
    """Run ``simulate_once`` ``runs`` times with independent RNG streams.

    Parameters
    ----------
    simulate_once:
        Callable taking a :class:`numpy.random.Generator` and returning an
        :class:`~repro.simulation.trace.ExecutionTrace`.
    runs:
        Number of independent executions (the paper uses 1000).
    seed:
        Root seed; trial ``i`` always receives the same child stream for a
        given root seed, regardless of execution order.
    keep_traces:
        Store every individual trace in the result (memory heavy; off by
        default).
    confidence:
        Confidence level of the reported intervals.
    """
    if runs <= 0:
        raise ValueError(f"runs must be a positive integer, got {runs}")
    table, traces = simulate_trial_range(
        simulate_once, seed=seed, start=0, stop=runs, keep_traces=keep_traces
    )
    return MonteCarloResult.from_table(table, confidence=confidence, traces=traces)


def simulate_trial_range(
    simulate_once: SimulateOnce,
    *,
    seed: Optional[int],
    start: int,
    stop: int,
    keep_traces: bool = False,
) -> tuple[TrialTable, list[ExecutionTrace]]:
    """Run trials ``start..stop-1`` and return their table slice.

    Each trial's generator is bit-identical to
    ``RandomStreams(seed).generator_for_trial(index)``, which is what lets
    the parallel executor split a campaign into batches and reassemble a
    bit-identical table.  The range's state rows are derived in one pass
    (:class:`~repro.simulation.rng.TrialStreams`) and each generator is
    built only when its trial runs.
    """
    if stop <= start:
        raise ValueError(f"empty trial range [{start}, {stop})")
    streams = TrialStreams(seed, start, stop)
    table = TrialTable.empty(stop - start)
    traces: list[ExecutionTrace] = []
    for index in range(start, stop):
        trace = simulate_once(streams.generator(index - start))
        if index == start:
            table = TrialTable(
                table.data,
                protocol=trace.protocol,
                application_time=trace.application_time,
            )
        table.record_trace(index - start, trace)
        if keep_traces:
            traces.append(trace)
    return table, traces
