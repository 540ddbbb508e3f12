"""Discrete-event simulation substrate.

The paper validates its analytical model with a purpose-built discrete event
simulator (Section V-A).  That simulator was never released; this package
re-implements it from scratch:

* :mod:`repro.simulation.events` -- event records and event kinds (failure,
  checkpoint start/end, recovery, phase transitions, ...).
* :mod:`repro.simulation.rng` -- reproducible, independent random streams
  (one per concern: failures, node attribution, workload jitter).
* :mod:`repro.simulation.trace` -- execution trace recording and the
  time-breakdown accounting (useful work, checkpointing, re-execution,
  recovery, downtime, ABFT overhead) from which waste is computed.
* :mod:`repro.simulation.runner` -- Monte-Carlo driver that repeats a
  simulation over many independent failure draws and aggregates the results
  (the paper averages 1000 executions per configuration).
* :mod:`repro.simulation.table` -- the columnar per-trial result table
  (structured NumPy array) every campaign produces; summaries are
  vectorized reductions over its columns.
* :mod:`repro.simulation.schedule` -- the segment-schedule IR: protocols
  compile to a run-length-compressed :class:`~repro.simulation.schedule.
  Schedule` of typed segments; the
  :class:`~repro.simulation.schedule.ScheduleInterpreter` is the canonical
  event walk over it.
* :mod:`repro.simulation.vectorized` -- the across-trials engine behind
  ``backend="vectorized"``: executes the same compiled schedules,
  bit-identical to the event walk for the laws it supports.
"""

from repro.simulation.events import Event, EventKind
from repro.simulation.rng import RandomStreams
from repro.simulation.table import TrialTable, TRIAL_DTYPE
from repro.simulation.trace import (
    CATEGORIES,
    ExecutionTrace,
    TimeBreakdown,
    TraceRecorder,
    WasteAccumulator,
)
from repro.simulation.runner import MonteCarloResult, run_monte_carlo
from repro.simulation.schedule import (
    AbftSegment,
    AtomicSegment,
    PeriodicSegment,
    Schedule,
    ScheduleInterpreter,
    ScheduleRun,
    SimulationHorizonExceeded,
    compile_schedule,
)
from repro.simulation.vectorized import (
    ENGINE_BACKENDS,
    VectorizedBackendError,
    VectorizedPhasedSimulator,
)

__all__ = [
    "Event",
    "EventKind",
    "RandomStreams",
    "CATEGORIES",
    "ExecutionTrace",
    "TimeBreakdown",
    "WasteAccumulator",
    "TraceRecorder",
    "TrialTable",
    "TRIAL_DTYPE",
    "MonteCarloResult",
    "run_monte_carlo",
    "PeriodicSegment",
    "AtomicSegment",
    "AbftSegment",
    "Schedule",
    "ScheduleRun",
    "ScheduleInterpreter",
    "SimulationHorizonExceeded",
    "compile_schedule",
    "ENGINE_BACKENDS",
    "VectorizedBackendError",
    "VectorizedPhasedSimulator",
]
