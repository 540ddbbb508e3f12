"""Discrete-event simulations of the fault-tolerance protocols.

These simulators reproduce the behaviour of the protocols without the
first-order approximations of the analytical model: failures may strike
during checkpoints, recoveries, reconstructions and re-executions, several
failures may hit the same period, and every such event is re-executed until
the work completes (paper Section V-A: *"the simulator ... takes these events
into account, accurately reproducing the corresponding costs"*).

* :class:`PurePeriodicCkptSimulator` -- full-memory periodic checkpointing
  with a single period over the whole run.
* :class:`BiPeriodicCkptSimulator` -- incremental checkpoints (cost ``C_L``)
  with their own period during LIBRARY phases.
* :class:`AbftPeriodicCkptSimulator` -- the composite protocol: forced
  partial checkpoints around library calls, ABFT inside them, periodic
  checkpointing outside.
* :class:`NoFaultToleranceSimulator` -- restart-from-scratch baseline.
"""

from repro.core.protocols.base import ProtocolSimulator, SimulationHorizonExceeded
from repro.core.protocols.no_ft import (
    NoFaultToleranceSimulator,
    compile_no_ft_schedule,
)
from repro.core.protocols.pure_periodic import (
    PurePeriodicCkptSimulator,
    compile_pure_periodic_schedule,
)
from repro.core.protocols.bi_periodic import (
    BiPeriodicCkptSimulator,
    compile_bi_periodic_schedule,
)
from repro.core.protocols.abft_periodic import (
    AbftPeriodicCkptSimulator,
    compile_abft_periodic_schedule,
)

__all__ = [
    "ProtocolSimulator",
    "SimulationHorizonExceeded",
    "NoFaultToleranceSimulator",
    "PurePeriodicCkptSimulator",
    "BiPeriodicCkptSimulator",
    "AbftPeriodicCkptSimulator",
    "compile_no_ft_schedule",
    "compile_pure_periodic_schedule",
    "compile_bi_periodic_schedule",
    "compile_abft_periodic_schedule",
]
