"""Simulation and measurement layer.

Three evaluation instruments of increasing fidelity:

* :mod:`repro.sim.montecarlo` — vectorized snapshot-model predicate
  sampling (validates the closed forms of :mod:`repro.analysis`),
* :mod:`repro.sim.protocol_mc` — per-trial execution of the real protocol
  engines (validates that the code implements the analyzed predicates),
* :mod:`repro.sim.trace_sim` — discrete-event history-model runs with
  staleness and repair (quantifies what the paper's model idealizes away)
  on one driver, :class:`ShardedClosedLoopSimulation`: closed-loop clients
  (concurrent in-flight operations, quorum-wait latency percentiles,
  faultloads mid-operation) or open-loop arrivals (the ``trace`` kind, at
  a fixed 0 s message latency).
"""

from repro.sim.metrics import (
    LatencyTally,
    MCEstimate,
    percentile_summary,
)
from repro.sim.montecarlo import (
    level_membership_matrix,
    mc_read_availability_erc,
    mc_read_availability_fr,
    mc_write_availability,
)
from repro.sim.comparative import (
    ComparisonResult,
    ScheduleStep,
    make_schedule,
    run_comparison,
)
from repro.sim.protocol_mc import ProtocolMonteCarlo
from repro.sim.saturation import (
    SaturationPoint,
    knee_clients,
    queue_summary,
    run_saturation_point,
)
from repro.sim.sweep import SweepRecord, availability_sweep, records_to_csv
from repro.sim.trace_sim import (
    ClosedLoopConfig,
    PartitionWindow,
    ShardedClosedLoopSimulation,
    schedule_partitions,
    schedule_trace,
)
from repro.sim.workloads import (
    OpKind,
    Operation,
    sequential_workload,
    uniform_workload,
    vm_disk_workload,
    write_payload,
    zipf_workload,
)

__all__ = [
    "MCEstimate",
    "LatencyTally",
    "percentile_summary",
    "level_membership_matrix",
    "mc_write_availability",
    "mc_read_availability_fr",
    "mc_read_availability_erc",
    "ProtocolMonteCarlo",
    "ScheduleStep",
    "ComparisonResult",
    "make_schedule",
    "run_comparison",
    "SweepRecord",
    "availability_sweep",
    "records_to_csv",
    "ClosedLoopConfig",
    "ShardedClosedLoopSimulation",
    "PartitionWindow",
    "schedule_trace",
    "schedule_partitions",
    "SaturationPoint",
    "run_saturation_point",
    "knee_clients",
    "queue_summary",
    "OpKind",
    "Operation",
    "uniform_workload",
    "write_payload",
    "sequential_workload",
    "zipf_workload",
    "vm_disk_workload",
]
