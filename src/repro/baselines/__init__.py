"""repro.baselines — the prior-art systems the paper compares against.

Section 5: "p4 and PVM on the Intel Paragon use the NX communication
library for internal communication and TCP for external communication;
p4 supports NX and TCP within a single process, while PVM uses a
forwarding process for TCP.  In both systems, the choice of method is
hard coded and cannot be extended or changed without substantial
re-engineering."

* :class:`~repro.baselines.p4.P4System` — two methods in one process,
  choice hard-coded by partition membership, both methods polled on
  every operation (no skip_poll, no selective polling — there is no knob
  to turn).
* :class:`~repro.baselines.pvm.PvmSystem` — fast method inside a
  partition; *all* external traffic relayed through a per-partition
  daemon (pvmd), even when direct TCP would be faster.

Both are built directly on :mod:`repro.transports` (no descriptor
tables, no selection policies, no startpoint mobility), which is
precisely what distinguishes them from Nexus.  The baselines artefact
(``python -m repro.bench baselines``) runs the same mixed workload over
p4, PVM, and Nexus configurations.
"""

from .p4 import P4Process, P4System
from .pvm import PvmSystem
from .workload import MixedWorkloadResult, run_mixed_workload

__all__ = [
    "MixedWorkloadResult",
    "P4Process",
    "P4System",
    "PvmSystem",
    "run_mixed_workload",
]
