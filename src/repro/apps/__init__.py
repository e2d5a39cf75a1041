"""repro.apps — the workloads of the paper's evaluation.

* :mod:`repro.apps.pingpong` — the Section 3.3 ping-pong microbenchmark
  (raw transport, Nexus single-method, Nexus multimethod) → Figure 4.
* :mod:`repro.apps.dualpingpong` — two concurrent ping-pongs (MPL inside
  a partition, TCP across partitions) under a skip_poll sweep → Figure 6.
* :mod:`repro.apps.climate` — the Millenia-style coupled ocean/atmosphere
  model over mini-MPI → Table 1.
* :mod:`repro.apps.stream` — instrument-to-supercomputer streaming with
  failover between substrates (the Section 1/2 motivation).
* :mod:`repro.apps.collab` — collaborative shared-state multicast.
"""

from .collab import CollabResult, run_collab
from .dualpingpong import DualPingPongResult, dual_pingpong
from .pingpong import (
    PingPongResult,
    nexus_pingpong,
    raw_transport_pingpong,
)
from .stream import FrameRecord, MethodMonitor, StreamResult, run_stream

__all__ = [
    "CollabResult",
    "DualPingPongResult",
    "FrameRecord",
    "MethodMonitor",
    "PingPongResult",
    "StreamResult",
    "dual_pingpong",
    "nexus_pingpong",
    "raw_transport_pingpong",
    "run_collab",
    "run_stream",
]
