"""Transport cost models calibrated to the paper's reported constants.

Section 3.3 and Section 4 of the paper give us hard numbers for the
Argonne SP2 environment every experiment ran in:

* MPL over the SP2 switch: **36 MB/s** peak bandwidth; the ``mpc_status``
  probe used to detect an incoming MPL operation costs **15 µs**.
* TCP over the same switch: **8 MB/s** peak bandwidth; a ``select`` costs
  **over 100 µs**; small-message latency between partitions is **~2 ms**.
* A zero-byte Nexus/MPL one-way costs **83 µs** (raw MPL is cheaper), and
  enabling TCP polling raises it to **156 µs**.

The dataclasses here hold those constants (and analogous ones for the
other modules the paper lists — local, shared memory, UDP, Myrinet,
AAL-5, multicast) so that the simulation reproduces the paper's *cost
structure* exactly even though the hardware is simulated.

The ``select_drain_overlap`` parameter implements the paper's hypothesis
for why TCP polling degrades large MPL transfers: "repeated kernel calls
due to select slow the transfer of data from the SP2 communication device
to user space".  A fraction ``1 - select_drain_overlap`` of every
expensive foreign poll stalls the device-to-user drain of in-flight MPL
data (see :class:`repro.transports.mpl.MplTransport`).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..util.units import mbps, microseconds, milliseconds


@dataclasses.dataclass(frozen=True)
class TransportCosts:
    """Cost parameters for one communication module.

    Attributes
    ----------
    latency:
        One-way wire latency (seconds) for a minimal message.
    bandwidth:
        Sustained data bandwidth, bytes/second.
    poll_cost:
        CPU time of one poll of this method (``mpc_status``, ``select``...).
    send_overhead / recv_overhead:
        Fixed per-message CPU time at the sender / receiver.
    connect_cost:
        One-time cost of constructing a communication object (e.g. TCP
        connection establishment).
    per_byte_send:
        Additional sender CPU time per byte (buffer copies); usually 0
        because serialisation is modelled at the receiving device.
    per_byte_recv:
        Receiver CPU time per byte charged at dispatch.  Zero for
        DMA-class devices (MPL, Myrinet); nonzero for mid-90s kernel TCP,
        where the kernel→user copy and checksum put the receive path on
        the CPU — the reason MPI-over-TCP achieved only a fraction of
        peak stream bandwidth and a large part of why the paper's all-TCP
        configuration is an order of magnitude slower.
    steals_device_time:
        True for methods whose poll makes kernel calls that stall other
        devices' drains (TCP/UDP ``select``) — the Figure 4 interference
        mechanism.
    supports_blocking:
        True if a blocking wait is possible (the AIX 4.1 TCP capability in
        Section 3.3); enables the blocking-handler poll mode.
    reliable:
        False for unreliable datagram methods (UDP).
    drop_probability:
        Loss rate applied when ``reliable`` is False.
    """

    latency: float
    bandwidth: float
    poll_cost: float
    send_overhead: float = 0.0
    recv_overhead: float = 0.0
    connect_cost: float = 0.0
    per_byte_send: float = 0.0
    per_byte_recv: float = 0.0
    steals_device_time: bool = False
    supports_blocking: bool = False
    reliable: bool = True
    drop_probability: float = 0.0

    def replace(self, **changes: object) -> "TransportCosts":
        """A copy with the given fields changed (for sweeps/ablations)."""
        return dataclasses.replace(self, **_t.cast(dict, changes))


#: Intracontext delivery: a procedure call plus a queue operation.
LOCAL_COSTS = TransportCosts(
    latency=microseconds(0.5),
    bandwidth=mbps(400.0),
    poll_cost=microseconds(0.2),
    send_overhead=microseconds(1.0),
    recv_overhead=microseconds(0.5),
)

#: Shared memory between contexts on one host.
SHM_COSTS = TransportCosts(
    latency=microseconds(2.0),
    bandwidth=mbps(200.0),
    poll_cost=microseconds(1.0),
    send_overhead=microseconds(3.0),
    recv_overhead=microseconds(2.0),
)

#: IBM MPL over the SP2 multistage switch (same partition + session only).
MPL_COSTS = TransportCosts(
    latency=microseconds(30.0),
    bandwidth=mbps(36.0),          # paper: "about 36 MB/sec"
    poll_cost=microseconds(15.0),  # paper: mpc_status costs 15 us
    send_overhead=microseconds(25.0),
    recv_overhead=microseconds(10.0),
)

#: TCP over the SP2 switch (any IP-connected pair).
TCP_COSTS = TransportCosts(
    latency=milliseconds(2.0),     # paper: ~2 ms small-message latency
    bandwidth=mbps(8.0),           # paper: "about 8 MB/sec"
    poll_cost=microseconds(110.0),  # paper: select costs "over 100 us"
    send_overhead=microseconds(60.0),
    recv_overhead=microseconds(40.0),
    connect_cost=milliseconds(5.0),
    per_byte_send=microseconds(0.12),  # user->kernel copy + checksum
    per_byte_recv=microseconds(0.18),  # kernel->user copy + checksum
    steals_device_time=True,
    supports_blocking=True,        # on AIX 4.1 (modelled; see Section 3.3)
)

#: Unreliable datagrams over IP.
UDP_COSTS = TransportCosts(
    latency=milliseconds(1.0),
    bandwidth=mbps(9.0),
    poll_cost=microseconds(100.0),
    send_overhead=microseconds(40.0),
    recv_overhead=microseconds(30.0),
    per_byte_recv=microseconds(0.12),
    steals_device_time=True,
    reliable=False,
    drop_probability=0.01,
)

#: Myrinet (Myricom LANai, mid-90s): fast user-level networking.
MYRINET_COSTS = TransportCosts(
    latency=microseconds(20.0),
    bandwidth=mbps(60.0),
    poll_cost=microseconds(5.0),
    send_overhead=microseconds(10.0),
    recv_overhead=microseconds(8.0),
)

#: AAL-5 over an ATM PVC (OC-3 class).
AAL5_COSTS = TransportCosts(
    latency=microseconds(400.0),
    bandwidth=mbps(16.0),
    poll_cost=microseconds(60.0),
    send_overhead=microseconds(35.0),
    recv_overhead=microseconds(25.0),
    steals_device_time=True,
)

#: IP multicast (one send, delivery to every group member).
MULTICAST_COSTS = TransportCosts(
    latency=milliseconds(1.5),
    bandwidth=mbps(6.0),
    poll_cost=microseconds(90.0),
    send_overhead=microseconds(50.0),
    recv_overhead=microseconds(35.0),
    steals_device_time=True,
    reliable=False,
    drop_probability=0.0,
)

#: Default cost table, keyed by transport name.
DEFAULT_COSTS: dict[str, TransportCosts] = {
    "local": LOCAL_COSTS,
    "shm": SHM_COSTS,
    "mpl": MPL_COSTS,
    "tcp": TCP_COSTS,
    "udp": UDP_COSTS,
    "myrinet": MYRINET_COSTS,
    "aal5": AAL5_COSTS,
    "mcast": MULTICAST_COSTS,
}


@dataclasses.dataclass(frozen=True)
class RuntimeCosts:
    """Costs of the Nexus layer itself (Section 3 / Figure 4 calibration).

    Attributes
    ----------
    rsr_send_overhead:
        Extra sender CPU per RSR vs the raw transport (header marshalling,
        function-table indirection).
    dispatch_cost:
        Receiver CPU to decode an RSR header and invoke the handler.
    header_bytes:
        Wire bytes added to every RSR by the Nexus envelope.
    poll_loop_cost:
        CPU cost of one trip around the idle polling loop, excluding the
        per-method poll costs themselves.
    select_drain_overlap:
        Fraction of an expensive foreign poll that overlaps with (does not
        stall) the device-to-user drain of fast-transport data; the
        remaining fraction delays in-flight messages (Figure 4's
        large-message degradation).
    mpi_layer_overhead:
        Fractional execution-time overhead of layering MPI on Nexus
        (paper: "about 6 percent" vs MPICH on MPL).
    xdr_per_byte:
        Receiver CPU per byte for data-representation conversion when a
        message crosses between hosts of *different* architectures
        (``host.attributes["arch"]``) — the heterogeneity tax every
        metacomputing system pays.  Same-architecture traffic (and hosts
        with no declared architecture) pays nothing, so the SP2-only
        experiments are unaffected.
    forward_overhead:
        Forwarder CPU to re-send one message of a forwarded method over
        the fast method (Section 3.3's dedicated forwarding processor).
    wait_loop_cycle:
        One trip around an application's wait loop, poll included: the
        unit of the adaptive skip bound (worst-case detection latency is
        skip x cycle).
    """

    rsr_send_overhead: float = microseconds(8.0)
    dispatch_cost: float = microseconds(5.0)
    header_bytes: int = 32
    poll_loop_cost: float = microseconds(1.0)
    select_drain_overlap: float = 0.8
    mpi_layer_overhead: float = 0.06
    xdr_per_byte: float = microseconds(0.05)
    forward_overhead: float = microseconds(50.0)
    wait_loop_cycle: float = microseconds(16.0)


DEFAULT_RUNTIME_COSTS = RuntimeCosts()
