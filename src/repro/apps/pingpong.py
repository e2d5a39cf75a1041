"""The ping-pong microbenchmark (Section 3.3, Figure 4).

"...a ping-pong microbenchmark that bounces a vector of fixed size back
and forth between two processors a large number of times.  This process
is repeated to obtain one-way communication times for a variety of
message sizes.  We measured performance of three implementations ...: a
pure MPL version, a Nexus version supporting a single communication
method (MPL), and a Nexus version supporting two communication methods
(MPL and TCP)."

Three measurement entry points mirror those implementations:

* :func:`raw_transport_pingpong` — drives a communication module
  directly, bypassing the Nexus layer entirely (no RSR headers, no
  dispatch, no unified polling): the "pure MPL program".
* :func:`nexus_pingpong` with ``methods=("local", "mpl")`` — the
  single-method Nexus version.
* :func:`nexus_pingpong` with ``methods=("local", "mpl", "tcp")`` — the
  multimethod version: all traffic still flows over MPL, but every poll
  cycle now pays for a TCP ``select``, which is exactly the overhead the
  figure quantifies.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..core.buffers import Buffer
from ..core.context import Context
from ..testbeds import SP2Testbed, make_sp2
from ..transports.base import WireMessage
from ..transports.errors import TransportError
from ..transports.fastbase import FastTransport

#: Minimal header a hand-coded MPL program would use.
RAW_HEADER_BYTES = 8


@dataclasses.dataclass(frozen=True)
class PingPongResult:
    """One measured ping-pong configuration."""

    label: str
    size: int
    roundtrips: int
    elapsed: float

    @property
    def one_way(self) -> float:
        """One-way communication time in seconds."""
        return self.elapsed / (2 * self.roundtrips)


# ---------------------------------------------------------------------------
# raw transport version (no Nexus layer at all)
# ---------------------------------------------------------------------------

def raw_transport_pingpong(size: int, roundtrips: int, *,
                           method: str = "mpl",
                           warmup: int = 2,
                           testbed: SP2Testbed | None = None
                           ) -> PingPongResult:
    """One-way time for a hand-coded, single-transport ping-pong.

    Both processes live in one SP2 partition; the message loop charges
    only the transport's own costs (send overhead, wire time, probe cost)
    plus a 1-instruction spin — no RSR header, no dispatch, no
    multimethod poll iteration.
    """
    bed = testbed or make_sp2(nodes_a=2, nodes_b=0)
    nexus = bed.nexus
    ctx_a = nexus.context(bed.hosts_a[0], "raw-a", methods=("local", method))
    ctx_b = nexus.context(bed.hosts_a[1], "raw-b", methods=("local", method))
    transport = nexus.transports.get(method)
    if not isinstance(transport, FastTransport):
        raise TransportError(
            f"raw_transport_pingpong needs a device-polling (fast) "
            f"transport; {method!r} is a {type(transport).__name__}")
    loop_cost = nexus.runtime_costs.poll_loop_cost
    nbytes = size + RAW_HEADER_BYTES

    def send_one(src: Context, dst: Context, state: dict):
        descriptor = transport.export_descriptor(dst)
        assert descriptor is not None
        message = WireMessage(handler="raw", endpoint_id=0,
                              src_context=src.id, dst_context=dst.id,
                              payload=None, nbytes=nbytes)
        yield from transport.send(src, state, descriptor, message)

    # The receive spin — a 1-instruction loop around the transport's own
    # probe — is ``FastTransport.spin_collect``: same clock readings as
    # polling every ``loop_cost + poll_cost``, but a constant number of
    # events per message however long the wire time is, as the Nexus
    # side's ``PollManager`` idle fast-forward has always had.
    def recv_one(me: Context):
        return transport.spin_collect(me, loop_cost)

    marks: dict[str, float] = {}

    def side_a():
        state: dict = {}
        for i in range(warmup + roundtrips):
            if i == warmup:
                marks["start"] = nexus.now
            yield from send_one(ctx_a, ctx_b, state)
            yield from recv_one(ctx_a)
        marks["end"] = nexus.now

    def side_b():
        state: dict = {}
        for _ in range(warmup + roundtrips):
            yield from recv_one(ctx_b)
            yield from send_one(ctx_b, ctx_a, state)

    done = nexus.spawn(side_a(), name="raw-pingpong-a")
    nexus.spawn(side_b(), name="raw-pingpong-b")
    nexus.run_until(done)
    return PingPongResult(label=f"raw {transport.name}", size=size,
                          roundtrips=roundtrips,
                          elapsed=marks["end"] - marks["start"])


# ---------------------------------------------------------------------------
# Nexus versions (single-method and multimethod)
# ---------------------------------------------------------------------------

def nexus_pingpong(size: int, roundtrips: int, *,
                   methods: _t.Sequence[str] = ("local", "mpl"),
                   skip: _t.Mapping[str, int] | None = None,
                   blocking: _t.Sequence[str] = (),
                   warmup: int = 2,
                   cross_partition: bool = False,
                   testbed: SP2Testbed | None = None,
                   label: str | None = None) -> PingPongResult:
    """One-way time for a Nexus RSR ping-pong.

    ``methods`` sets each context's descriptor table (and hence its poll
    set); all traffic flows over the fastest applicable method.  With
    ``cross_partition=True`` the two processes sit in different SP2
    partitions, so that method is TCP (used by Figure 6's TCP pair and by
    tests).  ``skip`` sets per-method skip_poll values on both contexts;
    ``blocking`` lists methods detected by blocking handlers instead of
    polls.
    """
    bed = testbed or (make_sp2(nodes_a=1, nodes_b=1) if cross_partition
                      else make_sp2(nodes_a=2, nodes_b=0))
    nexus = bed.nexus
    host_b = bed.hosts_b[0] if cross_partition else bed.hosts_a[1]
    ctx_a = nexus.context(bed.hosts_a[0], "pp-a", methods=methods)
    ctx_b = nexus.context(host_b, "pp-b", methods=methods)

    for ctx in (ctx_a, ctx_b):
        for method, value in (skip or {}).items():
            ctx.poll_manager.set_skip(method, value)
        for method in blocking:
            ctx.poll_manager.set_blocking(method)

    counters = {ctx_a.id: 0, ctx_b.id: 0}

    def bump(ctx: Context, _ep, _buf) -> None:
        counters[ctx.id] += 1

    ctx_a.register_handler("ball", bump)
    ctx_b.register_handler("ball", bump)
    sp_ab = ctx_a.startpoint_to(ctx_b.new_endpoint())
    sp_ba = ctx_b.startpoint_to(ctx_a.new_endpoint())

    def payload() -> Buffer:
        return Buffer().put_padding(size)

    marks: dict[str, float] = {}

    def side_a():
        for i in range(warmup + roundtrips):
            if i == warmup:
                marks["start"] = nexus.now
            yield from sp_ab.rsr("ball", payload())
            target = i + 1
            yield from ctx_a.wait(lambda: counters[ctx_a.id] >= target)
        marks["end"] = nexus.now

    def side_b():
        for i in range(warmup + roundtrips):
            target = i + 1
            yield from ctx_b.wait(lambda: counters[ctx_b.id] >= target)
            yield from sp_ba.rsr("ball", payload())

    done = nexus.spawn(side_a(), name="nexus-pingpong-a")
    nexus.spawn(side_b(), name="nexus-pingpong-b")
    nexus.run_until(done)
    return PingPongResult(
        label=label or f"nexus {'+'.join(methods)}",
        size=size, roundtrips=roundtrips,
        elapsed=marks["end"] - marks["start"],
    )
