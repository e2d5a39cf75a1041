"""Ablations for the design choices the paper discusses beyond its tables.

* **Blocking-handler polling** (Section 3.3): "on such systems, we can
  create a specialized polling function that executes in its own thread
  of control ... preliminary experiments show that this approach allows
  TCP communication operations to be detected without significant impact
  on MPL performance."  → :func:`ablation_blocking_poll`.
* **MPI layering cost** (Section 4): "this layering adds an execution
  time overhead of about 6 percent when compared with MPICH running on
  top of MPL."  → :func:`ablation_mpi_layering`.
* **Adaptive skip_poll** (Section 6 future work, implemented here):
  :func:`ablation_adaptive_skip` compares the online controller against
  the statically tuned optimum on the dual ping-pong.
* **Lightweight startpoints** (Section 3.1): startpoints without an
  attached descriptor table are significantly smaller on the wire.
  → :func:`ablation_lightweight_startpoints`.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..apps.dualpingpong import dual_pingpong
from ..core.adaptive import AdaptiveConfig, AdaptiveSkipPoll
from ..core.buffers import Buffer
from ..mpi.mpi import MpiConfig
from ..testbeds import make_sp2
from ..util.records import ResultTable
from . import Artefact, RunOptions
from .record import DIR_HIGHER, DIR_LOWER, KIND_COUNT, Metric


# ---------------------------------------------------------------------------
# blocking-handler detection
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class BlockingAblation:
    """Unified polling vs skip_poll vs blocking-handler detection."""

    table: ResultTable
    mpl_unified: float
    mpl_skip20: float
    mpl_blocking: float
    tcp_unified: float
    tcp_skip20: float
    tcp_blocking: float

    def render(self) -> str:
        return self.table.render(1)

    def metrics(self) -> _t.Iterator[Metric]:
        for field in ("mpl_unified", "mpl_skip20", "mpl_blocking",
                      "tcp_unified", "tcp_skip20", "tcp_blocking"):
            yield Metric(f"blocking.{field}_us",
                         getattr(self, field) * 1e6, unit="us")

    def check_shape(self) -> None:
        """Blocking detection leaves MPL essentially at single-method
        speed while TCP detection does not suffer."""
        assert self.mpl_blocking <= self.mpl_skip20 * 1.05
        assert self.mpl_blocking < 0.5 * self.mpl_unified
        assert self.tcp_blocking <= self.tcp_unified * 1.10


def ablation_blocking_poll(size: int = 0,
                           mpl_roundtrips: int = 400) -> BlockingAblation:
    """Compare the three detection strategies on the dual ping-pong."""
    unified = dual_pingpong(size, 1, mpl_roundtrips=mpl_roundtrips)
    skip20 = dual_pingpong(size, 20, mpl_roundtrips=mpl_roundtrips)
    blocking = dual_pingpong(size, 1, mpl_roundtrips=mpl_roundtrips,
                             blocking_tcp=True)
    table = ResultTable(
        f"Blocking-handler ablation ({size} B messages)",
        ["mpl one-way us", "tcp one-way us"],
    )
    table.add("unified polling (skip 1)", unified.mpl_one_way * 1e6,
              unified.tcp_one_way * 1e6)
    table.add("skip_poll 20", skip20.mpl_one_way * 1e6,
              skip20.tcp_one_way * 1e6)
    table.add("blocking TCP handlers", blocking.mpl_one_way * 1e6,
              blocking.tcp_one_way * 1e6)
    return BlockingAblation(
        table=table,
        mpl_unified=unified.mpl_one_way, mpl_skip20=skip20.mpl_one_way,
        mpl_blocking=blocking.mpl_one_way,
        tcp_unified=unified.tcp_one_way, tcp_skip20=skip20.tcp_one_way,
        tcp_blocking=blocking.tcp_one_way,
    )


# ---------------------------------------------------------------------------
# MPI layering
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class LayeringAblation:
    """MPICH-on-Nexus vs (modelled) MPICH-on-MPL."""

    with_layer: float
    without_layer: float

    @property
    def overhead(self) -> float:
        """Fractional execution-time overhead of the Nexus layering."""
        return self.with_layer / self.without_layer - 1.0

    def render(self) -> str:
        return f"MPI-on-Nexus layering overhead: {self.overhead:.1%}"

    def metrics(self) -> _t.Iterator[Metric]:
        yield Metric("mpi_layering.overhead_frac", self.overhead,
                     unit="frac")

    def check_shape(self) -> None:
        """A real but small cost (paper: ~6 % on the climate model)."""
        assert 0.0 < self.overhead < 0.15


def ablation_mpi_layering(steps: int = 2) -> LayeringAblation:
    """Measure the MPI-layer overhead on a communication-bound loop.

    Runs an MPI ring exchange with the layering cost on and off; the
    paper reports ~6 % for the full climate model (where computation
    dilutes the per-call cost), so a communication-bound kernel shows the
    per-op cost and the climate-model dilution is discussed in
    EXPERIMENTS.md.
    """
    from ..mpi.mpi import MPIWorld  # local import to keep module load light

    def run(config: MpiConfig) -> float:
        bed = make_sp2(nodes_a=4, nodes_b=0)
        nexus = bed.nexus
        contexts = [nexus.context(h, methods=("local", "mpl"))
                    for h in bed.hosts_a]
        world = MPIWorld(nexus, contexts, config=config)

        def body(proc):
            n = world.size
            for _ in range(50 * steps):
                dest = (proc.rank + 1) % n
                source = (proc.rank - 1) % n
                yield from proc.sendrecv(proc.rank, dest, 7, source, 7)

        handles = world.run_spmd(body)
        nexus.run_until(*handles)
        return nexus.now

    return LayeringAblation(
        with_layer=run(MpiConfig()),
        without_layer=run(MpiConfig(call_overhead=0.0)),
    )


# ---------------------------------------------------------------------------
# adaptive skip_poll
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class AdaptiveAblation:
    """Static sweep optimum vs online controller."""

    static: dict[int, tuple[float, float]]   # skip -> (mpl, tcp) one-way
    adaptive_mpl: float
    adaptive_tcp: float
    final_skips: list[int]

    def best_static_mpl(self) -> float:
        return min(mpl for mpl, _tcp in self.static.values())

    def render(self) -> str:
        return (f"adaptive skip_poll: MPL {self.adaptive_mpl * 1e6:.1f} us "
                f"(best static {self.best_static_mpl() * 1e6:.1f} us); "
                f"final skips {self.final_skips}")

    def metrics(self) -> _t.Iterator[Metric]:
        yield Metric("adaptive.mpl_one_way_us", self.adaptive_mpl * 1e6,
                     unit="us")
        yield Metric("adaptive.tcp_one_way_us", self.adaptive_tcp * 1e6,
                     unit="us")
        yield Metric("adaptive.best_static_mpl_us",
                     self.best_static_mpl() * 1e6, unit="us")

    def check_shape(self) -> None:
        """The controller lands within 25 % of the tuned static optimum
        and backs the idle TCP pollers off (a context may stay at
        ``skip=1`` only where it is TCP-busy, and there it is right)."""
        assert self.adaptive_mpl <= self.best_static_mpl() * 1.25
        assert max(self.final_skips) > 1


def ablation_adaptive_skip(size: int = 0, mpl_roundtrips: int = 600,
                           skips: _t.Sequence[int] = (1, 5, 20, 100)
                           ) -> AdaptiveAblation:
    """Run the dual ping-pong with the adaptive controller attached to
    every context's TCP method and compare with the static sweep."""
    static = {
        skip: (r.mpl_one_way, r.tcp_one_way)
        for skip in skips
        for r in [dual_pingpong(size, skip, mpl_roundtrips=mpl_roundtrips)]
    }

    # Adaptive run: reach into the app by rebuilding it with controllers.
    from ..apps import dualpingpong as dp

    bed = make_sp2(nodes_a=3, nodes_b=1)
    controllers: list[AdaptiveSkipPoll] = []
    original_ctx = bed.nexus.context

    def context_with_controller(host, name=None, methods=None, policy=None):
        ctx = original_ctx(host, name, methods, policy)
        if methods and "tcp" in methods:
            controller = AdaptiveSkipPoll(
                ctx, "tcp",
                AdaptiveConfig(max_skip=256, latency_budget=2e-3))
            controller.attach()
            controllers.append(controller)
        return ctx

    bed.nexus.context = context_with_controller  # type: ignore[method-assign]
    result = dp.dual_pingpong(size, 1, mpl_roundtrips=mpl_roundtrips,
                              testbed=bed)
    return AdaptiveAblation(
        static=static,
        adaptive_mpl=result.mpl_one_way,
        adaptive_tcp=result.tcp_one_way,
        final_skips=[c.skip for c in controllers],
    )


# ---------------------------------------------------------------------------
# eager vs rendezvous
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RendezvousAblation:
    """Eager vs rendezvous protocol on a burst of unsolicited large sends."""

    eager_time: float
    rendezvous_time: float
    eager_parked_bytes: int
    rendezvous_parked_bytes: int

    @property
    def parked_reduction(self) -> float:
        """How much receiver buffer memory rendezvous saves."""
        if self.eager_parked_bytes == 0:
            return 0.0
        return 1.0 - (self.rendezvous_parked_bytes
                      / self.eager_parked_bytes)

    def render(self) -> str:
        return (f"eager vs rendezvous: parked bytes "
                f"{self.eager_parked_bytes} -> "
                f"{self.rendezvous_parked_bytes} "
                f"({self.parked_reduction:.0%} reduction) at "
                f"{(self.rendezvous_time / self.eager_time - 1):.0%} "
                "extra completion time")

    def metrics(self) -> _t.Iterator[Metric]:
        yield Metric("rendezvous.eager_time_s", self.eager_time, unit="s")
        yield Metric("rendezvous.rendezvous_time_s", self.rendezvous_time,
                     unit="s")
        yield Metric("rendezvous.eager_parked_bytes",
                     self.eager_parked_bytes, unit="B", kind=KIND_COUNT,
                     direction=DIR_LOWER)
        yield Metric("rendezvous.rendezvous_parked_bytes",
                     self.rendezvous_parked_bytes, unit="B",
                     kind=KIND_COUNT, direction=DIR_LOWER)
        yield Metric("rendezvous.parked_reduction_frac",
                     self.parked_reduction, unit="frac",
                     direction=DIR_HIGHER)

    def check_shape(self) -> None:
        """Rendezvous bounds receiver memory (the default 6 x 512 KiB
        burst parks at least five payloads under eager) at the cost of
        extra round trips."""
        assert self.parked_reduction > 0.95
        assert self.eager_parked_bytes >= 5 * 512 * 1024
        assert self.rendezvous_time >= self.eager_time * 0.9


def ablation_rendezvous(messages: int = 6,
                        message_bytes: int = 512 * 1024
                        ) -> RendezvousAblation:
    """A late receiver absorbs a burst of large sends under both
    protocols; compare completion time and peak unexpected-queue bytes.

    Eager parks every payload at the receiver (fast, memory-hungry);
    rendezvous parks ~100-byte envelopes and pays an extra round trip
    per message.
    """
    from ..mpi.datatypes import Padded
    from ..mpi.mpi import MPIWorld, MpiConfig

    def run(config: MpiConfig) -> tuple[float, int]:
        bed = make_sp2(nodes_a=2, nodes_b=0)
        nexus = bed.nexus
        contexts = [nexus.context(h) for h in bed.hosts_a]
        world = MPIWorld(nexus, contexts, config=config)

        def body(proc):
            if proc.rank == 0:
                for index in range(messages):
                    yield from proc.send(Padded(index, message_bytes),
                                         dest=1)
            else:
                # The receiver shows up long after every send has fully
                # drained, then lets one poll dispatch the whole burst:
                # every message that lacks a matching receive parks in
                # the unexpected queue.
                late = 0.05 + 2 * messages * message_bytes / (36 * 2 ** 20)
                yield from proc.context.charge(late)
                yield from proc.context.poll()
                for _ in range(messages):
                    yield from proc.recv(source=0)

        handles = world.run_spmd(body)
        nexus.run_until(*handles)
        return nexus.now, world.process(1).matching.max_unexpected_bytes

    eager_time, eager_parked = run(MpiConfig())
    rdv_time, rdv_parked = run(MpiConfig(eager_threshold=64 * 1024))
    return RendezvousAblation(
        eager_time=eager_time, rendezvous_time=rdv_time,
        eager_parked_bytes=eager_parked,
        rendezvous_parked_bytes=rdv_parked,
    )


# ---------------------------------------------------------------------------
# lightweight startpoints
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class StartpointSizes:
    """Wire sizes of full vs lightweight startpoints."""

    full_bytes: int
    lightweight_bytes: int

    @property
    def saving(self) -> float:
        return 1.0 - self.lightweight_bytes / self.full_bytes

    def render(self) -> str:
        return (f"startpoint wire size: {self.full_bytes} B full, "
                f"{self.lightweight_bytes} B lightweight "
                f"({self.saving:.0%} saving)")

    def metrics(self) -> _t.Iterator[Metric]:
        yield Metric("startpoint.full_bytes", self.full_bytes, unit="B",
                     kind=KIND_COUNT, direction=DIR_LOWER)
        yield Metric("startpoint.lightweight_bytes", self.lightweight_bytes,
                     unit="B", kind=KIND_COUNT, direction=DIR_LOWER)
        yield Metric("startpoint.saving_frac", self.saving, unit="frac",
                     direction=DIR_HIGHER)

    def check_shape(self) -> None:
        """Paper: a descriptor table costs "a few tens of bytes"."""
        assert self.saving > 0.5
        assert 20 <= self.full_bytes - self.lightweight_bytes <= 200


def ablation_lightweight_startpoints() -> StartpointSizes:
    """Measure the Section 3.1 size optimisation on real descriptor
    tables ("the size of a startpoint ... can be reduced significantly
    by not attaching a descriptor table")."""
    bed = make_sp2(nodes_a=2, nodes_b=0)
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0], "a")
    b = nexus.context(bed.hosts_a[1], "b")
    sp = a.startpoint_to(b.new_endpoint())

    full = Buffer().put_startpoint(sp)
    light = Buffer().put_startpoint(sp, lightweight=True)
    return StartpointSizes(full_bytes=full.nbytes,
                           lightweight_bytes=light.nbytes)


# ---------------------------------------------------------------------------
# the artefact: all five, in the order the CLI prints them
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Ablations:
    """Every ablation's result; renders and records them in order."""

    parts: tuple[_t.Any, ...]

    def render(self) -> str:
        blocking, *rest = (part.render() for part in self.parts)
        return blocking + "\n\n" + "\n".join(rest)

    def metrics(self) -> _t.Iterator[Metric]:
        for part in self.parts:
            yield from part.metrics()


def check_ablations_shape(result: Ablations) -> None:
    """Every ablation's own shape criteria, in order."""
    for part in result.parts:
        part.check_shape()


def _run(options: RunOptions) -> Ablations:
    return Ablations(parts=(
        ablation_blocking_poll(),
        ablation_mpi_layering(),
        ablation_adaptive_skip(),
        ablation_lightweight_startpoints(),
        ablation_rendezvous(),
    ))


ARTEFACT = Artefact("ablations", _run, check_ablations_shape)
