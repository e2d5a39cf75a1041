"""Mini-MPI on Nexus: two-sided message passing over one-sided RSRs.

This reproduces the structure of the MPICH-on-Nexus implementation the
paper used for the climate model: every MPI process is one Nexus context
holding a matching engine; ``MPI_Send`` becomes an RSR to the
destination's ``__mpi__`` handler; receives poll the matching queues via
the context wait loop (so every MPI call exercises the multimethod
polling machinery, exactly as in the paper).  The layering adds a small
per-call CPU overhead (``RuntimeCosts.mpi_call_overhead``), the
analogue of the ~6 % execution-time overhead the paper measured for
MPICH on Nexus vs MPICH on MPL.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from ..core.buffers import Buffer
from ..core.context import Context
from ..core.endpoint import Endpoint
from ..core.runtime import Nexus
from ..core.startpoint import Startpoint
from .communicator import Communicator
from .datatypes import Payload, pack_payload, payload_nbytes, unpack_payload
from .errors import MpiError, RankError
from .matching import MatchingQueues, MpiMessage, PostedRecv
from .request import Request
from .status import ANY_SOURCE, ANY_TAG
from . import collectives as _collectives

#: Envelope overhead added by the MPI layer on top of the Nexus header.
MPI_ENVELOPE_BYTES = 24


@dataclasses.dataclass(frozen=True)
class MpiConfig:
    """Protocol settings of the MPI-on-Nexus layering (its per-call cost
    is the runtime's ``mpi_call_overhead``).

    ``eager_threshold`` switches sends of at least that many payload
    bytes to the **rendezvous protocol** (RTS envelope → CTS grant →
    DATA transfer): large messages never sit copied in the receiver's
    unexpected queue, at the cost of an extra round trip.  ``None``
    (the default) keeps every send eager, matching the paper-era MPICH
    configuration the calibrated experiments assume.
    """

    eager_threshold: int | None = None


#: Envelope kinds on the __mpi__ wire.
_K_EAGER = 0
_K_RTS = 1
_K_CTS = 2
_K_DATA = 3

#: Wire size of RTS/CTS/DATA control headers.
RENDEZVOUS_HEADER_BYTES = 16


class MpiProcess:
    """One MPI process: a rank bound to a Nexus context."""

    def __init__(self, world: "MPIWorld", rank: int, context: Context):
        self.world = world
        self.nexus: Nexus = world.nexus
        self.rank = rank
        self.context = context
        self.matching = MatchingQueues()
        self._startpoints: dict[int, Startpoint] = {}
        self._coll_seq: dict[int, int] = {}
        self.endpoint: Endpoint = context.new_endpoint(bound_object=self)
        context.register_handler("__mpi__", _mpi_handler)
        # Rendezvous state: outgoing payloads parked until CTS, and
        # matched-but-empty receives awaiting their DATA transfer.
        self._rdv_tokens = itertools.count(1)
        self._pending_sends: dict[int, tuple[Payload, int, float]] = {}
        self._awaiting_data: dict[int, "PostedRecv"] = {}
        self.rendezvous_sends = 0

    # -- infrastructure -----------------------------------------------------

    def startpoint_to(self, world_rank: int) -> Startpoint:
        sp = self._startpoints.get(world_rank)
        if sp is None:  # first use: bind to the startup snapshot
            world = self.world
            if not 0 <= world_rank < len(world.tables):
                raise RankError(
                    f"rank {self.rank} has no route to {world_rank}")
            peer = world.processes[world_rank]
            sp = Startpoint(self.context).bind_address(
                peer.context.id, peer.endpoint.id, world.tables[world_rank])
            self._startpoints[world_rank] = sp
        return sp

    def _resolve_comm(self, comm: Communicator | None) -> Communicator:
        communicator = comm or self.world.comm_world
        if not communicator.contains_world(self.rank):
            raise RankError(
                f"rank {self.rank} is not a member of communicator "
                f"{communicator.id}"
            )
        return communicator

    def next_collective_tag(self, comm: Communicator) -> int:
        """Per-communicator collective sequence number.

        All members execute collectives in the same order (an MPI
        requirement), so equal sequence numbers identify one operation.
        """
        seq = self._coll_seq.get(comm.id, 0) + 1
        self._coll_seq[comm.id] = seq
        return seq

    # -- point-to-point ------------------------------------------------------------

    def send(self, data: Payload, dest: int, tag: int = 0,
             comm: Communicator | None = None, *, collective: bool = False):
        """Generator: blocking standard-mode send (eager protocol, or
        rendezvous at :attr:`MpiConfig.eager_threshold`)."""
        comm = self._resolve_comm(comm)
        context_id = (comm.collective_context if collective
                      else comm.p2p_context)
        config = self.world.config
        sim = self.nexus.sim
        overhead = self.nexus.runtime_costs.mpi_call_overhead
        if overhead > 0.0:
            yield overhead
        my_rank = comm.rank_of_world(self.rank)
        if not (0 <= dest < comm.size):
            raise RankError(f"destination rank {dest} out of range")
        nbytes = payload_nbytes(data)
        threshold = config.eager_threshold
        sp = self.startpoint_to(comm.world_rank(dest))
        now = sim._now

        if threshold is not None and nbytes >= threshold:
            # Rendezvous: ship only the envelope; park the payload.
            token = next(self._rdv_tokens)
            self._pending_sends[token] = (data, comm.world_rank(dest), now)
            self.rendezvous_sends += 1
            envelope = Buffer()
            # The last field is our world rank, for the CTS reply.
            envelope.put_header(_K_RTS, context_id, int(tag), my_rank, now,
                                nbytes, token, self.rank)
            envelope.put_padding(RENDEZVOUS_HEADER_BYTES)
            yield from sp.rsr("__mpi__", envelope)
            # Drive progress until the receiver grants the transfer (the
            # CTS arrives via our own poll loop); the DATA ships from a
            # spawned process so we return as soon as it is on its way.
            yield from self.context.wait(
                lambda: token not in self._pending_sends)
            return

        buffer = Buffer()
        buffer.put_header(_K_EAGER, context_id, int(tag), my_rank, now,
                          nbytes)
        pack_payload(buffer, data)
        yield from sp.rsr("__mpi__", buffer)

    # -- rendezvous plumbing ------------------------------------------------

    def _grant_rendezvous(self, message: "MpiMessage",
                          posted: "PostedRecv") -> None:
        """A matched RTS: remember the waiting receive and send the CTS."""
        token = message.pending_token
        assert token is not None
        self._awaiting_data[token] = posted
        sender_world = _t.cast(int, message.sender_world)

        def send_cts():
            cts = Buffer()
            cts.put_header(_K_CTS, token)
            cts.put_padding(RENDEZVOUS_HEADER_BYTES)
            sp = self.startpoint_to(sender_world)
            yield from sp.rsr("__mpi__", cts)

        self.nexus.spawn(send_cts(), name=f"mpi-cts:r{self.rank}")

    def _release_rendezvous(self, token: int) -> None:
        """A CTS arrived: ship the parked payload as DATA."""
        data, dest_world, _queued_at = self._pending_sends.pop(token)

        def send_data():
            payload = Buffer()
            payload.put_header(_K_DATA, token)
            pack_payload(payload, data)
            sp = self.startpoint_to(dest_world)
            yield from sp.rsr("__mpi__", payload)

        self.nexus.spawn(send_data(), name=f"mpi-data:r{self.rank}")

    def _complete_rendezvous(self, token: int, payload: Payload) -> None:
        """The DATA transfer landed: finish the matched receive."""
        posted = self._awaiting_data.pop(token)
        assert posted.message is not None
        posted.message.payload = payload
        posted.data_arrived = True

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Communicator | None = None) -> Request:
        """Nonblocking receive: posts the match and returns a request."""
        return Request(self, self._post(source, tag, comm, False))

    def _post(self, source: int, tag: int, comm: Communicator | None,
              collective: bool) -> PostedRecv:
        """Post one receive: match it now, or queue it for delivery."""
        communicator = self._resolve_comm(comm)
        context_id = (communicator.collective_context if collective
                      else communicator.p2p_context)
        posted = self.matching.post(context_id, source, tag)
        message = posted.message
        if message is None:
            return posted
        obs = self.nexus.obs
        if obs.enabled:
            # How long the message sat in the unexpected queue before a
            # matching receive was posted — the cost of late receives.
            obs.metrics.histogram(
                "mpi_unexpected_dwell_us", rank=self.rank,
            ).observe((self.nexus.sim.now - message.arrived_at) * 1e6)
        if (message.pending_token is not None
                and message.pending_token not in self._awaiting_data):
            # Matched an unexpected RTS: grant the transfer now.
            self._grant_rendezvous(message, posted)
        return posted

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: Communicator | None = None, *, collective: bool = False):
        """Generator: blocking receive → ``(data, status)``.

        Waits in this frame on the posted receive's own completion
        check: a blocking operation costs one frame below its caller."""
        sim = self.nexus.sim
        overhead = self.nexus.runtime_costs.mpi_call_overhead
        if overhead > 0.0:
            yield overhead
        posted = self._post(source, tag, comm, collective)
        yield from self.context.wait(posted.done)
        return posted.result(sim._now)

    def sendrecv(self, data: Payload, dest: int, sendtag: int,
                 source: int, recvtag: int,
                 comm: Communicator | None = None):
        """Generator: simultaneous send+receive (deadlock-free pairwise
        exchange) → ``(data, status)`` of the received message."""
        posted = self._post(source, recvtag, comm, False)
        yield from self.send(data, dest, sendtag, comm)
        yield from self.context.wait(posted.done)
        return posted.result(self.nexus.sim._now)

    # -- collectives (delegating to repro.mpi.collectives) ---------------------

    def gather(self, value: Payload, root: int = 0,
               comm: Communicator | None = None):
        result = yield from _collectives.gather(
            self, value, root, self._resolve_comm(comm))
        return result

    def scatter(self, values: _t.Sequence[Payload] | None, root: int = 0,
                comm: Communicator | None = None):
        result = yield from _collectives.scatter(
            self, values, root, self._resolve_comm(comm))
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MpiProcess rank={self.rank} ctx={self.context.id}>"


def _mpi_handler(context: Context, endpoint: Endpoint | None,
                 buffer: Buffer) -> None:
    """The ``__mpi__`` RSR handler: read the envelope header and hand the
    message to the owning process's matching engine (inline, non-threaded
    — matching is cheap and must not reorder).  Also services the
    rendezvous control messages (RTS/CTS/DATA)."""
    assert endpoint is not None
    proc: MpiProcess = endpoint.bound_object  # type: ignore[assignment]
    header = buffer.get_header()
    kind = header[0]

    if kind == _K_EAGER:
        _kind, context_id, tag, source, sent_at, nbytes = header
        message = MpiMessage(
            context_id=context_id, source=source, tag=tag,
            payload=unpack_payload(buffer),
            nbytes=nbytes + MPI_ENVELOPE_BYTES, sent_at=sent_at,
            arrived_at=context.nexus.sim._now,
        )
        matched = proc.matching.deliver(message)
        obs = context.nexus.obs
        if obs.enabled and matched is None:
            obs.metrics.gauge("mpi_unexpected_depth", rank=proc.rank).set(
                float(len(proc.matching.unexpected)))
        return
    if kind == _K_CTS:
        proc._release_rendezvous(header[1])
        return
    if kind == _K_DATA:
        proc._complete_rendezvous(header[1], unpack_payload(buffer))
        return

    (_kind, context_id, tag, source, sent_at, nbytes, token,
     sender_world) = header
    message = MpiMessage(
        context_id=context_id, source=source, tag=tag, payload=None,
        nbytes=nbytes + MPI_ENVELOPE_BYTES, sent_at=sent_at,
        arrived_at=context.nexus.sim._now, pending_token=token,
        sender_world=sender_world,
    )
    posted = proc.matching.deliver(message)
    if posted is not None:
        proc._grant_rendezvous(message, posted)


class MPIWorld:
    """All MPI processes of one application.

    Builds one :class:`MpiProcess` per context.  The process manager's
    startup exchange is modelled as free and on demand; each link carries
    the table its peer published when the world was built (kept in
    :attr:`tables`), bound on the link's first use.
    """

    def __init__(self, nexus: Nexus, contexts: _t.Sequence[Context],
                 config: MpiConfig | None = None):
        if not contexts:
            raise MpiError("an MPI world needs at least one process")
        self.nexus = nexus
        self.config = config or MpiConfig()
        self.processes: list[MpiProcess] = [
            MpiProcess(self, rank, context)
            for rank, context in enumerate(contexts)
        ]
        self.tables = [context.export_table() for context in contexts]
        self.comm_world = Communicator(self, range(len(self.processes)))

    @property
    def size(self) -> int:
        return len(self.processes)

    def process(self, rank: int) -> MpiProcess:
        if not (0 <= rank < self.size):
            raise RankError(f"rank {rank} out of range")
        return self.processes[rank]

    def create_comm(self, world_ranks: _t.Sequence[int]) -> Communicator:
        """A communicator over a subset of world ranks (MPI_Comm_create)."""
        return Communicator(self, world_ranks)

    def run_spmd(self, body: _t.Callable[[MpiProcess], _t.Generator],
                 ranks: _t.Sequence[int] | None = None):
        """Spawn ``body(proc)`` as a process for each rank; returns the
        list of :class:`~repro.simnet.process.Process` handles."""
        selected = (self.processes if ranks is None
                    else [self.process(r) for r in ranks])
        return [
            self.nexus.spawn(body(proc), name=f"mpi:rank{proc.rank}")
            for proc in selected
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MPIWorld size={self.size}>"
