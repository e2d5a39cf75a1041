"""Mini-MPI on Nexus: two-sided message passing over one-sided RSRs.

This reproduces the structure of the MPICH-on-Nexus implementation the
paper used for the climate model: every MPI process is one Nexus context
holding a matching engine; ``MPI_Send`` becomes an RSR to the
destination's ``__mpi__`` handler; receives poll the matching queues via
the context wait loop (so every MPI call exercises the multimethod
polling machinery, exactly as in the paper).  The layering adds a small
per-call CPU overhead (:class:`MpiConfig`), the analogue of the ~6 %
execution-time overhead the paper measured for MPICH on Nexus vs MPICH
on MPL.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

import numpy as np

from ..core.buffers import Buffer
from ..core.context import Context
from ..core.endpoint import Endpoint
from ..core.runtime import Nexus
from ..core.startpoint import Startpoint
from .communicator import Communicator
from .datatypes import Payload, pack_payload, payload_nbytes, unpack_payload
from .errors import MpiError, RankError
from .matching import MatchingQueues, MpiMessage, PostedRecv
from .request import RecvRequest, Request, SendRequest, wait_all
from .status import ANY_SOURCE, ANY_TAG, Status
from . import collectives as _collectives

#: Envelope overhead added by the MPI layer on top of the Nexus header.
MPI_ENVELOPE_BYTES = 24


@dataclasses.dataclass(frozen=True)
class MpiConfig:
    """Costs and protocol settings of the MPI-on-Nexus layering.

    ``call_overhead`` is charged once per MPI call (send, recv, and each
    internal collective step); set it to 0.0 to model MPICH-on-MPL for
    the layering ablation.

    ``eager_threshold`` switches sends of at least that many payload
    bytes to the **rendezvous protocol** (RTS envelope → CTS grant →
    DATA transfer): large messages never sit copied in the receiver's
    unexpected queue, at the cost of an extra round trip.  ``None``
    (the default) keeps every send eager, matching the paper-era MPICH
    configuration the calibrated experiments assume.
    """

    call_overhead: float = 4e-6
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
        self.rank = rank
        self.context = context
        self.matching = MatchingQueues()
        self._startpoints: dict[int, Startpoint] = {}
        self._coll_seq: dict[int, int] = {}
        self.endpoint: Endpoint = context.new_endpoint(bound_object=self)
        context.register_handler("__mpi__", _mpi_handler)
        self.sends = 0
        self.recvs = 0
        self.bytes_sent = 0
        # Rendezvous state: outgoing payloads parked until CTS, and
        # matched-but-empty receives awaiting their DATA transfer.
        self._rdv_tokens = itertools.count(1)
        self._pending_sends: dict[int, tuple[Payload, int, float]] = {}
        self._awaiting_data: dict[int, "PostedRecv"] = {}
        self.rendezvous_sends = 0

    # -- infrastructure -----------------------------------------------------

    @property
    def nexus(self) -> Nexus:
        return self.world.nexus

    @property
    def comm_world(self) -> Communicator:
        return self.world.comm_world

    def startpoint_to(self, world_rank: int) -> Startpoint:
        sp = self._startpoints.get(world_rank)
        if sp is None:
            raise RankError(f"rank {self.rank} has no route to {world_rank}")
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

    def _send_body(self, data: Payload, dest: int, tag: int,
                   comm: Communicator, context_id: int):
        """Generator: one send, from the layer's per-call charge on."""
        overhead = self.world.config.call_overhead
        if overhead > 0.0:
            yield self.context.nexus.sim.timeout(overhead)
        my_rank = comm.rank_of_world(self.rank)
        if not (0 <= dest < comm.size):
            raise RankError(f"destination rank {dest} out of range")
        nbytes = payload_nbytes(data)
        threshold = self.world.config.eager_threshold
        sp = self.startpoint_to(comm.world_rank(dest))
        self.sends += 1

        if threshold is not None and nbytes >= threshold:
            # Rendezvous: ship only the envelope; park the payload.
            token = next(self._rdv_tokens)
            self._pending_sends[token] = (data, comm.world_rank(dest),
                                          self.nexus.sim.now)
            self.rendezvous_sends += 1
            envelope = Buffer()
            envelope.put_int(_K_RTS)
            envelope.put_int(context_id)
            envelope.put_int(tag)
            envelope.put_int(my_rank)
            envelope.put_float(self.nexus.sim.now)
            envelope.put_int(nbytes)
            envelope.put_int(token)
            envelope.put_int(self.rank)  # world rank for the CTS reply
            envelope.put_padding(RENDEZVOUS_HEADER_BYTES)
            self.bytes_sent += envelope.nbytes
            yield from sp.rsr("__mpi__", envelope)
            # Drive progress until the receiver grants the transfer (the
            # CTS arrives via our own poll loop); the DATA ships from a
            # spawned process so we return as soon as it is on its way.
            yield from self.context.wait(
                lambda: token not in self._pending_sends)
            return

        buffer = Buffer()
        buffer.put_int(_K_EAGER)
        buffer.put_int(context_id)
        buffer.put_int(tag)
        buffer.put_int(my_rank)
        buffer.put_float(self.nexus.sim.now)
        buffer.put_int(nbytes)
        pack_payload(buffer, data)
        self.bytes_sent += buffer.nbytes
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
            cts.put_int(_K_CTS)
            cts.put_int(token)
            cts.put_padding(RENDEZVOUS_HEADER_BYTES)
            sp = self.startpoint_to(sender_world)
            yield from sp.rsr("__mpi__", cts)

        self.nexus.spawn(send_cts(), name=f"mpi-cts:r{self.rank}")

    def _release_rendezvous(self, token: int) -> None:
        """A CTS arrived: ship the parked payload as DATA."""
        data, dest_world, _queued_at = self._pending_sends.pop(token)

        def send_data():
            payload = Buffer()
            payload.put_int(_K_DATA)
            payload.put_int(token)
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

    def send(self, data: Payload, dest: int, tag: int = 0,
             comm: Communicator | None = None, *, collective: bool = False):
        """Generator: blocking standard-mode send (eager protocol).

        Hands back :meth:`_send_body`'s generator rather than wrap it: a
        blocking operation costs one frame below its caller."""
        communicator = self._resolve_comm(comm)
        context_id = (communicator.collective_context if collective
                      else communicator.p2p_context)
        return self._send_body(data, dest, tag, communicator, context_id)

    def isend(self, data: Payload, dest: int, tag: int = 0,
              comm: Communicator | None = None, *,
              collective: bool = False) -> SendRequest:
        """Nonblocking send: returns a request, transfer proceeds
        concurrently."""
        communicator = self._resolve_comm(comm)
        context_id = (communicator.collective_context if collective
                      else communicator.p2p_context)
        process = self.nexus.spawn(
            self._send_body(data, dest, tag, communicator, context_id),
            name=f"isend:r{self.rank}->r{dest}")
        return SendRequest(self, process)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Communicator | None = None, *,
              collective: bool = False) -> RecvRequest:
        """Nonblocking receive: posts the match and returns a request."""
        communicator = self._resolve_comm(comm)
        context_id = (communicator.collective_context if collective
                      else communicator.p2p_context)
        posted = self.matching.post(context_id, source, tag)
        message = posted.message
        obs = self.nexus.obs
        if obs.enabled and message is not None:
            # How long the message sat in the unexpected queue before a
            # matching receive was posted — the cost of late receives.
            obs.metrics.histogram(
                "mpi_unexpected_dwell_us", rank=self.rank,
            ).observe((self.nexus.sim.now - message.arrived_at) * 1e6)
        if (message is not None and message.pending_token is not None
                and message.pending_token not in self._awaiting_data):
            # Matched an unexpected RTS: grant the transfer now.
            self._grant_rendezvous(message, posted)
        return RecvRequest(self, posted)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: Communicator | None = None, *, collective: bool = False):
        """Generator: blocking receive → ``(data, status)``."""
        overhead = self.world.config.call_overhead
        if overhead > 0.0:
            yield self.context.nexus.sim.timeout(overhead)
        request = self.irecv(source, tag, comm, collective=collective)
        self.recvs += 1
        result = yield from request.wait()
        return result

    def sendrecv(self, data: Payload, dest: int, sendtag: int,
                 source: int, recvtag: int,
                 comm: Communicator | None = None, *,
                 collective: bool = False):
        """Generator: simultaneous send+receive (deadlock-free pairwise
        exchange) → ``(data, status)`` of the received message."""
        request = self.irecv(source, recvtag, comm, collective=collective)
        yield from self.send(data, dest, sendtag, comm, collective=collective)
        self.recvs += 1
        result = yield from request.wait()
        return result

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               comm: Communicator | None = None) -> Status | None:
        """Nonblocking probe: status of a matchable unexpected message."""
        communicator = self._resolve_comm(comm)
        message = self.matching.probe(communicator.p2p_context, source, tag)
        if message is None:
            return None
        return Status(source=message.source, tag=message.tag,
                      nbytes=message.nbytes, sent_at=message.sent_at,
                      received_at=self.nexus.sim.now)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Communicator | None = None):
        """Generator: blocking probe (polls until a match is queued)."""
        yield from self.context.wait(
            lambda: self.iprobe(source, tag, comm) is not None)
        return self.iprobe(source, tag, comm)

    def wait_all(self, requests: _t.Sequence[Request]):
        """Generator: MPI_Waitall."""
        result = yield from wait_all(requests)
        return result

    # -- collectives (delegating to repro.mpi.collectives) ---------------------

    def barrier(self, comm: Communicator | None = None):
        yield from _collectives.barrier(self, self._resolve_comm(comm))

    def bcast(self, value: Payload, root: int = 0,
              comm: Communicator | None = None):
        result = yield from _collectives.bcast(
            self, value, root, self._resolve_comm(comm))
        return result

    def reduce(self, value: Payload, op: str | _t.Callable = "sum",
               root: int = 0, comm: Communicator | None = None):
        result = yield from _collectives.reduce(
            self, value, op, root, self._resolve_comm(comm))
        return result

    def allreduce(self, value: Payload, op: str | _t.Callable = "sum",
                  comm: Communicator | None = None):
        result = yield from _collectives.allreduce(
            self, value, op, self._resolve_comm(comm))
        return result

    def gather(self, value: Payload, root: int = 0,
               comm: Communicator | None = None):
        result = yield from _collectives.gather(
            self, value, root, self._resolve_comm(comm))
        return result

    def allgather(self, value: Payload, comm: Communicator | None = None):
        result = yield from _collectives.allgather(
            self, value, self._resolve_comm(comm))
        return result

    def scatter(self, values: _t.Sequence[Payload] | None, root: int = 0,
                comm: Communicator | None = None):
        result = yield from _collectives.scatter(
            self, values, root, self._resolve_comm(comm))
        return result

    def alltoall(self, values: _t.Sequence[Payload],
                 comm: Communicator | None = None):
        result = yield from _collectives.alltoall(
            self, values, self._resolve_comm(comm))
        return result

    def scan(self, value: Payload, op: str | _t.Callable = "sum",
             comm: Communicator | None = None, *, exclusive: bool = False):
        result = yield from _collectives.scan(
            self, value, op, self._resolve_comm(comm), exclusive=exclusive)
        return result

    def reduce_scatter(self, values: _t.Sequence[Payload],
                       op: str | _t.Callable = "sum",
                       comm: Communicator | None = None):
        result = yield from _collectives.reduce_scatter(
            self, values, op, self._resolve_comm(comm))
        return result

    def comm_split(self, color: int, key: int = 0,
                   comm: Communicator | None = None):
        """Generator: MPI_Comm_split — collective over ``comm``.

        Every member contributes ``(color, key)``; members sharing a
        color form a new communicator, ranked by ``(key, old rank)``.
        Returns this process's new communicator (``None`` for the MPI
        ``MPI_UNDEFINED`` convention when ``color < 0``).
        """
        communicator = self._resolve_comm(comm)
        my_rank = communicator.rank_of_world(self.rank)
        pairs = yield from _collectives.allgather(
            self, (color, key, my_rank), communicator)
        groups: dict[int, list[tuple[int, int]]] = {}
        for entry in _t.cast(list, pairs):
            entry_color, entry_key, entry_rank = _t.cast(tuple, entry)
            if entry_color >= 0:
                groups.setdefault(entry_color, []).append(
                    (entry_key, entry_rank))
        if color < 0:
            return None
        members = [rank for _key, rank in sorted(groups[color])]
        world_ranks = [communicator.world_rank(r) for r in members]
        # Every member computes the identical group deterministically, so
        # the shared Communicator ids stay consistent: build it once per
        # (world, group) signature.
        return self.world._split_comm(tuple(world_ranks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MpiProcess rank={self.rank} ctx={self.context.id}>"


def _mpi_handler(context: Context, endpoint: Endpoint | None,
                 buffer: Buffer) -> None:
    """The ``__mpi__`` RSR handler: decode the envelope and hand the
    message to the owning process's matching engine (inline, non-threaded
    — matching is cheap and must not reorder).  Also services the
    rendezvous control messages (RTS/CTS/DATA)."""
    assert endpoint is not None
    proc = _t.cast(MpiProcess, endpoint.bound_object)
    kind = buffer.get_int()

    if kind == _K_CTS:
        proc._release_rendezvous(buffer.get_int())
        return
    if kind == _K_DATA:
        token = buffer.get_int()
        proc._complete_rendezvous(token, unpack_payload(buffer))
        return

    context_id = buffer.get_int()
    tag = buffer.get_int()
    source = buffer.get_int()
    sent_at = buffer.get_float()
    nbytes = buffer.get_int()

    if kind == _K_RTS:
        token = buffer.get_int()
        sender_world = buffer.get_int()
        message = MpiMessage(
            context_id=context_id, source=source, tag=tag, payload=None,
            nbytes=nbytes + MPI_ENVELOPE_BYTES, sent_at=sent_at,
            arrived_at=context.nexus.sim.now, pending_token=token,
            sender_world=sender_world,
        )
        posted = proc.matching.deliver(message)
        if posted is not None:
            proc._grant_rendezvous(message, posted)
        return

    payload = unpack_payload(buffer)
    message = MpiMessage(
        context_id=context_id, source=source, tag=tag, payload=payload,
        nbytes=nbytes + MPI_ENVELOPE_BYTES, sent_at=sent_at,
        arrived_at=context.nexus.sim.now,
    )
    matched = proc.matching.deliver(message)
    obs = context.nexus.obs
    if obs.enabled and matched is None:
        obs.metrics.gauge("mpi_unexpected_depth", rank=proc.rank).set(
            float(len(proc.matching.unexpected)))


class MPIWorld:
    """All MPI processes of one application.

    Builds one :class:`MpiProcess` per context and wires the full mesh of
    startpoints (each process receives a copy of every peer's startpoint
    together with its descriptor table — the out-of-band startup exchange
    a process manager performs).
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
        for proc in self.processes:
            for peer in self.processes:
                sp = proc.context.new_startpoint()
                sp.bind_address(peer.context.id, peer.endpoint.id,
                                peer.context.export_table().copy())
                proc._startpoints[peer.rank] = sp
        self.comm_world = Communicator(self, range(len(self.processes)))
        self._split_cache: dict[tuple[int, ...], Communicator] = {}
        self._split_calls: dict[tuple[int, ...], int] = {}

    def _split_comm(self, world_ranks: tuple[int, ...]) -> Communicator:
        """Shared communicator construction for ``comm_split``.

        All members of one logical split compute the same group signature
        and must receive the *same* Communicator object (so context ids
        match); a subsequent split producing the same group must get a
        fresh one.  Calls are counted per signature: every
        ``len(world_ranks)``-th call starts a new communicator.
        """
        calls = self._split_calls.get(world_ranks, 0)
        if calls % len(world_ranks) == 0:
            self._split_cache[world_ranks] = Communicator(self, world_ranks)
        self._split_calls[world_ranks] = calls + 1
        return self._split_cache[world_ranks]

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
