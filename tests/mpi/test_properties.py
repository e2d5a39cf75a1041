"""Property-based tests for the MPI layer (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import Buffer
from repro.mpi.datatypes import Padded, pack_payload, unpack_payload
from repro.mpi.matching import MatchingQueues, MpiMessage
from repro.mpi.status import ANY_SOURCE, ANY_TAG

# -- payload roundtrip over arbitrary nested structures -------------------------

payloads = st.recursive(
    st.one_of(
        st.none(),
        st.integers(min_value=-(2 ** 60), max_value=2 ** 60),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=30),
        st.binary(max_size=30),
    ),
    lambda children: st.one_of(
        st.tuples(children),
        st.tuples(children, children),
        st.tuples(children, children, children),
        st.builds(Padded, children,
                  st.integers(min_value=0, max_value=10_000)),
    ),
    max_leaves=10,
)


def strip_padding(value):
    """The expected unpack result: Padded wrappers dissolve."""
    if isinstance(value, Padded):
        return strip_padding(value.value)
    if isinstance(value, tuple):
        return tuple(strip_padding(v) for v in value)
    return value


@given(payloads)
@settings(max_examples=150, deadline=None)
def test_payload_roundtrip(value):
    buffer = Buffer()
    pack_payload(buffer, value)
    assert unpack_payload(buffer) == strip_padding(value)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=60))
@settings(max_examples=50, deadline=None)
def test_array_payload_roundtrip(values):
    array = np.array(values, dtype=np.int64)
    buffer = Buffer()
    pack_payload(buffer, array)
    assert np.array_equal(unpack_payload(buffer), array)


# -- matching-queue invariants ------------------------------------------------------

deliveries = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),    # source
              st.integers(min_value=0, max_value=3)),   # tag
    min_size=0, max_size=25,
)
receives = st.lists(
    st.tuples(st.sampled_from([ANY_SOURCE, 0, 1, 2, 3]),
              st.sampled_from([ANY_TAG, 0, 1, 2, 3])),
    min_size=0, max_size=25,
)


@given(deliveries, receives, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_matching_conserves_messages(sends, recvs, rng):
    """However sends and receives interleave: every message ends up in
    exactly one place (matched to one receive, or unexpected), and every
    receive is either complete or still posted."""
    queues = MatchingQueues()
    posted = []
    send_queue = list(sends)
    recv_queue = list(recvs)
    sequence = 0
    while send_queue or recv_queue:
        pick_send = send_queue and (not recv_queue or rng.random() < 0.5)
        if pick_send:
            source, tag = send_queue.pop(0)
            sequence += 1
            queues.deliver(MpiMessage(
                context_id=0, source=source, tag=tag,
                payload=sequence, nbytes=8,
                sent_at=float(sequence), arrived_at=float(sequence)))
        else:
            source, tag = recv_queue.pop(0)
            posted.append(queues.post(0, source, tag))

    matched = [p for p in posted if p.done()]
    unmatched = [p for p in posted if not p.done()]
    # conservation: every sent message is matched or unexpected
    assert len(matched) + len(queues.unexpected) == len(sends)
    # every incomplete posted receive is still in the queue
    assert len(queues.posted) == len(unmatched)
    # no message matched twice
    payloads_seen = [p.message.payload for p in matched]
    assert len(set(payloads_seen)) == len(payloads_seen)
    # matched pairs actually satisfy the wildcard rules
    for p in matched:
        assert p.source in (ANY_SOURCE, p.message.source)
        assert p.tag in (ANY_TAG, p.message.tag)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                max_size=15))
@settings(max_examples=50, deadline=None)
def test_matching_fifo_per_source(tags_from_one_source):
    """Messages from one source with one tag match receives in send
    order (MPI non-overtaking, single pair)."""
    queues = MatchingQueues()
    for index, _tag in enumerate(tags_from_one_source):
        queues.deliver(MpiMessage(context_id=0, source=0, tag=7,
                                  payload=index, nbytes=8,
                                  sent_at=float(index),
                                  arrived_at=float(index)))
    results = []
    for _ in tags_from_one_source:
        posted = queues.post(0, 0, 7)
        results.append(posted.message.payload)
    assert results == list(range(len(tags_from_one_source)))


# -- end-to-end scatter/gather round trip beside user traffic ----------------------

scalars = st.one_of(st.integers(min_value=-(2 ** 60), max_value=2 ** 60),
                    st.text(max_size=12))


@given(st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_scatter_gather_round_trip_beside_user_message(data):
    """For any communicator size, root and payloads, ``scatter`` then
    ``gather`` gives the root back its list.  A user message whose tag
    equals a collective's sequence tag (the scatter is the world's
    collective 1, the gather its collective 2) goes to the user's
    receive, whether posted before or after the collectives, and never
    to the collective."""
    from .conftest import build_world, run_spmd

    nranks = data.draw(st.integers(min_value=1, max_value=5), "nranks")
    root = data.draw(st.integers(min_value=0, max_value=nranks - 1), "root")
    values = data.draw(st.lists(scalars, min_size=nranks,
                                max_size=nranks), "values")
    user_tag = data.draw(st.sampled_from([1, 2]), "user_tag")
    post_first = data.draw(st.booleans(), "post_first")
    sender = (root + 1) % nranks
    ranks_a = (nranks + 1) // 2
    bed, world = build_world(ranks_a, nranks - ranks_a)

    def body(proc):
        if proc.rank == sender:
            yield from proc.send(("user", user_tag), dest=root, tag=user_tag)
        request = (proc.irecv(sender, user_tag)
                   if proc.rank == root and post_first else None)
        mine = yield from proc.scatter(
            values if proc.rank == root else None, root=root)
        gathered = yield from proc.gather(mine, root=root)
        if proc.rank != root:
            return gathered
        if request is None:
            user, _status = yield from proc.recv(sender, user_tag)
        else:
            user, _status = yield from request.wait()
        return gathered, user

    results = run_spmd(bed, world, body)
    assert results[root] == (values, ("user", user_tag))
    assert all(result is None for rank, result in enumerate(results)
               if rank != root)
