"""Differential oracle for the MPI wire codec.

The payload codec tests a value's exact class before its ``isinstance``
chain, ``Buffer`` reads and writes each element in one frame, and every
``__mpi__`` message carries its envelope as one header element.  The
reference below is the payload codec as it was before: the plain
``isinstance`` chain, one branch per kind.  It packs into a real
:class:`Buffer`, so both sides are read back by the same
``unpack_payload`` and what is compared is exactly the packing.

Generated payloads nest tuples and :class:`Padded` around every leaf
kind, including the subclasses an exact-class test must not catch
(``bool``, ``np.int64``, ``np.float64``, an ``ndarray`` subclass) and
values the chain refuses (``np.bool_``, lists).  For each one the new
codec must give the same ``payload_nbytes``, the same elements (type
tags and wire sizes), the same unpacked value with the same types, or
the same ``MpiError``.  Each envelope kind (EAGER, RTS, CTS, DATA) must
hand ``rsr`` a buffer of the per-field envelope's size, and every
``Buffer.get_*`` must refuse a miss with the old ``BufferError_`` text.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import Buffer
from repro.core.errors import BufferError_
from repro.core.startpoint import Startpoint
from repro.mpi import MpiConfig, Padded
from repro.mpi.datatypes import pack_payload, payload_nbytes, unpack_payload
from repro.mpi.errors import MpiError
from repro.mpi.mpi import RENDEZVOUS_HEADER_BYTES

from .conftest import build_world, run_spmd

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, a derandomised tier-1 budget
#: otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=200, deadline=None, derandomize=True))


# -- the reference: the isinstance-chain codec -------------------------------

def ref_nbytes(value):
    if value is None:
        return 0
    if isinstance(value, (bool, int, np.integer)):
        return 8
    if isinstance(value, (float, np.floating)):
        return 8
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, np.ndarray):
        return 16 + value.nbytes
    if isinstance(value, tuple):
        return 4 + sum(ref_nbytes(v) for v in value)
    if isinstance(value, Padded):
        return value.pad_bytes + ref_nbytes(value.value)
    raise MpiError(f"unsupported MPI payload type {type(value).__name__}")


def ref_pack(buffer, value):
    if value is None:
        buffer.put_int(0)
    elif isinstance(value, (bool, int, np.integer)):
        buffer.put_int(1).put_int(int(value))
    elif isinstance(value, (float, np.floating)):
        buffer.put_int(2).put_float(float(value))
    elif isinstance(value, str):
        buffer.put_int(3).put_str(value)
    elif isinstance(value, bytes):
        buffer.put_int(4).put_bytes(value)
    elif isinstance(value, np.ndarray):
        buffer.put_int(5).put_array(value)
    elif isinstance(value, tuple):
        buffer.put_int(6).put_int(len(value))
        for item in value:
            ref_pack(buffer, item)
    elif isinstance(value, Padded):
        buffer.put_int(7).put_padding(value.pad_bytes)
        ref_pack(buffer, value.value)
    else:
        raise MpiError(f"unsupported MPI payload type {type(value).__name__}")


# -- payloads ------------------------------------------------------------------

class Field(np.ndarray):
    """An ``ndarray`` subclass: not the exact class, same branch."""


def _array(values):
    return np.array(values, dtype=np.float64)


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.integers(-1000, 1000).map(np.int64),
    st.integers(-1000, 1000).map(np.int32),
    st.floats(allow_nan=False, width=64).map(np.float64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.lists(st.floats(allow_nan=False), max_size=4).map(_array),
    st.lists(st.floats(allow_nan=False), max_size=4).map(
        lambda values: _array(values).view(Field)),
    st.lists(st.integers(-5, 5), max_size=3),
)

payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.builds(Padded, children, st.integers(0, 1 << 20)),
    ),
    max_leaves=12,
)


def same_value(got, want):
    """Equal, with the same type at every level (``np.float64`` must come
    back a ``float``, as the reference gives it)."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for got_item, want_item in zip(got, want):
            same_value(got_item, want_item)
    else:
        assert got == want


def _outcome(pack, nbytes, value):
    """``(nbytes, elements, wire size, buffer)``, or the error text."""
    try:
        size = nbytes(value)
        buffer = Buffer()
        pack(buffer, value)
    except MpiError as error:
        return str(error)
    return size, buffer.element_types(), buffer.nbytes, buffer


@PROFILE
@given(payloads)
def test_codec_matches_the_isinstance_chain(value):
    got = _outcome(pack_payload, payload_nbytes, value)
    want = _outcome(ref_pack, ref_nbytes, value)
    if isinstance(want, str):
        assert got == want
        return
    assert got[:3] == want[:3]
    got_buffer, want_buffer = got[3], want[3]
    same_value(unpack_payload(got_buffer), unpack_payload(want_buffer))
    assert got_buffer.remaining == want_buffer.remaining == 0


# -- envelopes -------------------------------------------------------------------

#: Payloads of each protocol: eager below the threshold, rendezvous above.
SMALL = (np.arange(3.0), 7, "tag")
LARGE = Padded(np.arange(2.0), 100_000)


def _per_field(ints, floats=0, padding=None, payload=...):
    """A per-field envelope's wire size: one element per field."""
    buffer = Buffer()
    for _ in range(ints):
        buffer.put_int(0)
    for _ in range(floats):
        buffer.put_float(0.0)
    if padding is not None:
        buffer.put_padding(padding)
    if payload is not ...:
        ref_pack(buffer, payload)
    return buffer.nbytes


#: kind -> the per-field envelope's size for this exchange
EXPECTED_NBYTES = {
    0: _per_field(5, 1, payload=SMALL),                      # EAGER
    1: _per_field(7, 1, padding=RENDEZVOUS_HEADER_BYTES),    # RTS
    2: _per_field(2, padding=RENDEZVOUS_HEADER_BYTES),       # CTS
    3: _per_field(2, payload=LARGE),                         # DATA
}


def test_each_envelope_kind_keeps_its_wire_size(monkeypatch):
    sent = []
    rsr = Startpoint.rsr

    def recording_rsr(self, handler, buffer=None):
        if handler == "__mpi__":
            sent.append((buffer.element_types()[0],
                         buffer.reader_copy().get_header()[0],
                         buffer.nbytes))
        return rsr(self, handler, buffer)

    monkeypatch.setattr(Startpoint, "rsr", recording_rsr)
    bed, world = build_world(2, 0, config=MpiConfig(eager_threshold=4096))

    def body(proc):
        if proc.rank == 0:
            yield from proc.send(SMALL, dest=1)
            yield from proc.send(LARGE, dest=1)
        else:
            small, _ = yield from proc.recv(source=0)
            large, _ = yield from proc.recv(source=0)
            return small, large

    small, large = run_spmd(bed, world, body)[1]
    same_value(small, SMALL)
    same_value(large, LARGE.value)
    assert sorted(sent) == sorted(
        ("header", kind, nbytes) for kind, nbytes in EXPECTED_NBYTES.items())


# -- reads that miss ----------------------------------------------------------------

GETTERS = {
    "int": lambda b: b.get_int(),
    "float": lambda b: b.get_float(),
    "str": lambda b: b.get_str(),
    "bytes": lambda b: b.get_bytes(),
    "array": lambda b: b.get_array(),
    "padding": lambda b: b.get_padding(),
    "header": lambda b: b.get_header(),
    "startpoint": lambda b: b.get_startpoint(None),
}


@pytest.mark.parametrize("tag", sorted(GETTERS))
def test_a_read_past_the_end_raises_the_old_text(tag):
    buffer = Buffer().put_padding(4)
    buffer.get_padding()
    with pytest.raises(BufferError_) as raised:
        GETTERS[tag](buffer)
    assert str(raised.value) == f"buffer exhausted while reading {tag!r}"


@pytest.mark.parametrize("tag", sorted(GETTERS))
def test_a_read_of_another_type_raises_the_old_text(tag):
    buffer = Buffer().put_padding(4)
    other = Buffer().put_int(1) if tag == "padding" else buffer
    found = "int" if tag == "padding" else "padding"
    with pytest.raises(BufferError_) as raised:
        GETTERS[tag](other)
    assert str(raised.value) == (f"buffer type mismatch: expected {tag!r}, "
                                 f"found {found!r} at element 0")
    assert other.remaining == 1  # the cursor did not move
