"""Tests for the typed message buffer."""

import numpy as np
import pytest

from repro.core.buffers import Buffer
from repro.core.errors import BufferError_


class TestPackUnpack:
    def test_fifo_typed_roundtrip(self):
        buffer = (Buffer().put_int(-5).put_float(2.25)
                  .put_str("héllo").put_bytes(b"\x00\x01"))
        assert buffer.get_int() == -5
        assert buffer.get_float() == 2.25
        assert buffer.get_str() == "héllo"
        assert buffer.get_bytes() == b"\x00\x01"

    def test_type_mismatch_raises(self):
        buffer = Buffer().put_int(1)
        with pytest.raises(BufferError_, match="mismatch"):
            buffer.get_float()
        # cursor unchanged; correct read still works
        assert buffer.get_int() == 1

    def test_exhausted_raises(self):
        buffer = Buffer()
        with pytest.raises(BufferError_, match="exhausted"):
            buffer.get_int()

    def test_array_is_copied_on_pack(self):
        source = np.arange(4, dtype=float)
        buffer = Buffer().put_array(source)
        source[:] = -1.0  # sender mutates after the send
        assert np.array_equal(buffer.get_array(), [0.0, 1.0, 2.0, 3.0])

    def test_padding(self):
        buffer = Buffer().put_padding(1024)
        assert buffer.nbytes == 1024
        assert buffer.get_padding() == 1024

    def test_negative_padding_rejected(self):
        with pytest.raises(BufferError_):
            Buffer().put_padding(-1)


class TestSizeAccounting:
    def test_scalar_sizes(self):
        assert Buffer().put_int(0).nbytes == 8
        assert Buffer().put_float(0.0).nbytes == 8

    def test_string_size_utf8(self):
        assert Buffer().put_str("abc").nbytes == 4 + 3
        assert Buffer().put_str("é").nbytes == 4 + 2  # two UTF-8 bytes

    def test_array_size(self):
        arr = np.zeros(10, dtype=np.float64)
        assert Buffer().put_array(arr).nbytes == 16 + 80

    def test_sizes_accumulate(self):
        buffer = Buffer().put_int(1).put_str("xy").put_padding(100)
        assert buffer.nbytes == 8 + 6 + 100


class TestReaders:
    def test_reader_copy_independent_cursors(self):
        buffer = Buffer().put_int(1).put_int(2)
        r1 = buffer.reader_copy()
        r2 = buffer.reader_copy()
        assert r1.get_int() == 1
        assert r2.get_int() == 1  # r2 unaffected by r1's reads
        assert r1.get_int() == 2

    def test_remaining_and_peek(self):
        # The next element's type shows in a mismatched read, which
        # leaves the cursor where it was.
        buffer = Buffer().put_int(1).put_str("s")
        assert buffer.remaining == 2
        with pytest.raises(BufferError_, match="found 'int' at element 0"):
            buffer.get_str()
        buffer.get_int()
        assert buffer.remaining == 1
        with pytest.raises(BufferError_, match="found 'str' at element 1"):
            buffer.get_int()
        buffer.get_str()
        assert buffer.remaining == 0
        with pytest.raises(BufferError_, match="exhausted"):
            buffer.get_str()

    def test_element_types(self):
        # Every element counts, padding too, and reads back in pack order.
        buffer = Buffer().put_int(1).put_padding(4).put_str("a")
        assert len(buffer) == 3
        assert buffer.get_int() == 1
        assert buffer.get_padding() == 4
        assert buffer.get_str() == "a"
        assert len(buffer) == 3
