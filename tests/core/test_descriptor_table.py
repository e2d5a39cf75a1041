"""Tests for the communication descriptor table."""

import pytest

from repro.core.descriptor_table import CommDescriptorTable
from repro.core.errors import SelectionError
from repro.transports.base import Descriptor


def d(method, context_id=1, **params):
    return Descriptor(method, context_id, tuple(params.items()))


@pytest.fixture
def table():
    return CommDescriptorTable([d("mpl", node=1), d("tcp", host=1),
                                d("udp", host=1)])


class TestBasics:
    def test_order_preserved(self, table):
        assert table.methods == ["mpl", "tcp", "udp"]

    def test_contains_and_entry(self, table):
        assert "tcp" in table and "shm" not in table
        assert table.entry("tcp").method == "tcp"
        with pytest.raises(SelectionError):
            table.entry("shm")

    def test_indexing_and_len(self, table):
        assert len(table) == 3
        assert table[0].method == "mpl"

    def test_editors_leave_the_table_unchanged(self, table):
        edited = table.remove("udp")
        assert "udp" in table and "udp" not in edited


class TestManipulation:
    """Section 3.2: reorder / add / delete to influence selection."""

    def test_add_positional(self, table):
        assert table.add(d("shm", host=1), position=0).methods[0] == "shm"
        assert table.add(d("shm", host=1)).methods[-1] == "shm"

    def test_remove(self, table):
        edited = table.remove("tcp")
        assert edited.methods == ["mpl", "udp"]
        with pytest.raises(SelectionError):
            edited.remove("tcp")

    def test_replace_in_place(self, table):
        edited = table.replace("tcp", d("tcp", host=1, via=9))
        assert edited.methods == ["mpl", "tcp", "udp"]  # position kept
        assert edited.entry("tcp").param("via") == 9

    def test_reorder(self, table):
        assert table.reorder(["udp", "mpl"]).methods == ["udp", "mpl", "tcp"]

    def test_promote(self, table):
        assert table.promote("udp").methods == ["udp", "mpl", "tcp"]
        assert table.promote("mpl").methods == table.methods


class TestWire:
    def test_roundtrip(self, table):
        clone = CommDescriptorTable.from_wire(table.to_wire())
        assert clone.methods == table.methods
        assert clone.entry("mpl").param("node") == 1

    def test_wire_size_tens_of_bytes(self, table):
        # Paper: "the cost of communicating a few tens of bytes of
        # descriptor table".
        assert 20 <= table.wire_size <= 200

    def test_empty_table(self):
        table = CommDescriptorTable()
        assert len(table) == 0
        assert CommDescriptorTable.from_wire(table.to_wire()).methods == []
