"""Property-based tests for core data structures (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import Buffer
from repro.core.descriptor_table import CommDescriptorTable
from repro.transports.base import Descriptor

# -- buffer strategies -------------------------------------------------------

scalar_values = st.one_of(
    st.integers(min_value=-(2 ** 60), max_value=2 ** 60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)


@given(st.lists(scalar_values, max_size=30))
@settings(max_examples=100, deadline=None)
def test_buffer_roundtrip_preserves_values_and_order(values):
    buffer = Buffer()
    for value in values:
        if isinstance(value, bool) or isinstance(value, int):
            buffer.put_int(value)
        elif isinstance(value, float):
            buffer.put_float(value)
        elif isinstance(value, str):
            buffer.put_str(value)
        else:
            buffer.put_bytes(value)
    out = []
    for value in values:
        if isinstance(value, bool) or isinstance(value, int):
            out.append(buffer.get_int())
        elif isinstance(value, float):
            out.append(buffer.get_float())
        elif isinstance(value, str):
            out.append(buffer.get_str())
        else:
            out.append(buffer.get_bytes())
    assert out == list(values)
    assert buffer.remaining == 0


@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=8),
                min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_buffer_array_roundtrip(arrays):
    buffer = Buffer()
    for values in arrays:
        buffer.put_array(np.array(values))
    for values in arrays:
        assert np.array_equal(buffer.get_array(), np.array(values))


@given(st.lists(scalar_values, min_size=1, max_size=15),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=50, deadline=None)
def test_reader_copies_are_independent(values, nreaders):
    buffer = Buffer()
    for value in values:
        buffer.put_str(repr(value))
    readers = [buffer.reader_copy() for _ in range(nreaders)]
    # Interleave reads across readers; each must see the full sequence.
    outputs = [[] for _ in readers]
    for index in range(len(values)):
        for reader_index, reader in enumerate(readers):
            outputs[reader_index].append(reader.get_str())
    expected = [repr(v) for v in values]
    assert all(output == expected for output in outputs)


@given(st.lists(scalar_values, max_size=20))
@settings(max_examples=50, deadline=None)
def test_buffer_nbytes_nonnegative_and_additive(values):
    total = 0
    buffer = Buffer()
    for value in values:
        before = buffer.nbytes
        if isinstance(value, bool) or isinstance(value, int):
            buffer.put_int(value)
        elif isinstance(value, float):
            buffer.put_float(value)
        elif isinstance(value, str):
            buffer.put_str(value)
        else:
            buffer.put_bytes(value)
        gained = buffer.nbytes - before
        assert gained >= 8 or gained >= 4
        total += gained
    assert buffer.nbytes == total


# -- descriptor table strategies -----------------------------------------------

method_names = st.sampled_from(["local", "shm", "mpl", "tcp", "udp",
                                "myrinet", "aal5", "mcast"])
param_values = st.one_of(st.integers(min_value=0, max_value=10 ** 9),
                         st.text(min_size=1, max_size=10))


@st.composite
def descriptors(draw):
    method = draw(method_names)
    context_id = draw(st.integers(min_value=1, max_value=1000))
    nparams = draw(st.integers(min_value=0, max_value=4))
    params = tuple(
        (f"k{index}", draw(param_values)) for index in range(nparams)
    )
    return Descriptor(method, context_id, params)


@given(st.lists(descriptors(), max_size=8))
@settings(max_examples=100, deadline=None)
def test_descriptor_table_wire_roundtrip(entries):
    table = CommDescriptorTable(entries)
    clone = CommDescriptorTable.from_wire(table.to_wire())
    assert list(clone) == list(table)
    assert clone.methods == table.methods


@given(st.lists(descriptors(), min_size=1, max_size=8,
                unique_by=lambda d: d.method))
@settings(max_examples=100, deadline=None)
def test_descriptor_table_reorder_is_permutation(entries):
    import random
    table = CommDescriptorTable(entries)
    methods = table.methods
    shuffled = list(methods)
    random.Random(0).shuffle(shuffled)
    reordered = table.reorder(shuffled)
    assert sorted(reordered.methods) == sorted(methods)  # nothing lost/created
    assert reordered.methods == shuffled
    assert table.methods == methods  # the original is a value


@given(descriptors())
@settings(max_examples=100, deadline=None)
def test_descriptor_wire_size_positive(descriptor):
    assert descriptor.wire_size > 0
    assert Descriptor.from_wire(descriptor.to_wire()) == descriptor


# -- skip_poll accounting -------------------------------------------------------

@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=500))
@settings(max_examples=30, deadline=None)
def test_bulk_skip_accounting_matches_loop(skip, n_ops):
    """busy_work's integer fire-counting must equal a per-cycle loop for
    any (skip, n_ops) combination."""
    from repro.testbeds import make_sp2

    bed = make_sp2(nodes_a=2, nodes_b=0)
    nexus = bed.nexus
    bulk_ctx = nexus.context(bed.hosts_a[0])
    loop_ctx = nexus.context(bed.hosts_a[1])
    for ctx in (bulk_ctx, loop_ctx):
        ctx.poll_manager.set_skip("tcp", skip)

    def bulk():
        yield from bulk_ctx.poll_manager.busy_work(n_ops, 0.0)

    def loop():
        for _ in range(n_ops + 1):  # busy_work ends with one real poll
            yield from loop_ctx.poll()

    done = nexus.sim.all_of([nexus.spawn(bulk()), nexus.spawn(loop())])
    nexus.run(until=done)
    assert (bulk_ctx.poll_manager.stats.fires.get("tcp", 0)
            == loop_ctx.poll_manager.stats.fires.get("tcp", 0))
    bulk_time = bulk_ctx.poll_manager.stats.poll_time.get("tcp", 0.0)
    loop_time = loop_ctx.poll_manager.stats.poll_time.get("tcp", 0.0)
    # identical up to float summation order
    assert abs(bulk_time - loop_time) <= 1e-9 * max(1.0, loop_time)
