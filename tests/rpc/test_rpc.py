"""Tests for the global-pointer RPC layer."""

import numpy as np
import pytest

from repro.rpc import GlobalPointer, RemoteError, RpcRuntime, expose
from repro.testbeds import make_sp2


class Calculator:
    """A test service with plain, generator, and failing methods."""

    def __init__(self, context=None):
        self.context = context
        self.history: list[float] = []

    def add(self, a, b):
        result = a + b
        self.history.append(result)
        return result

    def norm(self, array):
        return float(np.linalg.norm(array))

    def fail(self, message):
        raise ValueError(message)

    def slow_square(self, x):
        yield from self.context.charge(5e-4)
        return x * x

    def _private(self):  # pragma: no cover - never callable remotely
        return "secret"


@pytest.fixture
def world():
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus = bed.nexus
    server_ctx = nexus.context(bed.hosts_a[0], "server")
    near_ctx = nexus.context(bed.hosts_a[1], "near")     # same partition
    far_ctx = nexus.context(bed.hosts_b[0], "far")       # other partition
    service = Calculator(server_ctx)
    local_gp = expose(server_ctx, service)

    def pump():
        yield from server_ctx.wait(lambda: False)

    nexus.spawn(pump(), name="server-pump")
    return bed, service, local_gp, near_ctx, far_ctx


def run_client(bed, body):
    proc = bed.nexus.spawn(body)
    return bed.nexus.run(until=proc)


class TestCalls:
    def test_sync_call_roundtrip(self, world):
        bed, service, local_gp, near_ctx, _far = world
        gp = GlobalPointer.from_wire(local_gp.to_wire(), near_ctx)

        def client():
            result = yield from gp.call("add", 2, 3)
            return result

        assert run_client(bed, client()) == 5
        assert service.history == [5]

    def test_array_arguments_and_results(self, world):
        bed, _service, local_gp, near_ctx, _far = world
        gp = GlobalPointer.from_wire(local_gp.to_wire(), near_ctx)

        def client():
            result = yield from gp.call("norm", np.array([3.0, 4.0]))
            return result

        assert run_client(bed, client()) == pytest.approx(5.0)

    def test_generator_method_blocks_server_side(self, world):
        bed, _service, local_gp, near_ctx, _far = world
        gp = GlobalPointer.from_wire(local_gp.to_wire(), near_ctx)

        def client():
            result = yield from gp.call("slow_square", 7)
            return result, bed.nexus.now

        result, at = run_client(bed, client())
        assert result == 49
        assert at >= 5e-4  # the server's charge is on the path

    def test_remote_exception_propagates(self, world):
        bed, _service, local_gp, near_ctx, _far = world
        gp = GlobalPointer.from_wire(local_gp.to_wire(), near_ctx)

        def client():
            try:
                yield from gp.call("fail", "boom")
            except RemoteError as error:
                return error.remote_type, error.remote_message

        assert run_client(bed, client()) == ("ValueError", "boom")

    def test_unknown_and_private_methods_rejected(self, world):
        bed, _service, local_gp, near_ctx, _far = world
        gp = GlobalPointer.from_wire(local_gp.to_wire(), near_ctx)

        def client():
            errors = []
            for name in ("nope", "_private"):
                try:
                    yield from gp.call(name)
                except RemoteError as error:
                    errors.append(error.remote_type)
            return errors

        assert run_client(bed, client()) == ["RpcError", "RpcError"]


class TestFutures:
    def test_acall_overlaps(self, world):
        bed, _service, local_gp, near_ctx, _far = world
        gp = GlobalPointer.from_wire(local_gp.to_wire(), near_ctx)

        def client():
            futures = [gp.acall("add", i, i) for i in range(4)]
            assert not any(f.done for f in futures)
            results = []
            for future in futures:
                value = yield from future.wait()
                results.append(value)
            return results

        assert run_client(bed, client()) == [0, 2, 4, 6]

    def test_result_before_done_raises(self, world):
        bed, _service, local_gp, near_ctx, _far = world
        gp = GlobalPointer.from_wire(local_gp.to_wire(), near_ctx)
        future = gp.acall("add", 1, 1)
        from repro.rpc import RpcError
        with pytest.raises(RpcError):
            future.result()


class TestMobilityAndMethods:
    def test_method_follows_location(self, world):
        bed, _service, local_gp, near_ctx, far_ctx = world
        near = GlobalPointer.from_wire(local_gp.to_wire(), near_ctx)
        far = GlobalPointer.from_wire(local_gp.to_wire(), far_ctx)

        def near_client():
            result = yield from near.call("add", 1, 1)
            return result, near.method

        def far_client():
            result = yield from far.call("add", 2, 2)
            return result, far.method

        assert run_client(bed, near_client()) == (2, "mpl")
        assert run_client(bed, far_client()) == (4, "tcp")

    def test_pointer_as_argument_rehomes(self, world):
        """Pass a pointer through an RPC; the callee can call through it."""
        bed, _service, local_gp, near_ctx, far_ctx = world
        nexus = bed.nexus

        class Relay:
            def __init__(self):
                self.seen_method = None

            def relay_add(self, pointer, a, b):
                self.seen_method = None
                result = yield from pointer.call("add", a, b)
                self.seen_method = pointer.method
                return result

        relay = Relay()
        relay_local = expose(near_ctx, relay)
        relay_far = GlobalPointer.from_wire(relay_local.to_wire(), far_ctx)
        calc_far = GlobalPointer.from_wire(local_gp.to_wire(), far_ctx)

        def pump():
            yield from near_ctx.wait(lambda: False)

        nexus.spawn(pump(), name="relay-pump")

        def client():
            result = yield from relay_far.call("relay_add", calc_far, 4, 5)
            return result

        assert run_client(bed, client()) == 9
        # The relay (same partition as the server) used MPL even though
        # the pointer it received came from a TCP-only holder.
        assert relay.seen_method == "mpl"

    def test_calls_served_counter(self, world):
        bed, _service, local_gp, near_ctx, _far = world
        server_ctx = local_gp.context
        gp = GlobalPointer.from_wire(local_gp.to_wire(), near_ctx)

        def client():
            yield from gp.call("add", 1, 2)
            yield from gp.call("add", 3, 4)

        run_client(bed, client())
        assert RpcRuntime.of(server_ctx).calls_served == 2
