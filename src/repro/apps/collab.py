"""Collaborative shared-state multicast (the Section 2 motivation).

"Collaborative environments require a mixture of protocols providing
different combinations of high throughput, multicast, and high
reliability" — shared virtual spaces (reference [12]) broadcast state
updates to every participant while bulk data (geometry, video) flows
point-to-point.

This app builds a session of N participant contexts across the I-WAY
testbed, joins them to a multicast group, and drives two traffic classes
through one startpoint each:

* *state updates*: a multi-endpoint startpoint whose links all selected
  the ``mcast`` method — one RSR, one wire send, N deliveries;
* *bulk transfer*: an ordinary unicast startpoint (fastest applicable
  method per destination), used for occasional large objects.

It demonstrates the multicast collapse optimisation in
:meth:`Startpoint.rsr` and the coexistence of methods per *what* is
communicated — the paper's "what" axis of method choice.
"""

from __future__ import annotations

import dataclasses

from ..core.buffers import Buffer
from ..core.context import Context
from ..testbeds import IWayTestbed, make_iway
from ..transports.multicast import MulticastTransport


@dataclasses.dataclass
class CollabResult:
    """Outcome of a collaborative session."""

    participants: int
    updates_sent: int
    updates_delivered: int          # across all participants
    group_sends: int                # wire-level multicast sends
    bulk_bytes_delivered: int
    state_versions: dict[str, int]  # participant name -> last seen version

    @property
    def delivery_ratio(self) -> float:
        expected = self.updates_sent * (self.participants - 1)
        return self.updates_delivered / expected if expected else 1.0


def run_collab(participants: int = 4, updates: int = 25, *,
               update_bytes: int = 512,
               bulk_every: int = 10,
               bulk_bytes: int = 1024 * 1024,
               testbed: IWayTestbed | None = None) -> CollabResult:
    """Run a shared-whiteboard-style session.

    Participant 0 (on the CAVE) is the presenter: it multicasts state
    updates to everyone and occasionally pushes a bulk object to one
    participant over unicast.
    """
    bed = testbed or make_iway(sp2_nodes=max(participants - 1, 1))
    nexus = bed.nexus
    group = "whiteboard"
    mcast = nexus.transports.get("mcast")
    assert isinstance(mcast, MulticastTransport)

    hosts = [bed.cave_host] + bed.sp2_hosts[:participants - 1]
    methods = ("local", "mpl", "aal5", "tcp", "mcast")
    contexts = [nexus.context(host, f"member{i}", methods=methods)
                for i, host in enumerate(hosts)]

    seen: dict[str, int] = {ctx.name: -1 for ctx in contexts}
    delivered = {"updates": 0, "bulk_bytes": 0}

    def on_update(ctx: Context, _ep, buffer: Buffer) -> None:
        version = buffer.get_int()
        buffer.get_padding()
        seen[ctx.name] = max(seen[ctx.name], version)
        delivered["updates"] += 1

    def on_bulk(ctx: Context, _ep, buffer: Buffer) -> None:
        delivered["bulk_bytes"] += buffer.get_padding()

    # Join everyone to the group and build the presenter's multicast
    # startpoint: one link per remote member, each carrying that member's
    # group descriptor so selection lands on ``mcast`` everywhere.
    presenter = contexts[0]
    for ctx in contexts:
        ctx.register_handler("update", on_update)
        ctx.register_handler("bulk", on_bulk)
        mcast.join(group, ctx)
        # Group descriptors are attached explicitly, so group delivery
        # must be added to each member's poll cycle by hand.
        ctx.poll_manager.add_method("mcast")

    update_sp = presenter.new_startpoint()
    for ctx in contexts[1:]:
        endpoint = ctx.new_endpoint()
        table = ctx.export_table().add(
            mcast.descriptor_for_group(ctx, group), position=0)
        update_sp.bind_address(ctx.id, endpoint.id, table)
    update_sp.set_method("mcast")

    bulk_sps = [presenter.startpoint_to(ctx.new_endpoint())
                for ctx in contexts[1:]]

    def presenter_body():
        for version in range(updates):
            update = Buffer().put_int(version).put_padding(update_bytes)
            yield from update_sp.rsr("update", update)
            if bulk_every and version and version % bulk_every == 0:
                target = bulk_sps[version % len(bulk_sps)]
                yield from target.rsr("bulk",
                                      Buffer().put_padding(bulk_bytes))
            yield from presenter.charge(2e-3)  # 2 ms between edits

    def member_body(ctx: Context):
        yield from ctx.wait(lambda: seen[ctx.name] >= updates - 1)

    members = [nexus.spawn(member_body(ctx), name=f"collab:{ctx.name}")
               for ctx in contexts[1:]]
    nexus.spawn(presenter_body(), name="collab:presenter")
    nexus.run_until(*members)

    return CollabResult(
        participants=participants,
        updates_sent=updates,
        updates_delivered=delivered["updates"],
        group_sends=nexus.obs.metrics.count("mcast.group_sends"),
        bulk_bytes_delivered=delivered["bulk_bytes"],
        state_versions=dict(seen),
    )
