#!/usr/bin/env python
"""Figure 3, executable: startpoint mobility re-selects the method.

The paper's selection example: node 0 (outside the SP2, Ethernet/TCP
only) holds a startpoint referencing an endpoint on node 2 (inside an
SP2 partition, so its descriptor table advertises both MPL and TCP).
From node 0 only TCP is applicable.  When node 0 *sends the startpoint
itself* to node 1 — a node in the same partition as node 2 — the
receiving context re-runs selection and picks MPL.

Also demonstrates manual control: reordering the descriptor table,
a required method, and dynamic `set_method`.

Run:  python examples/method_selection.py
"""

from repro import Buffer, RequireMethod, enquiry, make_sp2


def main() -> None:
    bed = make_sp2(nodes_a=2, nodes_b=1)
    with bed.nexus as nexus:
        node1 = nexus.context(bed.hosts_a[0], "node1")   # SP2 partition A
        node2 = nexus.context(bed.hosts_a[1], "node2")   # SP2 partition A
        node0 = nexus.context(bed.hosts_b[0], "node0",   # "Ethernet only"
                              methods=("local", "tcp"))

        hits = []
        node2.register_handler(
            "ping", lambda ctx, ep, buf: hits.append(buf.get_str()))

        # --- automatic selection at node 0 --------------------------------
        sp = node0.startpoint_to(node2.new_endpoint())
        print("descriptor table carried by the startpoint:",
              sp.links[0].table.methods)
        sp.ensure_connected(sp.links[0])
        print(f"at node0 (no MPL available): selected "
              f"{sp.current_methods()}")

        # --- migrate the startpoint to node 1 ------------------------------
        carried = {}
        node1.register_handler(
            "carry", lambda ctx, ep, buf: carried.update(
                sp=buf.get_startpoint(ctx)))
        carrier = node0.startpoint_to(node1.new_endpoint())

        def node0_body():
            yield from carrier.rsr("carry", Buffer().put_startpoint(sp))
            yield from sp.rsr("ping",
                              Buffer().put_str("from node0 over TCP"))

        def node1_body():
            yield from node1.wait(lambda: "sp" in carried)
            migrated = carried["sp"]
            migrated.ensure_connected(migrated.links[0])
            print(f"at node1 (same partition as node2): selected "
                  f"{migrated.current_methods()}")
            yield from migrated.rsr(
                "ping", Buffer().put_str("from node1 over MPL"))

        def node2_body():
            yield from node2.wait(lambda: len(hits) >= 2)

        nexus.run_until(node0_body(), node1_body(), node2_body())
        print("node2 received:", hits)

        # --- manual selection ------------------------------------------------
        print("\nmanual control:")
        manual = node1.startpoint_to(node2.new_endpoint())
        link = manual.links[0]
        link.table = link.table.promote("tcp")  # user reorders the table
        manual.ensure_connected(manual.links[0])
        print(f"  after promoting tcp in the table: "
              f"{manual.current_methods()}")
        manual.set_method("mpl")               # dynamic change, new comm
        print(f"  after set_method('mpl'):          "
              f"{manual.current_methods()}")

        required = node1.startpoint_to(node2.new_endpoint(),
                                       policy=RequireMethod("tcp"))
        required.ensure_connected(required.links[0])
        print(f"  with RequireMethod('tcp'):        "
              f"{required.current_methods()}")

        report = enquiry.report(nexus).polling[node2.id]
        print(f"\nnode2 polling: {report.cycles} cycles, "
              f"fires {report.fires}")


if __name__ == "__main__":
    main()
