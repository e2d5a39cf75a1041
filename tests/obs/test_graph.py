"""Communication-graph extraction, partition costs, and exports."""

import json

import pytest

from repro.core.buffers import Buffer
from repro.core.forwarding import ForwardingService
from repro.obs.graph import (
    dot_graph,
    evaluate_partition,
    extract_graph,
    graph_document,
    write_dot,
    write_graph,
)
from repro.util.document import DocumentError, check, dumps
from repro.testbeds import make_sp2

from .test_spans import run_pingpong


def run_forwarded():
    """One RSR relayed through the §4.3 forwarding processor."""
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus = bed.nexus
    nexus.obs.enabled = True
    fwd = nexus.context(bed.hosts_a[0], "fwd")
    member = nexus.context(bed.hosts_a[1], "m1")
    external = nexus.context(bed.hosts_b[0], "ext")
    ForwardingService(nexus).install(fwd, [fwd, member])
    log = []
    member.register_handler("h", lambda c, e, buf: log.append(1))
    sp = external.startpoint_to(member.new_endpoint())

    def sender():
        yield from sp.rsr("h", Buffer().put_padding(128))

    def waiter():
        yield from member.wait(lambda: bool(log))

    done = nexus.spawn(waiter())
    nexus.spawn(sender())
    nexus.run(until=done)
    return bed


def run_multicast():
    """One group send fanned out to three members over mcast."""
    methods = ("local", "mpl", "tcp", "mcast")
    bed = make_sp2(nodes_a=4, nodes_b=0, transports=methods)
    nexus = bed.nexus
    nexus.obs.enabled = True
    contexts = [nexus.context(h, f"m{i}", methods=methods)
                for i, h in enumerate(bed.hosts_a)]
    mcast = nexus.transports.get("mcast")
    for ctx in contexts:
        mcast.join("g", ctx)
        ctx.poll_manager.add_method("mcast")
    got = []
    for ctx in contexts:
        ctx.register_handler("u", lambda c, e, buf: got.append(c.name))
    sender = contexts[0]
    sp = sender.new_startpoint()
    for ctx in contexts[1:]:
        endpoint = ctx.new_endpoint()
        table = ctx.export_table().add(
            mcast.descriptor_for_group(ctx, "g"), position=0)
        sp.bind_address(ctx.id, endpoint.id, table)
    sp.set_method("mcast")

    def send():
        yield from sp.rsr("u", Buffer().put_int(7))

    def waiter(ctx):
        yield from ctx.wait(lambda: ctx.name in got)

    waits = [nexus.spawn(waiter(ctx)) for ctx in contexts[1:]]
    nexus.spawn(send())
    nexus.run(until=nexus.sim.all_of(waits))
    return bed


@pytest.fixture(scope="module")
def pingpong():
    bed = run_pingpong()
    return bed.nexus.obs, bed.nexus


class TestExtraction:
    def test_one_edge_per_delivered_transit(self, pingpong):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        # a -> b over mpl (same partition), a -> c over tcp (cross).
        assert {(e.src, e.dst, e.method) for e in graph.edge_list()} \
            == {(0, 1, "mpl"), (0, 2, "tcp")}
        assert graph.total_messages == 2
        assert graph.total_bytes > 0

    def test_nodes_are_labelled_from_the_nexus(self, pingpong):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        assert [n.component for n in graph.node_list()] == ["a", "b", "c"]
        assert all(n.host != "?" for n in graph.node_list())

    def test_nodes_fall_back_to_dense_ctx_labels(self, pingpong):
        obs, _nexus = pingpong
        graph = extract_graph(obs)
        assert [n.component for n in graph.node_list()] \
            == ["ctx0", "ctx1", "ctx2"]

    def test_node_totals_agree_with_edges(self, pingpong):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        src = graph.node_list()[0]
        assert src.messages_out == 2
        assert src.messages_in == 0
        assert src.bytes_out == graph.total_bytes
        assert src.undelivered == 0

    def test_forwarding_appears_as_per_hop_edges(self):
        bed = run_forwarded()
        graph = extract_graph(bed.nexus.obs, nexus=bed.nexus)
        by_component = {n.component: n.rank for n in graph.node_list()}
        hops = {(e.src, e.dst, e.method) for e in graph.edge_list()}
        assert (by_component["ext"], by_component["fwd"], "tcp") in hops
        assert (by_component["fwd"], by_component["m1"], "mpl") in hops

    def test_multicast_yields_one_edge_per_member(self):
        bed = run_multicast()
        graph = extract_graph(bed.nexus.obs, nexus=bed.nexus)
        edges = [e for e in graph.edge_list() if e.method == "mcast"]
        assert len(edges) == 3
        assert len({e.dst for e in edges}) == 3
        sender = {e.src for e in edges}
        assert len(sender) == 1  # the fan-out shares one source


class TestPartition:
    def test_cut_splits_intra_and_cross_traffic(self, pingpong):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        costs = evaluate_partition(graph, {0: "A", 1: "A", 2: "B"})
        assert costs.partitions == ["A", "B"]
        assert costs.intra["messages"] == 1   # a -> b over mpl
        assert costs.cross["messages"] == 1   # a -> c over tcp
        assert costs.cross_messages_per_method == {"tcp": 1}
        total = costs.intra["bytes"] + costs.cross["bytes"]
        assert costs.cut_fraction_bytes == pytest.approx(
            costs.cross["bytes"] / total)

    def test_single_partition_has_empty_cut(self, pingpong):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        costs = evaluate_partition(graph, {0: "A", 1: "A", 2: "A"})
        assert costs.cross["messages"] == 0
        assert costs.cut_fraction_bytes == 0.0

    def test_unassigned_ranks_count_as_cross_traffic(self, pingpong):
        # Ranks missing from the assignment land in partition "?", so
        # every edge out of rank 0 ("A") crosses the cut.
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        costs = evaluate_partition(graph, {0: "A"})
        assert costs.cross["messages"] == 2
        assert costs.intra["messages"] == 0

    def test_empty_graph_has_na_cut_fraction(self):
        from repro.obs.graph import CommGraph

        costs = evaluate_partition(CommGraph(), {})
        assert costs.cut_fraction_bytes is None
        assert costs.imbalance is None

    def test_cross_bytes_broken_down_per_method(self, pingpong):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        costs = evaluate_partition(graph, {0: "A", 1: "A", 2: "B"})
        assert set(costs.cross_bytes_per_method) == {"tcp"}
        assert costs.cross_bytes_per_method["tcp"] \
            == costs.cross["bytes"]

    def test_imbalance_is_max_over_mean_traffic(self, pingpong):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        costs = evaluate_partition(graph, {0: "A", 1: "A", 2: "B"})
        weights = {"A": 0.0, "B": 0.0}
        for node in graph.node_list():
            label = "A" if node.rank in (0, 1) else "B"
            weights[label] += node.bytes_in + node.bytes_out
        mean = sum(weights.values()) / 2
        assert costs.imbalance == pytest.approx(
            max(weights.values()) / mean)
        assert costs.imbalance >= 1.0

    def test_costs_expose_dataclass_and_mapping_views(self, pingpong):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        costs = evaluate_partition(graph, {0: "A", 1: "A", 2: "B"})
        assert costs.partitions == costs.as_dict()["partitions"]
        assert set(costs.as_dict()) >= {"partitions", "intra", "cross",
                                        "cut_fraction_bytes",
                                        "cross_bytes_per_method",
                                        "imbalance"}


class TestExport:
    def test_identical_runs_export_identical_bytes(self):
        one = run_pingpong()
        two = run_pingpong()
        assert dumps(graph_document(
            extract_graph(one.nexus.obs, nexus=one.nexus))) == dumps(
                graph_document(extract_graph(two.nexus.obs,
                                             nexus=two.nexus)))
        assert dot_graph(extract_graph(one.nexus.obs, nexus=one.nexus)) \
            == dot_graph(extract_graph(two.nexus.obs, nexus=two.nexus))

    def test_document_passes_the_validator(self, pingpong):
        obs, nexus = pingpong
        _schema, summary = check(
            graph_document(extract_graph(obs, nexus=nexus)))
        assert summary["nodes"] == 3
        assert summary["edges"] == 2
        assert summary["messages"] == 2

    def test_write_round_trips_through_the_validator(self, pingpong,
                                                     tmp_path):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        path = tmp_path / "graph.json"
        write_graph(str(path), graph, meta={"scenario": "pingpong"})
        document = json.loads(path.read_text())
        check(document)
        assert document["meta"] == {"scenario": "pingpong"}

    def test_dot_renders_hosts_as_clusters(self, pingpong, tmp_path):
        obs, nexus = pingpong
        graph = extract_graph(obs, nexus=nexus)
        path = tmp_path / "graph.dot"
        write_dot(str(path), graph, title="pingpong")
        text = path.read_text()
        assert text.startswith('digraph "pingpong" {')
        assert text.count("subgraph") == len({n.host
                                              for n in graph.node_list()})
        assert "n0 -> n1" in text and "n0 -> n2" in text

    def test_validator_rejects_total_mismatch(self, pingpong):
        obs, nexus = pingpong
        document = graph_document(extract_graph(obs, nexus=nexus))
        document["total_messages"] += 1
        with pytest.raises(DocumentError):
            check(document)

    def test_validator_rejects_unknown_rank(self, pingpong):
        obs, nexus = pingpong
        document = graph_document(extract_graph(obs, nexus=nexus))
        document["edges"][0]["dst"] = 99
        with pytest.raises(DocumentError):
            check(document)
