"""Byte-deterministic graph partitioners over :class:`CommGraph`.

Three strategies, ordered by sophistication:

* :func:`random_partition` — seeded balanced random assignment, the
  baseline every real partitioner must beat;
* :func:`kernighan_lin_refine` — pairwise-swap refinement that lowers
  the weighted cut of any starting assignment while preserving
  partition sizes;
* :func:`spectral_partition` — recursive Fiedler-vector bisection on
  the weighted graph Laplacian.

Everything here is plain-Python arithmetic with fixed iteration counts
and total tie-breaks on ``(value, rank)`` — no BLAS, no randomized
pivoting — so the same graph and seed produce the identical assignment
on every run and at every ``--jobs`` level.  Node weight is traffic
volume (bytes in+out, falling back to message counts, then to 1.0 for a
silent rank); edge weight is bytes (falling back to messages for a
zero-byte edge) — both documented in ARCHITECTURE's determinism
contract.
"""

from __future__ import annotations

import random
import typing as _t

from ..obs.graph import CommGraph
from .errors import PlacementError

#: Partition labels: ``P0`` .. ``P{k-1}``.
Assignment = dict[int, str]

#: Fixed power-iteration budget for the Fiedler vector — enough for the
#: graphs this repo extracts (tens of ranks), and a *fixed* count keeps
#: the float trajectory identical everywhere.
_POWER_ITERATIONS = 128


def _label(index: int) -> str:
    return f"P{index}"


def node_weights(graph: CommGraph) -> dict[int, float]:
    """Per-rank compute/traffic weight used for balance.

    Bytes in+out when the graph carries byte counts, else message
    counts, else 1.0 — a rank that never communicated still occupies a
    slot and must not divide by zero.
    """
    weights = {rank: float(node.bytes_in + node.bytes_out)
               for rank, node in graph.nodes.items()}
    if weights and not any(weights.values()):
        weights = {rank: float(node.messages_in + node.messages_out)
                   for rank, node in graph.nodes.items()}
    return {rank: (weight if weight > 0 else 1.0)
            for rank, weight in weights.items()}


def edge_weights(graph: CommGraph) -> dict[tuple[int, int], float]:
    """Undirected edge weights: bytes per rank pair (messages when a
    pair only ever exchanged zero-byte messages, 1.0 when even counts
    are missing)."""
    weights: dict[tuple[int, int], float] = {}
    for edge in graph.edge_list():
        if edge.src == edge.dst:
            continue
        pair = (min(edge.src, edge.dst), max(edge.src, edge.dst))
        weight = float(edge.bytes) or float(edge.messages) or 1.0
        weights[pair] = weights.get(pair, 0.0) + weight
    return weights


def _check_request(graph: CommGraph, k: int) -> list[int]:
    if not graph.nodes:
        raise PlacementError("cannot partition an empty graph")
    if k < 1:
        raise PlacementError(f"need at least one partition, got k={k}")
    ranks = sorted(graph.nodes)
    if k > len(ranks):
        raise PlacementError(
            f"k={k} partitions but the graph has only {len(ranks)} ranks")
    return ranks


def cut_weight(graph: CommGraph, assignment: _t.Mapping[int, str]) -> float:
    """Total weight of edges whose endpoints sit in different parts."""
    return sum(weight
               for (a, b), weight in edge_weights(graph).items()
               if assignment.get(a) != assignment.get(b))


# -- strategies ---------------------------------------------------------------

def random_partition(graph: CommGraph, k: int, *, seed: int = 0
                     ) -> Assignment:
    """Seeded balanced random assignment (the baseline)."""
    ranks = _check_request(graph, k)
    labels = [_label(index % k) for index in range(len(ranks))]
    random.Random(seed).shuffle(labels)
    return dict(zip(ranks, labels))


def kernighan_lin_refine(graph: CommGraph,
                         assignment: _t.Mapping[int, str], *,
                         max_passes: int = 4) -> Assignment:
    """Pairwise-swap refinement: repeatedly apply the best
    cut-reducing label swap until no swap helps (or ``max_passes``
    sweeps complete).  Swapping preserves each part's rank count, so a
    balanced input stays balanced."""
    refined = dict(assignment)
    missing = sorted(set(graph.nodes) - set(refined))
    if missing:
        raise PlacementError(
            f"assignment is missing ranks {missing}")
    weights = edge_weights(graph)

    def external(rank: int, label: str) -> float:
        """Weight from ``rank`` to parts other than ``label``."""
        total = 0.0
        for (a, b), weight in weights.items():
            other = b if a == rank else (a if b == rank else None)
            if other is None:
                continue
            if refined[other] != label:
                total += weight
        return total

    ranks = sorted(refined)
    for _sweep in range(max_passes):
        best_gain = 0.0
        best_swap: tuple[int, int] | None = None
        for i, a in enumerate(ranks):
            for b in ranks[i + 1:]:
                if refined[a] == refined[b]:
                    continue
                # Gain of swapping a<->b: externals drop to the swapped
                # labels' view; the a-b edge stays cut either way.
                direct = weights.get((min(a, b), max(a, b)), 0.0)
                gain = (external(a, refined[a]) - external(a, refined[b])
                        + external(b, refined[b]) - external(b, refined[a])
                        - 2.0 * direct)
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_swap = (a, b)
        if best_swap is None:
            break
        a, b = best_swap
        refined[a], refined[b] = refined[b], refined[a]
    return refined


def spectral_partition(graph: CommGraph, k: int) -> Assignment:
    """Recursive weighted-median bisection along the Fiedler vector.

    The Fiedler vector (second-smallest Laplacian eigenvector) comes
    from fixed-count power iteration on ``cI - L`` with the constant
    vector projected out — pure Python floats, deterministic start
    vector, total tie-breaks.  A disconnected part is split along its
    component boundaries first (the zero-cut split), so the power
    iteration only ever runs on connected subgraphs.
    """
    ranks = _check_request(graph, k)
    weights = edge_weights(graph)
    loads = node_weights(graph)

    def fiedler_order(part: list[int]) -> list[int]:
        n = len(part)
        index = {rank: i for i, rank in enumerate(part)}
        lap = [[0.0] * n for _ in range(n)]
        for (a, b), weight in weights.items():
            ia, ib = index.get(a), index.get(b)
            if ia is None or ib is None:
                continue
            lap[ia][ib] -= weight
            lap[ib][ia] -= weight
            lap[ia][ia] += weight
            lap[ib][ib] += weight
        shift = 2.0 * max(lap[i][i] for i in range(n)) or 1.0
        # Start vector: exactly orthogonal to the constant vector.
        vec = [i - (n - 1) / 2.0 for i in range(n)]
        for _step in range(_POWER_ITERATIONS):
            nxt = [shift * vec[i]
                   - sum(lap[i][j] * vec[j] for j in range(n))
                   for i in range(n)]
            mean = sum(nxt) / n
            nxt = [value - mean for value in nxt]
            norm = sum(value * value for value in nxt) ** 0.5
            if norm < 1e-12:
                # Degenerate spectrum (e.g. uniform complete graph):
                # fall back to index order, still deterministic.
                nxt = [float(i) for i in range(n)]
                norm = sum(value * value for value in nxt) ** 0.5
            vec = [value / norm for value in nxt]
        return sorted(part, key=lambda rank: (vec[index[rank]], rank))

    def components(part: list[int]) -> list[list[int]]:
        remaining = set(part)
        found: list[list[int]] = []
        while remaining:
            seed = min(remaining)
            stack, seen = [seed], {seed}
            while stack:
                rank = stack.pop()
                for (a, b) in weights:
                    other = b if a == rank else (a if b == rank else None)
                    if other in remaining and other not in seen:
                        seen.add(other)
                        stack.append(other)
            remaining -= seen
            found.append(sorted(seen))
        return found

    def bisect(part: list[int]) -> tuple[list[int], list[int]]:
        pieces = components(part)
        if len(pieces) > 1:
            # Disconnected: group whole components, heaviest first onto
            # the lighter side — the zero-cut split the Fiedler vector
            # would find, without relying on float convergence.
            sides: tuple[list[int], list[int]] = ([], [])
            totals = [0.0, 0.0]
            for piece in sorted(
                    pieces,
                    key=lambda p: (-sum(loads[r] for r in p), p[0])):
                side = 0 if totals[0] <= totals[1] else 1
                sides[side].extend(piece)
                totals[side] += sum(loads[r] for r in piece)
            return sorted(sides[0]), sorted(sides[1])
        order = fiedler_order(part)
        total = sum(loads[rank] for rank in order)
        acc = 0.0
        split = 0
        for i, rank in enumerate(order):
            acc += loads[rank]
            split = i + 1
            if acc >= total / 2.0:
                break
        split = max(1, min(split, len(order) - 1))
        return order[:split], order[split:]

    parts: list[list[int]] = [list(ranks)]
    while len(parts) < k:
        # Split the heaviest part that still has >= 2 ranks.
        candidates = [part for part in parts if len(part) >= 2]
        target = max(candidates,
                     key=lambda part: (sum(loads[r] for r in part),
                                       -min(part)))
        parts.remove(target)
        parts.extend(bisect(target))
    parts.sort(key=min)
    return {rank: _label(i)
            for i, part in enumerate(parts) for rank in part}


__all__ = [
    "Assignment",
    "cut_weight",
    "edge_weights",
    "kernighan_lin_refine",
    "node_weights",
    "random_partition",
    "spectral_partition",
]
