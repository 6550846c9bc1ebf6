"""Time-aware structural metrics on streams.

Covers the overlap of aggregated neighborhoods across streams and the
directed k-closure of links for k in {2, 3}: the minimal look-back from a
link to its reverse link, or to a directed triangle completing it. The
overlaps read two induced graphs' degrees and the rows they share, and
return columns over the union of their node sets; both closures read the
stream's directed pair index.

Closure conventions. For the 2-closure, a reverse link at exactly the same
instant qualifies (look-back 0). For the 3-closure, the two supporting
links must be strictly earlier than the closing link; a cycle is only
considered closed by its last link, so simultaneous companions do not
shrink the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stream_core import InducedGraph, LinkStream, _blocks, _expand, _distinct_sorted


def neighborhood_overlaps(
    g1: InducedGraph, g2: InducedGraph
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every node of either graph, ascending, how much of its
    neighborhood in ``g2`` lies inside its neighborhood in ``g1``: the
    nodes as a node set, and per node the inclusion |N2 & N1| / |N2| and
    the Jaccard index |N2 & N1| / |N2 | N1|, float64, NaN on a 0 denominator.

    A node's neighborhood in the induced graph of a stream is its
    aggregated neighborhood there: everyone who ever interacted with it. A
    node absent from a graph has an empty neighborhood there. The neighbors
    a node shares are the ``g2`` rows at it that ``g1``'s pair index holds
    too.
    """
    nodes = _distinct_sorted(np.concatenate((g1.nodes, g2.nodes)))
    at1, at2 = (np.searchsorted(nodes, g.nodes) for g in (g1, g2))
    deg1, deg2 = np.zeros((2, len(nodes)), dtype=np.int64)
    deg1[at1], deg2[at2] = g1.degree, g2.degree
    both = g1.stream.pairs.find(*g2.undirected_edges().T) >= 0
    shared = np.bincount(at2[g2.ends[:, both]].ravel(), minlength=len(nodes))
    union = deg1 + deg2 - shared
    inclusion, jaccard = np.full((2, len(nodes)), np.nan)
    np.divide(shared, deg2, out=inclusion, where=deg2 > 0)
    np.divide(shared, union, out=jaccard, where=union > 0)
    return nodes, inclusion, jaccard


@dataclass(frozen=True, eq=False)
class ClosureDistribution:
    k: int
    results: np.ndarray  # look-back per link, stream order; -1 marks an infinite closure
    infinite_count: int


def closure_distribution(s: LinkStream, k: int) -> ClosureDistribution:
    """k-closure of every link of the stream, with the number of links
    whose closure is infinite."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    lookback = _two_closure(s) if k == 2 else _three_closure(s)
    lookback.setflags(write=False)
    return ClosureDistribution(
        k=k, results=lookback, infinite_count=int(np.count_nonzero(lookback < 0))
    )


def _two_closure(s: LinkStream) -> np.ndarray:
    """Look-back from each link (t, u, v) to the latest reverse link
    (t', v, u) with t' <= t; -1 where no reverse link exists that early."""
    idx = s.directed_pairs
    rank_u, rank_v = (rank[idx.segment] for rank in idx.ranks)
    latest = idx.latest(idx.find_ranks(rank_v, rank_u), s.t, inclusive=True)
    return np.where(latest >= 0, s.t - idx.time_at(latest), -1)


def _three_closure(s: LinkStream) -> np.ndarray:
    """Smallest look-back window that completes the directed cycle
    u -> v -> w -> u of each link (t, u, v), both supporting links strictly
    earlier than t; -1 where no such cycle exists.

    For each third party w the tightest candidate uses the latest v -> w
    and w -> u links before t, and the best window over all w wins. The
    2-paths v -> w -> u run over distinct pairs, in blocks: first to keep
    those whose closing pair (u, v) has links, then against each link of
    that closing pair.
    """
    idx = s.directed_pairs
    # segments ascend by source, so the pairs leaving a node are contiguous
    out_start = np.searchsorted(idx.u, idx.v)
    out_degree = np.searchsorted(idx.u, idx.v, side="right") - out_start
    rank_u, rank_v = idx.ranks
    kept = [np.empty((3, 0), dtype=np.int64)]  # rows: v -> w, w -> u, u -> v
    for block in _blocks(out_degree):
        owner, p2 = _expand(out_start[block], out_degree[block])
        p1 = owner + block.start
        c = idx.find_ranks(rank_v[p2], rank_u[p1])
        kept.append(np.stack((p1, p2, c))[:, c >= 0])
    p1, p2, c = np.concatenate(kept, axis=1)

    size = np.diff(idx.starts)[c]
    best = np.full(s.link_count, -1, dtype=np.int64)  # per grouped position
    for block in _blocks(size):
        owner, pos = _expand(idx.starts[c[block]], size[block])
        t = idx.times[pos]
        window = np.minimum(
            idx.time_at(idx.latest(p1[block][owner], t, inclusive=False)),
            idx.time_at(idx.latest(p2[block][owner], t, inclusive=False)),
        )
        np.maximum.at(best, pos, window)
    lookback = np.full(s.link_count, -1, dtype=np.int64)
    closed = best >= 0
    lookback[idx.positions[closed]] = idx.times[closed] - best[closed]
    return lookback
