"""Time-aware structural metrics on streams.

Covers the overlap of aggregated neighborhoods across streams and the
directed k-closure of links for k in {2, 3}: the minimal look-back from a
link to its reverse link, or to a directed triangle completing it. Both
closures read the stream's directed pair index.

Closure conventions. For the 2-closure, a reverse link at exactly the same
instant qualifies (look-back 0). For the 3-closure, the two supporting
links must be strictly earlier than the closing link; a cycle is only
considered closed by its last link, so simultaneous companions do not
shrink the window.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Set
from dataclasses import dataclass

import numpy as np

from .stream_core import LinkStream, _blocks, _expand


@dataclass(frozen=True)
class OverlapResult:
    node: int
    inclusion: float | None  # |N2 & N1| / |N2|, None when N2 is empty
    jaccard: float | None  # |N2 & N1| / |N2 | N1|, None when both empty


def neighborhood_overlaps(
    n1: Mapping[int, Set[int]], n2: Mapping[int, Set[int]]
) -> list[OverlapResult]:
    """For every node of either map, in node order, how much of its
    neighborhood in ``n2`` lies inside its neighborhood in ``n1``.

    The maps take a node to its aggregated neighborhood in a stream, as
    ``induced_graph(s).undirected_adjacency()`` builds it from the stream's
    unordered pairs: everyone who ever interacted with the node, over the
    stream's whole node set. A node absent from a map has an empty
    neighborhood there; empty denominators yield None markers.
    """
    empty: frozenset[int] = frozenset()
    results = []
    for v in sorted(n1.keys() | n2.keys()):
        a = n1.get(v, empty)
        b = n2.get(v, empty)
        inter = len(a & b)
        union = len(a) + len(b) - inter
        results.append(
            OverlapResult(
                node=v,
                inclusion=inter / len(b) if b else None,
                jaccard=inter / union if union else None,
            )
        )
    return results


@dataclass(frozen=True, eq=False)
class ClosureDistribution:
    k: int
    results: np.ndarray  # look-back per link, stream order; -1 marks an infinite closure
    finite: Counter[int]  # histogram over finite look-backs
    infinite_count: int


def closure_distribution(s: LinkStream, k: int) -> ClosureDistribution:
    """k-closure of every link of the stream; finite look-backs are
    histogrammed and infinite ones only counted, as in the reference plots."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    lookback = _two_closure(s) if k == 2 else _three_closure(s)
    lookback.setflags(write=False)
    finite = lookback[lookback >= 0].tolist()
    return ClosureDistribution(
        k=k,
        results=lookback,
        finite=Counter(finite),
        infinite_count=len(lookback) - len(finite),
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
