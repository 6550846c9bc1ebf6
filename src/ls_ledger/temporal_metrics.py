"""Time-aware structural metrics on streams.

Covers the overlap of aggregated neighborhoods across streams and the
directed k-closure of links for k in {2, 3}: the minimal look-back from a
link to its reverse link, or to a directed triangle completing it. The
overlaps read two induced graphs' degrees and the rows they share, and
return columns over their one node set; both closures read the
stream's directed pair index and return the named tuple
``ClosureDistribution``, a column over the links and its count of
infinite closures, whose field names the stage tracer
``bench/trace_stage.py`` reads.

Closure conventions. For the 2-closure, a reverse link at exactly the same
instant qualifies (look-back 0). For the 3-closure, the two supporting
links must be strictly earlier than the closing link; a cycle is only
considered closed by its last link, so simultaneous companions do not
shrink the window.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .stream_core import InducedGraph, LinkStream, _blocks, _expand

# slots per linked pair, at least, in the 3-closure's filter of closing pairs
_SLOTS_PER_PAIR = 16


def neighborhood_overlaps(
    g1: InducedGraph, g2: InducedGraph
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every node of the graphs, which must share one node set, how
    much of its neighborhood in ``g2`` lies inside its neighborhood in
    ``g1``: the nodes, and per node the inclusion |N2 & N1| / |N2| and the
    Jaccard index |N2 & N1| / |N2 | N1|, float64, NaN on a 0 denominator.

    A node's neighborhood in the induced graph of a stream is its
    aggregated neighborhood there: everyone who ever interacted with it.
    The neighbors a node shares are the ``g2`` rows at it that ``g1``'s
    pair index holds too.
    """
    both = g1.stream.pairs.find_pairs(g2.stream.pairs) >= 0
    shared = np.bincount(g2.ends[:, both].ravel(), minlength=len(g2.nodes))
    union = g1.degree + g2.degree - shared
    inclusion, jaccard = np.full((2, len(g1.nodes)), np.nan)
    np.divide(shared, g2.degree, out=inclusion, where=g2.degree > 0)
    np.divide(shared, union, out=jaccard, where=union > 0)
    return g1.nodes, inclusion, jaccard


class ClosureDistribution(NamedTuple):
    k: int
    results: np.ndarray  # look-back per link, stream order; -1 marks an infinite closure
    infinite_count: int


def closure_distribution(s: LinkStream, k: int) -> ClosureDistribution:
    """k-closure of every link of the stream: ``(k, results,
    infinite_count)``, the look-back of every link in stream order (-1 for
    an infinite closure, read-only) and the number of infinite ones."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    lookback = _two_closure(s) if k == 2 else _three_closure(s)
    lookback.setflags(write=False)
    return ClosureDistribution(k, lookback, int(np.count_nonzero(lookback < 0)))


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
    that closing pair. Most closing pairs have no link: a flag per slot of
    the masked pair keys turns most of them away before the key search.
    """
    idx = s.directed_pairs
    # segments ascend by source, so the pairs leaving a node are contiguous
    out_start = np.searchsorted(idx.u, idx.v)
    out_degree = np.searchsorted(idx.u, idx.v, side="right") - out_start
    rank_u, rank_v = idx.ranks
    mask = (1 << (_SLOTS_PER_PAIR * len(idx.keys)).bit_length()) - 1
    linked = np.zeros(mask + 1, dtype=bool)
    linked[idx.keys & mask] = True
    kept = [np.empty((3, 0), dtype=np.int64)]  # rows: v -> w, w -> u, u -> v
    for block in _blocks(out_degree):
        owner, p2 = _expand(out_start[block], out_degree[block])
        p1 = owner + block.start
        hit = linked[(rank_v[p2] * len(idx.nodes) + rank_u[p1]) & mask]
        p1, p2 = p1[hit], p2[hit]
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
