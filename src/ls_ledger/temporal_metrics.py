"""Time-aware structural metrics on streams.

Covers temporal neighborhoods (sets of (time, node) elements), their node
projections and cross-stream overlap, and the directed k-closure of links
for k in {2, 3}: the minimal look-back from a link to its reverse link, or
to a directed triangle completing it.

Closure conventions. For the 2-closure, a reverse link at exactly the same
instant qualifies (look-back 0). For the 3-closure, the two supporting
links must be strictly earlier than the closing link; a cycle is only
considered closed by its last link, so simultaneous companions do not
shrink the window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping, Set
from dataclasses import dataclass

from .stream_core import Link, LinkStream, pair_times


@dataclass(frozen=True)
class NeighborhoodCluster:
    """The temporal nodes (t, u) that interacted with ``owner`` in a stream,
    in either direction."""

    owner: int
    elements: frozenset[tuple[int, int]]

    def node_projection(self) -> frozenset[int]:
        return frozenset(u for _, u in self.elements)


def neighborhood(s: LinkStream, v: int) -> NeighborhoodCluster:
    """All (t, u) such that the stream links u and v at t, either direction."""
    if v not in s.nodes:
        raise KeyError(f"node {v} not in stream")
    out, into = s.src == v, s.dst == v
    elems = set(zip(s.t[out].tolist(), s.dst[out].tolist()))
    elems.update(zip(s.t[into].tolist(), s.src[into].tolist()))
    return NeighborhoodCluster(owner=v, elements=frozenset(elems))


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
    ``induced_graph(s).undirected_adjacency()`` gives it: everyone who ever
    interacted with the node. A node absent from a map has an empty
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


@dataclass(frozen=True)
class ClosureResult:
    link: Link
    k: int
    lookback: int | None  # None marks an infinite closure


class _StreamIndex:
    """Per-pair sorted times plus in/out adjacency; built once per stream
    and shared across the per-link closure queries."""

    def __init__(self, s: LinkStream):
        self.times = pair_times(s)
        self.out_nbrs: dict[int, set[int]] = {}
        self.in_nbrs: dict[int, set[int]] = {}
        for u, v in self.times:
            self.out_nbrs.setdefault(u, set()).add(v)
            self.in_nbrs.setdefault(v, set()).add(u)

    def latest_at_or_before(self, u: int, v: int, t: int) -> int | None:
        ts = self.times.get((u, v))
        if not ts:
            return None
        i = bisect_right(ts, t)
        return ts[i - 1] if i else None

    def latest_before(self, u: int, v: int, t: int) -> int | None:
        ts = self.times.get((u, v))
        if not ts:
            return None
        i = bisect_left(ts, t)
        return ts[i - 1] if i else None


def _two_closure(idx: _StreamIndex, link: Link) -> ClosureResult:
    """Look-back from (t, u, v) to the latest reverse link (t', v, u) with
    t' <= t; infinite when no reverse link exists that early."""
    t_rev = idx.latest_at_or_before(link.target, link.source, link.t)
    lookback = None if t_rev is None else link.t - t_rev
    return ClosureResult(link=link, k=2, lookback=lookback)


def _three_closure(idx: _StreamIndex, link: Link) -> ClosureResult:
    """Smallest look-back window that completes the directed cycle
    u -> v -> w -> u, both supporting links strictly earlier than t.

    For each third party w the tightest candidate uses the latest v -> w
    and w -> u links before t; the best window over all w wins.
    """
    t, u, v = link.t, link.source, link.target
    candidates = idx.out_nbrs.get(v, set()) & idx.in_nbrs.get(u, set())
    best: int | None = None  # max over w of min(t1, t2)
    for w in candidates:
        t1 = idx.latest_before(v, w, t)
        if t1 is None:
            continue
        t2 = idx.latest_before(w, u, t)
        if t2 is None:
            continue
        window_start = min(t1, t2)
        if best is None or window_start > best:
            best = window_start
    lookback = None if best is None else t - best
    return ClosureResult(link=link, k=3, lookback=lookback)


@dataclass(frozen=True)
class ClosureDistribution:
    k: int
    results: tuple[ClosureResult, ...]  # one per link, stream order
    finite: Counter[int]  # histogram over finite look-backs
    infinite_count: int


def closure_distribution(s: LinkStream, k: int) -> ClosureDistribution:
    """k-closure of every link of the stream; finite look-backs are
    histogrammed and infinite ones only counted, as in the reference plots."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    idx = _StreamIndex(s)
    compute = _two_closure if k == 2 else _three_closure
    results = tuple(compute(idx, ln) for ln in s.links)
    finite: Counter[int] = Counter()
    infinite = 0
    for res in results:
        if res.lookback is None:
            infinite += 1
        else:
            finite[res.lookback] += 1
    return ClosureDistribution(
        k=k, results=results, finite=finite, infinite_count=infinite
    )
