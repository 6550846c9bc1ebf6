"""Static analyses of induced graphs.

Degrees are taken on the deduplicated directed edge set; the rest works
on the symmetrized (undirected) view. Clustering, triangle counts and
null-model samples share one numpy triangle kernel over the node
positions of the stream's pair index. Link multiplicities per pair belong
to the cross-stream interplay metrics.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DegenerateModelError, UndefinedCorrelationError
from .stream_core import InducedGraph, _blocks, _expand


@dataclass(frozen=True)
class DegreeReport:
    in_degree: dict[int, int]
    out_degree: dict[int, int]


def degree_report(g: InducedGraph) -> DegreeReport:
    """Exact in/out degrees of every node on the deduplicated edge set."""
    in_deg = dict.fromkeys(g.nodes, 0)
    out_deg = dict.fromkeys(g.nodes, 0)
    for u, v in g.directed_edges().tolist():
        out_deg[u] += 1
        in_deg[v] += 1
    return DegreeReport(in_degree=in_deg, out_degree=out_deg)


@dataclass(frozen=True)
class CorrelationResult:
    r: float


def degree_correlation(
    xs: Mapping[int, float], ys: Mapping[int, float]
) -> CorrelationResult:
    """Pearson product-moment coefficient of two per-node series.

    Both series must cover the same node set with at least two nodes, and
    neither may be constant.
    """
    if set(xs) != set(ys):
        raise ValueError("per-node series cover different node sets")
    nodes = sorted(xs)
    if len(nodes) < 2:
        raise ValueError("correlation needs at least two nodes")
    xv = [float(xs[n]) for n in nodes]
    yv = [float(ys[n]) for n in nodes]
    n = len(nodes)
    mx = sum(xv) / n
    my = sum(yv) / n
    sxx = sum((x - mx) ** 2 for x in xv)
    syy = sum((y - my) ** 2 for y in yv)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance on one of the series")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xv, yv))
    return CorrelationResult(r=sxy / math.sqrt(sxx * syy))


@dataclass(frozen=True)
class ClusteringReport:
    """Per-node neighborhood density on the undirected view.

    Nodes of degree < 2 get coefficient 0 and are included in ``average``;
    ``average_active`` restricts the mean to nodes of degree >= 2 since both
    conventions circulate. ``triangles`` is the graph's triangle count.
    """

    coefficients: dict[int, float]
    average: float
    average_active: float
    triangles: int


def clustering(g: InducedGraph) -> ClusteringReport:
    """Local clustering coefficient of every node: edges among its
    neighbors, which are the triangles through it, divided by k*(k-1)/2."""
    p = g.stream.pairs
    nodes = p.nodes.tolist()
    tri = dict(zip(nodes, _node_triangles(*p.ranks, g.rank).tolist()))
    degree = dict(zip(nodes, g.degree.tolist()))
    coeffs: dict[int, float] = {}
    active: list[float] = []
    for node in g.nodes:
        k = degree.get(node, 0)
        if k < 2:
            coeffs[node] = 0.0
            continue
        c = 2.0 * tri[node] / (k * (k - 1))
        coeffs[node] = c
        active.append(c)
    n = len(g.nodes)
    return ClusteringReport(
        coefficients=coeffs,
        average=sum(coeffs.values()) / n if n else 0.0,
        average_active=sum(active) / len(active) if active else 0.0,
        triangles=sum(tri.values()) // 3,
    )


def triangle_count(g: InducedGraph) -> int:
    """Number of unordered node triples mutually adjacent in the undirected view."""
    return int(_node_triangles(*g.stream.pairs.ranks, g.rank).sum()) // 3


def _node_triangles(a: np.ndarray, b: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Triangles through every node of the simple graph with edges
    ``(a[i], b[i])`` over the node positions that ``rank`` orders.

    Each edge points up the rank (Schank & Wagner, WEA 2005; Latapy, TCS
    2008), so a triangle is the one wedge x -> y -> z whose closing edge
    x -> z exists, and with ranks in degree order the wedges number
    O(m^1.5). The oriented edges, keyed ``x * n + y`` in rank space, are
    sorted once; each node's out-edges are then contiguous, and the same
    keys look up every closing edge. Wedges expand in ``_blocks``.
    """
    n = len(rank)
    ra, rb = rank[a], rank[b]
    keys = np.sort(np.minimum(ra, rb) * n + np.maximum(ra, rb))
    x, y = np.divmod(keys, n)
    first = np.searchsorted(x, np.arange(n + 1))  # out-edges of r: first[r]:first[r + 1]
    out_start, out_degree = first[y], first[y + 1] - first[y]
    tri = np.zeros(n, dtype=np.int64)
    for block in _blocks(out_degree):
        owner, yz = _expand(out_start[block], out_degree[block])
        xy = owner + block.start
        closing = x[xy] * n + y[yz]
        closed = keys[np.searchsorted(keys, closing).clip(max=len(keys) - 1)] == closing
        xy, yz = xy[closed], yz[closed]
        tri += np.bincount(np.concatenate((x[xy], y[xy], y[yz])), minlength=n)
    return tri[rank]


@dataclass(frozen=True)
class NullModelResult:
    observed: int
    samples: tuple[int, ...]
    mean: float
    std: float
    ratio: float  # observed / mean


def rewired_samples(g: InducedGraph, samples: int, seed: int):
    """Degree-preserving randomizations of the undirected view.

    Each sample applies 10 * |edges| double-edge swap attempts; attempts
    that would create a self-loop or duplicate edge are skipped, so rigid
    graphs such as complete graphs come back intact. Sample i uses its own
    generator derived from (seed, i), which makes the sequence independent
    of evaluation order. ``seed`` must be >= 0: ``random.Random`` seeds by
    absolute value, so a negative seed would repeat another seed's samples.
    """
    nodes = g.stream.pairs.nodes
    for ends in _rewired_ends(g, samples, seed):
        yield [tuple(e) for e in nodes[ends].reshape(-1, 2).tolist()]


def _rewired_ends(g: InducedGraph, samples: int, seed: int):
    """The samples of :func:`rewired_samples` as positions in
    ``g.stream.pairs.nodes``, flat: u0, v0, u1, v1, ... Positions order
    the edges as their handles do, so the swaps draw alike on either."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    edges = list(zip(*(r.tolist() for r in g.stream.pairs.ranks)))
    if len(edges) < 2:
        raise DegenerateModelError(f"need at least 2 undirected edges to rewire, got {len(edges)}")
    for i in range(samples):
        rng = random.Random(seed * 1_000_003 + i)
        rewired = _double_edge_swap(edges, rng, attempts=10 * len(edges))
        ends = np.fromiter(chain.from_iterable(rewired), dtype=np.int64, count=2 * len(edges))
        if not np.array_equal(np.bincount(ends, minlength=len(g.degree)), g.degree):
            raise AssertionError("rewiring changed the degree sequence")
        yield ends


def null_model_triangles(
    g: InducedGraph, samples: int = 100, seed: int = 0
) -> NullModelResult:
    """Triangle counts under the degree-preserving null model; see
    :func:`rewired_samples` for the randomization."""
    observed = triangle_count(g)
    # swaps keep every degree, so g's ranks orient each sample as well
    counts = [
        int(_node_triangles(ends[0::2], ends[1::2], g.rank).sum()) // 3
        for ends in _rewired_ends(g, samples, seed)
    ]
    mean = sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / len(counts)
    if mean > 0:
        ratio = observed / mean
    else:
        ratio = math.inf if observed else math.nan
    return NullModelResult(
        observed=observed,
        samples=tuple(counts),
        mean=mean,
        std=math.sqrt(var),
        ratio=ratio,
    )


def _double_edge_swap(
    edges: list[tuple[int, int]], rng: random.Random, attempts: int
) -> list[tuple[int, int]]:
    """Apply ``attempts`` double-edge swap attempts to a copy of ``edges``.

    Each attempt picks edges i and j and a random orientation of j, then
    proposes (u, x) and (v, y) in place of (u, v) and (x, y); proposals that
    would create a self-loop or a duplicate edge are skipped.

    The generator is consumed exactly as two ``rng.randrange(m)`` calls and
    one ``rng.random()`` per attempt would consume it, so a seed yields the
    same samples as the tuple-based reference in ``tests/oracles.py`` and
    the null-model CSVs stay pinned to CPython's Mersenne Twister stream.
    Index draws inline the rejection loop ``randrange`` runs (CPython 3.10
    and later): ``getrandbits`` of ``m.bit_length()`` bits until the value
    falls below ``m``, without the per-call overhead. ``random()`` takes two
    32-bit words and stays a call in its place in the sequence.

    Edges live in two int columns with a key ``u * n + v`` per edge, where
    ``n`` exceeds every node id, so the duplicate check hashes one int
    instead of a tuple. Node ids must be non-negative.
    """
    m = len(edges)
    n = max(max(e) for e in edges) + 1
    us = [u for u, _ in edges]
    vs = [v for _, v in edges]
    keys = [u * n + v for u, v in edges]
    present = set(keys)
    bits = m.bit_length()
    getrandbits = rng.getrandbits
    coin = rng.random
    for _ in range(attempts):
        i = getrandbits(bits)
        while i >= m:
            i = getrandbits(bits)
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        if i == j:
            continue
        u = us[i]
        v = vs[i]
        if coin() < 0.5:
            x = vs[j]
            y = us[j]
        else:
            x = us[j]
            y = vs[j]
        # propose (u, x) and (v, y)
        if u == x or v == y:
            continue
        if u < x:
            a, b = u, x
        else:
            a, b = x, u
        if v < y:
            c, d = v, y
        else:
            c, d = y, v
        e1 = a * n + b
        e2 = c * n + d
        if e1 in present or e2 in present:
            continue
        present.discard(keys[i])
        present.discard(keys[j])
        present.add(e1)
        present.add(e2)
        keys[i] = e1
        keys[j] = e2
        us[i] = a
        vs[i] = b
        us[j] = c
        vs[j] = d
    return list(zip(us, vs))


@dataclass(frozen=True)
class DistanceDistribution:
    counts: dict[int, int]  # finite distance -> number of pairs
    unreachable: int

    def total(self) -> int:
        return sum(self.counts.values()) + self.unreachable


def distance_distribution(
    pairs: Iterable[tuple[int, int]], g: InducedGraph
) -> DistanceDistribution:
    """Histogram of undirected shortest-path distances over node pairs.

    Every breadth-first search runs at once, one bit per distinct source
    (multi-source BFS; Then et al., PVLDB 2014): ``reach[v]`` holds the
    sources whose search has reached v, ``want[v]`` the sources paired with
    v and not yet found. Each level ORs the newly reached bits of every
    neighbor into v, and the bits that are new at v and wanted there are
    the pairs at that distance. The search stops once every pair is found
    or a level reaches nothing new; pairs never found are unreachable.
    Duplicate pairs count once; (u, v) and (v, u) count separately. The
    masks take n * S bits for n nodes and S distinct sources. Nodes are
    numbered by their place in ascending handle order, and each node's
    neighbors are one slice of a CSR array built from the rows of the
    stream's pair index. Intended for the pairs that transact without a
    certification, measured in the undirected certification graph.
    """
    pair_set = set()
    for u, v in pairs:
        if u not in g.nodes or v not in g.nodes:
            missing = u if u not in g.nodes else v
            raise KeyError(f"node {missing} not in graph")
        pair_set.add((u, v))
    nodes = np.fromiter(sorted(g.nodes), dtype=np.int64, count=len(g.nodes))
    place = dict(zip(nodes.tolist(), range(len(nodes))))
    bit = {place[s]: 1 << i for i, s in enumerate(sorted({u for u, _ in pair_set}))}
    want = [0] * len(nodes)
    for u, v in pair_set:
        want[place[v]] |= bit[place[u]]
    offsets, neighbors = _neighbor_slices(g, nodes)

    counts: dict[int, int] = {}
    frontier = dict(bit)  # node -> source bits first reached there this level
    reach = [0] * len(nodes)
    for v, b in bit.items():
        reach[v] = b
    remaining = len(pair_set)
    d = 0
    while frontier:
        found = 0
        for v, new in frontier.items():
            hit = new & want[v]
            if hit:
                want[v] ^= hit
                found += hit.bit_count()
        if found:
            counts[d] = found
            remaining -= found
        if not remaining:
            break
        d += 1
        offered: dict[int, int] = {}
        for v, new in frontier.items():
            for u in neighbors[offsets[v] : offsets[v + 1]]:
                offered[u] = offered.get(u, 0) | new
        frontier = {}
        for u, bits in offered.items():
            new = bits & ~reach[u]
            if new:
                reach[u] |= new
                frontier[u] = new
    return DistanceDistribution(counts=counts, unreachable=remaining)


def _neighbor_slices(g: InducedGraph, nodes: np.ndarray) -> tuple[list[int], list[int]]:
    """CSR form of the undirected graph over the places of ``nodes``, the
    sorted graph nodes: the neighbors of place i are
    ``neighbors[offsets[i]:offsets[i + 1]]``."""
    p = g.stream.pairs
    a, b = np.searchsorted(nodes, p.u), np.searchsorted(nodes, p.v)
    ends, others = np.concatenate((a, b)), np.concatenate((b, a))
    order = np.argsort(ends, kind="stable")
    offsets = np.searchsorted(ends[order], np.arange(len(nodes) + 1))
    return offsets.tolist(), others[order].tolist()
