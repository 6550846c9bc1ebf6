"""Static analyses of induced graphs.

Degrees are taken on the deduplicated directed edge set; clustering,
triangles, distances, and the null model all work on the symmetrized
(undirected) view. Per-pair link multiplicities are deliberately not
handled here, they belong to the cross-stream interplay metrics.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import chain

from .errors import DegenerateModelError, UndefinedCorrelationError
from .stream_core import InducedGraph


@dataclass(frozen=True)
class DegreeReport:
    in_degree: dict[int, int]
    out_degree: dict[int, int]


def degree_report(g: InducedGraph) -> DegreeReport:
    """Exact in/out degrees of every node on the deduplicated edge set."""
    in_deg = dict.fromkeys(g.nodes, 0)
    out_deg = dict.fromkeys(g.nodes, 0)
    for u, v in g.directed_edges:
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
    edges = g.undirected_edges()
    degree, rank = _degree_ranks(edges)
    tri = _node_triangles(_forward_adjacency(edges, rank))
    coeffs: dict[int, float] = {}
    active: list[float] = []
    for node in g.nodes:
        k = degree[node]
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
    edges = g.undirected_edges()
    return _triangle_total(_forward_adjacency(edges, _degree_ranks(edges)[1]))


def _degree_ranks(
    edges: Iterable[tuple[int, int]],
) -> tuple[Counter[int], dict[int, int]]:
    """Degree of every node with an edge, and its position in the order of
    (degree, id)."""
    degree = Counter(chain.from_iterable(edges))
    order = sorted(degree, key=lambda n: (degree[n], n))
    return degree, {n: i for i, n in enumerate(order)}


def _forward_adjacency(
    edges: Iterable[tuple[int, int]], rank: Mapping[int, int]
) -> dict[int, set[int]]:
    """Out-neighbors of every ranked node, each undirected edge oriented
    from its lower-ranked end to its higher (Schank & Wagner, WEA 2005;
    Latapy, TCS 2008). Out-degrees are then at most sqrt(2m), so
    intersecting out-neighbor sets along every edge costs O(m^1.5)."""
    out: dict[int, set[int]] = {n: set() for n in rank}
    for u, v in edges:
        if rank[u] < rank[v]:
            out[u].add(v)
        else:
            out[v].add(u)
    return out


def _node_triangles(out: Mapping[int, set[int]]) -> dict[int, int]:
    """Triangles through every node of the oriented graph ``out``.

    A triangle's lowest-ranked node u reaches the other two, v below w, and
    v reaches w, so intersecting out(u) with out(v) over the oriented edges
    (u, v) finds each triangle exactly once.
    """
    tri = dict.fromkeys(out, 0)
    for u, vs in out.items():
        for v in vs:
            common = vs & out[v]
            if common:
                c = len(common)
                tri[u] += c
                tri[v] += c
                for w in common:
                    tri[w] += 1
    return tri


def _triangle_total(out: Mapping[int, set[int]]) -> int:
    """Triangle count of the oriented graph ``out``; see :func:`_node_triangles`."""
    return sum(len(vs & out[v]) for vs in out.values() for v in vs)


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
    of evaluation order.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    edges = sorted(g.undirected_edges())
    if len(edges) < 2:
        raise DegenerateModelError(
            f"need at least 2 undirected edges to rewire, got {len(edges)}"
        )
    degree_before = _degree_sequence(edges, g.nodes)
    for i in range(samples):
        rng = random.Random(seed * 1_000_003 + i)
        rewired = _double_edge_swap(edges, rng, attempts=10 * len(edges))
        if _degree_sequence(rewired, g.nodes) != degree_before:
            raise AssertionError("rewiring changed the degree sequence")
        yield rewired


def null_model_triangles(
    g: InducedGraph, samples: int = 100, seed: int = 0
) -> NullModelResult:
    """Triangle counts under the degree-preserving null model; see
    :func:`rewired_samples` for the randomization."""
    observed = triangle_count(g)
    # swaps keep every degree, so g's ranks orient each sample as well
    _, rank = _degree_ranks(g.undirected_edges())
    counts = [
        _triangle_total(_forward_adjacency(rewired, rank))
        for rewired in rewired_samples(g, samples, seed)
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


def _degree_sequence(edges: list[tuple[int, int]], nodes: Iterable[int]) -> tuple:
    deg = dict.fromkeys(nodes, 0)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(sorted(deg.items()))


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
    masks take n * S bits for n nodes and S distinct sources. Intended for
    the pairs that transact without a certification, measured in the
    undirected certification graph.
    """
    pair_set = set()
    for u, v in pairs:
        if u not in g.nodes or v not in g.nodes:
            missing = u if u not in g.nodes else v
            raise KeyError(f"node {missing} not in graph")
        pair_set.add((u, v))
    bit = {s: 1 << i for i, s in enumerate(sorted({u for u, _ in pair_set}))}
    want = dict.fromkeys(g.nodes, 0)
    for u, v in pair_set:
        want[v] |= bit[u]
    adj = g.undirected_adjacency()

    counts: dict[int, int] = {}
    frontier = dict(bit)  # node -> source bits first reached there this level
    reach = dict.fromkeys(g.nodes, 0)
    reach.update(bit)
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
            for u in adj[v]:
                offered[u] = offered.get(u, 0) | new
        frontier = {}
        for u, bits in offered.items():
            new = bits & ~reach[u]
            if new:
                reach[u] |= new
                frontier[u] = new
    return DistanceDistribution(counts=counts, unreachable=remaining)
