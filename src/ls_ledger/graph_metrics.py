"""Static analyses of induced graphs.

Degrees are taken on the deduplicated directed edge set, as two arrays
over the graph's node places (positions in ``nodes``); the rest
works on the symmetrized (undirected) view, through the arrays that
``InducedGraph`` caches over node places. Clustering, triangle counts and
null-model samples share one numpy triangle kernel over the edge ends,
and the clustering coefficients are an array over places; distances take
pairs as two columns of places, read the CSR neighbor slices and count
per distance in an array. Link multiplicities per pair belong to the
cross-stream interplay metrics.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DegenerateModelError, UndefinedCorrelationError
from .stream_core import InducedGraph, _blocks, _expand, _distinct_sorted


@dataclass(frozen=True, eq=False)
class DegreeReport:
    """Degrees per place of the graph's ``nodes``."""

    in_degree: np.ndarray
    out_degree: np.ndarray


def degree_report(g: InducedGraph) -> DegreeReport:
    """Exact in/out degrees of every node on the deduplicated edge set."""
    p = g.stream.directed_pairs
    n = len(g.nodes)
    return DegreeReport(
        in_degree=np.bincount(np.searchsorted(g.nodes, p.v), minlength=n),
        out_degree=np.bincount(np.searchsorted(g.nodes, p.u), minlength=n),
    )


def degree_correlation(xs, ys) -> float:
    """Pearson product-moment coefficient of two series of equal length,
    such as two per-node values over the same places.

    Both series need at least two values, and neither may be constant.
    The sums run in series order.
    """
    if len(xs) != len(ys):
        raise ValueError("series of different lengths")
    n = len(xs)
    if n < 2:
        raise ValueError("correlation needs at least two nodes")
    xv = np.asarray(xs, dtype=float).tolist()
    yv = np.asarray(ys, dtype=float).tolist()
    mx = sum(xv) / n
    my = sum(yv) / n
    sxx = sum((x - mx) ** 2 for x in xv)
    syy = sum((y - my) ** 2 for y in yv)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance on one of the series")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xv, yv))
    return sxy / math.sqrt(sxx * syy)


@dataclass(frozen=True, eq=False)
class ClusteringReport:
    """Per-node neighborhood density on the undirected view.

    ``coefficients`` holds one float per place of the graph's
    ``nodes``. Nodes of degree < 2 get coefficient 0 and are
    included in ``average``; ``average_active`` restricts the mean to nodes
    of degree >= 2 since both conventions circulate. Both sum in place
    order. ``triangles`` is the graph's triangle count.
    """

    coefficients: np.ndarray
    average: float
    average_active: float
    triangles: int


def clustering(g: InducedGraph) -> ClusteringReport:
    """Local clustering coefficient of every node: edges among its
    neighbors, which are the triangles through it, divided by k*(k-1)/2."""
    tri = _node_triangles(*g.ends, g.rank)
    k = g.degree
    active = k >= 2
    coeffs = np.zeros(len(k))
    coeffs[active] = 2.0 * tri[active] / (k * (k - 1))[active]
    # Python sums in place order: a pairwise np.sum could move the last bits
    n, n_active = len(k), int(np.count_nonzero(active))
    return ClusteringReport(
        coefficients=coeffs,
        average=sum(coeffs.tolist()) / n if n else 0.0,
        average_active=sum(coeffs[active].tolist()) / n_active if n_active else 0.0,
        triangles=int(tri.sum()) // 3,
    )


def triangle_count(g: InducedGraph) -> int:
    """Number of unordered node triples mutually adjacent in the undirected view."""
    return int(_node_triangles(*g.ends, g.rank).sum()) // 3


def _node_triangles(a: np.ndarray, b: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Triangles through every node of the simple graph with edges
    ``(a[i], b[i])`` over the node places that ``rank`` orders.

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
    for ends in _rewired_ends(g, samples, seed):
        yield [tuple(e) for e in g.nodes[ends].reshape(-1, 2).tolist()]


def _rewired_ends(g: InducedGraph, samples: int, seed: int):
    """The samples of :func:`rewired_samples` as node places, flat: u0,
    v0, u1, v1, ... Places order the edges as their handles do, so the
    swaps draw alike on either."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    edges = list(zip(*g.ends.tolist()))
    if len(edges) < 2:
        raise DegenerateModelError(f"need at least 2 undirected edges to rewire, got {len(edges)}")
    for i in range(samples):
        rng = random.Random(seed * 1_000_003 + i)
        rewired = _double_edge_swap(edges, len(g.nodes), rng, attempts=10 * len(edges))
        ends = np.fromiter(chain.from_iterable(rewired), dtype=np.int64, count=2 * len(edges))
        if not np.array_equal(np.bincount(ends, minlength=len(g.degree)), g.degree):
            raise AssertionError("rewiring changed the degree sequence")
        yield ends


def null_model_triangles(
    g: InducedGraph, observed: int, samples: int = 100, seed: int = 0
) -> NullModelResult:
    """Triangle counts under the degree-preserving null model, against the
    ``observed`` triangle count of ``g`` (as :func:`clustering` or
    :func:`triangle_count` give it); see :func:`rewired_samples` for the
    randomization."""
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
    edges: list[tuple[int, int]], n: int, rng: random.Random, attempts: int
) -> list[tuple[int, int]]:
    """Apply ``attempts`` double-edge swap attempts to a copy of ``edges``,
    a simple graph over the nodes ``0 .. n - 1``.

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

    Edges live in two int columns, ``u < v`` in each row, and ``present``
    holds one byte per node pair, set at ``u * n + v`` for each edge, so
    the duplicate check reads one byte and takes n * n bytes.
    """
    m = len(edges)
    us = [u for u, _ in edges]
    vs = [v for _, v in edges]
    present = bytearray(n * n)
    for u, v in edges:
        present[u * n + v] = 1
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
        if present[e1] or present[e2]:
            continue
        present[u * n + v] = 0
        present[us[j] * n + vs[j]] = 0
        present[e1] = 1
        present[e2] = 1
        us[i] = a
        vs[i] = b
        us[j] = c
        vs[j] = d
    return list(zip(us, vs))


@dataclass(frozen=True, eq=False)
class DistanceDistribution:
    counts: np.ndarray  # pairs at each finite distance, indexed by the distance
    unreachable: int

    def total(self) -> int:
        return int(self.counts.sum()) + self.unreachable


def distance_distribution(u: np.ndarray, v: np.ndarray, g: InducedGraph) -> DistanceDistribution:
    """Histogram of undirected shortest-path distances over the node pairs
    ``(u[i], v[i])``, both ends given as places in ``g``.

    Every breadth-first search runs at once, one bit per distinct source
    (multi-source BFS; Then et al., PVLDB 2014): row v of ``reach`` holds
    the sources whose search has reached place v, row v of ``want`` the
    sources paired with v and not yet found, each row in 64-bit words. Each
    level ORs the newly reached bits of every neighbor into v, by
    ``reduceat`` over the CSR neighbor slices of consecutive places in
    blocks (``_blocks``), which bounds the rows gathered at once, and the
    bits that are new at v and wanted there are the pairs at that distance.
    The search stops once every pair is found or a level reaches nothing
    new; pairs never found are unreachable. Duplicate pairs count once;
    (u, v) and (v, u) count separately. The masks take n * S bits for n
    nodes and S distinct sources. Intended for the pairs that transact
    without a certification, measured in the undirected certification
    graph.
    """
    n = len(g.nodes)
    u, v = (np.asarray(x, dtype=np.int64) for x in (u, v))
    ends = np.concatenate((u, v))
    outside = ends[(ends < 0) | (ends >= n)]
    if len(outside):
        raise KeyError(f"place {outside[0]} not in graph")
    keys = _distinct_sorted(u * n + v)  # the distinct pairs, by source
    u, v = np.divmod(keys, n)
    first = np.diff(u, prepend=-1) != 0
    source = np.cumsum(first) - 1  # of each pair, numbered in place order
    sources = u[first]
    s = np.arange(len(sources))
    bit = np.uint64(1) << (s & 63).astype(np.uint64)
    want = np.zeros((n, -(-len(sources) // 64)), dtype=np.uint64)
    np.bitwise_or.at(want, (v, source >> 6), bit[source])
    reach = np.zeros_like(want)
    reach[sources, s >> 6] = bit
    offsets, others = g.neighbors
    linked = np.flatnonzero(g.degree)  # reduceat needs non-empty slices
    blocks = [linked[block] for block in _blocks(g.degree[linked])]
    frontier, offered = reach.copy(), np.zeros_like(reach)

    found = []  # per distance
    remaining = len(keys)
    while remaining:
        hit = frontier & want
        want ^= hit
        hit = hit[hit != 0]  # the words holding pairs at this distance
        found.append(int(np.count_nonzero(np.unpackbits(hit.view(np.uint8)))))
        remaining -= found[-1]
        if not remaining:
            break
        for places in blocks:
            lo, hi = offsets[places[0]], offsets[places[-1] + 1]
            offered[places] = np.bitwise_or.reduceat(frontier[others[lo:hi]], offsets[places] - lo)
        frontier = offered & ~reach
        if not frontier.any():
            break
        reach |= frontier
    counts = np.trim_zeros(np.array(found, dtype=np.int64), "b")
    return DistanceDistribution(counts=counts, unreachable=remaining)
