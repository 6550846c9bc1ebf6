"""Static analyses of induced graphs.

Degrees are taken on the deduplicated directed edge set, counted over the
graph's node places (positions in ``nodes``), by which the directed pair
index ranks the edge ends; the rest works on the symmetrized (undirected)
view, through the arrays that ``InducedGraph`` caches over node places.
Clustering, triangle counts and null-model samples share one numpy
triangle kernel over the edge ends, each sample's edges being two columns
of places; distances take pairs as two columns of places, read the CSR
neighbor slices and count per distance in an array. Link multiplicities
per pair belong to the cross-stream interplay metrics.

Every kernel returns a tuple of what it computes, per-place columns
first, in the order its docstring names. The null model and the distance
histogram return named tuples, ``NullModelResult`` and
``DistanceDistribution``, whose field names the stage tracer
``bench/trace_stage.py`` reads.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from .errors import LedgerError
from .stream_core import InducedGraph, _blocks, _expand, _distinct_sorted


def degree_report(g: InducedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Exact in/out degrees of every node on the deduplicated edge set: the
    columns ``(in_degree, out_degree)`` over the places of the graph's
    ``nodes``."""
    sources, targets = g.stream.directed_pairs.ranks
    n = len(g.nodes)
    return np.bincount(targets, minlength=n), np.bincount(sources, minlength=n)


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
        raise LedgerError("zero variance on one of the series")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xv, yv))
    return sxy / math.sqrt(sxx * syy)


def clustering(g: InducedGraph) -> tuple[np.ndarray, float, float, int]:
    """Local clustering coefficient of every node: edges among its
    neighbors, which are the triangles through it, divided by k*(k-1)/2.

    Returns ``(coefficients, average, average_active, triangles)`` on the
    undirected view. ``coefficients`` holds one float per place of the
    graph's ``nodes``. Nodes of degree < 2 get coefficient 0 and are
    included in ``average``; ``average_active`` restricts the mean to nodes
    of degree >= 2 since both conventions circulate. Both sum in place
    order. ``triangles`` is the graph's triangle count.
    """
    tri = _node_triangles(*g.ends, g.rank)
    k = g.degree
    active = k >= 2
    coeffs = np.zeros(len(k))
    coeffs[active] = 2.0 * tri[active] / (k * (k - 1))[active]
    # Python sums in place order: a pairwise np.sum could move the last bits
    n, n_active = len(k), int(np.count_nonzero(active))
    return (
        coeffs,
        sum(coeffs.tolist()) / n if n else 0.0,
        sum(coeffs[active].tolist()) / n_active if n_active else 0.0,
        int(tri.sum()) // 3,
    )


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


class NullModelResult(NamedTuple):
    observed: int
    samples: tuple[int, ...]
    mean: float
    std: float
    ratio: float  # observed / mean


def _rewired_ends(g: InducedGraph, samples: int, seed: int):
    """The degree-preserving randomizations of :func:`null_model_triangles`
    as two int64 columns of node places, the first and the second end of
    each edge. Places order the edges as their handles do, so the swaps
    draw alike on either."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    us, vs = g.ends.tolist()
    if len(us) < 2:
        raise LedgerError(f"need at least 2 undirected edges to rewire, got {len(us)}")
    for i in range(samples):
        rng = random.Random(seed * 1_000_003 + i)
        ends = np.array(
            _double_edge_swap(us, vs, len(g.nodes), rng, attempts=10 * len(us)), dtype=np.int64
        )
        if not np.array_equal(np.bincount(ends.ravel(), minlength=len(g.degree)), g.degree):
            raise AssertionError("rewiring changed the degree sequence")
        yield ends[0], ends[1]


def null_model_triangles(
    g: InducedGraph, observed: int, samples: int = 100, seed: int = 0
) -> NullModelResult:
    """Triangle counts under the degree-preserving null model, against the
    ``observed`` triangle count of ``g`` (as :func:`clustering` gives it).

    Each sample randomizes the undirected view with 10 * |edges|
    double-edge swap attempts; attempts that would create a self-loop or
    duplicate edge are skipped, so rigid graphs such as complete graphs
    come back intact. Sample i uses its own generator derived from (seed,
    i), which makes the sequence independent of evaluation order. ``seed``
    must be >= 0: ``random.Random`` seeds by absolute value, so a negative
    seed would repeat another seed's samples.

    Returns ``(observed, samples, mean, std, ratio)``: ``observed``, the
    triangle count of every sample in sample order, their mean and
    population standard deviation, and observed / mean (inf for a mean of
    0 below a positive count, NaN for 0 / 0).
    """
    # swaps keep every degree, so g's ranks orient each sample as well
    counts = [
        int(_node_triangles(a, b, g.rank).sum()) // 3 for a, b in _rewired_ends(g, samples, seed)
    ]
    mean = sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / len(counts)
    if mean > 0:
        ratio = observed / mean
    else:
        ratio = math.inf if observed else math.nan
    return NullModelResult(observed, tuple(counts), mean, math.sqrt(var), ratio)


def _double_edge_swap(
    us: list[int], vs: list[int], n: int, rng: random.Random, attempts: int
) -> tuple[list[int], list[int]]:
    """Apply ``attempts`` double-edge swap attempts to copies of the edge
    columns ``us`` and ``vs``, a simple graph over the nodes ``0 .. n - 1``,
    and return the two columns.

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

    The columns hold ``u < v`` in each row, and ``present`` holds one byte
    per node pair, set at ``u * n + v`` for each edge, so the duplicate
    check reads one byte and takes n * n bytes.
    """
    m = len(us)
    # the copies share one int object per node (tolist() gives each entry
    # above 256 its own), which keeps the loop's reads in cache; swaps only
    # move these objects, so they stay shared
    place = list(range(n))
    us, vs = [place[u] for u in us], [place[v] for v in vs]
    present = bytearray(n * n)
    for u, v in zip(us, vs):
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
    return us, vs


class DistanceDistribution(NamedTuple):
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

    Returns ``(counts, unreachable)``: the number of pairs at each finite
    distance, indexed by the distance and without trailing zeros, and the
    number of pairs never found; ``total()`` is the number of distinct pairs.
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
    return DistanceDistribution(counts, remaining)
