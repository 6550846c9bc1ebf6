"""Independent brute-force reference implementations.

Everything here works on plain tuples and exhaustive scans, deliberately
ignoring the indexed code paths under test. Keep it that way: these are the
other side of every dual-route check.
"""

from __future__ import annotations

import random
from itertools import combinations


def two_closure(events: list[tuple[int, int, int]], i: int) -> int | None:
    """Linear scan: latest reverse link at or before the query's time."""
    t, u, v = events[i]
    best = None
    for t2, a, b in events:
        if t2 <= t and a == v and b == u and (best is None or t2 > best):
            best = t2
    return None if best is None else t - best


def three_closure(events: list[tuple[int, int, int]], i: int) -> int | None:
    """Quadratic scan per link over all support pairs, strictly earlier
    than the query's time, closing the directed cycle u -> v -> w -> u."""
    t, u, v = events[i]
    best = None
    for t1, a, b in events:
        if t1 >= t or a != v:
            continue
        w = b
        for t2, c, d in events:
            if t2 < t and c == w and d == u:
                start = min(t1, t2)
                if best is None or start > best:
                    best = start
    return None if best is None else t - best


def triangle_count(nodes, und_edges: set[tuple[int, int]]) -> int:
    """Full enumeration over all node triples."""
    nodes = sorted(nodes)
    count = 0
    for a, b, c in combinations(nodes, 3):
        if (
            (a, b) in und_edges
            and (a, c) in und_edges
            and (b, c) in und_edges
        ):
            count += 1
    return count


def triangles_through(node, nodes, und_edges: set[tuple[int, int]]) -> int:
    cnt = 0
    for a, b, c in combinations(sorted(nodes), 3):
        if node not in (a, b, c):
            continue
        if (a, b) in und_edges and (a, c) in und_edges and (b, c) in und_edges:
            cnt += 1
    return cnt


def undirected_edge_set(directed_edges) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in directed_edges}


def clustering_scan(g) -> tuple[dict[int, float], float, float]:
    """(coefficients, average, average_active) of an induced graph, counting
    the edges among each node's neighbors with one O(k^2) scan per node."""
    adj = g.undirected_adjacency()
    coeffs: dict[int, float] = {}
    active: list[float] = []
    for node in g.nodes:
        nbrs = adj[node]
        k = len(nbrs)
        if k < 2:
            coeffs[node] = 0.0
            continue
        links = 0
        for u in nbrs:
            # count each neighbor pair once via the node order
            links += sum(1 for w in adj[u] if w in nbrs and w > u)
        c = 2.0 * links / (k * (k - 1))
        coeffs[node] = c
        active.append(c)
    n = len(g.nodes)
    average = sum(coeffs.values()) / n if n else 0.0
    average_active = sum(active) / len(active) if active else 0.0
    return coeffs, average, average_active


def triangles_in_adjacency(adj) -> int:
    """Triangles of a symmetric adjacency, each counted from its smallest id."""
    count = 0
    for u, nbrs in adj.items():
        for v in nbrs:
            if v <= u:
                continue
            # common neighbors above v close a triangle exactly once
            count += sum(1 for w in (nbrs & adj[v]) if w > v)
    return count


def triangles_in_edges(edges, nodes) -> int:
    """Triangles of an undirected edge list, through its symmetric adjacency."""
    adj: dict[int, set[int]] = {n: set() for n in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return triangles_in_adjacency(adj)


def triangles_per_node(g) -> dict[int, int]:
    """Triangles through every node of an induced graph, in ``g.nodes`` order."""
    adj = g.undirected_adjacency()
    out = dict.fromkeys(g.nodes, 0)
    for u, nbrs in adj.items():
        for v in nbrs:
            if v <= u:
                continue
            for w in nbrs & adj[v]:
                if w > v:
                    out[u] += 1
                    out[v] += 1
                    out[w] += 1
    return out


def double_edge_swap(
    edges: list[tuple[int, int]], rng: random.Random, attempts: int
) -> list[tuple[int, int]]:
    """Tuple-based double-edge swap: ``randrange`` draws and ``min``/``max``
    ordering. ``graph_metrics._double_edge_swap`` must match it sample for
    sample."""
    edges = list(edges)
    present = set(edges)
    m = len(edges)
    for _ in range(attempts):
        i = rng.randrange(m)
        j = rng.randrange(m)
        if i == j:
            continue
        u, v = edges[i]
        x, y = edges[j]
        if rng.random() < 0.5:
            x, y = y, x
        # propose (u, x) and (v, y)
        if u == x or v == y:
            continue
        e1 = (min(u, x), max(u, x))
        e2 = (min(v, y), max(v, y))
        if e1 in present or e2 in present:
            continue
        present.discard(edges[i])
        present.discard(edges[j])
        present.add(e1)
        present.add(e2)
        edges[i] = e1
        edges[j] = e2
    return edges


def aggregated_neighborhood(s, v: int) -> frozenset[int]:
    """One scan of every link per call: everyone who ever interacted with v."""
    return frozenset(
        ln.target if ln.source == v else ln.source
        for ln in s.links
        if v in (ln.source, ln.target)
    )


def neighborhood_overlap(v: int, s1, s2) -> tuple[float | None, float | None]:
    """(inclusion, jaccard) of v's neighborhood in ``s2`` within its
    neighborhood in ``s1``, each rescanned from the links; None for an empty
    denominator."""
    n1 = aggregated_neighborhood(s1, v)
    n2 = aggregated_neighborhood(s2, v)
    inter = len(n1 & n2)
    union = len(n1 | n2)
    return (inter / len(n2) if n2 else None, inter / union if union else None)


def bfs_from(nodes, und_edges: set[tuple[int, int]], source: int) -> dict[int, int]:
    """Hop counts from ``source``, one plain breadth-first search."""
    adj = {n: set() for n in nodes}
    for u, v in und_edges:
        adj[u].add(v)
        adj[v].add(u)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for nbr in adj[node]:
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    nxt.append(nbr)
        frontier = nxt
    return dist


def distance_distribution(
    pairs, nodes, und_edges: set[tuple[int, int]]
) -> tuple[dict[int, int], int]:
    """(distance -> count, unreachable) over the distinct pairs, one full
    BFS per pair."""
    counts: dict[int, int] = {}
    unreachable = 0
    for u, v in set(pairs):
        d = bfs_from(nodes, und_edges, u).get(v)
        if d is None:
            unreachable += 1
        else:
            counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items())), unreachable
