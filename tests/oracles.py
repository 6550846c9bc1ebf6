"""Independent brute-force reference implementations.

Everything here works on plain tuples and exhaustive scans, deliberately
ignoring the indexed code paths under test. Keep it that way: these are the
other side of every dual-route check.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations


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


@dataclass(frozen=True)
class TupleGraph:
    """An induced graph as sets of edge tuples."""

    nodes: frozenset[int]
    directed_edges: frozenset[tuple[int, int]]

    def undirected_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(undirected_edge_set(self.directed_edges))


def induced_graph(s) -> TupleGraph:
    """Deduplicate the stream's (source, target) pairs into a tuple set."""
    return TupleGraph(s.nodes, frozenset(zip(s.src.tolist(), s.dst.tolist())))


def edge_set(rows) -> set[tuple[int, int]]:
    """The (u, v) rows of an edge array as a set of tuples."""
    return set(map(tuple, rows.tolist()))


def graph_of(nodes, edges):
    """The induced graph under test of a stream with one link per directed
    edge, all at t=0, over ``nodes`` and the edges' endpoints; it makes test
    inputs and is not a reference."""
    from ls_ledger import stream_core

    edges = list(edges)
    src = [u for u, _ in edges]
    dst = [v for _, v in edges]
    s = stream_core.stream_from_columns(
        [0] * len(edges), src, dst, nodes=set(nodes).union(src, dst)
    )
    return stream_core.induced_graph(s)


def pair_places(g, pairs):
    """The places in ``g`` of the two ends of every (u, v) pair of node
    handles, as the two columns ``distance_distribution`` takes; it makes
    test inputs and is not a reference. A handle not in ``g`` is a
    KeyError."""
    import numpy as np

    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    for node in ends.ravel().tolist():
        if node not in g.nodes:
            raise KeyError(f"node {node} not in graph")
    at = np.searchsorted(g.nodes, ends)
    return at[:, 0], at[:, 1]


def distance_counts(dist) -> dict[int, int]:
    """distance -> count of a ``DistanceDistribution``, the distances no
    pair is at left out, as :func:`distance_distribution` gives them."""
    return {d: c for d, c in enumerate(dist.counts.tolist()) if c}


def overlap_rows(nodes, inclusion, jaccard) -> list[tuple[int, float | None, float | None]]:
    """The columns of ``temporal_metrics.neighborhood_overlaps`` as the
    (node, inclusion, jaccard) rows of :func:`neighborhood_overlaps`, None
    for NaN."""
    return [
        (v, *(None if x != x else x for x in cells))
        for v, *cells in zip(nodes.tolist(), inclusion.tolist(), jaccard.tolist())
    ]


def adjacency(g) -> dict[int, set[int]]:
    """Node -> neighbor set of an induced graph's undirected view, every
    node of ``g.nodes`` included, from its ``(min, max)`` rows."""
    adj: dict[int, set[int]] = {n: set() for n in g.nodes}
    for u, v in g.undirected_edges().tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def clustering_scan(g) -> tuple[dict[int, float], float, float]:
    """(coefficients, average, average_active) of an induced graph in
    ascending node order, counting the edges among each node's neighbors
    with one O(k^2) scan per node."""
    adj = adjacency(g)
    coeffs: dict[int, float] = {}
    active: list[float] = []
    for node in sorted(g.nodes):
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
    adj = adjacency(g)
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


def forward_adjacency(edges) -> dict[int, set[int]]:
    """Out-neighbors of every node with an edge, each undirected edge
    oriented from its end lower in the order of (degree, id) to its higher
    (Schank & Wagner, WEA 2005; Latapy, TCS 2008), which the numpy
    ``graph_metrics._node_triangles`` replaced."""
    edges = list(edges)
    degree = Counter(chain.from_iterable(edges))
    order = sorted(degree, key=lambda n: (degree[n], n))
    rank = {n: i for i, n in enumerate(order)}
    out: dict[int, set[int]] = {n: set() for n in order}
    for u, v in edges:
        if rank[u] < rank[v]:
            out[u].add(v)
        else:
            out[v].add(u)
    return out


def node_triangles(out) -> dict[int, int]:
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


def triangle_total(out) -> int:
    """Triangle count of the oriented graph ``out``; see :func:`node_triangles`."""
    return sum(len(vs & out[v]) for vs in out.values() for v in vs)


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


def parsed_records(parsed) -> tuple[list, list, list]:
    """A parse's identities, certifications and transactions as records,
    each kind in line order."""
    from ls_ledger.ledger_ingest import CertRecord, TxRecord

    certs, txs = parsed.certifications, parsed.transactions
    return (
        list(parsed.identities),
        [CertRecord(*row) for row in zip(certs.t, certs.src, certs.dst)],
        [TxRecord(*row) for row in zip(txs.t, txs.src, txs.dst, txs.amount)],
    )


def classify_keys(identities, transactions) -> tuple[list[str], set[int], set[int]]:
    """Record by record: the key of each handle, and the member and
    anonymous handles. Keys are numbered as first met: identity keys, then
    each transaction's source and target."""
    keys: list[str] = []
    handle: dict[str, int] = {}

    def intern(key: str) -> int:
        if key not in handle:
            handle[key] = len(keys)
            keys.append(key)
        return handle[key]

    members = {intern(rec.key) for rec in identities}
    anonymous = set()
    for rec in transactions:
        for key in (rec.src, rec.dst):
            h = intern(key)
            if h not in members:
                anonymous.add(h)
    return keys, members, anonymous


def build_streams(certifications, transactions, keys: list[str]):
    """Record by record: per stream its interval, the span of its times or
    [0, 0] without links, and its (t, source, target[, amount]) rows sorted
    by (t, source, target), equal rows in record order."""
    handle = {key: h for h, key in enumerate(keys)}

    def stream(rows):
        rows = sorted(rows, key=lambda row: row[:3])
        return ((rows[0][0], rows[-1][0]) if rows else (0, 0)), rows

    return (
        stream([(r.t, handle[r.src], handle[r.dst]) for r in certifications]),
        stream([(r.t, handle[r.src], handle[r.dst], r.amount) for r in transactions]),
    )


def links_of(s) -> list[tuple[int, int, int]]:
    """The links of a stream as (t, source, target) rows, in stream order."""
    return list(zip(s.t.tolist(), s.src.tolist(), s.dst.tolist()))


def activity(links: list[tuple[int, int, int]], t: int) -> int:
    """One scan of every (t, source, target) link: the set of distinct
    pairs linked exactly at ``t``."""
    return len({(u, v) for t2, u, v in links if t2 == t})


def aggregated_neighborhood(s, v: int) -> frozenset[int]:
    """One scan of every link per call: everyone who ever interacted with v."""
    return frozenset(
        target if source == v else source
        for _, source, target in links_of(s)
        if v in (source, target)
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


def neighborhood_overlaps(n1, n2) -> list[tuple[int, float | None, float | None]]:
    """(node, inclusion, jaccard) for every node of either neighbor map, in
    node order, by set algebra per node: the form that
    ``temporal_metrics.neighborhood_overlaps`` replaced. A node absent from
    a map has an empty neighborhood there."""
    empty: frozenset[int] = frozenset()
    results = []
    for v in sorted(n1.keys() | n2.keys()):
        a = n1.get(v, empty)
        b = n2.get(v, empty)
        inter = len(a & b)
        union = len(a) + len(b) - inter
        results.append((v, inter / len(b) if b else None, inter / union if union else None))
    return results


def rolling_sum(values: list[int], bin_width: int, window: int) -> list[int]:
    """Right-aligned rolling sum of a binned series, bin by bin: the value
    at bin b sums the bins whose start lies in (start(b) - window,
    start(b)], scanning every earlier bin; the per-bin form that
    ``stream_core.rolling_sum`` replaced."""
    out = []
    for b in range(len(values)):
        out.append(sum(values[i] for i in range(b + 1) if (b - i) * bin_width < window))
    return out


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


def multi_source_distances(pairs, g) -> tuple[dict[int, int], int]:
    """(distance -> count, unreachable) by the bit-parallel multi-source BFS
    over the dict-of-sets :func:`adjacency`, one bit per distinct source
    in a Python int per node, which the word arrays over places and the
    CSR neighbor slices of ``graph_metrics.distance_distribution``
    replaced."""
    pair_set = set(map(tuple, pairs))
    bit = {s: 1 << i for i, s in enumerate(sorted({u for u, _ in pair_set}))}
    want = dict.fromkeys(g.nodes, 0)
    for u, v in pair_set:
        want[v] |= bit[u]
    adj = adjacency(g)
    counts: dict[int, int] = {}
    frontier = dict(bit)
    reach = dict.fromkeys(g.nodes, 0)
    reach.update(bit)
    remaining = len(pair_set)
    d = 0
    while frontier and remaining:
        found = 0
        for v, new in frontier.items():
            hit = new & want[v]
            want[v] ^= hit
            found += hit.bit_count()
        if found:
            counts[d] = found
            remaining -= found
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
    return counts, remaining


# Per-pair time lookups as dicts of sorted time lists, queried with bisect
# link by link: the kernels that ``stream_core.PairIndex`` replaced.


def pair_times(s) -> dict[tuple[int, int], list[int]]:
    """Sorted link times per directed (source, target) pair."""
    idx: dict[tuple[int, int], list[int]] = {}
    for t, u, v in zip(s.t.tolist(), s.src.tolist(), s.dst.tolist()):
        idx.setdefault((u, v), []).append(t)
    return idx


def pair_event_times(s) -> dict[tuple[int, int], list[int]]:
    """Sorted link times per unordered (min, max) pair, both directions
    pooled."""
    times: dict[tuple[int, int], list[int]] = {}
    for t, u, v in zip(s.t.tolist(), s.src.tolist(), s.dst.tolist()):
        times.setdefault((u, v) if u < v else (v, u), []).append(t)
    return times


class StreamIndex:
    """Per-pair sorted times plus in/out adjacency, shared across the
    per-link closure queries."""

    def __init__(self, s):
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


def indexed_two_closure(idx: StreamIndex, t: int, u: int, v: int) -> int | None:
    """Look-back from (t, u, v) to the latest reverse link at or before t."""
    t_rev = idx.latest_at_or_before(v, u, t)
    return None if t_rev is None else t - t_rev


def indexed_three_closure(idx: StreamIndex, t: int, u: int, v: int) -> int | None:
    """Smallest window closing u -> v -> w -> u with both supports strictly
    before t, trying every third party w."""
    best = None  # max over w of min(t1, t2)
    for w in idx.out_nbrs.get(v, set()) & idx.in_nbrs.get(u, set()):
        t1 = idx.latest_before(v, w, t)
        if t1 is None:
            continue
        t2 = idx.latest_before(w, u, t)
        if t2 is None:
            continue
        if best is None or min(t1, t2) > best:
            best = min(t1, t2)
    return None if best is None else t - best


def closure_lookbacks(s, k: int) -> list[int | None]:
    """k-closure look-back of every link in stream order, None for
    infinite."""
    idx = StreamIndex(s)
    closure = indexed_two_closure if k == 2 else indexed_three_closure
    return [
        closure(idx, t, u, v)
        for t, u, v in zip(s.t.tolist(), s.src.tolist(), s.dst.tolist())
    ]


def closest_signed_delay(times: list[int], anchor: int) -> int:
    """Signed offset of the event closest to the anchor in absolute time,
    ties resolved toward the earlier event."""
    i = bisect_right(times, anchor)
    before = times[i - 1] if i else None
    after = times[i] if i < len(times) else None
    if before is None:
        return after - anchor
    if after is None:
        return before - anchor
    if anchor - before <= after - anchor:
        return before - anchor
    return after - anchor


def match_certifications(cert, tx) -> tuple[list[tuple], int]:
    """([(pair, anchor, category, delay)] per first certification in pair
    order, number of pairs with transactions on both sides of the anchor)."""
    cert_times = pair_event_times(cert)
    tx_times = pair_event_times(tx)
    rows = []
    both_sided = 0
    for pair in sorted(cert_times):
        anchor = cert_times[pair][0]
        times = tx_times.get(pair)
        if not times:
            rows.append((pair, anchor, "never", None))
            continue
        has_before = times[0] <= anchor
        both_sided += has_before and times[-1] > anchor
        category = "before" if has_before else "after"
        rows.append((pair, anchor, category, closest_signed_delay(times, anchor)))
    return rows, both_sided


def preceding_transaction_counts(cert, tx) -> dict[tuple[int, int], tuple[int, int]]:
    cert_times = pair_event_times(cert)
    tx_times = pair_event_times(tx)
    return {
        pair: (ts[0], bisect_left(tx_times.get(pair, []), ts[0]))
        for pair, ts in sorted(cert_times.items())
    }


def classify_transactions(tx, cert) -> list[str]:
    """Per transaction: already_certified, future_certified or never."""
    cert_times = pair_event_times(cert)
    cats = []
    for t, u, v in zip(tx.t.tolist(), tx.src.tolist(), tx.dst.tolist()):
        certs = cert_times.get((u, v) if u < v else (v, u))
        if certs is None:
            cats.append("never")
        elif certs[0] <= t:
            cats.append("already_certified")
        else:
            cats.append("future_certified")
    return cats


def new_transaction_cert_delays(tx, cert) -> tuple[list[tuple], int]:
    """([(pair, first transaction, delay)] in pair order, unmatched pairs)."""
    cert_times = pair_event_times(cert)
    tx_times = pair_event_times(tx)
    rows = []
    for pair in sorted(tx_times):
        t0 = tx_times[pair][0]
        certs = cert_times.get(pair)
        rows.append((pair, t0, closest_signed_delay(certs, t0) if certs else None))
    return rows, sum(1 for row in rows if row[2] is None)


def relation_sets(s) -> tuple[set, set, set]:
    """(any, uni, bi) unordered pairs of a stream, from its directed pairs."""
    directed = set(zip(s.src.tolist(), s.dst.tolist()))
    pairs = {(u, v) if u < v else (v, u) for u, v in directed}
    bi = {(u, v) for u, v in pairs if (u, v) in directed and (v, u) in directed}
    return pairs, pairs - bi, bi


def relation_ratio_table(certs, txs, n_members: int, ordered_pairs: bool = False) -> list[tuple]:
    """The 12 (label, numerator, denominator, value) ratio cells by set
    algebra over the (any, uni, bi) sets of :func:`relation_sets`."""
    n_pairs = n_members * (n_members - 1)
    if not ordered_pairs:
        n_pairs //= 2

    def cell(label, num, den):
        return label, num, den, num / den if den else None

    c_any, c_uni, c_bi = certs
    t_any, t_uni, t_bi = txs
    return [
        cell("C_any/pairs", len(c_any), n_pairs),
        cell("C_uni/pairs", len(c_uni), n_pairs),
        cell("C_bi/pairs", len(c_bi), n_pairs),
        cell("T_any/pairs", len(t_any), n_pairs),
        cell("T_uni/pairs", len(t_uni), n_pairs),
        cell("T_bi/pairs", len(t_bi), n_pairs),
        cell("T_any&C_any/C_any", len(t_any & c_any), len(c_any)),
        cell("T_any&C_uni/C_uni", len(t_any & c_uni), len(c_uni)),
        cell("T_any&C_bi/C_bi", len(t_any & c_bi), len(c_bi)),
        cell("C_any&T_any/T_any", len(c_any & t_any), len(t_any)),
        cell("C_any&T_uni/T_uni", len(c_any & t_uni), len(t_uni)),
        cell("C_any&T_bi/T_bi", len(c_any & t_bi), len(t_bi)),
    ]


def certification_fraction_by_k(tau: dict, certs) -> list[tuple]:
    """[(k, pairs, certified share, bidirectionally certified share)] per
    transaction count k ascending, from a pair -> count mapping and the
    (any, uni, bi) sets of :func:`relation_sets`."""
    c_any, _, c_bi = certs
    n_pairs = Counter(tau.values())
    n_any = Counter(k for pair, k in tau.items() if pair in c_any)
    n_bi = Counter(k for pair, k in tau.items() if pair in c_bi)
    return [(k, n, n_any[k] / n, n_bi[k] / n) for k, n in sorted(n_pairs.items())]


@dataclass(frozen=True)
class NeighborhoodCluster:
    """The temporal nodes (t, u) that interacted with ``owner`` in a stream,
    in either direction."""

    owner: int
    elements: frozenset[tuple[int, int]]

    def node_projection(self) -> frozenset[int]:
        return frozenset(u for _, u in self.elements)


def neighborhood(s, v: int) -> NeighborhoodCluster:
    """All (t, u) such that the stream links u and v at t, either direction."""
    if v not in s.nodes:
        raise KeyError(f"node {v} not in stream")
    out, into = s.src == v, s.dst == v
    elems = set(zip(s.t[out].tolist(), s.dst[out].tolist()))
    elems.update(zip(s.t[into].tolist(), s.src[into].tolist()))
    return NeighborhoodCluster(owner=v, elements=frozenset(elems))
