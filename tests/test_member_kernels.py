"""The two bulk member kernels against their brute-force references.

``graph_metrics.distance_distribution`` (bit-parallel multi-source BFS)
must give the counts of one plain BFS per pair, and
``temporal_metrics.neighborhood_overlaps`` over two induced graphs must
give what a link rescan per node and set algebra over dict-of-sets
neighborhoods give, on seeded random graphs with sparse handles, isolated
nodes and several components.
"""

import random
from itertools import chain

import numpy as np
import pytest

import oracles
from oracles import (
    distance_counts,
    graph_of,
    over_one_node_set,
    overlap_rows,
    pair_places,
    stream_of,
)
from ls_ledger import stream_core
from ls_ledger.graph_metrics import distance_distribution
from ls_ledger.stream_core import InducedGraph, LinkStream, induced_graph
from ls_ledger.temporal_metrics import neighborhood_overlaps

TRIALS = 2_000


def pair_distance(g: InducedGraph, u: int, v: int) -> int | None:
    """Shortest-path length between the nodes u and v by a one-pair
    distance_distribution; None when unreachable."""
    return next(iter(distance_counts(distance_distribution(*pair_places(g, [(u, v)]), g))), None)


def random_handles(rng: random.Random, n: int) -> list[int]:
    """n distinct node handles: dense, multiples of 3, or scattered."""
    style = rng.randrange(3)
    if style == 0:
        return list(range(n))
    if style == 1:
        return [3 * i for i in range(n)]
    return sorted(rng.sample(range(10 * n + 5), n))


def random_components(rng: random.Random, nodes: list[int]) -> set[tuple[int, int]]:
    """Directed edges within up to three groups of the nodes, each group a
    random sparse or dense graph or a long thin tree; some nodes end up
    isolated."""
    shuffled = rng.sample(nodes, len(nodes))
    cuts = sorted(rng.sample(range(len(nodes) + 1), min(2, len(nodes) + 1)))
    groups = [shuffled[:cuts[0]], shuffled[cuts[0]:cuts[-1]], shuffled[cuts[-1]:]]
    edges = set()
    for group in groups:
        if len(group) < 2:
            continue
        if rng.random() < 0.3:
            # each node hangs off one of the two before it: long paths
            for i in range(1, len(group)):
                parent = group[i - 1 - rng.randrange(min(i, 2))]
                edges.add(rng.choice(((group[i], parent), (parent, group[i]))))
            continue
        p = rng.choice((0.1, 0.25, 0.6))
        for u in group:
            for v in group:
                if u != v and rng.random() < p / 2:
                    edges.add((u, v))
    return edges


def random_pairs(rng: random.Random, nodes: list[int]) -> list[tuple[int, int]]:
    """Pairs including (u, u), both orientations and duplicates; sometimes none."""
    if rng.random() < 0.05:
        return []
    pairs = [tuple(rng.choices(nodes, k=2)) for _ in range(rng.randint(1, 3 * len(nodes)))]
    pairs += [(u, u) for u in rng.sample(nodes, min(2, len(nodes)))]
    pairs += [(v, u) for u, v in rng.sample(pairs, len(pairs) // 3)]
    pairs += rng.sample(pairs, len(pairs) // 4)
    rng.shuffle(pairs)
    return pairs


def test_distance_distribution_matches_per_pair_bfs():
    rng = random.Random(301)
    for trial in range(TRIALS):
        nodes = random_handles(rng, rng.randint(1, 16))
        edges = random_components(rng, nodes)
        g = graph_of(nodes, edges)
        pairs = random_pairs(rng, nodes)
        dist = distance_distribution(*pair_places(g, pairs), g)
        und = oracles.undirected_edge_set(edges)
        counts, unreachable = oracles.distance_distribution(pairs, nodes, und)
        got = (distance_counts(dist), dist.unreachable)
        assert got == (counts, unreachable), (trial, pairs, edges)
        # indexed by distance, up to the largest one a pair is at
        assert dist.counts.dtype == np.int64 and len(dist.counts) == max(counts, default=-1) + 1


def test_distance_distribution_matches_dict_multi_source_bfs():
    # graphs too large for one BFS per pair, against the same bit-parallel
    # search over a dict-of-sets adjacency
    rng = random.Random(303)
    for trial in range(60):
        nodes = random_handles(rng, rng.randint(1, 300))
        edges = random_components(rng, nodes)
        g = graph_of(nodes, edges)
        pairs = random_pairs(rng, nodes)
        dist = distance_distribution(*pair_places(g, pairs), g)
        expected = oracles.multi_source_distances(pairs, g)
        assert (distance_counts(dist), dist.unreachable) == expected, trial


@pytest.mark.parametrize("block", [1, 3, 40])
def test_distance_distribution_in_blocks(block, monkeypatch):
    # each level gathers the neighbors of consecutive places in blocks of
    # at most _BLOCK rows, or of one place where it alone has more
    monkeypatch.setattr(stream_core, "_BLOCK", block)
    rng = random.Random(304)
    for trial in range(200):
        nodes = random_handles(rng, rng.randint(1, 80))
        edges = random_components(rng, nodes)
        g = graph_of(nodes, edges)
        pairs = random_pairs(rng, nodes)
        dist = distance_distribution(*pair_places(g, pairs), g)
        expected = oracles.multi_source_distances(pairs, g)
        assert (distance_counts(dist), dist.unreachable) == expected, trial


def test_pair_distance_matches_bfs():
    rng = random.Random(302)
    for trial in range(TRIALS):
        nodes = random_handles(rng, rng.randint(1, 16))
        edges = random_components(rng, nodes)
        g = graph_of(nodes, edges)
        u, v = rng.choices(nodes, k=2)
        expected = oracles.bfs_from(nodes, oracles.undirected_edge_set(edges), u).get(v)
        assert pair_distance(g, u, v) == expected, (trial, u, v, edges)


def test_distance_distribution_edge_cases():
    path = graph_of({0, 3, 6, 9, 12}, {(0, 3), (6, 3), (6, 9)})
    dist = distance_distribution(*pair_places(path, []), path)
    assert dist.counts.tolist() == [] and dist.unreachable == 0

    # (u, u) is distance 0; both orientations count; duplicates count once;
    # no pair is at distance 1 or 2
    pairs = [(0, 0), (0, 9), (9, 0), (0, 9), (3, 12), (12, 12)]
    dist = distance_distribution(*pair_places(path, pairs), path)
    assert dist.counts.tolist() == [2, 0, 0, 2] and dist.unreachable == 1

    single = graph_of({7}, set())
    assert distance_distribution(*pair_places(single, [(7, 7)]), single).counts.tolist() == [1]
    assert pair_distance(single, 7, 7) == 0

    # the path has places 0..4
    with pytest.raises(KeyError, match="place 5 not in graph"):
        distance_distribution(np.array([0]), np.array([5]), path)
    with pytest.raises(KeyError, match="place -1 not in graph"):
        distance_distribution(np.array([-1]), np.array([0]), path)


def random_stream(rng: random.Random, nodes: list[int]) -> LinkStream:
    """A stream over a random subset of ``nodes`` (at least one), part of
    which gets no link at all."""
    own = rng.sample(nodes, rng.randint(1, len(nodes)))
    links = []
    if len(own) >= 2:
        for _ in range(rng.randint(0, 3 * len(own))):
            u, v = rng.sample(own, 2)
            links.append((rng.randint(0, 20), u, v))
    return stream_over(own, links, (0, 20))


def stream_over(nodes, links: list[tuple[int, int, int]], interval: tuple[int, int]) -> LinkStream:
    """A stream whose node set may also hold nodes without any link."""
    s = stream_of(links, interval)
    return LinkStream(s.interval, frozenset(nodes), s.t, s.src, s.dst, s.amount)


def test_neighborhood_overlaps_match_per_node_rescan():
    rng = random.Random(303)
    # whether a node has neighbors in g1, in g2
    sides = {
        (True, False): "only 1",
        (False, True): "only 2",
        (True, True): "both",
        (False, False): "neither",
    }
    seen = set()
    for trial in range(TRIALS):
        nodes = random_handles(rng, rng.randint(1, 14))
        s1, s2 = over_one_node_set(random_stream(rng, nodes), random_stream(rng, nodes))
        g1, g2 = induced_graph(s1), induced_graph(s2)
        columns = neighborhood_overlaps(g1, g2)
        assert all(c.dtype == np.float64 for c in columns[1:])
        results = overlap_rows(*columns)
        assert [v for v, _, _ in results] == s1.nodes.tolist()
        for v, inclusion, jaccard in results:
            expected = oracles.neighborhood_overlap(v, s1, s2)
            assert (inclusion, jaccard) == expected, (trial, v)
        sets = oracles.neighborhood_overlaps(oracles.adjacency(g1), oracles.adjacency(g2))
        assert results == sets, trial
        linked1, linked2 = (set(chain(s.src.tolist(), s.dst.tolist())) for s in (s1, s2))
        seen.update(sides[v in linked1, v in linked2] for v in s1.nodes.tolist())
    assert seen == set(sides.values())


def test_neighborhood_overlaps_na_cells():
    # 0 links in both streams, 1 only in the cert stream, 4 only in the
    # transaction stream, and 3 and 5 sit in the node set without any link
    cert, txmm = over_one_node_set(
        stream_over({0, 1, 2, 3, 5}, [(1, 0, 2), (2, 1, 2)], (0, 9)),
        stream_over({0, 2, 4, 5}, [(3, 0, 2), (4, 4, 0)], (0, 9)),
    )
    columns = neighborhood_overlaps(induced_graph(cert), induced_graph(txmm))
    results = {v: (inclusion, jaccard) for v, inclusion, jaccard in overlap_rows(*columns)}
    assert results == {
        0: (0.5, 0.5),
        1: (None, 0.0),
        2: (1.0, 0.5),
        3: (None, None),
        4: (0.0, 0.0),
        5: (None, None),
    }
    for node, cells in results.items():
        assert oracles.neighborhood_overlap(node, cert, txmm) == cells
