import random

import pytest

import oracles
from ls_ledger import temporal_metrics
from ls_ledger.stream_core import induced_graph
from ls_ledger.temporal_metrics import closure_distribution, neighborhood_overlaps
from oracles import (
    links_of,
    neighborhood,
    over_one_node_set,
    overlap_rows,
    random_links,
    random_stream,
    stream_of,
)

# frozen brute-force tables for the 12-link example (see tests/oracles.py)
SAMPLE_K2 = {
    (0, "c", "b"): None, (0, "a", "d"): None, (1, "d", "a"): 1,
    (2, "b", "a"): None, (2, "c", "d"): None, (4, "c", "b"): None,
    (4, "b", "d"): None, (5, "a", "b"): 3, (5, "b", "c"): 1,
    (5, "d", "c"): 3, (6, "a", "b"): 4, (6, "d", "a"): 6,
}
SAMPLE_K3 = {
    (0, "c", "b"): None, (0, "a", "d"): None, (1, "d", "a"): None,
    (2, "b", "a"): None, (2, "c", "d"): None, (4, "c", "b"): None,
    (4, "b", "d"): None, (5, "a", "b"): 4, (5, "b", "c"): None,
    (5, "d", "c"): 1, (6, "a", "b"): 5, (6, "d", "a"): 2,
}


def test_neighborhood_example(sample_stream):
    s, keys = sample_stream
    cluster = neighborhood(s, keys.index("a"))
    labeled = {(t, keys[n]) for t, n in cluster.elements}
    assert labeled == {(0, "d"), (1, "d"), (2, "b"), (5, "b"), (6, "b"), (6, "d")}


def test_neighborhood_isolated_and_single():
    s = stream_of([(3, 0, 1)], interval=(0, 5))
    assert neighborhood(s, 0).elements == {(3, 1)}
    iso = stream_of([(3, 0, 1)])
    with pytest.raises(KeyError):
        neighborhood(iso, 9)


def csr_neighborhood(g, node: int) -> frozenset[int]:
    """The handles in ``node``'s slice of the graph's CSR neighbor arrays."""
    offsets, others = g.neighbors
    i = g.nodes.tolist().index(node)
    return frozenset(g.nodes[others[offsets[i] : offsets[i + 1]]].tolist())


def test_aggregated_neighborhood_example(sample_stream):
    s, keys = sample_stream
    a = keys.index("a")
    agg = csr_neighborhood(induced_graph(s), a)
    assert {keys[n] for n in agg} == {"b", "d"}
    assert oracles.aggregated_neighborhood(s, a) == agg


def test_aggregated_equals_induced_undirected_neighborhood():
    rng = random.Random(21)
    for trial in range(25):
        s = stream_of(random_links(rng, rng.randint(2, 9), rng.randint(1, 80)))
        g = induced_graph(s)
        for node in s.nodes:
            agg = csr_neighborhood(g, node)
            assert oracles.aggregated_neighborhood(s, node) == agg
            assert neighborhood(s, node).node_projection() == agg


def test_neighborhood_size_with_distinct_elements():
    links = [(1, 0, 1), (2, 0, 2), (3, 3, 0)]
    s = stream_of(links)
    assert len(neighborhood(s, 0).elements) == 3


def _overlaps(s1, s2):
    """Node -> (inclusion, jaccard) of the bulk form on the two streams,
    rebuilt over one node set, None where the column holds NaN."""
    g1, g2 = map(induced_graph, over_one_node_set(s1, s2))
    rows = overlap_rows(g1.nodes, *neighborhood_overlaps(g1, g2))
    return {v: (inclusion, jaccard) for v, inclusion, jaccard in rows}


def test_overlap_examples():
    s1 = stream_of([(0, 0, 1), (1, 0, 2)])  # N(0) = {1, 2}
    s2 = stream_of([(5, 1, 0)])  # N(0) = {1}
    inclusion, jaccard = _overlaps(s1, s2)[0]
    assert inclusion == pytest.approx(1.0)
    assert jaccard == pytest.approx(0.5)

    disjoint = stream_of([(3, 0, 3)])
    assert _overlaps(s1, disjoint)[0] == (0.0, 0.0)
    assert _overlaps(s1, s1)[0] == (1.0, 1.0)


def test_overlap_empty_neighborhood_markers():
    s1 = stream_of([(0, 0, 1)])
    s2 = stream_of([(0, 2, 3)])  # no link at node 0
    results = _overlaps(s1, s2)
    inclusion, jaccard = results[0]
    assert inclusion is None  # empty transaction-side neighborhood
    assert jaccard == 0.0
    # one row per node of either stream, in node order, and no other
    assert list(results) == [0, 1, 2, 3]


def lookbacks(dist):
    """The look-backs of a closure distribution, None where infinite."""
    return [None if x < 0 else x for x in dist.results.tolist()]


def _lookback(s, k, t, u, v):
    """The look-back that closure_distribution gives the link (t, u, v)."""
    return lookbacks(closure_distribution(s, k=k))[links_of(s).index((t, u, v))]


def test_two_closure_example(sample_stream):
    s, keys = sample_stream
    a, b = keys.index("a"), keys.index("b")
    assert _lookback(s, 2, 6, a, b) == 4
    assert _lookback(s, 2, 2, b, a) is None


def test_two_closure_simultaneous_reverse():
    s = stream_of([(5, 0, 1), (5, 1, 0)])
    assert _lookback(s, 2, 5, 0, 1) == 0
    assert _lookback(s, 2, 5, 1, 0) == 0


def test_three_closure_example(sample_stream):
    s, keys = sample_stream
    assert _lookback(s, 3, 6, keys.index("a"), keys.index("b")) == 5


def test_three_closure_single_link():
    s = stream_of([(0, 0, 1)])
    assert _lookback(s, 3, 0, 0, 1) is None


def test_three_closure_requires_strictly_earlier_supports():
    # a simultaneous cycle does not close: supports must precede the link
    s = stream_of([(0, 1, 2), (0, 2, 0), (0, 0, 1)])
    assert _lookback(s, 3, 0, 0, 1) is None
    # one second earlier, the same supports close it at look-back 1
    s2 = stream_of([(0, 1, 2), (0, 2, 0), (1, 0, 1)])
    assert _lookback(s2, 3, 1, 0, 1) == 1


def test_closure_distribution_full_tables(sample_stream):
    s, keys = sample_stream
    for k, expected in ((2, SAMPLE_K2), (3, SAMPLE_K3)):
        dist = closure_distribution(s, k=k)
        got = {
            (t, keys[u], keys[v]): lookback
            for (t, u, v), lookback in zip(links_of(s), lookbacks(dist))
        }
        assert got == expected
        assert dist.infinite_count == sum(1 for v in expected.values() if v is None)
        assert len(dist.results) == 12
        assert dist.infinite_count == dist.results.tolist().count(-1)


def test_closure_distribution_no_reverse_links():
    s = stream_of([(t, 0, 1) for t in range(5)])
    dist = closure_distribution(s, k=2)
    assert dist.infinite_count == 5 and dist.results.tolist() == [-1] * 5


def test_closure_distribution_rejects_bad_k(sample_stream):
    s, _ = sample_stream
    with pytest.raises(ValueError):
        closure_distribution(s, k=4)


def test_closures_match_oracle_random():
    rng = random.Random(31)
    for trial in range(40):
        s = random_stream(seed=1000 + trial, max_nodes=8, max_links=60)
        events = links_of(s)
        d2 = lookbacks(closure_distribution(s, k=2))
        d3 = lookbacks(closure_distribution(s, k=3))
        for i in range(len(events)):
            assert d2[i] == oracles.two_closure(events, i)
            assert d3[i] == oracles.three_closure(events, i)


@pytest.mark.parametrize("slots", [0, 1])
def test_closures_match_oracle_random_when_slots_collide(monkeypatch, slots):
    # one slot for every pair, or under two per pair: most 2-paths share a
    # set slot with a linked pair, and the key search alone must sort them
    monkeypatch.setattr(temporal_metrics, "_SLOTS_PER_PAIR", slots)
    test_closures_match_oracle_random()


def test_closure_time_shift_equivariance():
    rng = random.Random(32)
    for trial in range(10):
        s = random_stream(seed=2000 + trial, max_nodes=6, max_links=40)
        shift = rng.randint(1, 500)
        shifted = stream_of([(t + shift, u, v) for t, u, v in links_of(s)])
        for k in (2, 3):
            a = closure_distribution(s, k=k).results.tolist()
            b = closure_distribution(shifted, k=k).results.tolist()
            assert a == b


def test_three_closure_monotone_under_added_supports():
    rng = random.Random(33)
    for trial in range(10):
        s = random_stream(seed=3000 + trial, max_nodes=6, max_links=30)
        links = links_of(s)
        t, u, v = links[-1]
        if t == 0:
            continue  # no strictly earlier instant exists
        before = lookbacks(closure_distribution(s, k=3))[-1]
        # add an earlier support pair through a fresh node
        w = max(s.nodes) + 1
        extra = [(t - 1, v, w), (t - 1, w, u)]
        enlarged = stream_of(links + extra)
        after = _lookback(enlarged, 3, t, u, v)
        assert after is not None
        if before is not None:
            assert after <= before
