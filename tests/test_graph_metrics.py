import math
import random
from itertools import combinations

import numpy as np
import pytest

import oracles
from oracles import distance_counts, graph_of, pair_places, rewired_samples
from ls_ledger.errors import LedgerError
from ls_ledger.graph_metrics import (
    clustering,
    degree_correlation,
    degree_report,
    distance_distribution,
    null_model_triangles,
)
from ls_ledger.stream_core import induced_graph


def pair_distance(g, u, v):
    """Shortest-path length between the nodes u and v by a one-pair
    distance_distribution; None when unreachable."""
    return next(iter(distance_counts(distance_distribution(*pair_places(g, [(u, v)]), g))), None)


def random_graph(rng, n, p):
    edges = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    }
    return graph_of(range(n), edges)


def test_degree_report_single_edge():
    in_degree, out_degree = degree_report(graph_of({0, 1, 2}, {(0, 1)}))
    assert out_degree.tolist() == [1, 0, 0]
    assert in_degree.tolist() == [0, 1, 0]


def test_degree_report_example(sample_stream):
    s, keys = sample_stream
    g = induced_graph(s)
    _, out_degree = degree_report(g)
    out = {keys[n]: d for n, d in zip(g.nodes.tolist(), out_degree.tolist())}
    assert out == {"a": 2, "b": 3, "c": 2, "d": 2}


def test_degree_report_counts_edges_at_each_place():
    rng = random.Random(5)
    for trial in range(20):
        nodes = rng.sample(range(40), rng.randint(2, 12))
        edges = {(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.3}
        g = graph_of(nodes, edges)
        in_degree, out_degree = degree_report(g)
        places = g.nodes.tolist()
        assert out_degree.tolist() == [sum(u == n for u, _ in edges) for n in places]
        assert in_degree.tolist() == [sum(v == n for _, v in edges) for n in places]


def test_degree_sums_equal_edge_count():
    rng = random.Random(3)
    for trial in range(20):
        g = random_graph(rng, rng.randint(2, 12), 0.4)
        in_degree, out_degree = degree_report(g)
        assert in_degree.sum() == len(oracles.directed_edges(g))
        assert out_degree.sum() == len(oracles.directed_edges(g))


def test_handshake_identity():
    rng = random.Random(4)
    for trial in range(20):
        g = random_graph(rng, rng.randint(2, 12), 0.4)
        und = g.undirected_edges()
        offsets, others = g.neighbors
        assert g.degree.sum() == offsets[-1] == len(others) == 2 * len(und)


def test_degree_correlation_perfect():
    xs = np.array([1.0, 2.0, 3.0])
    assert degree_correlation(xs, xs) == pytest.approx(1.0)
    assert degree_correlation(xs, -xs) == pytest.approx(-1.0)


def test_degree_correlation_three_points():
    # frozen from the closed-form reference (np.corrcoef agrees below)
    xs = np.array([1, 2, 3])
    ys = np.array([2, 4, 7])
    r = degree_correlation(xs, ys)
    assert type(r) is float
    assert r == pytest.approx(0.9933992677987828, abs=1e-12)
    assert r == pytest.approx(float(np.corrcoef([1, 2, 3], [2, 4, 7])[0, 1]))
    assert degree_correlation(xs, np.array([2, 4, 8])) == pytest.approx(
        0.9819805060619656, abs=1e-12
    )


def test_degree_correlation_zero_variance():
    with pytest.raises(LedgerError, match="^zero variance on one of the series$"):
        degree_correlation(np.array([1, 1]), np.array([1, 2]))


def test_degree_correlation_mismatched_nodes():
    with pytest.raises(ValueError):
        degree_correlation(np.array([1, 2]), np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        degree_correlation(np.array([1]), np.array([1]))


def test_clustering_triangle_and_star():
    tri = graph_of((), {(0, 1), (1, 2), (2, 0)})
    coefficients, average, _, _ = clustering(tri)
    assert coefficients.tolist() == [1.0, 1.0, 1.0]
    assert average == 1.0

    star = graph_of((), {(0, 1), (0, 2), (0, 3)})
    coefficients, average, _, _ = clustering(star)
    assert coefficients.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert average == 0.0


def test_clustering_includes_low_degree_at_zero():
    # path 0-1-2 plus isolated 3: averages differ between conventions
    g = graph_of({0, 1, 2, 3}, {(0, 1), (1, 2)})
    coefficients, average, average_active, _ = clustering(g)
    assert coefficients.tolist() == [0.0, 0.0, 0.0, 0.0]  # one per place
    assert average == 0.0
    assert average_active == 0.0  # node 1 has degree 2, no closed pair


def test_triangle_count_small_cases():
    k4 = graph_of((), {(u, v) for u, v in combinations(range(4), 2)})
    assert clustering(k4)[3] == 4
    tree = graph_of((), {(0, 1), (1, 2), (1, 3), (3, 4)})
    assert clustering(tree)[3] == 0


def test_triangle_count_matches_enumeration():
    rng = random.Random(12)
    for trial in range(30):
        g = random_graph(rng, rng.randint(3, 20), rng.uniform(0.1, 0.6))
        und = oracles.undirected_edge_set(oracles.directed_edges(g).tolist())
        assert clustering(g)[3] == oracles.triangle_count(g.nodes, und)


def test_clustering_matches_triangle_formula():
    rng = random.Random(13)
    for trial in range(20):
        g = random_graph(rng, rng.randint(3, 15), rng.uniform(0.2, 0.7))
        coefficient = dict(zip(g.nodes.tolist(), clustering(g)[0].tolist()))
        per_node = oracles.triangles_per_node(g)
        adj = oracles.adjacency(g)
        und = oracles.undirected_edge_set(oracles.directed_edges(g).tolist())
        for node in g.nodes:
            k = len(adj[node])
            assert per_node[node] == oracles.triangles_through(node, g.nodes, und)
            if k >= 2:
                expected = 2 * per_node[node] / (k * (k - 1))
                assert coefficient[node] == pytest.approx(expected)
            else:
                assert coefficient[node] == 0.0


def test_null_model_preserves_degrees_and_is_deterministic():
    rng = random.Random(14)
    g = random_graph(rng, 12, 0.3)
    observed = clustering(g)[3]
    res1 = null_model_triangles(g, observed, samples=8, seed=42)
    res2 = null_model_triangles(g, observed, samples=8, seed=42)
    assert res1.samples == res2.samples  # bit-identical under a fixed seed
    res3 = null_model_triangles(g, observed, samples=8, seed=43)
    assert res1.samples != res3.samples or len(g.undirected_edges()) < 3


def test_null_model_complete_graph_ratio_one():
    k5 = graph_of((), {(u, v) for u, v in combinations(range(5), 2)})
    res = null_model_triangles(k5, clustering(k5)[3], samples=5, seed=1)
    assert res.ratio == pytest.approx(1.0)
    assert set(res.samples) == {res.observed}


def test_null_model_degenerate():
    with pytest.raises(LedgerError, match="^need at least 2 undirected edges to rewire, got 1$"):
        null_model_triangles(graph_of((), {(0, 1)}), 0, samples=2, seed=0)


@pytest.mark.parametrize("seed", [-1, -42])
def test_null_model_rejects_negative_seed(seed):
    # random.Random(-x) is random.Random(x), so seed -1 would give seed 1's
    # sample 0
    g = random_graph(random.Random(14), 12, 0.3)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        null_model_triangles(g, clustering(g)[3], samples=2, seed=seed)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        list(rewired_samples(g, samples=2, seed=seed))


def test_null_model_sample_mean_and_std():
    rng = random.Random(15)
    g = random_graph(rng, 10, 0.4)
    res = null_model_triangles(g, clustering(g)[3], samples=16, seed=7)
    assert res.mean == pytest.approx(sum(res.samples) / 16)
    var = sum((c - res.mean) ** 2 for c in res.samples) / 16
    assert res.std == pytest.approx(math.sqrt(var))


def test_pair_distance_cases():
    g = graph_of({0, 1, 2, 3}, {(0, 1), (1, 2)})
    assert pair_distance(g, 0, 2) == 2
    assert pair_distance(g, 0, 0) == 0
    assert pair_distance(g, 0, 3) is None
    with pytest.raises(KeyError):
        pair_distance(g, 0, 99)


def test_pair_distance_symmetry_and_triangle_inequality():
    rng = random.Random(16)
    for trial in range(10):
        g = random_graph(rng, 10, 0.25)
        nodes = sorted(g.nodes)
        for _ in range(15):
            u, v, w = rng.sample(nodes, 3)
            duv = pair_distance(g, u, v)
            assert duv == pair_distance(g, v, u)
            duw = pair_distance(g, u, w)
            dwv = pair_distance(g, w, v)
            if duw is not None and dwv is not None:
                assert duv is not None and duv <= duw + dwv


def test_distance_distribution_four_cycle():
    g = graph_of((), {(0, 1), (1, 2), (2, 3), (3, 0)})
    dist = distance_distribution(*pair_places(g, [(0, 2)]), g)
    assert dist.counts.tolist() == [0, 0, 1] and dist.unreachable == 0


def test_distance_distribution_all_adjacent():
    g = graph_of((), {(0, 1), (1, 2), (2, 0)})
    dist = distance_distribution(*pair_places(g, [(0, 1), (1, 2), (0, 2)]), g)
    assert dist.counts.tolist() == [0, 3]
    assert dist.total() == 3


def test_distance_distribution_unreachable():
    g = graph_of((), {(0, 1), (2, 3)})
    dist = distance_distribution(*pair_places(g, [(0, 2), (0, 1)]), g)
    assert dist.counts.tolist() == [0, 1] and dist.unreachable == 1
    assert dist.total() == 2
