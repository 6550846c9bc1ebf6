"""The degree-ordered triangle kernel against the neighbor-scan references.

Clustering, triangle counts and null-model samples are integers or floats
computed from the same integers in the same order, so every comparison is
exact: ``==`` on values, and on dict items where the order is part of the
output (the CSV writers sort, but the averages sum in ascending node
order).
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import oracles
from oracles import graph_of, rewired_samples
from ls_ledger import graph_metrics, stream_core
from ls_ledger.graph_metrics import clustering, null_model_triangles
from ls_ledger.stream_core import InducedGraph


def triangles_per_node(g: InducedGraph) -> dict[int, int]:
    """Triangles through every node, in ``g.nodes`` order, from the
    dict-of-sets forward kernel in ``oracles``."""
    out = dict.fromkeys(g.nodes, 0)
    out.update(oracles.node_triangles(oracles.forward_adjacency(g.undirected_edges().tolist())))
    return out


def kernel_triangles(g: InducedGraph) -> dict[int, int]:
    """Triangles through every node, in ``g.nodes`` order, from the numpy
    kernel that ``clustering`` reads."""
    out = dict.fromkeys(g.nodes, 0)
    out.update(zip(g.nodes.tolist(), graph_metrics._node_triangles(*g.ends, g.rank).tolist()))
    return out


def relabel(g: InducedGraph, label) -> InducedGraph:
    return graph_of(
        [label(n) for n in g.nodes],
        [(label(u), label(v)) for u, v in g.directed_edges().tolist()],
    )


def random_graph(rng: random.Random, n: int, p: float) -> InducedGraph:
    """Directed G(n, p): reciprocal pairs and isolated nodes both occur."""
    edges = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
    return graph_of(range(n), edges)


def clique(nodes) -> set[tuple[int, int]]:
    return set(combinations(nodes, 2))


def star(hub: int, leaves) -> set[tuple[int, int]]:
    return {(hub, leaf) for leaf in leaves}


def cycle(nodes) -> set[tuple[int, int]]:
    nodes = list(nodes)
    return {(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))}


def shaped_graphs() -> dict[str, InducedGraph]:
    """Stars, hubs, cliques, degree ties, isolated nodes and components."""
    rng = random.Random(7)
    hub_with_cliques = star(0, range(1, 40)) | clique(range(1, 8)) | clique(range(20, 26))
    two_hubs = star(0, range(2, 30)) | star(1, range(2, 30)) | {(0, 1)}
    wheel = star(0, range(1, 13)) | cycle(range(1, 13))
    bipartite = {(u, v) for u in range(5) for v in range(5, 11)}
    scattered_hub = star(1, range(2, 60)) | {
        (u, v) for u, v in combinations(range(2, 60), 2) if rng.random() < 0.15
    }
    return {
        "empty": graph_of(range(5), set()),
        "single_edge": graph_of({0, 3, 4}, {(3, 4)}),
        "reciprocal_pair": graph_of((), {(0, 1), (1, 0)}),
        "triangle": graph_of((), cycle(range(3))),
        "reciprocal_triangle": graph_of((), cycle(range(3)) | cycle([2, 1, 0])),
        "star": graph_of((), star(0, range(1, 30))),
        "hub_with_cliques": graph_of(range(45), hub_with_cliques),
        "two_hubs": graph_of((), two_hubs),
        "wheel": graph_of((), wheel),
        "clique_k2": graph_of((), clique(range(2))),
        "clique_k5": graph_of((), clique(range(5))),
        "clique_k12": graph_of((), clique(range(12))),
        "cycle_ties": graph_of((), cycle(range(10))),
        "bipartite_ties": graph_of((), bipartite),
        "petersen_ties": graph_of(
            (),
            cycle(range(5)) | {(i, i + 5) for i in range(5)}
            | {(5 + i, 5 + (i + 2) % 5) for i in range(5)}
        ),
        "components": graph_of(
            range(40),
            clique(range(4)) | cycle(range(10, 16)) | clique(range(20, 26)) | {(30, 31)},
        ),
        "scattered_hub": graph_of(range(70), scattered_hub),
    }


def all_graphs() -> dict[str, InducedGraph]:
    graphs = shaped_graphs()
    rng = random.Random(2024)
    for trial in range(120):
        n = rng.randint(1, 40)
        graphs[f"random{trial}"] = random_graph(rng, n, rng.uniform(0.0, 0.5))
    for name in ("hub_with_cliques", "components", "petersen_ties", "random3"):
        graphs[f"{name}_x977"] = relabel(graphs[name], lambda n: 977 * n + 3)
        graphs[f"{name}_reversed"] = relabel(graphs[name], lambda n: 10_000 - 7 * n)
    return graphs


GRAPHS = all_graphs()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_clustering_equals_neighbor_scan(name):
    g = GRAPHS[name]
    coeffs, average, average_active = oracles.clustering_scan(g)
    coefficients, got_average, got_average_active, triangles = clustering(g)
    assert list(coeffs) == g.nodes.tolist()
    assert coefficients.tolist() == list(coeffs.values())
    assert got_average == average
    assert got_average_active == average_active
    assert triangles == oracles.triangles_in_adjacency(oracles.adjacency(g))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_triangle_counts_equal_references(name):
    g = GRAPHS[name]
    expected = oracles.triangles_per_node(g)
    assert list(triangles_per_node(g).items()) == list(expected.items())
    assert list(kernel_triangles(g).items()) == list(expected.items())
    triangles = clustering(g)[3]
    assert triangles == oracles.triangles_in_adjacency(oracles.adjacency(g))
    assert triangles == sum(expected.values()) // 3


def test_triangle_counts_equal_enumeration():
    for name, g in shaped_graphs().items():
        und = oracles.undirected_edge_set(g.directed_edges().tolist())
        assert clustering(g)[3] == oracles.triangle_count(g.nodes, und), name
        per_node, kernel = triangles_per_node(g), kernel_triangles(g)
        for node in g.nodes:
            assert per_node[node] == oracles.triangles_through(node, g.nodes, und), name
            assert kernel[node] == per_node[node], name


NULL_GRAPHS = sorted(
    name for name, g in GRAPHS.items() if len(g.undirected_edges()) >= 2
)[::3]


@pytest.mark.parametrize("name", NULL_GRAPHS)
def test_null_model_samples_equal_reference_counts(name):
    g = GRAPHS[name]
    result = null_model_triangles(g, clustering(g)[3], samples=6, seed=11)
    expected = [oracles.triangles_in_edges(r, g.nodes) for r in rewired_samples(g, 6, 11)]
    assert list(result.samples) == expected
    assert result.observed == oracles.triangles_in_adjacency(oracles.adjacency(g))


def test_null_model_on_hubs_and_scattered_handles():
    names = ("hub_with_cliques_x977", "scattered_hub", "two_hubs", "components_reversed")
    graphs = {name: GRAPHS[name] for name in names}
    graphs["components_2^62"] = relabel(GRAPHS["components"], lambda n: 2**62 + 977 * n)
    for name, g in graphs.items():
        result = null_model_triangles(g, clustering(g)[3], samples=4, seed=5)
        expected = [
            oracles.triangles_in_edges(r, g.nodes) for r in rewired_samples(g, 4, 5)
        ]
        assert list(result.samples) == expected, name
        assert any(expected), name  # the samples keep some triangles to count


def property_graphs() -> dict[str, InducedGraph]:
    """Empty, one edge, triangle-free, complete, isolated nodes, handles
    near 2^62, dense and sparse random graphs."""
    rng = random.Random(2027)
    graphs = {
        "no_nodes": graph_of((), set()),
        "empty": graph_of(range(6), set()),
        "one_edge": graph_of((), {(0, 1)}),
        "star": graph_of((), star(0, range(1, 12))),
        "even_cycle": graph_of((), cycle(range(10))),
        "complete_bipartite": graph_of((), {(u, v) for u in range(4) for v in range(4, 9)}),
        "isolated_nodes": graph_of(range(20), clique(range(3, 7)) | {(10, 11), (11, 12)}),
    }
    for k in range(2, 9):
        graphs[f"K{k}"] = graph_of((), clique(range(k)))
    for trial in range(20):
        n = rng.randint(2, 24)
        graphs[f"dense{trial}"] = random_graph(rng, n, rng.uniform(0.5, 0.9))
        graphs[f"sparse{trial}"] = random_graph(rng, n, rng.uniform(0.02, 0.12))
    for name in ("isolated_nodes", "K6", "dense0", "sparse1"):
        graphs[f"{name}_2^62"] = relabel(graphs[name], lambda n: 2**62 + 977 * n)
    return graphs


PROPERTY_GRAPHS = property_graphs()
TRIANGLE_FREE = ("no_nodes", "empty", "one_edge", "star", "even_cycle", "complete_bipartite")


@pytest.mark.parametrize("block", [1, 3, stream_core._BLOCK])
def test_kernel_equals_oracle_kernel(block, monkeypatch):
    monkeypatch.setattr(stream_core, "_BLOCK", block)
    for name, g in PROPERTY_GRAPHS.items():
        und = oracles.undirected_edge_set(g.directed_edges().tolist())
        out = oracles.forward_adjacency(und)
        expected = dict.fromkeys(g.nodes, 0)
        expected.update(oracles.node_triangles(out))
        got = kernel_triangles(g)
        assert list(got.items()) == list(expected.items()), name
        for node in g.nodes:
            assert got[node] == oracles.triangles_through(node, g.nodes, und), name
        total = oracles.triangle_count(g.nodes, und)
        assert total == oracles.triangle_total(out) == sum(got.values()) // 3, name
        assert clustering(g)[3] == total, name
        if name in TRIANGLE_FREE:
            assert total == 0, name
        if name.startswith("K"):
            k = len(g.nodes)
            assert total == k * (k - 1) * (k - 2) // 6, name


@pytest.mark.parametrize("target", ["another node", "a node outside the graph"])
def test_rewiring_that_moves_an_endpoint_is_rejected(target, monkeypatch):
    g = graph_of((), cycle(range(6)) | {(0, 3)})
    assert len(list(rewired_samples(g, 2, 1))) == 2
    swap = graph_metrics._double_edge_swap

    def moved(us, vs, n, rng, attempts):
        us, vs = swap(us, vs, n, rng, attempts)
        w = next(n for n in range(6) if n not in (us[0], vs[0])) if target == "another node" else 99
        return us, [w, *vs[1:]]

    monkeypatch.setattr(graph_metrics, "_double_edge_swap", moved)
    with pytest.raises(AssertionError, match="changed the degree"):
        next(rewired_samples(g, 2, 1))
