"""The degree-ordered triangle kernel against the neighbor-scan references.

Clustering, triangle counts and null-model samples are integers or floats
computed from the same integers in the same order, so every comparison is
exact: ``==`` on values, and on dict items where the order is part of the
output (the CSV writers sort, but the averages sum in ``g.nodes`` order).
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import oracles
from ls_ledger import graph_metrics
from ls_ledger.graph_metrics import (
    clustering,
    null_model_triangles,
    rewired_samples,
    triangle_count,
)
from ls_ledger.stream_core import InducedGraph


def triangles_per_node(g: InducedGraph) -> dict[int, int]:
    """Triangles through every node, in ``g.nodes`` order, from the forward
    kernel that ``clustering`` reads."""
    edges = g.undirected_edges()
    rank = graph_metrics._degree_ranks(edges)[1]
    out = dict.fromkeys(g.nodes, 0)
    out.update(graph_metrics._node_triangles(graph_metrics._forward_adjacency(edges, rank)))
    return out


def graph_of(edges, nodes=()):
    nodes = set(nodes) | {n for e in edges for n in e}
    return InducedGraph(nodes=frozenset(nodes), directed_edges=frozenset(edges))


def relabel(g: InducedGraph, label) -> InducedGraph:
    return InducedGraph(
        nodes=frozenset(label(n) for n in g.nodes),
        directed_edges=frozenset((label(u), label(v)) for u, v in g.directed_edges),
    )


def random_graph(rng: random.Random, n: int, p: float) -> InducedGraph:
    """Directed G(n, p): reciprocal pairs and isolated nodes both occur."""
    edges = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
    return graph_of(edges, nodes=range(n))


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
        "empty": graph_of(set(), nodes=range(5)),
        "single_edge": graph_of({(3, 4)}, nodes={0, 3, 4}),
        "reciprocal_pair": graph_of({(0, 1), (1, 0)}),
        "triangle": graph_of(cycle(range(3))),
        "reciprocal_triangle": graph_of(cycle(range(3)) | cycle([2, 1, 0])),
        "star": graph_of(star(0, range(1, 30))),
        "hub_with_cliques": graph_of(hub_with_cliques, nodes=range(45)),
        "two_hubs": graph_of(two_hubs),
        "wheel": graph_of(wheel),
        "clique_k2": graph_of(clique(range(2))),
        "clique_k5": graph_of(clique(range(5))),
        "clique_k12": graph_of(clique(range(12))),
        "cycle_ties": graph_of(cycle(range(10))),
        "bipartite_ties": graph_of(bipartite),
        "petersen_ties": graph_of(
            cycle(range(5)) | {(i, i + 5) for i in range(5)}
            | {(5 + i, 5 + (i + 2) % 5) for i in range(5)}
        ),
        "components": graph_of(
            clique(range(4)) | cycle(range(10, 16)) | clique(range(20, 26)) | {(30, 31)},
            nodes=range(40),
        ),
        "scattered_hub": graph_of(scattered_hub, nodes=range(70)),
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
    report = clustering(g)
    assert list(report.coefficients.items()) == list(coeffs.items())
    assert report.average == average
    assert report.average_active == average_active
    assert report.triangles == oracles.triangles_in_adjacency(g.undirected_adjacency())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_triangle_counts_equal_references(name):
    g = GRAPHS[name]
    expected = oracles.triangles_per_node(g)
    assert list(triangles_per_node(g).items()) == list(expected.items())
    assert triangle_count(g) == oracles.triangles_in_adjacency(g.undirected_adjacency())
    assert triangle_count(g) == sum(expected.values()) // 3


def test_triangle_counts_equal_enumeration():
    for name, g in shaped_graphs().items():
        und = oracles.undirected_edge_set(g.directed_edges)
        assert triangle_count(g) == oracles.triangle_count(g.nodes, und), name
        per_node = triangles_per_node(g)
        for node in g.nodes:
            assert per_node[node] == oracles.triangles_through(node, g.nodes, und), name


NULL_GRAPHS = sorted(
    name for name, g in GRAPHS.items() if len(g.undirected_edges()) >= 2
)[::3]


@pytest.mark.parametrize("name", NULL_GRAPHS)
def test_null_model_samples_equal_reference_counts(name):
    g = GRAPHS[name]
    result = null_model_triangles(g, samples=6, seed=11)
    expected = [oracles.triangles_in_edges(r, g.nodes) for r in rewired_samples(g, 6, 11)]
    assert list(result.samples) == expected
    assert result.observed == oracles.triangles_in_adjacency(g.undirected_adjacency())


def test_null_model_on_hubs_and_scattered_handles():
    for name in ("hub_with_cliques_x977", "scattered_hub", "two_hubs", "components_reversed"):
        g = GRAPHS[name]
        result = null_model_triangles(g, samples=4, seed=5)
        expected = [
            oracles.triangles_in_edges(r, g.nodes) for r in rewired_samples(g, 4, 5)
        ]
        assert list(result.samples) == expected, name
        assert any(expected), name  # the samples keep some triangles to count
