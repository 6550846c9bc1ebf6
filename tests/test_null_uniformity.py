"""The null model samples every simple graph of a degree sequence alike.

For three degree sequences on 6 labeled nodes, every simple graph with
those degrees is enumerated, ``rewired_samples`` draws many samples at one
fixed seed, and a chi-square statistic of the sample counts against the
uniform distribution must stay below its p = 0.001 critical value. The
same statistic on a chain of only 1 x m swap attempts per sample, which
stays near its start, must exceed it, so the test can fail.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from oracles import graph_of
from ls_ledger.graph_metrics import _double_edge_swap, rewired_samples

NODES = range(6)
SEED = 7

# chi-square quantiles at p = 0.001 (no scipy): degrees of freedom -> value
CRITICAL = {69: 111.06, 16: 39.25}

# degree sequence, a start graph with those degrees, samples to draw
CASES = {
    "2-regular": ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], 7_000),
    "3,3,2,2,1,1": ([(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3)], 3_400),
    "3-regular": ([(u, v) for u in range(3) for v in range(3, 6)], 4_000),
}


def simple_graphs(degrees: list[int]) -> list[frozenset[tuple[int, int]]]:
    """Every simple graph on ``NODES`` whose node i has degree ``degrees[i]``."""
    slots = list(combinations(NODES, 2))
    found = []
    for mask in range(1 << len(slots)):
        edges = [e for i, e in enumerate(slots) if mask >> i & 1]
        if len(edges) * 2 == sum(degrees):
            deg = Counter(n for e in edges for n in e)
            if all(deg[n] == degrees[n] for n in NODES):
                found.append(frozenset(edges))
    return found


def chi_square(samples, graphs) -> float:
    counts = Counter(frozenset(sample) for sample in samples)
    assert set(counts) <= set(graphs)
    expected = sum(counts.values()) / len(graphs)
    return sum((counts[g] - expected) ** 2 / expected for g in graphs)


def degrees_of(edges) -> list[int]:
    deg = Counter(n for e in edges for n in e)
    return [deg[n] for n in NODES]


@pytest.mark.parametrize("name", sorted(CASES))
def test_rewired_samples_are_uniform(name):
    edges, samples = CASES[name]
    graphs = simple_graphs(degrees_of(edges))
    assert len(graphs) == {"2-regular": 70, "3,3,2,2,1,1": 17, "3-regular": 70}[name]
    drawn = rewired_samples(graph_of(NODES, edges), samples, SEED)
    assert chi_square(drawn, graphs) < CRITICAL[len(graphs) - 1]


@pytest.mark.parametrize("name", ["2-regular", "3,3,2,2,1,1"])
def test_short_chain_fails_the_test(name):
    edges, samples = CASES[name]
    graphs = simple_graphs(degrees_of(edges))
    # rewired_samples' per-sample seeds, with m attempts instead of 10 m
    short = (
        _double_edge_swap(edges, len(NODES), random.Random(SEED * 1_000_003 + i), attempts=len(edges))
        for i in range(samples)
    )
    assert chi_square(short, graphs) > CRITICAL[len(graphs) - 1]
