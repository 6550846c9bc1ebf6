"""The integer-key double-edge swap against the tuple-based reference.

Both kernels get generators seeded alike; they must return the same edges
in the same order (the kernel as two columns, the reference as a list of
rows) and leave their generators in the same state, which shows that the
kernel consumes exactly the reference's random draws.
"""

import random
from itertools import combinations

import pytest

import oracles
from ls_ledger.graph_metrics import _double_edge_swap


def assert_same_swaps(edges, seed, attempts=None):
    attempts = 10 * len(edges) if attempts is None else attempts
    rng_new, rng_ref = random.Random(seed), random.Random(seed)
    n = max(max(e) for e in edges) + 1
    us, vs = [u for u, _ in edges], [v for _, v in edges]
    got_us, got_vs = _double_edge_swap(us, vs, n, rng_new, attempts)
    assert (us, vs) == ([u for u, _ in edges], [v for _, v in edges])  # copies
    got = list(zip(got_us, got_vs))
    want, _ = oracles.double_edge_swap(edges, rng_ref, attempts)
    assert got == want
    assert rng_new.getstate() == rng_ref.getstate()
    return got


def random_edges(rng, nodes, m):
    pairs = list(combinations(sorted(nodes), 2))
    return sorted(rng.sample(pairs, min(m, len(pairs))))


@pytest.mark.parametrize("seed", range(240))
def test_random_graphs_match_reference(seed):
    rng = random.Random(seed)
    k = rng.randint(4, 40)
    nodes = rng.sample(range(rng.choice((k, 2 * k, 3000))), k)
    edges = random_edges(rng, nodes, rng.randint(2, 120))
    assert_same_swaps(edges, seed)


def test_two_edges():
    for seed in range(50):
        assert_same_swaps([(0, 1), (2, 3)], seed)


@pytest.mark.parametrize("m", [4, 5, 8, 9, 16, 17, 32, 33, 64, 65])
def test_edge_counts_at_bit_length_boundaries(m):
    # m = 2**k draws k + 1 bits per index, m = 2**k + 1 rejects most draws
    rng = random.Random(m)
    edges = random_edges(rng, range(40), m)
    assert len(edges) == m
    for seed in range(10):
        assert_same_swaps(edges, seed)


def test_complete_graph_is_rigid():
    k5 = list(combinations(range(5), 2))
    for seed in range(20):
        assert assert_same_swaps(k5, seed) == k5


def test_disconnected_graph():
    triangle = [(0, 1), (0, 2), (1, 2)]
    path = [(10, 11), (11, 12), (12, 13)]
    star = [(20, 21), (20, 22), (20, 23), (20, 24)]
    for seed in range(20):
        assert_same_swaps(triangle + path + star, seed)


def test_sparse_node_handles_do_not_collide():
    # with n = 978, a key scheme that mixed up (3, 977) and (40, 3) would
    # reject or accept different swaps than the tuple reference
    for seed in range(20):
        assert_same_swaps([(3, 40), (3, 977), (40, 977)], seed)
        assert_same_swaps([(0, 977), (3, 40), (3, 977), (40, 976), (1, 2)], seed)


@pytest.mark.parametrize("seed", range(20))
def test_chains_compose(seed):
    # a attempts, then 10m - a more from the returned columns with the same
    # generator, end where one chain of 10m attempts ends: a shorter chain
    # is a prefix of the longer one
    rng = random.Random(seed)
    edges = random_edges(rng, rng.sample(range(60), rng.randint(4, 30)), rng.randint(2, 120))
    m, n = len(edges), max(max(e) for e in edges) + 1
    us, vs = [u for u, _ in edges], [v for _, v in edges]
    rng_whole = random.Random(seed)
    whole = _double_edge_swap(us, vs, n, rng_whole, 10 * m)
    for a in (0, 1, m // 2, 3 * m):
        rng_split = random.Random(seed)
        head = _double_edge_swap(us, vs, n, rng_split, a)
        assert _double_edge_swap(*head, n, rng_split, 10 * m - a) == whole, a
        assert rng_split.getstate() == rng_whole.getstate()


@pytest.mark.parametrize("seed", range(10))
def test_reference_counts_the_swaps_it_makes(seed):
    # a swap always puts in an edge that was absent, so an attempt made a
    # swap exactly when it changed the edges; one attempt at a time, the
    # counts add up to what one chain of as many attempts reports
    rng = random.Random(seed)
    edges = random_edges(rng, rng.sample(range(60), rng.randint(4, 30)), rng.randint(2, 120))
    rng_steps, rng_whole = random.Random(seed), random.Random(seed)
    current, made = edges, 0
    for _ in range(10 * len(edges)):
        step, swaps = oracles.double_edge_swap(current, rng_steps, 1)
        assert swaps == (step != current)
        current, made = step, made + swaps
    assert oracles.double_edge_swap(edges, rng_whole, 10 * len(edges)) == (current, made)


def test_zero_attempts_copies_edges():
    edges = [(0, 1), (2, 3), (4, 5)]
    assert assert_same_swaps(edges, 0, attempts=0) == edges
    us, vs = [0, 2, 4], [1, 3, 5]
    got_us, got_vs = _double_edge_swap(us, vs, 6, random.Random(0), attempts=0)
    assert got_us is not us and got_vs is not vs
