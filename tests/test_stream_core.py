import random
import re
from collections import Counter
from itertools import chain

import numpy as np
import pytest

import oracles
from oracles import edge_set, links_of, random_links, stream_of
from ls_ledger.errors import IntervalError
from ls_ledger.stream_core import (
    LinkStream,
    SUBSTREAM_LABELS,
    activity,
    activity_series,
    induced_graph,
    rolling_sum,
    stream_from_columns,
    substream_by_class,
)


def test_build_stream_sorts_links():
    s = stream_of([(5, 0, 1), (2, 1, 0)])
    assert links_of(s) == [(2, 1, 0), (5, 0, 1)]
    assert s.interval == (2, 5)
    assert s.nodes.tolist() == [0, 1]


def test_build_stream_example(sample_stream):
    s, keys = sample_stream
    assert s.link_count == 12
    assert len(s.nodes) == 4
    assert s.interval == (0, 6)


def test_build_stream_link_outside_interval_names_index():
    with pytest.raises(IntervalError) as err:
        stream_of([(1, 0, 1), (20, 0, 1)], interval=(0, 10))
    assert err.value.index == 1


def test_build_stream_order_matches_sorted_rows():
    # few nodes and instants, so equal (t, source, target) keys with
    # different amounts are common: their input order must survive
    rng = random.Random(12)
    for trial in range(30):
        links = random_links(rng, 3, rng.randint(1, 60), t_max=4, with_amounts=True)
        s = stream_of(links)
        rows = list(zip(s.t.tolist(), s.src.tolist(), s.dst.tolist(), s.amount.tolist()))
        assert rows == sorted(links, key=lambda ln: ln[:3])


def test_stream_columns_are_read_only_int64(sample_stream):
    s, _ = sample_stream
    for col in (s.t, s.src, s.dst):
        assert col.dtype == np.int64 and col.shape == (12,)
        with pytest.raises(ValueError):
            col[0] = 1
    assert s.amount is None


def test_streams_keep_private_read_only_columns():
    # what a stream holds stays as built, whatever the caller then does to
    # the arrays it passed in
    t, src, dst, amount, nodes = (
        np.array(c, dtype=np.int64)
        for c in ([1, 2, 3], [0, 1, 2], [1, 2, 0], [5, 6, 7], [0, 1, 2, 3])
    )
    keep = np.array([True, False, True])
    direct = LinkStream(interval=(0, 10), nodes=nodes, t=t, src=src, dst=dst, amount=amount)
    streams = [
        direct,
        stream_from_columns(t, src, dst, amount, interval=(0, 10), nodes=nodes),
        direct.restrict(keep, nodes),
    ]

    def contents(s):
        return [c.tolist() for c in (s.nodes, s.t, s.src, s.dst, s.amount)]

    before = [contents(s) for s in streams]
    for col in (t, src, dst, amount, nodes):
        col[:] = 9
    keep[:] = False
    assert [contents(s) for s in streams] == before
    for s in streams:
        for col in (s.nodes, s.t, s.src, s.dst, s.amount):
            assert not col.flags.writeable


def _columns(t, src, dst, amount=None, interval=(0, 10), nodes=(0, 1, 2)):
    return LinkStream(
        interval=interval, nodes=frozenset(nodes), t=t, src=src, dst=dst, amount=amount
    )


def test_stream_rejects_bad_columns():
    with pytest.raises(ValueError, match="one length"):
        _columns([1, 2], [0, 1], [1])
    with pytest.raises(ValueError, match="one length"):
        _columns([1, 2], [0, 1], [1, 0], amount=[5])
    with pytest.raises(IntervalError, match=re.escape("self-link rejected: (2, 1, 1)")) as err:
        _columns([1, 2], [0, 1], [1, 1])
    assert err.value.index == 1
    with pytest.raises(ValueError, match="negative timestamp"):
        _columns([-1, 2], [0, 1], [1, 0], interval=(-5, 10))
    with pytest.raises(ValueError, match="negative amount"):
        _columns([1, 2], [0, 1], [1, 0], amount=[5, -1])
    with pytest.raises(IntervalError):
        _columns([], [], [], interval=(3, 2))


@pytest.mark.parametrize(
    "t, src, dst, index",
    [
        ([1, 2, 11], [0, 1, 0], [1, 0, 1], 2),  # outside the interval
        ([1, 2, 3], [0, 1, 5], [1, 0, 1], 2),  # endpoint outside the node set
        ([1, 2, 1], [0, 1, 0], [1, 0, 1], 2),  # time decreases
        ([1, 1, 2], [1, 0, 0], [0, 1, 1], 1),  # source decreases at equal time
        ([1, 1, 2], [0, 0, 0], [2, 1, 1], 1),  # target decreases at equal (t, source)
        ([1, 1, 11], [0, 0, 0], [2, 1, 1], 1),  # the first offending link wins
        ([1, 2, 3], [0, 1, 2], [1, 0, 2], 2),  # a self-link
        ([1, 1, 3], [1, 0, 2], [0, 1, 2], 2),  # a self-link wins over an earlier fault
    ],
)
def test_stream_invariant_names_first_offending_link(t, src, dst, index):
    with pytest.raises(IntervalError) as err:
        _columns(t, src, dst)
    assert err.value.index == index


def test_induced_graph_example(sample_stream):
    s, keys = sample_stream
    g = induced_graph(s)
    assert len(oracles.directed_edges(g)) == 9
    label = lambda e: (keys[e[0]], keys[e[1]])
    assert {label(e) for e in oracles.directed_edges(g).tolist()} == {
        ("c", "b"), ("a", "d"), ("d", "a"), ("b", "a"), ("c", "d"),
        ("b", "d"), ("a", "b"), ("b", "c"), ("d", "c"),
    }


def test_induced_graph_empty():
    s = stream_of([], interval=(0, 1))
    assert edge_set(oracles.directed_edges(induced_graph(s))) == set()


def test_induced_graph_deduplicates():
    s = stream_of([(1, 0, 1), (2, 0, 1), (3, 0, 1)])
    assert edge_set(oracles.directed_edges(induced_graph(s))) == {(0, 1)}


def test_activity_example(sample_stream):
    s, _ = sample_stream
    assert activity(s, 5) == 3
    assert activity(s, 3) == 0


def test_activity_counts_pairs_not_links():
    s = stream_of([(4, 0, 1), (4, 0, 1), (4, 1, 0)])
    assert activity(s, 4) == 2


def test_activity_at_the_last_int64_instant():
    last = 2**63 - 1
    s = stream_of([(last - 1, 0, 1), (last, 0, 1), (last, 2, 1)])
    assert activity(s, last) == 2
    assert activity(s, last - 1) == 1


def test_activity_out_of_range(sample_stream):
    s, _ = sample_stream
    with pytest.raises(IntervalError):
        activity(s, 7)


def test_activity_series_example(sample_stream):
    s, _ = sample_stream
    assert activity_series(s, 7).tolist() == [12]
    assert activity_series(s, 1).tolist() == [2, 1, 2, 0, 2, 3, 2]


def test_activity_series_empty():
    s = stream_of([], interval=(0, 9))
    assert activity_series(s, 2).tolist() == [0, 0, 0, 0, 0]


def test_activity_series_rejects_bad_width(sample_stream):
    s, _ = sample_stream
    with pytest.raises(ValueError):
        activity_series(s, 0)


def test_rolling_sum_hand_example():
    series = activity_series(stream_of([(t, 0, 1) for t in range(4)]), 1)
    assert series.tolist() == [1, 1, 1, 1]
    assert rolling_sum(series, 1, 2).tolist() == [1, 2, 2, 2]


def test_rolling_sum_full_window_equals_total(sample_stream):
    s, _ = sample_stream
    series = activity_series(s, 1)
    rolled = rolling_sum(series, 1, 7)
    assert rolled[-1] == sum(series) == 12


def test_rolling_sum_zero_series():
    series = activity_series(stream_of([], interval=(0, 5)), 1)
    assert rolling_sum(series, 1, 3).tolist() == [0] * 6


def test_rolling_sum_rejects_small_window(sample_stream):
    s, _ = sample_stream
    with pytest.raises(ValueError):
        rolling_sum(activity_series(s, 2), 2, 1)


def test_activity_series_bin_wider_than_span():
    # a bin past int64 is the one bin at the interval start, as a bin of
    # 2**63 - 1 is; its start is exact as overview computes it, in Python ints
    s = stream_of([(t, 0, 1) for t in (5, 9, 9, 2**62)])
    t0 = s.interval[0]
    for width in (2**62 - 4, 2**63 - 1, 2**63, 10**21):
        series = activity_series(s, width)
        assert series.tolist() == [4], width
        assert list(range(t0, t0 + len(series) * width, width)) == [5], width
        assert rolling_sum(series, width, 10**24).tolist() == [4], width
    assert activity_series(s, 2**62 - 5).tolist() == [3, 1]


def test_rolling_sum_matches_per_bin_reference():
    rng = random.Random(17)
    seen = set()
    for trial in range(300):
        width = rng.randint(1, 9)
        values = [rng.choice((0, 0, 1, 3, 50)) for _ in range(rng.randint(1, 40))]
        span = width * len(values)
        drawn = (width, rng.randint(width, 3 * width), rng.randint(width, span + width))
        window = rng.choice((*drawn, span + 1, 10**24))
        seen.add("bin" if window == width else "ceil" if window % width else "multiple")
        seen.add("past" if window > span else "inside")
        rolled = rolling_sum(np.array(values), width, window)
        assert rolled.dtype == np.int64
        assert rolled.tolist() == oracles.rolling_sum(values, width, window), trial
    assert seen == {"bin", "ceil", "multiple", "past", "inside"}


def test_substream_by_class_example(sample_stream):
    s, keys = sample_stream
    members = np.array([keys.index(k) for k in "ab"])
    mm = substream_by_class(s, members, "MM")
    assert [(t, keys[u], keys[v]) for t, u, v in links_of(mm)] == [
        (2, "b", "a"), (5, "a", "b"), (6, "a", "b"),
    ]
    aa = substream_by_class(s, members, "AA")
    assert [(t, keys[u], keys[v]) for t, u, v in links_of(aa)] == [
        (2, "c", "d"), (5, "d", "c"),
    ]
    assert mm.interval == aa.interval == s.interval


def test_substream_all_members_is_identity(sample_stream):
    s, keys = sample_stream
    mm = substream_by_class(s, np.array([keys.index(k) for k in "abcd"]), "MM")
    assert links_of(mm) == links_of(s) and mm.nodes.tolist() == s.nodes.tolist()


@pytest.mark.parametrize("label", ["", "MX", "mm"])
def test_substream_rejects_an_unknown_label(sample_stream, label):
    s, _ = sample_stream
    with pytest.raises(ValueError, match="unknown substream label"):
        substream_by_class(s, s.nodes, label)


# ------------------------------------------------------------- properties


def test_partition_identity_random():
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(2, 9)
        s = stream_of(random_links(rng, n, rng.randint(1, 80)))
        members = np.array([x for x in range(n) if rng.random() < 0.5], dtype=np.int64)
        total = 0
        for label in SUBSTREAM_LABELS:
            total += substream_by_class(s, members, label).link_count
        assert total == s.link_count


def test_activity_conservation_random():
    rng = random.Random(8)
    for trial in range(30):
        s = stream_of(random_links(rng, rng.randint(2, 8), rng.randint(1, 60)))
        distinct_ts = sorted(set(s.t.tolist()))
        # per-instant activity counts pairs; compare against distinct pairs per t
        per_t_pairs = sum(activity(s, t) for t in distinct_ts)
        expected = len(set(links_of(s)))
        assert per_t_pairs == expected
        # binned series counts links with multiplicity, any width conserves
        for width in (1, 3, 7, 1000):
            assert sum(activity_series(s, width)) == s.link_count


def test_activity_matches_distinct_pair_reference():
    # few nodes and instants, so one instant often repeats a link, and
    # pairs that share a source or a target sit next to each other
    rng = random.Random(18)
    seen = set()
    for trial in range(60):
        s = stream_of(random_links(rng, rng.randint(2, 5), rng.randint(1, 40), t_max=6))
        rows = links_of(s)
        for t in range(s.interval[0], s.interval[1] + 1):
            assert activity(s, t) == oracles.activity(rows, t), (trial, t)
            at_t = [row for row in rows if row[0] == t]
            seen.add("repeat" if len(set(at_t)) < len(at_t) else "empty" if not at_t else "distinct")
    assert seen == {"repeat", "empty", "distinct"}


def test_rolling_sum_window_covering_span_random():
    rng = random.Random(9)
    for trial in range(20):
        s = stream_of(random_links(rng, rng.randint(2, 6), rng.randint(1, 40)))
        width = rng.randint(1, 5)
        series = activity_series(s, width)
        span = width * len(series)
        assert rolling_sum(series, width, span)[-1] == sum(series)


def test_induced_graph_idempotent_under_duplication():
    rng = random.Random(10)
    links = random_links(rng, 6, 25)
    g1 = induced_graph(stream_of(links))
    g2 = induced_graph(stream_of(links + [links[0]]))
    assert edge_set(oracles.directed_edges(g1)) == edge_set(oracles.directed_edges(g2))


def random_graph_stream(rng: random.Random) -> LinkStream:
    """Links over dense, scattered or ~2^62 handles, some of them isolated:
    none, one, a few or many (dense), with repeated and reciprocal pairs."""
    n = rng.randint(1, 25)
    style = rng.randrange(3)
    if style == 0:
        nodes = list(range(n))
    elif style == 1:
        nodes = rng.sample(range(50 * n), n)
    else:
        nodes = rng.sample(range(2**62, 2**62 + 2**40), n)
    m = rng.choice((0, 1, rng.randint(2, 3 * n), rng.randint(2, 2 * n * n))) if n > 1 else 0
    rows = []
    for _ in range(m):
        u, v = rng.sample(nodes, 2)
        rows.append((rng.randint(0, 50), u, v))
        if rng.random() < 0.2:
            rows.append((rng.randint(0, 50), v, u))
    t, src, dst = zip(*rows) if rows else ((), (), ())
    return stream_from_columns(t, src, dst, interval=(0, 50), nodes=nodes)


def test_induced_graph_is_a_view_of_the_pair_index():
    rng = random.Random(2026)
    seen = set()
    for trial in range(600):
        s = random_graph_stream(rng)
        g, ref = induced_graph(s), oracles.induced_graph(s)
        directed, undirected = oracles.directed_edges(g), g.undirected_edges()
        assert g.nodes is s.nodes
        for rows in (directed, undirected):
            assert rows.dtype == np.int64 and rows.shape == (len(rows), 2)
        assert edge_set(directed) == ref.directed_edges
        assert edge_set(undirected) == ref.undirected_edges()
        # ascending rows, as the null model's swaps need them for their random draws
        assert directed.tolist() == [list(e) for e in sorted(ref.directed_edges)]
        assert undirected.tolist() == [list(e) for e in sorted(ref.undirected_edges())]

        # one numbering: a node's place in the sorted node set, isolated
        # nodes included
        nodes = sorted(s.nodes)
        degree = Counter(chain.from_iterable(ref.undirected_edges()))
        order = sorted(nodes, key=lambda n: (degree[n], n))
        rank = {n: i for i, n in enumerate(order)}
        offsets, others = g.neighbors
        assert g.nodes.tolist() == nodes
        for a in (g.nodes, *g.ends, g.degree, g.rank, offsets, others):
            assert a.dtype == np.int64
        assert [[nodes[a], nodes[b]] for a, b in zip(*g.ends)] == undirected.tolist()
        assert g.degree.tolist() == [degree[n] for n in nodes]
        assert g.rank.tolist() == [rank[n] for n in nodes]
        # the CSR slices list each node's neighbors ascending
        adj = {n: set() for n in nodes}
        for u, v in ref.undirected_edges():
            adj[u].add(v)
            adj[v].add(u)
        slices = [others[offsets[i] : offsets[i + 1]].tolist() for i in range(len(nodes))]
        assert [[nodes[p] for p in nbrs] for nbrs in slices] == [sorted(adj[n]) for n in nodes]

        seen.add(min(s.link_count, 2))
        seen.add("isolated" if len(degree) < len(s.nodes) else "covered")
        seen.add("reciprocal" if len(directed) > len(undirected) else "one-way")
        seen.add("2^62" if s.link_count and s.src.min() >= 2**62 else "small")
        seen.add("dense" if len(undirected) * 2 > len(s.nodes) ** 2 * 0.6 else "sparse")
    assert seen == {
        0, 1, 2, "isolated", "covered", "reciprocal", "one-way", "2^62", "small",
        "dense", "sparse",
    }


def test_edge_count_bound_random():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(2, 8)
        s = stream_of(random_links(rng, n, rng.randint(1, 100)))
        g = induced_graph(s)
        assert len(oracles.directed_edges(g)) <= min(s.link_count, n * (n - 1))
