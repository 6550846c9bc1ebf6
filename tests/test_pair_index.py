"""The per-pair time index and the kernels that read it, against the
dict-of-lists references in ``oracles``.

The streams are small and dense in time, so many links share an instant,
pairs repeat and most pairs run both ways. The tie rules then decide many
values: a reverse link at the same instant closes a 2-closure, 3-closure
supports must be strictly earlier, a transaction at the anchor counts as
before it, and of two equally close events the earlier wins. Handles and
times also come near 2^62 and 2^63 - 1, where a composite key of raw
values would overflow int64. Every comparison is exact.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import compress

import numpy as np
import pytest

import oracles
from oracles import over_one_node_set, pair_handles, stream_of
from ls_ledger import stream_core
from ls_ledger.interplay import (
    MATCH_CATEGORIES,
    RATIO_CELLS,
    TX_CATEGORIES,
    certification_fraction_by_k,
    classify_transactions,
    match_certifications,
    new_transaction_cert_delays,
    pair_transaction_counts,
    preceding_transaction_counts,
    relation_ratio_table,
    relation_sets,
)
from ls_ledger.temporal_metrics import closure_distribution

TRIALS = 300
T_LIMIT = 2**63 - 1


def handles_for(rng: random.Random, n: int) -> list[int]:
    """n distinct node handles: dense, scattered, or near 2^62."""
    style = rng.randrange(3)
    if style == 0:
        return list(range(n))
    if style == 1:
        return rng.sample(range(10 * n + 5), n)
    return [2**62 + 977 * i for i in range(n)]


def random_stream(rng, handles, n_links, t_max, base=0):
    links = [(base + rng.randint(0, t_max), *rng.sample(handles, 2)) for _ in range(n_links)]
    return stream_of(links, interval=(base, base + t_max))


def random_cases():
    """(cert, tx) stream pairs over one handle set, seeded."""
    rng = random.Random(60)
    cases = []
    for _ in range(TRIALS):
        handles = handles_for(rng, rng.randint(2, 7))
        t_max = rng.choice((0, 1, 3, 8, 40))
        base = rng.choice((0, 0, T_LIMIT - t_max))
        cert = random_stream(rng, handles, rng.randint(0, 40), t_max, base)
        tx = random_stream(rng, handles, rng.randint(0, 60), t_max, base)
        cases.append((cert, tx))
    return cases


def edge_cases():
    """Empty, one-link and two-node streams, paired every way."""
    empty = stream_of([], interval=(0, 5))
    one = stream_of([(3, 0, 1)])
    two_node = stream_of([(2, 1, 0), (2, 0, 1), (2, 0, 1), (4, 1, 0)])
    late = stream_of([(T_LIMIT, 1, 0), (T_LIMIT, 0, 1)])
    streams = (empty, one, two_node, late)
    return [(a, b) for a in streams for b in streams]


CASES = random_cases() + edge_cases()


def as_minus_one(lookbacks):
    return [-1 if b is None else b for b in lookbacks]


def values_of(labels, codes):
    return [labels[c] for c in codes.tolist()]


def or_none(values, defined):
    return [v if ok else None for v, ok in zip(values.tolist(), defined.tolist())]


@pytest.mark.parametrize("directed", [True, False])
def test_index_groups_links_by_pair(directed):
    for cert, tx in CASES:
        for s in (cert, tx):
            idx = s.directed_pairs if directed else s.pairs
            expected = oracles.pair_times(s) if directed else oracles.pair_event_times(s)
            pairs = pair_handles(idx)
            assert pairs == sorted(expected)
            got = {
                pair: idx.times[idx.starts[j] : idx.starts[j + 1]].tolist()
                for j, pair in enumerate(pairs)
            }
            assert got == expected
            assert idx.times.tolist() == s.t[idx.positions].tolist()
            sizes = np.diff(idx.starts)
            grouped = np.repeat(np.arange(len(sizes)), sizes)
            assert idx.segment[idx.positions].tolist() == grouped.tolist()
            assert (s.directed_pairs if directed else s.pairs) is idx  # built once


@pytest.mark.parametrize("directed", [True, False])
def test_find_and_latest_equal_bisect(directed):
    rng = random.Random(61)
    for cert, tx in CASES:
        cert, tx = over_one_node_set(cert, tx)
        idx = tx.directed_pairs if directed else tx.pairs
        times = oracles.pair_times(tx) if directed else oracles.pair_event_times(tx)
        ends = tx.nodes.tolist()
        if not ends:  # no pair to probe; test_find_pairs_equals_dict_lookup covers it
            continue
        us = [rng.choice(ends) for _ in range(30)]
        vs = [rng.choice(ends) for _ in range(30)]
        probes = (0, 1, 5, 39, T_LIMIT - 1, T_LIMIT, *tx.t.tolist()[:3])
        ts = [rng.choice(probes) for _ in range(30)]
        # a pair's ranks are its ends' places in the node set
        ru, rv = (np.searchsorted(idx.nodes, x) for x in (us, vs))
        if not directed:
            ru, rv = np.sort((ru, rv), axis=0)
        seg = idx.find_ranks(ru, rv)
        pairs = pair_handles(idx)
        for inclusive in (True, False):
            pos = idx.latest(seg, np.array(ts, dtype=np.int64), inclusive)
            got = idx.time_at(pos).tolist()
            for u, v, t, j, latest in zip(us, vs, ts, seg.tolist(), got):
                key = (u, v) if directed or u < v else (v, u)
                ts_pair = times.get(key)
                assert (j >= 0) == (ts_pair is not None)
                if ts_pair is None:
                    assert latest == -1
                    continue
                assert pairs[j] == key
                i = bisect_right(ts_pair, t) if inclusive else bisect_left(ts_pair, t)
                assert latest == (ts_pair[i - 1] if i else -1)


def test_find_pairs_equals_dict_lookup():
    nowhere = np.full(3, -1)
    for cert, tx in CASES:
        for a, b in (over_one_node_set(cert, tx), over_one_node_set(tx, cert)):
            for directed in (True, False):
                idx, other = (s.directed_pairs if directed else s.pairs for s in (a, b))
                segment = {pair: j for j, pair in enumerate(pair_handles(idx))}
                expected = [segment.get(pair, -1) for pair in pair_handles(other)]
                assert idx.find_pairs(other).tolist() == expected
                # a pair without links has no latest link, in an empty index too
                latest = idx.latest(nowhere, np.array([0, 5, T_LIMIT]), inclusive=True)
                assert latest.tolist() == [-1] * 3


def test_find_pairs_needs_one_kind_and_one_node_set():
    a = stream_of([(1, 0, 1)])
    # over {0, 2}, over {0, 1, 2} and over no node
    for b in (stream_of([(2, 0, 2)]), stream_of([(2, 1, 2), (3, 0, 1)]), stream_of([])):
        for kind in ("pairs", "directed_pairs"):
            with pytest.raises(ValueError, match="pair indexes of different"):
                getattr(a, kind).find_pairs(getattr(b, kind))
    a, b = over_one_node_set(a, stream_of([(2, 1, 2)]))
    for idx, other in ((a.pairs, b.directed_pairs), (a.directed_pairs, b.pairs)):
        with pytest.raises(ValueError, match="pair indexes of different"):
            idx.find_pairs(other)
    assert a.pairs.find_pairs(b.pairs).tolist() == [-1]
    assert b.directed_pairs.find_pairs(a.directed_pairs).tolist() == [-1]


@pytest.mark.parametrize("block", [1, 3, stream_core._BLOCK])
def test_closures_equal_reference(block, monkeypatch):
    monkeypatch.setattr(stream_core, "_BLOCK", block)
    for cert, tx in CASES[:: 1 if block == stream_core._BLOCK else 5]:
        for s in (cert, tx):
            for k in (2, 3):
                dist = closure_distribution(s, k=k)
                expected = oracles.closure_lookbacks(s, k)
                assert dist.results.tolist() == as_minus_one(expected), (k, oracles.links_of(s))
                assert dist.infinite_count == expected.count(None)


def test_closures_equal_brute_force_on_ties():
    rng = random.Random(62)
    for _ in range(60):
        handles = list(range(rng.randint(2, 5)))
        s = random_stream(rng, handles, rng.randint(1, 30), rng.choice((0, 2)))
        events = oracles.links_of(s)
        two = closure_distribution(s, k=2).results.tolist()
        three = closure_distribution(s, k=3).results.tolist()
        for i in range(len(events)):
            assert two[i] == as_minus_one([oracles.two_closure(events, i)])[0]
            assert three[i] == as_minus_one([oracles.three_closure(events, i)])[0]


def test_match_kernels_equal_reference():
    # streams over 0 or 1 member have no member pairs: rows 1-2 are NaN
    few = [over_one_node_set(stream_of([]), stream_of([]), nodes=range(n)) for n in (0, 1)]
    for cert, tx in CASES:
        cert, tx = over_one_node_set(cert, tx)
        anchor, category, delay, fractions, both_sided = match_certifications(cert, tx)
        rows, expected_both_sided = oracles.match_certifications(cert, tx)
        cert_pairs = pair_handles(cert.pairs)
        defined = category != MATCH_CATEGORIES.index("never")
        got = zip(
            cert_pairs,
            anchor.tolist(),
            values_of(MATCH_CATEGORIES, category),
            or_none(delay, defined),
        )
        assert list(got) == rows
        assert both_sided == expected_both_sided
        n = len(rows)
        for cat, share in zip(MATCH_CATEGORIES, fractions.tolist(), strict=True):
            assert share == (sum(r[2] == cat for r in rows) / n if n else 0.0)

        expected = oracles.preceding_transaction_counts(cert, tx)
        got = zip(anchor.tolist(), preceding_transaction_counts(cert, tx).tolist())
        assert list(zip(cert_pairs, got)) == list(expected.items())

        codes, _ = classify_transactions(tx, cert)
        assert values_of(TX_CATEGORIES, codes) == oracles.classify_transactions(tx, cert)

        first_tx, delay, certified, unmatched = new_transaction_cert_delays(tx, cert)
        rows, expected_unmatched = oracles.new_transaction_cert_delays(tx, cert)
        got = zip(pair_handles(tx.pairs), first_tx.tolist(), or_none(delay, certified))
        assert list(got) == rows
        assert unmatched == expected_unmatched

        for s in (cert, tx):
            pairs = pair_handles(s.pairs)
            bi = set(compress(pairs, relation_sets(s).tolist()))
            assert (set(pairs), set(pairs) - bi, bi) == oracles.relation_sets(s)
            counts = {p: len(ts) for p, ts in oracles.pair_event_times(s).items()}
            assert dict(zip(pairs, pair_transaction_counts(s).tolist())) == counts

        cert_sets, tx_sets = oracles.relation_sets(cert), oracles.relation_sets(tx)
        for c, t in (*few, (cert, tx)):
            c_sets, t_sets = oracles.relation_sets(c), oracles.relation_sets(t)
            for ordered in (False, True):
                num, den, value = relation_ratio_table(c, t, ordered_pairs=ordered)
                got = list(zip(RATIO_CELLS, num.tolist(), den.tolist(), or_none(value, den > 0)))
                assert np.isnan(value).tolist() == (den == 0).tolist()
                assert got == oracles.relation_ratio_table(c_sets, t_sets, len(c.nodes), ordered)
        tau = {p: len(ts) for p, ts in oracles.pair_event_times(tx).items()}
        columns = certification_fraction_by_k(tx, cert)
        got = list(zip(*(c.tolist() for c in columns)))
        assert got == oracles.certification_fraction_by_k(tau, cert_sets)


def test_tie_rules_at_one_instant():
    # 2-closure: a reverse link at the same instant closes at look-back 0
    s = stream_of([(7, 0, 1), (7, 1, 0)])
    assert closure_distribution(s, k=2).results.tolist() == [0, 0]
    # 3-closure: simultaneous supports do not close a cycle
    s = stream_of([(7, 1, 2), (7, 2, 0), (7, 0, 1)])
    assert closure_distribution(s, k=3).results.tolist() == [-1, -1, -1]
    # match: a transaction at the anchor is before it; equal distances
    # resolve to the earlier transaction
    cert = stream_of([(10, 0, 1), (10, 2, 3)])
    tx = stream_of([(10, 1, 0), (8, 2, 3), (12, 3, 2)])
    _, category, delay, _, _ = match_certifications(cert, tx)
    assert values_of(MATCH_CATEGORIES, category) == ["before", "before"]
    assert delay.tolist() == [0, -2]
