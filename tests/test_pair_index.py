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
from ls_ledger import stream_core
from ls_ledger.interplay import (
    MatchCategory,
    TxCategory,
    certification_fraction_by_k,
    classify_transactions,
    match_certifications,
    new_transaction_cert_delays,
    pair_transaction_counts,
    preceding_transaction_counts,
    relation_ratio_table,
    relation_sets,
)
from ls_ledger.stream_core import Link, build_stream
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
    links = [Link(base + rng.randint(0, t_max), *rng.sample(handles, 2)) for _ in range(n_links)]
    return build_stream(links, interval=(base, base + t_max))


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
    empty = build_stream([], interval=(0, 5))
    one = build_stream([Link(3, 0, 1)])
    two_node = build_stream([Link(2, 1, 0), Link(2, 0, 1), Link(2, 0, 1), Link(4, 1, 0)])
    late = build_stream([Link(T_LIMIT, 1, 0), Link(T_LIMIT, 0, 1)])
    streams = (empty, one, two_node, late)
    return [(a, b) for a in streams for b in streams]


CASES = random_cases() + edge_cases()


def as_minus_one(lookbacks):
    return [-1 if b is None else b for b in lookbacks]


def pairs_of(idx):
    return list(zip(idx.u.tolist(), idx.v.tolist()))


def values_of(enum_cls, codes):
    return [list(enum_cls)[c].value for c in codes.tolist()]


def or_none(values, defined):
    return [v if ok else None for v, ok in zip(values.tolist(), defined.tolist())]


@pytest.mark.parametrize("directed", [True, False])
def test_index_groups_links_by_pair(directed):
    for cert, tx in CASES:
        for s in (cert, tx):
            idx = s.directed_pairs if directed else s.pairs
            expected = oracles.pair_times(s) if directed else oracles.pair_event_times(s)
            pairs = list(zip(idx.u.tolist(), idx.v.tolist()))
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
        idx = tx.directed_pairs if directed else tx.pairs
        times = oracles.pair_times(tx) if directed else oracles.pair_event_times(tx)
        ends = sorted({*tx.nodes.tolist(), *cert.nodes.tolist(), 0, 2**62 + 5})
        us = [rng.choice(ends) for _ in range(30)]
        vs = [rng.choice(ends) for _ in range(30)]
        probes = (0, 1, 5, 39, T_LIMIT - 1, T_LIMIT, *tx.t.tolist()[:3])
        ts = [rng.choice(probes) for _ in range(30)]
        seg = idx.find(us, vs)
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
                assert (idx.u[j], idx.v[j]) == key
                i = bisect_right(ts_pair, t) if inclusive else bisect_left(ts_pair, t)
                assert latest == (ts_pair[i - 1] if i else -1)


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
    for cert, tx in CASES:
        report = match_certifications(cert, tx)
        rows, both_sided = oracles.match_certifications(cert, tx)
        cert_pairs = pairs_of(cert.pairs)
        defined = report.category != list(MatchCategory).index(MatchCategory.NEVER)
        got = zip(
            cert_pairs,
            report.anchor.tolist(),
            values_of(MatchCategory, report.category),
            or_none(report.delay, defined),
        )
        assert list(got) == rows
        assert report.both_sided == both_sided
        n = len(rows)
        for cat, share in report.fractions.items():
            assert share == (sum(r[2] == cat.value for r in rows) / n if n else 0.0)

        expected = oracles.preceding_transaction_counts(cert, tx)
        got = zip(report.anchor.tolist(), preceding_transaction_counts(cert, tx).tolist())
        assert list(zip(cert_pairs, got)) == list(expected.items())

        classes = classify_transactions(tx, cert)
        assert values_of(TxCategory, classes.categories) == oracles.classify_transactions(tx, cert)

        delays = new_transaction_cert_delays(tx, cert)
        rows, unmatched = oracles.new_transaction_cert_delays(tx, cert)
        got = zip(pairs_of(tx.pairs), delays.first_tx.tolist(), or_none(delays.delay, delays.certified))
        assert list(got) == rows
        assert delays.unmatched == unmatched

        for s in (cert, tx):
            rel = relation_sets(s)
            pairs = pairs_of(rel.pairs)
            bi = set(compress(pairs, rel.bi.tolist()))
            assert (set(pairs), set(pairs) - bi, bi) == oracles.relation_sets(s)
            counts = {p: len(ts) for p, ts in oracles.pair_event_times(s).items()}
            assert dict(zip(pairs, pair_transaction_counts(s).tolist())) == counts

        cert_rel, tx_rel = relation_sets(cert), relation_sets(tx)
        cert_sets, tx_sets = oracles.relation_sets(cert), oracles.relation_sets(tx)
        for n_members in (0, 1, len({*cert.nodes.tolist(), *tx.nodes.tolist()})):
            for ordered in (False, True):
                table = relation_ratio_table(cert_rel, tx_rel, n_members, ordered_pairs=ordered)
                got = [(c.label, c.numerator, c.denominator, c.value) for c in table.cells]
                assert got == oracles.relation_ratio_table(cert_sets, tx_sets, n_members, ordered)
        tau = {p: len(ts) for p, ts in oracles.pair_event_times(tx).items()}
        rows = certification_fraction_by_k(pair_transaction_counts(tx), tx_rel, cert_rel)
        got = [(r.k, r.n_pairs, r.frac_any, r.frac_bi) for r in rows]
        assert got == oracles.certification_fraction_by_k(tau, cert_sets)


def test_tie_rules_at_one_instant():
    # 2-closure: a reverse link at the same instant closes at look-back 0
    s = build_stream([Link(7, 0, 1), Link(7, 1, 0)])
    assert closure_distribution(s, k=2).results.tolist() == [0, 0]
    # 3-closure: simultaneous supports do not close a cycle
    s = build_stream([Link(7, 1, 2), Link(7, 2, 0), Link(7, 0, 1)])
    assert closure_distribution(s, k=3).results.tolist() == [-1, -1, -1]
    # match: a transaction at the anchor is before it; equal distances
    # resolve to the earlier transaction
    cert = build_stream([Link(10, 0, 1), Link(10, 2, 3)])
    tx = build_stream([Link(10, 1, 0), Link(8, 2, 3), Link(12, 3, 2)])
    report = match_certifications(cert, tx)
    assert values_of(MatchCategory, report.category) == ["before", "before"]
    assert report.delay.tolist() == [0, -2]
