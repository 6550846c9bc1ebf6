import math
import random
from itertools import compress

import pytest

from oracles import links_of, over_one_node_set, stream_of
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


def stream(*events, amounts=False):
    return stream_of([(*e, 1) if amounts else e for e in events], interval=(0, 1_000))


def value(table, label):
    """The value of the ratio cell labeled ``label``."""
    return dict(zip(RATIO_CELLS, table[2].tolist()))[label]


def pairs_of(idx):
    return list(zip(idx.u.tolist(), idx.v.tolist()))


def sets_of(rel):
    """The (any, uni, bi) sets of pairs that relation sets mark."""
    pairs = pairs_of(rel.pairs)
    bi = set(compress(pairs, rel.bi.tolist()))
    return set(pairs), set(pairs) - bi, bi


def categories(labels, codes):
    return [labels[c] for c in codes.tolist()]


def share(fractions, labels, label):
    """The fraction of the category ``label``."""
    return fractions[labels.index(label)]


def counts_stream(counts):
    """A transaction stream with ``k`` links for every pair -> k."""
    return stream(*[(t, u, v) for (u, v), k in counts.items() for t in range(k)], amounts=True)


def test_relation_sets_example():
    s = stream((0, 1, 2), (1, 2, 1), (2, 1, 3))
    rel = relation_sets(s)
    assert pairs_of(rel.pairs) == [(1, 2), (1, 3)]
    assert rel.bi.tolist() == [True, False]
    assert sets_of(rel) == ({(1, 2), (1, 3)}, {(1, 3)}, {(1, 2)})


def test_relation_sets_empty_and_single():
    empty = stream_of([], interval=(0, 10))
    rel = relation_sets(empty)
    assert len(rel.pairs.u) == len(rel.bi) == 0
    single = stream((5, 3, 4))
    rel = relation_sets(single)
    assert sets_of(rel) == ({(3, 4)}, {(3, 4)}, set())


def test_relation_sets_partition_property():
    rng = random.Random(41)
    for trial in range(50):
        n = rng.randint(2, 10)
        events = [
            (rng.randint(0, 50), *rng.sample(range(n), 2))
            for _ in range(rng.randint(1, 60))
        ]
        any_, uni, bi = sets_of(relation_sets(stream(*events)))
        assert uni | bi == any_
        assert not uni & bi


def test_ratio_table_example():
    certs, txs = map(
        relation_sets, over_one_node_set(stream((0, 1, 2), (1, 2, 1), (2, 1, 3)), stream((5, 1, 2)))
    )
    table = relation_ratio_table(certs, txs, n_members=3)
    assert value(table, "T_any&C_any/C_any") == pytest.approx(0.5)
    assert value(table, "C_any/pairs") == pytest.approx(2 / 3)
    assert value(table, "C_bi/pairs") == pytest.approx(1 / 3)
    assert value(table, "C_any&T_any/T_any") == pytest.approx(1.0)


def test_ratio_table_identical_streams_all_conditionals_one():
    s = stream((0, 1, 2), (1, 2, 1), (2, 1, 3), (3, 4, 1))
    rel = relation_sets(s)
    table = relation_ratio_table(rel, rel, n_members=5)
    assert table[2][6:].tolist() == pytest.approx([1.0] * 6)


def test_ratio_table_empty_denominator_marker():
    certs = relation_sets(stream((0, 1, 2)))  # no bidirectional pair
    txs = relation_sets(stream((0, 1, 2)))
    table = relation_ratio_table(certs, txs, n_members=2)
    assert math.isnan(value(table, "T_any&C_bi/C_bi"))
    assert dict(zip(RATIO_CELLS, table[1].tolist()))["T_any&C_bi/C_bi"] == 0
    assert value(table, "C_bi/pairs") == 0.0


def test_ratio_table_ordered_convention_halves_rows_1_2():
    rel = relation_sets(stream((0, 1, 2)))
    unordered = relation_ratio_table(rel, rel, n_members=4)
    ordered = relation_ratio_table(rel, rel, n_members=4, ordered_pairs=True)
    assert value(unordered, "C_any/pairs") == pytest.approx(1 / 6)
    assert value(ordered, "C_any/pairs") == pytest.approx(1 / 12)
    assert value(ordered, "T_any&C_any/C_any") == value(unordered, "T_any&C_any/C_any")


def test_pair_transaction_counts():
    s = stream((1, 5, 6), (2, 6, 5), (3, 5, 6), amounts=True)
    tau = pair_transaction_counts(s)
    assert pairs_of(s.pairs) == [(5, 6)] and tau.tolist() == [3]
    assert pair_transaction_counts(stream_of([], interval=(0, 1))).tolist() == []


def test_pair_counts_conservation():
    rng = random.Random(42)
    for trial in range(20):
        n = rng.randint(2, 8)
        events = [
            (rng.randint(0, 99), *rng.sample(range(n), 2))
            for _ in range(rng.randint(1, 70))
        ]
        s, certs = over_one_node_set(stream(*events, amounts=True), stream((0, 0, 1)))
        tau = pair_transaction_counts(s)
        assert sum(tau.tolist()) == s.link_count
        # grouping by exact count conserves links too
        k, n_pairs, _, _ = certification_fraction_by_k(
            tau, relation_sets(s), relation_sets(certs)
        )
        assert int((k * n_pairs).sum()) == s.link_count


def test_certification_fraction_by_k():
    certs, txs = over_one_node_set(stream((0, 1, 2)), counts_stream({(1, 2): 2, (3, 4): 2}))
    k, n_pairs, frac_any, frac_bi = certification_fraction_by_k(
        pair_transaction_counts(txs), relation_sets(txs), relation_sets(certs)
    )
    assert k.tolist() == [2] and n_pairs.tolist() == [2]
    assert frac_any.tolist() == pytest.approx([0.5])
    assert frac_bi.tolist() == [0.0]


def test_certification_fraction_all_certified():
    certs = relation_sets(stream((0, 1, 2), (0, 2, 1), (0, 3, 4), (0, 4, 3)))
    txs = counts_stream({(1, 2): 1, (3, 4): 5})
    _, _, frac_any, frac_bi = certification_fraction_by_k(
        pair_transaction_counts(txs), relation_sets(txs), certs
    )
    assert frac_any.tolist() == [1.0, 1.0]
    assert frac_bi.tolist() == [1.0, 1.0]


def test_fraction_by_k_bi_below_any():
    rng = random.Random(43)
    for trial in range(20):
        n = rng.randint(2, 8)
        cert_events = [
            (rng.randint(0, 99), *rng.sample(range(n), 2))
            for _ in range(rng.randint(1, 30))
        ]
        tx_events = [
            (rng.randint(0, 99), *rng.sample(range(n), 2))
            for _ in range(rng.randint(1, 50))
        ]
        certs, txs = over_one_node_set(stream(*cert_events), stream(*tx_events, amounts=True))
        tau = pair_transaction_counts(txs)
        _, _, frac_any, frac_bi = certification_fraction_by_k(
            tau, relation_sets(txs), relation_sets(certs)
        )
        assert (frac_bi <= frac_any + 1e-12).all()


def test_match_certifications_example():
    certs = stream((10, 7, 8))
    txs = stream((8, 7, 8), (15, 8, 7), amounts=True)
    anchor, category, delay, _, both_sided = match_certifications(certs, txs)
    assert categories(MATCH_CATEGORIES, category) == ["before"]
    assert delay.tolist() == [-2]
    assert anchor.tolist() == [10]
    assert both_sided == 1


def test_match_certifications_no_transactions():
    certs, txs = over_one_node_set(stream((10, 7, 8), (11, 2, 3)), stream_of([], interval=(0, 1)))
    _, category, _, fractions, _ = match_certifications(certs, txs)
    assert categories(MATCH_CATEGORIES, category) == ["never"] * 2
    assert share(fractions, MATCH_CATEGORIES, "never") == 1.0


def test_match_fractions_sum_to_one():
    rng = random.Random(44)
    for trial in range(20):
        n = rng.randint(2, 8)
        certs = stream(
            *[(rng.randint(0, 99), *rng.sample(range(n), 2)) for _ in range(rng.randint(1, 30))]
        )
        txs = stream(
            *[(rng.randint(0, 99), *rng.sample(range(n), 2)) for _ in range(rng.randint(0, 40))],
            amounts=True,
        ) if rng.random() < 0.9 else stream_of([], interval=(0, 99))
        certs, txs = over_one_node_set(certs, txs)
        anchor, category, _, fractions, _ = match_certifications(certs, txs)
        assert len(fractions) == len(MATCH_CATEGORIES)
        assert fractions.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(anchor) == len(category) == len(relation_sets(certs).bi)


def test_match_is_label_order_invariant():
    certs_a = stream((10, 1, 2), (12, 1, 2))
    certs_b = stream((10, 2, 1), (12, 2, 1))
    txs = stream((8, 2, 1), (13, 1, 2), amounts=True)
    ra = match_certifications(certs_a, txs)
    rb = match_certifications(certs_b, txs)
    assert pairs_of(certs_a.pairs) == pairs_of(certs_b.pairs)
    for a, b in zip(ra[:3], rb[:3]):  # anchor, category, delay
        assert a.tolist() == b.tolist()


def test_match_tie_breaks_toward_earlier():
    certs = stream((10, 1, 2))
    txs = stream((8, 1, 2), (12, 1, 2), amounts=True)  # both 2 away
    _, _, delay, _, _ = match_certifications(certs, txs)
    assert delay.tolist() == [-2]


def test_preceding_transaction_count():
    txs = stream((3, 1, 2), (8, 2, 1), (12, 1, 2), amounts=True)
    assert preceding_transaction_counts(stream((10, 1, 2)), txs).tolist() == [2]
    # strict: the transaction at the anchor time does not count
    assert preceding_transaction_counts(stream((3, 2, 1)), txs).tolist() == [0]
    certs, txs = over_one_node_set(stream((10, 4, 5)), txs)
    assert preceding_transaction_counts(certs, txs).tolist() == [0]


def test_preceding_transaction_counts_bulk():
    certs = stream((10, 1, 2), (20, 3, 4))
    txs = stream((3, 1, 2), (8, 2, 1), (25, 3, 4), amounts=True)
    bulk = preceding_transaction_counts(certs, txs)
    assert pairs_of(certs.pairs) == [(1, 2), (3, 4)]
    assert bulk.tolist() == [2, 0]


def test_classify_transactions_example():
    certs, txs = over_one_node_set(
        stream((10, 1, 2)), stream((5, 1, 2), (10, 2, 1), (11, 1, 2), (3, 4, 5), amounts=True)
    )
    codes, fractions = classify_transactions(txs, certs)
    cats = dict(zip(links_of(txs), categories(TX_CATEGORIES, codes)))
    assert cats[(5, 1, 2)] == "future_certified"
    assert cats[(10, 2, 1)] == "already_certified"  # simultaneous counts
    assert cats[(11, 1, 2)] == "already_certified"
    assert cats[(3, 4, 5)] == "never"
    assert fractions.tolist() == [0.5, 0.25, 0.25]


def test_classify_transactions_no_certs():
    txs, certs = over_one_node_set(stream((5, 1, 2), amounts=True), stream_of([], interval=(0, 9)))
    _, fractions = classify_transactions(txs, certs)
    assert share(fractions, TX_CATEGORIES, "never") == 1.0


def test_classify_transactions_all_after_certs():
    # every transaction strictly later than every certification: certified
    # pairs can only be already_certified
    certs, txs = over_one_node_set(
        stream((1, 1, 2), (2, 3, 4)), stream((10, 2, 1), (11, 3, 4), (12, 5, 6), amounts=True)
    )
    _, fractions = classify_transactions(txs, certs)
    assert share(fractions, TX_CATEGORIES, "future_certified") == 0.0


def test_new_transaction_cert_delays_example():
    txs = stream((100, 1, 2), amounts=True)
    certs = stream((90, 1, 2), (300, 2, 1))
    first_tx, delay, certified, unmatched = new_transaction_cert_delays(txs, certs)
    assert first_tx.tolist() == [100] and delay.tolist() == [-10]
    assert certified.tolist() == [True]
    assert unmatched == 0


def test_new_transaction_cert_delays_unmatched():
    txs, certs = over_one_node_set(
        stream((100, 1, 2), (50, 3, 4), amounts=True), stream((90, 1, 2))
    )
    _, delay, certified, unmatched = new_transaction_cert_delays(txs, certs)
    assert unmatched == 1
    assert pairs_of(txs.pairs) == [(1, 2), (3, 4)]
    assert certified.tolist() == [True, False]
    assert delay[0] == -10
