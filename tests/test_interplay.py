import random

import pytest

from ls_ledger.errors import ClassificationError
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
from ls_ledger.stream_core import Link, NodeClassification, build_stream


def stream(*events, amounts=False):
    return build_stream(
        [Link(t, u, v, amount=1 if amounts else None) for t, u, v in events],
        interval=(0, 1_000),
    )


def value(table, label):
    """The value of the ratio cell labeled ``label``."""
    return {cell.label: cell.value for cell in table.cells}[label]


def test_relation_sets_example():
    s = stream((0, 1, 2), (1, 2, 1), (2, 1, 3))
    rel = relation_sets(s)
    assert rel.any == {(1, 2), (1, 3)}
    assert rel.bi == {(1, 2)}
    assert rel.uni == {(1, 3)}


def test_relation_sets_empty_and_single():
    empty = build_stream([], interval=(0, 10))
    rel = relation_sets(empty)
    assert not rel.any and not rel.uni and not rel.bi
    single = stream((5, 3, 4))
    rel = relation_sets(single)
    assert rel.any == rel.uni == {(3, 4)} and not rel.bi


def test_relation_sets_rejects_non_member():
    s = stream((0, 1, 2))
    cls = NodeClassification(members=frozenset({1}), anonymous=frozenset({2}))
    with pytest.raises(ClassificationError):
        relation_sets(s, cls)


def test_relation_sets_partition_property():
    rng = random.Random(41)
    for trial in range(50):
        n = rng.randint(2, 10)
        events = [
            (rng.randint(0, 50), *rng.sample(range(n), 2))
            for _ in range(rng.randint(1, 60))
        ]
        rel = relation_sets(stream(*events))
        assert rel.uni | rel.bi == rel.any
        assert not rel.uni & rel.bi


def test_ratio_table_example():
    certs = relation_sets(stream((0, 1, 2), (1, 2, 1), (2, 1, 3)))
    txs = relation_sets(stream((5, 1, 2)))
    table = relation_ratio_table(certs, txs, n_members=3)
    assert value(table, "T_any&C_any/C_any") == pytest.approx(0.5)
    assert value(table, "C_any/pairs") == pytest.approx(2 / 3)
    assert value(table, "C_bi/pairs") == pytest.approx(1 / 3)
    assert value(table, "C_any&T_any/T_any") == pytest.approx(1.0)


def test_ratio_table_identical_streams_all_conditionals_one():
    s = stream((0, 1, 2), (1, 2, 1), (2, 1, 3), (3, 4, 1))
    rel = relation_sets(s)
    table = relation_ratio_table(rel, rel, n_members=5)
    for cell in table.cells[6:]:
        assert cell.value == pytest.approx(1.0)


def test_ratio_table_empty_denominator_marker():
    certs = relation_sets(stream((0, 1, 2)))  # no bidirectional pair
    txs = relation_sets(stream((0, 1, 2)))
    table = relation_ratio_table(certs, txs, n_members=2)
    assert value(table, "T_any&C_bi/C_bi") is None
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
    assert tau == {(5, 6): 3}
    assert pair_transaction_counts(build_stream([], interval=(0, 1))) == {}


def test_pair_counts_conservation():
    rng = random.Random(42)
    for trial in range(20):
        n = rng.randint(2, 8)
        events = [
            (rng.randint(0, 99), *rng.sample(range(n), 2))
            for _ in range(rng.randint(1, 70))
        ]
        s = stream(*events, amounts=True)
        tau = pair_transaction_counts(s)
        assert sum(tau.values()) == s.link_count
        # grouping by exact count conserves links too
        rows = certification_fraction_by_k(tau, relation_sets(stream((0, 0, 1))))
        assert sum(r.k * r.n_pairs for r in rows) == s.link_count


def test_certification_fraction_by_k():
    certs = relation_sets(stream((0, 1, 2)))
    tau = {(1, 2): 2, (3, 4): 2}
    rows = certification_fraction_by_k(tau, certs)
    assert len(rows) == 1
    assert rows[0].k == 2 and rows[0].n_pairs == 2
    assert rows[0].frac_any == pytest.approx(0.5)
    assert rows[0].frac_bi == 0.0


def test_certification_fraction_all_certified():
    certs = relation_sets(stream((0, 1, 2), (0, 2, 1), (0, 3, 4), (0, 4, 3)))
    tau = {(1, 2): 1, (3, 4): 5}
    rows = certification_fraction_by_k(tau, certs)
    assert [r.frac_any for r in rows] == [1.0, 1.0]
    assert [r.frac_bi for r in rows] == [1.0, 1.0]


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
        certs = relation_sets(stream(*cert_events))
        tau = pair_transaction_counts(stream(*tx_events, amounts=True))
        for row in certification_fraction_by_k(tau, certs):
            assert row.frac_bi <= row.frac_any + 1e-12


def test_match_certifications_example():
    certs = stream((10, 7, 8))
    txs = stream((8, 7, 8), (15, 8, 7), amounts=True)
    report = match_certifications(certs, txs)
    (outcome,) = report.outcomes
    assert outcome.category is MatchCategory.BEFORE
    assert outcome.delay == -2
    assert outcome.anchor == 10
    assert report.both_sided == 1


def test_match_certifications_no_transactions():
    certs = stream((10, 7, 8), (11, 2, 3))
    report = match_certifications(certs, build_stream([], interval=(0, 1)))
    assert all(o.category is MatchCategory.NEVER for o in report.outcomes)
    assert report.fractions[MatchCategory.NEVER] == 1.0


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
        ) if rng.random() < 0.9 else build_stream([], interval=(0, 99))
        report = match_certifications(certs, txs)
        assert sum(report.fractions.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(report.outcomes) == len(relation_sets(certs).any)


def test_match_is_label_order_invariant():
    certs_a = stream((10, 1, 2), (12, 1, 2))
    certs_b = stream((10, 2, 1), (12, 2, 1))
    txs = stream((8, 2, 1), (13, 1, 2), amounts=True)
    ra = match_certifications(certs_a, txs)
    rb = match_certifications(certs_b, txs)
    assert [(o.pair, o.anchor, o.category, o.delay) for o in ra.outcomes] == [
        (o.pair, o.anchor, o.category, o.delay) for o in rb.outcomes
    ]


def test_match_tie_breaks_toward_earlier():
    certs = stream((10, 1, 2))
    txs = stream((8, 1, 2), (12, 1, 2), amounts=True)  # both 2 away
    (outcome,) = match_certifications(certs, txs).outcomes
    assert outcome.delay == -2


def test_preceding_transaction_count():
    txs = stream((3, 1, 2), (8, 2, 1), (12, 1, 2), amounts=True)
    assert preceding_transaction_counts(stream((10, 1, 2)), txs) == {(1, 2): (10, 2)}
    # strict: the transaction at the anchor time does not count
    assert preceding_transaction_counts(stream((3, 2, 1)), txs) == {(1, 2): (3, 0)}
    assert preceding_transaction_counts(stream((10, 4, 5)), txs) == {(4, 5): (10, 0)}


def test_preceding_transaction_counts_bulk():
    certs = stream((10, 1, 2), (20, 3, 4))
    txs = stream((3, 1, 2), (8, 2, 1), (25, 3, 4), amounts=True)
    bulk = preceding_transaction_counts(certs, txs)
    assert bulk == {(1, 2): (10, 2), (3, 4): (20, 0)}


def test_classify_transactions_example():
    certs = stream((10, 1, 2))
    txs = stream((5, 1, 2), (10, 2, 1), (11, 1, 2), (3, 4, 5), amounts=True)
    report = classify_transactions(txs, certs)
    cats = dict(zip([(ln.t, ln.source, ln.target) for ln in txs.links], report.categories))
    assert cats[(5, 1, 2)] is TxCategory.FUTURE_CERTIFIED
    assert cats[(10, 2, 1)] is TxCategory.ALREADY_CERTIFIED  # simultaneous counts
    assert cats[(11, 1, 2)] is TxCategory.ALREADY_CERTIFIED
    assert cats[(3, 4, 5)] is TxCategory.NEVER
    assert sum(report.fractions.values()) == pytest.approx(1.0, abs=1e-12)


def test_classify_transactions_no_certs():
    txs = stream((5, 1, 2), amounts=True)
    report = classify_transactions(txs, build_stream([], interval=(0, 9)))
    assert report.fractions[TxCategory.NEVER] == 1.0


def test_classify_transactions_all_after_certs():
    # every transaction strictly later than every certification: certified
    # pairs can only be already_certified
    certs = stream((1, 1, 2), (2, 3, 4))
    txs = stream((10, 2, 1), (11, 3, 4), (12, 5, 6), amounts=True)
    report = classify_transactions(txs, certs)
    assert report.fractions[TxCategory.FUTURE_CERTIFIED] == 0.0


def test_new_transaction_cert_delays_example():
    txs = stream((100, 1, 2), amounts=True)
    certs = stream((90, 1, 2), (300, 2, 1))
    report = new_transaction_cert_delays(txs, certs)
    (row,) = report.delays
    assert row.first_tx == 100 and row.delay == -10
    assert report.unmatched == 0


def test_new_transaction_cert_delays_unmatched():
    txs = stream((100, 1, 2), (50, 3, 4), amounts=True)
    certs = stream((90, 1, 2))
    report = new_transaction_cert_delays(txs, certs)
    assert report.unmatched == 1
    by_pair = {r.pair: r.delay for r in report.delays}
    assert by_pair[(3, 4)] is None and by_pair[(1, 2)] == -10
