"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured runtime (visible under ``pytest -s`` or ``-rP``).

Criterion 7 needs a real ledger dump; point LS_LEDGER_DATASET at the
line-delimited record file and LS_LEDGER_REMUNITER at the donation wallet
key to enable it. Without the dump, the seeded property suites (criteria
1-6) stand in for it, and the test reports a skip.
"""

import hashlib
import os
import random
import time
from itertools import combinations, compress

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from oracles import example_stream, random_links, rewired_samples, stream_of
from ls_ledger import graph_metrics, interplay, ledger_ingest, stream_core
from ls_ledger.cli import main
from ls_ledger.fixtures import example_records, format_record, random_records, write_records
from ls_ledger.stream_core import SUBSTREAM_LABELS, induced_graph, substream_by_class
from ls_ledger.temporal_metrics import closure_distribution


def value(table, label):
    """The value of the ratio cell labeled ``label``."""
    return dict(zip(interplay.RATIO_CELLS, table[2].tolist()))[label]


def _or_minus_one(lookback):
    return -1 if lookback is None else lookback


def _report(criterion: int, message: str, started: float):
    print(f"CRITERION {criterion}: PASS ({message}; {time.perf_counter() - started:.2f}s)")


def test_criterion_1_fixture_exactness():
    started = time.perf_counter()
    s, keys = example_stream()
    a, b = keys.index("a"), keys.index("b")

    assert stream_core.activity(s, 5) == 3
    assert len(induced_graph(s).directed_edges()) == 9
    (i,) = [i for i, row in enumerate(oracles.links_of(s)) if row == (6, a, b)]
    assert closure_distribution(s, k=2).results[i] == 4
    assert closure_distribution(s, k=3).results[i] == 5

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "12-link fixture: activity, induced edges, 2-/3-closure", started)


def test_criterion_2_closure_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20_000)
    checked_links = 0
    for trial in range(200):
        n_nodes = rng.randint(2, 10)
        # full 200-link streams for a handful of trials, smaller elsewhere
        n_links = 200 if trial % 40 == 0 else rng.randint(1, 100)
        s = stream_of(random_links(rng, n_nodes, n_links, t_max=120))
        events = oracles.links_of(s)
        d2 = closure_distribution(s, k=2).results.tolist()
        d3 = closure_distribution(s, k=3).results.tolist()
        for i in range(len(events)):  # -1 marks an infinite closure, None in the oracles
            assert d2[i] == _or_minus_one(oracles.two_closure(events, i))
            assert d3[i] == _or_minus_one(oracles.three_closure(events, i))
        checked_links += len(events)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(2, f"200 random streams, {checked_links} links vs brute force", started)


def test_criterion_3_triangle_clustering_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(30_000)
    for trial in range(100):
        n = rng.randint(3, 50)
        p = rng.uniform(0.02, 0.35)
        edges = frozenset(
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
        )
        g = oracles.graph_of(range(n), edges)
        und = oracles.undirected_edge_set(edges)

        coefficients, _, _, triangles = graph_metrics.clustering(g)
        assert triangles == oracles.triangle_count(g.nodes, und)

        coefficient = dict(zip(g.nodes.tolist(), coefficients.tolist()))
        adj = oracles.adjacency(g)
        for node in g.nodes:
            k = len(adj[node])
            tri = oracles.triangles_through(node, g.nodes, und)
            expected = 2 * tri / (k * (k - 1)) if k >= 2 else 0.0
            assert coefficient[node] == pytest.approx(expected, abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, "100 random graphs vs full C(n,3) enumeration", started)


def _all_fixtures():
    yield example_records()
    for seed in (101, 202, 303, 404, 505):
        yield random_records(seed, n_members=7, n_anonymous=4, n_certs=25, n_txs=80)


def test_criterion_4_partition_and_conservation():
    started = time.perf_counter()
    for records in _all_fixtures():
        identities, certs, txs, _ = ledger_ingest.parse_records(map(format_record, records))
        keys, members = ledger_ingest.classify_keys(identities, txs)
        cert_stream, tx_stream = ledger_ingest.build_streams(certs, txs, keys, members)

        subs = {label: substream_by_class(tx_stream, members, label) for label in SUBSTREAM_LABELS}
        assert sum(s.link_count for s in subs.values()) == tx_stream.link_count

        _, count_share, _, amount_share = ledger_ingest.repartition(tx_stream, members)
        assert abs(count_share.sum() - 1.0) <= 1e-9
        assert abs(amount_share.sum() - 1.0) <= 1e-9

        tx_mm = subs["MM"]
        tau = interplay.pair_transaction_counts(tx_mm)
        assert sum(tau.tolist()) == tx_mm.link_count
        k, n_pairs, _, _ = interplay.certification_fraction_by_k(
            tau, interplay.relation_sets(tx_mm), interplay.relation_sets(cert_stream)
        )
        assert int((k * n_pairs).sum()) == tx_mm.link_count
    _report(4, "partition + conservation on all bundled fixtures", started)


def test_criterion_5_relation_set_algebra():
    started = time.perf_counter()
    rng = random.Random(50_000)
    for trial in range(500):
        n = rng.randint(3, 12)
        events = [
            (rng.randint(0, 200), *rng.sample(range(n), 2))
            for _ in range(rng.randint(1, 50))
        ]
        # force one bidirectional and one single-direction pair so every
        # conditional denominator below is populated
        events += [(0, 0, 1), (1, 1, 0), (2, n, n + 1)]
        s = stream_of(events)
        rel = interplay.relation_sets(s)

        pairs = list(zip(rel.pairs.u.tolist(), rel.pairs.v.tolist()))
        any_, uni, bi = oracles.relation_sets(s)
        assert pairs == sorted(any_)
        assert set(compress(pairs, rel.bi.tolist())) == bi
        assert set(compress(pairs, (~rel.bi).tolist())) == uni

        _, denominator, ratio = interplay.relation_ratio_table(rel, rel, n_members=n + 2)
        assert (denominator[6:] > 0).all()
        assert ratio[6:].tolist() == pytest.approx([1.0] * 6, abs=1e-12)
    _report(5, "500 random member streams: set algebra + C=T ratios", started)


def test_criterion_6_null_model_validity(tmp_path):
    started = time.perf_counter()
    rng = random.Random(60_000)
    for trial in range(10):
        n = rng.randint(5, 25)
        edges = frozenset(
            (u, v)
            for u, v in combinations(range(n), 2)
            if rng.random() < 0.3
        )
        if len(oracles.undirected_edge_set(edges)) < 2:
            continue
        g = oracles.graph_of(range(n), edges)
        base = g.undirected_edges().tolist()
        degree = _degree_of(base, n)
        for sample in rewired_samples(g, samples=20, seed=trial):
            assert _degree_of(sample, n) == degree
            assert len(set(sample)) == len(base)  # still simple

    # byte-identical null_model.csv for a fixed seed, across two full runs
    ledger = tmp_path / "ledger.jsonl"
    write_records(ledger, random_records(77, n_members=10, n_certs=60, n_txs=90))
    runner = CliRunner()
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert runner.invoke(
            main, ["ingest", "--input", str(ledger), "--out", str(out)]
        ).exit_code == 0
        assert runner.invoke(
            main, ["graph", "--out", str(out), "--seed", "5", "--samples", "40"]
        ).exit_code == 0
        digests.append(hashlib.sha256((out / "null_model.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    _report(6, "degree sequences preserved; null_model.csv byte-stable", started)


def _degree_of(edges, n):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


DATASET_ENV = "LS_LEDGER_DATASET"
REMUNITER_ENV = "LS_LEDGER_REMUNITER"

# reference values for the real dataset
TABLE1 = {
    "C_any/pairs": 0.008,
    "C_uni/pairs": 0.005,
    "C_bi/pairs": 0.003,
    "T_any/pairs": 0.004,
    "T_uni/pairs": 0.0039,
    "T_bi/pairs": 0.0008,
    "T_any&C_any/C_any": 0.318,
    "T_any&C_uni/C_uni": 0.271,
    "T_any&C_bi/C_bi": 0.389,
    "C_any&T_any/T_any": 0.535,
    "C_any&T_uni/T_uni": 0.497,
    "C_any&T_bi/T_bi": 0.715,
}


def test_criterion_7_dataset_conditional_reproduction():
    dump = os.environ.get(DATASET_ENV)
    if not dump:
        pytest.skip(
            f"no real ledger dump ({DATASET_ENV} unset); criteria 1-6 stand in"
        )
    started = time.perf_counter()
    remuniter = os.environ.get(REMUNITER_ENV)
    with open(dump, "r", encoding="utf-8") as fh:
        identities, certs, txs, _ = ledger_ingest.parse_records(fh)
    keys, members = ledger_ingest.classify_keys(identities, txs)
    cert_stream, tx_stream = ledger_ingest.build_streams(certs, txs, keys, members)
    tx_mm = substream_by_class(tx_stream, members, "MM")
    tx_aa = substream_by_class(tx_stream, members, "AA")

    # certification stream starts at the first certification, 2017-03-08 15:32:07
    assert cert_stream.interval[0] == 1488987127

    # relation ratio table
    cert_rel = interplay.relation_sets(cert_stream)
    tx_rel = interplay.relation_sets(tx_mm)
    table = interplay.relation_ratio_table(cert_rel, tx_rel, len(members))
    for label, expected in TABLE1.items():
        assert value(table, label) == pytest.approx(expected, abs=0.002), label

    # match fractions
    _, _, _, fractions, _ = interplay.match_certifications(cert_stream, tx_mm)
    match = dict(zip(interplay.MATCH_CATEGORIES, fractions.tolist()))
    assert match["never"] == pytest.approx(0.73, abs=0.02)
    assert match["before"] == pytest.approx(0.16, abs=0.02)
    assert match["after"] == pytest.approx(0.11, abs=0.02)

    # transaction classes
    _, fractions = interplay.classify_transactions(tx_mm, cert_stream)
    tx = dict(zip(interplay.TX_CATEGORIES, fractions.tolist()))
    assert tx["already_certified"] == pytest.approx(0.42, abs=0.02)
    assert tx["future_certified"] == pytest.approx(0.22, abs=0.02)
    assert tx["never"] == pytest.approx(0.36, abs=0.02)

    # clustering averages and exact triangle counts
    g_cert = induced_graph(cert_stream)
    g_mm = induced_graph(tx_mm)
    g_aa = induced_graph(tx_aa)
    assert graph_metrics.clustering(g_cert)[1] == pytest.approx(0.49, abs=0.02)
    assert graph_metrics.clustering(g_mm)[1] == pytest.approx(0.31, abs=0.02)
    assert graph_metrics.clustering(g_cert)[3] == 6589
    assert graph_metrics.clustering(g_mm)[3] == 1990
    assert graph_metrics.clustering(g_aa)[3] == 393

    # distance shares of transacting-but-uncertified member pairs
    uncertified = cert_rel.pairs.find_pairs(tx_rel.pairs) < 0
    # both graphs' nodes are the members, so a txmm edge's ends are places
    # in the cert graph too
    dist = graph_metrics.distance_distribution(*g_mm.ends[:, uncertified], g_cert)
    shares = dict(enumerate((dist.counts / dist.total()).tolist()))
    assert shares.get(2, 0.0) == pytest.approx(0.78, abs=0.01)
    assert shares.get(3, 0.0) == pytest.approx(0.19, abs=0.01)
    assert shares.get(4, 0.0) == pytest.approx(0.028, abs=0.01)
    assert shares.get(5, 0.0) == pytest.approx(0.002, abs=0.01)

    # miner identification
    assert remuniter, f"{REMUNITER_ENV} must accompany {DATASET_ENV}"
    miners = ledger_ingest.identify_miners(tx_stream, members, keys.index(remuniter))
    assert len(miners) == 158
    _report(7, "real-dataset reproduction", started)


def test_criterion_8_cli_determinism(tmp_path):
    started = time.perf_counter()
    ledger = tmp_path / "ledger.jsonl"
    write_records(ledger, example_records())
    runner = CliRunner()
    digests = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        args = ["--out", str(out), "--seed", "11", "--samples", "25"]
        assert runner.invoke(
            main, ["ingest", "--input", str(ledger)] + args
        ).exit_code == 0
        for command in ("overview", "graph", "closures", "match", "relations", "neighborhoods"):
            result = runner.invoke(main, [command] + args)
            assert result.exit_code == 0, f"{command}: {result.output}"
        digests.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }
        )
    assert digests[0] == digests[1]
    _report(8, f"{len(digests[0])} files byte-identical across runs", started)
