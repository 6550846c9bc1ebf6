import errno
import hashlib
import zipfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ls_ledger import snapshot
from ls_ledger.cli import _write_csv, main
from ls_ledger.errors import StateError
from ls_ledger.fixtures import example_records, write_records
from ls_ledger.ledger_ingest import CertRecord, IdentityRecord, TxRecord, format_record
from ls_ledger.snapshot import load_bundle
from ls_ledger.stream_core import SUBSTREAM_CLASSES, SUBSTREAM_LABELS, InducedGraph

ALL_COMMANDS = ("overview", "graph", "closures", "match", "relations", "neighborhoods")


@pytest.fixture()
def ledger_file(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_records(path, example_records())
    return path


def run_all(runner, ledger, out_dir, extra=()):
    result = runner.invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(out_dir), *extra]
    )
    assert result.exit_code == 0, result.output
    for command in ALL_COMMANDS:
        result = runner.invoke(main, [command, "--out", str(out_dir), *extra])
        assert result.exit_code == 0, f"{command}: {result.output}"
    return out_dir


def substreams(bundle):
    """Every transaction substream of the bundle, keyed by label."""
    return {label: bundle.substream(label) for label in SUBSTREAM_LABELS}


def dir_digest(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def test_ingest_summary_line(ledger_file, tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["ingest", "--input", str(ledger_file), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 0
    assert "identities:4 certs:12 txs:14" in result.output


def test_ingest_snapshot_round_trip(ledger_file, tmp_path):
    runner = CliRunner()
    out = tmp_path / "o"
    runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    bundle = load_bundle(out)
    assert bundle.cert.link_count == 12
    assert bundle.tx.link_count == 14
    assert bundle.tx_mm.link_count == 12
    assert sum(bundle.substream(label).link_count for label in SUBSTREAM_LABELS) == 14
    assert bundle.table.key_of(0) == "a"


def test_load_derives_substreams_without_sub_arrays(ledger_file, tmp_path):
    runner = CliRunner()
    out = tmp_path / "o"
    runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    before = substreams(load_bundle(out))

    def drop_sub_arrays(arrays):
        for label in ("MM", "MA", "AM", "AA"):
            del arrays[f"sub_{label}"]

    _rewrite(drop_sub_arrays)(out / "snapshot.npz")
    after = substreams(load_bundle(out))

    def columns(subs):
        return {k: [c.tolist() for c in (s.t, s.src, s.dst, s.amount)] for k, s in subs.items()}

    assert columns(after) == columns(before)


def test_substreams_are_built_on_first_read(ledger_file, tmp_path, monkeypatch):
    build = snapshot.substream_by_class
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return build(*args)

    monkeypatch.setattr(snapshot, "substream_by_class", counted)
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    bundle = load_bundle(out)
    assert calls == []

    mm = bundle.tx_mm
    assert bundle.tx_mm is mm
    assert calls == [SUBSTREAM_CLASSES["MM"]]
    subs = substreams(bundle)
    assert len(calls) == 4 and subs["MM"] is mm
    assert list(subs) == ["MM", "MA", "AM", "AA"]
    for label, classes in SUBSTREAM_CLASSES.items():
        eager, lazy = build(bundle.tx, bundle.cls, *classes), subs[label]
        assert lazy.interval == eager.interval, label
        assert lazy.nodes.tolist() == eager.nodes.tolist(), label
        for column in ("t", "src", "dst", "amount"):
            assert getattr(lazy, column).tolist() == getattr(eager, column).tolist(), label
    assert len(calls) == 4


def test_closures_file_contains_pinned_row(ledger_file, tmp_path):
    runner = CliRunner()
    out = run_all(runner, ledger_file, tmp_path / "o")
    rows = (out / "closures_k2.csv").read_text().splitlines()
    assert "6,a,b,4" in rows
    data_rows = [r for r in rows if not r.startswith("#")][1:]
    assert len(data_rows) == 12  # one row per link
    k3 = (out / "closures_k3.csv").read_text().splitlines()
    assert "6,a,b,5" in k3


def test_every_export_has_header_row(ledger_file, tmp_path):
    runner = CliRunner()
    out = run_all(runner, ledger_file, tmp_path / "o")
    for csv_path in sorted(out.glob("*.csv")):
        lines = csv_path.read_text().splitlines()
        headers = [ln for ln in lines if not ln.startswith("#")]
        assert headers, csv_path.name
        assert "," in headers[0], csv_path.name
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("seed=" in c for c in comments), csv_path.name


def test_graph_orders_each_graph_once(ledger_file, tmp_path, monkeypatch):
    # clustering, triangle_count and null_model_triangles share one
    # (degree, id) order per graph: cert, txmm and txaa
    ordered = []
    rank = InducedGraph.rank.func

    def counted(g):
        ordered.append(id(g.stream))
        return rank(g)

    monkeypatch.setattr(InducedGraph.rank, "func", counted)
    runner = CliRunner()
    out = tmp_path / "o"
    result = runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["graph", "--out", str(out), "--samples", "3"])
    assert result.exit_code == 0, result.output
    assert "null_ratio_cert:" in result.output and "null_ratio_txmm:" in result.output
    assert len(ordered) == len(set(ordered)) == 3


def test_cli_determinism_byte_identical(ledger_file, tmp_path):
    runner = CliRunner()
    a = run_all(runner, ledger_file, tmp_path / "a", extra=["--seed", "9"])
    b = run_all(runner, ledger_file, tmp_path / "b", extra=["--seed", "9"])
    assert dir_digest(a) == dir_digest(b)


def test_strict_mode_exit_code_and_line_number(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"type":"identity","time":0,"key":"A","uid":"a"}\n'
        '{"type":"tx","time":0,"from":"A","to":"A","amount":1}\n'
    )
    runner = CliRunner()
    out = tmp_path / "o"
    result = runner.invoke(
        main, ["ingest", "--input", str(bad), "--out", str(out), "--strict"]
    )
    assert result.exit_code != 0
    assert "line 2" in result.output

    lenient = runner.invoke(main, ["ingest", "--input", str(bad), "--out", str(out)])
    assert lenient.exit_code == 0
    assert "warning: skipped line 2: self-transaction by 'A'\n" in lenient.output
    assert lenient.output.count("line 2") == 1
    assert "identities:1 certs:0 txs:0" in lenient.output


@pytest.mark.parametrize(
    "record",
    [
        '{"type":"tx","time":0,"from":"A","to":"B","amount":18446744073709551616}',
        '{"type":"identity","time":9223372036854775808,"key":"B","uid":"b"}',
    ],
)
def test_value_beyond_int64_is_skipped_or_fatal(tmp_path, record):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text('{"type":"identity","time":0,"key":"A","uid":"a"}\n' + record + "\n")
    runner = CliRunner()
    lenient = runner.invoke(main, ["ingest", "--input", str(ledger), "--out", str(tmp_path / "o")])
    assert lenient.exit_code == 0, lenient.output
    assert "warning: skipped line 2: field" in lenient.output
    assert "above 2^63-1" in lenient.output
    assert "identities:1 certs:0 txs:0" in lenient.output

    strict = runner.invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(tmp_path / "s"), "--strict"]
    )
    assert strict.exit_code != 0
    assert isinstance(strict.exception, SystemExit), strict.exception
    assert "line 2" in strict.output and "Traceback" not in strict.output


def test_missing_snapshot_is_state_error(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["overview", "--out", str(tmp_path / "nope")])
    assert result.exit_code != 0
    assert "snapshot" in result.output
    assert not (tmp_path / "nope").exists()  # only ingest creates --out
    with pytest.raises(StateError):
        load_bundle(tmp_path / "nope")


def assert_clean_error(result, *fragments):
    """The command failed through click's ``Error:`` line, no traceback."""
    assert result.exit_code == 1, result.output
    # a ClickException exits through SystemExit; anything else is a traceback
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("Error: ") or "\nError: " in result.output
    assert "Traceback" not in result.output
    for fragment in fragments:
        assert fragment in result.output, (fragment, result.output)


IDENTITY_A = b'{"type":"identity","time":0,"key":"A","uid":"a"}'


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_non_member_cert_names_its_line(tmp_path, strict):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_bytes(
        IDENTITY_A + b"\n\n"
        + b'{"type":"tx","time":1,"from":"A","to":"zz","amount":5}\n'
        + b'{"type":"cert","time":2,"from":"A","to":"zz"}\n'
    )
    out = tmp_path / "o"
    result = CliRunner().invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(out)] + ["--strict"] * strict
    )
    assert_clean_error(result, "Error: line 4: certification involves non-member key 'zz'")
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        b"[" * 200_000 + b"]" * 200_000,
        b'{"type":"cert","time":0,"from":"A","to":"B","note":'
        + b"[" * 200_000 + b"]" * 200_000 + b"}",
    ],
    ids=["bare", "extra_field"],
)
def test_over_deep_json_line_is_skipped_or_fatal(tmp_path, line):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_bytes(IDENTITY_A + b"\n" + line + b"\n")
    runner = CliRunner()
    lenient = runner.invoke(main, ["ingest", "--input", str(ledger), "--out", str(tmp_path / "o")])
    assert lenient.exit_code == 0, lenient.output
    assert "warning: skipped line 2: invalid JSON: maximum recursion depth" in lenient.output
    assert "identities:1 certs:0 txs:0" in lenient.output

    strict = runner.invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(tmp_path / "s"), "--strict"]
    )
    assert_clean_error(strict, "Error: line 2: invalid JSON")


def test_invalid_utf8_line_is_skipped_or_fatal(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_bytes(
        IDENTITY_A + b"\r\n"  # line 1
        + b"\xff\xfe\n"  # line 2: not UTF-8
        + b'{"type":"identity","time":0,"key":"B","uid":"b"}\r'  # line 3, lone CR
        + b'{"type":"tx","time":0,"from":"A","to":"A","amount":1}\n'  # line 4: self-transaction
        + b'{"type":"identity","time":0,"key":"C\xe9","uid":"c"}\n'  # line 5: Latin-1 byte
        + '{"type":"identity","time":0,"key":"Dé","uid":"d"}\n'.encode()  # line 6: UTF-8
    )
    runner = CliRunner()
    out = tmp_path / "o"
    lenient = runner.invoke(main, ["ingest", "--input", str(ledger), "--out", str(out)])
    assert lenient.exit_code == 0, lenient.output
    warnings = [ln for ln in lenient.output.splitlines() if ln.startswith("warning:")]
    assert warnings == [
        "warning: skipped line 2: not valid UTF-8",
        "warning: skipped line 4: self-transaction by 'A'",
        "warning: skipped line 5: not valid UTF-8",
    ]
    assert "identities:3 certs:0 txs:0" in lenient.output
    assert load_bundle(out).table.keys() == ["A", "B", "Dé"]

    strict = runner.invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(tmp_path / "s"), "--strict"]
    )
    assert_clean_error(strict, "Error: line 2: not valid UTF-8")


def test_ingest_out_below_a_regular_file_is_clean_error(ledger_file, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    result = CliRunner().invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert_clean_error(result, str(out))


@pytest.mark.parametrize("command, output", [("ingest", "repartition.csv"), ("overview", "activity.csv")])
def test_failed_write_into_out_is_clean_error(ledger_file, tmp_path, command, output):
    runner = CliRunner()
    out = tmp_path / "o"
    runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    (out / output).unlink(missing_ok=True)
    (out / output).mkdir()  # the output cannot replace a directory
    args = ["--input", str(ledger_file)] if command == "ingest" else []
    result = runner.invoke(main, [command, "--out", str(out), *args])
    assert_clean_error(result, str(out / output))
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]


def test_write_error_without_file_name_names_out(ledger_file, tmp_path, monkeypatch):
    def disk_full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(snapshot.np, "save", disk_full)
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert_clean_error(result, f"Error: No space left on device: {out}")


@pytest.mark.parametrize(
    "last, args, n_bins",
    [
        # ~5.3e13 one-day bins, 388 TiB of counts: numpy's MemoryError
        pytest.param(2**62, (), 2**62 // 86_400 + 1, id="default-bin"),
        # an array's byte size overflows: numpy's ValueError
        pytest.param(2**62, ("--bin", "1", "--window", "1"), 2**62 + 1, id="bin-1"),
        # an array's shape overflows: OverflowError
        pytest.param(2**63 - 1, ("--bin", "1", "--window", "1"), 2**63, id="bin-1-int64-max"),
    ],
)
def test_overview_bin_grid_too_large_is_clean_error(tmp_path, last, args, n_bins):
    ledger = tmp_path / "ledger.jsonl"
    write_records(
        ledger,
        [
            IdentityRecord(0, "A", "a"),
            IdentityRecord(0, "B", "b"),
            CertRecord(0, "A", "B"),
            CertRecord(last, "B", "A"),
        ],
    )
    runner = CliRunner()
    out = tmp_path / "o"
    result = runner.invoke(main, ["ingest", "--input", str(ledger), "--out", str(out)])
    assert result.exit_code == 0, result.output
    # no machine can allocate the grid, so the failure is immediate
    result = runner.invoke(main, ["overview", "--out", str(out), *args])
    assert_clean_error(result, f"cannot allocate {n_bins} bins", "--bin")


def read_rows(path: Path) -> list[list[str]]:
    """The rows of an output CSV, header and comments left out."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def test_overview_bin_past_int64_is_one_bin(ledger_file, tmp_path):
    # a bin wider than the span is the one bin at its start; a larger --bin
    # cannot help, so it must not end in the "cannot allocate" error
    runner = CliRunner()
    out = tmp_path / "o"
    runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    rows = {}
    for width in (2**63 - 1, 10**21):
        args = ["--bin", str(width), "--window", str(width)]
        result = runner.invoke(main, ["overview", "--out", str(out), *args])
        assert result.exit_code == 0, result.output
        rows[width] = read_rows(out / "activity.csv")
    assert rows[10**21] == rows[2**63 - 1] == [["0", "12", "12", "12", "12"]]


def test_graph_rejects_transacting_member_outside_cert_graph(ledger_file, tmp_path, monkeypatch):
    # a loaded snapshot's certification nodes are its members, so only a
    # bundle built otherwise can hold a transacting member the cert graph lacks
    runner = CliRunner()
    out = tmp_path / "o"
    runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    bundle = load_bundle(out)
    x = int(bundle.tx_mm.src[0])
    keep = (bundle.cert.src != x) & (bundle.cert.dst != x)
    cert = bundle.cert.restrict(keep, bundle.cert.nodes[bundle.cert.nodes != x])
    damaged = snapshot.StreamBundle(bundle.table, bundle.cls, cert, bundle.tx)
    monkeypatch.setattr(snapshot, "load_bundle", lambda path: damaged)
    result = runner.invoke(main, ["graph", "--out", str(out), "--samples", "2"])
    assert_clean_error(result, f"member {bundle.table.key_of(x)} not in the certification graph")


def test_degree_correlations_pair_the_nodes_both_graphs_hold(tmp_path):
    # members a..f all certify and only b, d, e and f transact; a snapshot
    # whose transaction nodes are those four loads, and their places in the
    # txmm graph then differ from those in the cert graph
    members = "abcdef"
    certs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("e", "f"), ("f", "a"), ("a", "c")]
    certs += [("b", "d"), ("b", "e"), ("e", "d")]
    txs = [("b", "d"), ("d", "e"), ("e", "b"), ("b", "f"), ("f", "d"), ("d", "b")]
    records = [IdentityRecord(0, k.upper(), k) for k in members]
    records += [CertRecord(i, u.upper(), v.upper()) for i, (u, v) in enumerate(certs)]
    records += [TxRecord(10 + i, u.upper(), v.upper(), 1) for i, (u, v) in enumerate(txs)]
    ledger = tmp_path / "ledger.jsonl"
    write_records(ledger, records)
    out = tmp_path / "o"
    runner = CliRunner()
    result = runner.invoke(main, ["ingest", "--input", str(ledger), "--out", str(out)])
    assert result.exit_code == 0, result.output

    def transacting_nodes_only(a):
        a["tx_nodes"] = np.unique(np.concatenate((a["tx_src"], a["tx_dst"])))

    _rewrite(transacting_nodes_only)(out / "snapshot.npz")
    result = runner.invoke(main, ["overview", "--out", str(out)])
    assert result.exit_code == 0, result.output

    cert = {node: (int(i), int(o)) for node, i, o in read_rows(out / "degrees.csv")}
    txmm = {node: (int(i), int(o)) for node, i, o in read_rows(out / "degrees_txmm.csv")}
    common = sorted(set(cert) & set(txmm))
    assert len(cert) == 6 and common == sorted(txmm) == ["B", "D", "E", "F"]
    expected = {}
    for label, side in (("cert_out~txmm_out", 1), ("cert_in~txmm_in", 0)):
        xs = np.array([cert[n][side] for n in common])
        ys = np.array([txmm[n][side] for n in common])
        expected[label] = f"{np.corrcoef(xs, ys)[0, 1]:.6f}"
    got = dict(read_rows(out / "degree_correlations.csv"))
    for label, r in expected.items():
        assert float(got[label]) == pytest.approx(float(r), abs=2e-6), label


def test_out_dir_from_environment(ledger_file, tmp_path):
    runner = CliRunner()
    out = tmp_path / "env_out"
    result = runner.invoke(
        main,
        ["ingest", "--input", str(ledger_file)],
        env={"LS_LEDGER_OUT": str(out)},
    )
    assert result.exit_code == 0, result.output
    assert (out / "snapshot.npz").exists()


def test_window_must_cover_bin(ledger_file, tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "ingest", "--input", str(ledger_file), "--out", str(tmp_path / "o"),
            "--bin", "100", "--window", "10",
        ],
    )
    assert result.exit_code != 0


def test_remuniter_flow(tmp_path):
    records = example_records()
    from ls_ledger.ledger_ingest import TxRecord

    records += [TxRecord(5, "w", "a", 10), TxRecord(6, "w", "b", 10)]
    ledger = tmp_path / "ledger.jsonl"
    write_records(ledger, records)
    runner = CliRunner()
    out = tmp_path / "o"
    result = runner.invoke(
        main,
        ["ingest", "--input", str(ledger), "--out", str(out), "--remuniter", "w"],
    )
    assert result.exit_code == 0, result.output
    assert "miners:2" in result.output
    assert (out / "repartition_filtered.csv").exists()


@pytest.mark.parametrize("key", ["a,b", "#x"])
def test_key_that_breaks_csv_rows_is_skipped_or_fatal(tmp_path, key):
    ledger = tmp_path / "ledger.jsonl"
    lines = [format_record(r) for r in example_records()]
    lines.insert(4, f'{{"type":"identity","time":0,"key":"{key}","uid":"bad"}}')
    ledger.write_text("\n".join(lines) + "\n")
    runner = CliRunner()

    lenient = runner.invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(tmp_path / "o")]
    )
    assert lenient.exit_code == 0, lenient.output
    assert "skipped line 5" in lenient.output and repr(key) in lenient.output
    assert lenient.output.count("line 5") == 1
    assert "identities:4 certs:12 txs:14" in lenient.output
    overview = runner.invoke(main, ["overview", "--out", str(tmp_path / "o")])
    assert overview.exit_code == 0, overview.output
    rows = (tmp_path / "o" / "degrees.csv").read_text().splitlines()
    header, *data = [r for r in rows if not r.startswith("#")]
    assert header == "node,in,out"
    assert [r.split(",")[0] for r in data] == ["a", "b", "c", "d"]
    assert all(len(r.split(",")) == 3 for r in data)

    strict = runner.invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(tmp_path / "s"), "--strict"]
    )
    assert strict.exit_code != 0
    assert "line 5" in strict.output and "Traceback" not in strict.output


def test_unknown_remuniter_writes_nothing(ledger_file, tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["ingest", "--input", str(ledger_file), "--out", str(out), "--remuniter", "nope"],
    )
    assert result.exit_code == 1
    assert result.output == "Error: --remuniter key 'nope' not present in the ledger\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize("option", [["--strict"], ["--remuniter", "w"]])
def test_metric_commands_reject_ingest_options(tmp_path, command, option):
    runner = CliRunner()
    result = runner.invoke(main, [command, "--out", str(tmp_path / "o"), *option])
    assert result.exit_code == 2  # click usage error
    assert "No such option" in result.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["ingest", *ALL_COMMANDS])
def test_negative_seed_is_usage_error(ledger_file, tmp_path, command):
    # random.Random(-1) draws what random.Random(1) draws, so --seed -1
    # would repeat --seed 1's null-model samples under another label
    args = ["--input", str(ledger_file)] if command == "ingest" else []
    result = CliRunner().invoke(
        main, [command, *args, "--out", str(tmp_path / "o"), "--seed", "-1"]
    )
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--seed'" in result.output
    assert not (tmp_path / "o").exists()


def test_overview_correlation_of_identical_streams(ledger_file, tmp_path):
    # the example ledger mirrors certifications and member transactions, so
    # with per-second bins the two rolling activity series coincide
    runner = CliRunner()
    out = tmp_path / "o"
    runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    result = runner.invoke(
        main, ["overview", "--out", str(out), "--bin", "1", "--window", "2"]
    )
    assert result.exit_code == 0, result.output
    assert "activity_correlation:1.000000" in result.output

    # default day-wide bin collapses the fixture to one point: flagged
    result = runner.invoke(main, ["overview", "--out", str(out)])
    assert "activity_correlation:NA" in result.output


@pytest.mark.parametrize(
    "records",
    [
        [],
        [
            IdentityRecord(0, "M1", "user_M1"),
            TxRecord(3, "M1", "A1", amount=5),
            TxRecord(4, "A1", "A2", amount=7),
        ],
    ],
    ids=["empty", "one_member"],
)
def test_every_stage_runs_without_member_pairs(tmp_path, records):
    ledger = tmp_path / "ledger.jsonl"
    write_records(ledger, records)
    out = run_all(CliRunner(), ledger, tmp_path / "o")
    lines = (out / "ratios.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 12
    for label, numerator, denominator, value in rows:
        assert (numerator, denominator, value) == ("0", "0", "NA"), label


def _failing_rows(rows_before_error: int):
    for i in range(rows_before_error):
        yield (i, i)
    raise OSError("disk full")


def test_failed_csv_write_keeps_previous_file(tmp_path):
    path = tmp_path / "table.csv"
    _write_csv(path, ["old"], "a,b", [(1, 2)])
    before = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        _write_csv(path, ["new"], "a,b", _failing_rows(10_000))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]

    with pytest.raises(OSError, match="disk full"):
        _write_csv(tmp_path / "fresh.csv", ["new"], "a,b", _failing_rows(3))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def test_failed_snapshot_write_keeps_previous_snapshot(ledger_file, tmp_path, monkeypatch):
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    before = (out / "snapshot.npz").read_bytes()
    bundle = load_bundle(out)

    calls = []

    def save_then_fail(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return real_save(*args, **kwargs)

    real_save = snapshot.np.save
    monkeypatch.setattr(snapshot.np, "save", save_then_fail)
    with pytest.raises(OSError, match="disk full"):
        snapshot.save_bundle(out, bundle)
    assert (out / "snapshot.npz").read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]


def test_fixture_module_writes_ledger(tmp_path):
    from ls_ledger.fixtures import main as fixtures_main

    path = tmp_path / "demo.jsonl"
    assert fixtures_main([str(path)]) == 0
    assert path.read_text().count("\n") == 30  # 4 ids + 12 certs + 14 txs
    assert fixtures_main([str(tmp_path / "rand.jsonl"), "5"]) == 0


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _empty(path: Path) -> None:
    path.write_bytes(b"")


def _drop_arrays(path: Path) -> None:
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("keys.npy", b"")


def _rewrite(change):
    """A damage that rewrites the snapshot's arrays with ``change`` applied."""

    def damage(path: Path) -> None:
        with np.load(path) as data:
            arrays = {name: data[name].copy() for name in data.files}
        change(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    damage.__name__ = change.__name__
    return damage


def _unequal_columns(a):
    a["tx_src"] = a["tx_src"][:-1]


def _self_link(a):
    a["cert_dst"][0] = a["cert_src"][0]


def _out_of_order(a):
    a["cert_t"][[0, -1]] = a["cert_t"][[-1, 0]]


def _outside_interval(a):
    a["cert_interval"][1] = a["cert_t"][-1] - 1


def _negative_amount(a):
    a["tx_amount"][0] = -1


def _unkeyed_handle(a):
    a["keys"] = a["keys"][:-1]


def _repeated_key(a):
    # ['a', 'a', 'c', 'd', 'w', 'b']: a table that kept 'a' once would shift
    # every later handle to the next key and label wallet 'w' a member
    keys = a["keys"]
    a["keys"] = np.array([keys[0], keys[0], *keys[2:], keys[1]])


def _unkeyed_member(a):
    a["members"] = np.append(a["members"], len(a["keys"]))


def _cert_nodes_not_members(a):
    # an anonymous wallet among the certification nodes
    (wallet,) = np.setdiff1d(np.arange(len(a["keys"])), a["members"])
    a["cert_nodes"] = np.append(a["cert_nodes"], wallet)


def _float_times(a):
    # an int64 cast would truncate every time by 0.7 s
    a["cert_t"] = a["cert_t"] + 0.7


def _float_members(a):
    a["members"] = a["members"].astype(np.float64)


def _integer_keys(a):
    # the handles as keys would label every pair "0|8" and so on
    a["keys"] = np.arange(len(a["keys"]))


def _two_dimensional_members(a):
    a["members"] = a["members"].reshape(-1, 1)


def _two_dimensional_interval(a):
    a["cert_interval"] = a["cert_interval"].reshape(2, 1)


@pytest.mark.parametrize(
    "damage",
    [
        _truncate,
        _empty,
        _drop_arrays,
        *map(
            _rewrite,
            [
                _unequal_columns,
                _self_link,
                _out_of_order,
                _outside_interval,
                _negative_amount,
                _unkeyed_handle,
                _repeated_key,
                _unkeyed_member,
                _cert_nodes_not_members,
                _float_times,
                _float_members,
                _integer_keys,
                _two_dimensional_members,
                _two_dimensional_interval,
            ],
        ),
    ],
)
def test_corrupt_snapshot_is_clean_state_error(ledger_file, tmp_path, damage):
    runner = CliRunner()
    out = tmp_path / "o"
    result = runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    damage(out / "snapshot.npz")

    result = runner.invoke(main, ["graph", "--out", str(out)])
    assert result.exit_code != 0
    # a ClickException exits through SystemExit; anything else is a traceback
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert str(out / "snapshot.npz") in result.output
    with pytest.raises(StateError, match="unreadable snapshot"):
        load_bundle(out)
