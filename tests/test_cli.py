import ast
import csv
import errno
import hashlib
import io
import json
import random
import string
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from ls_ledger import cli, snapshot, stream_core
from ls_ledger.cli import _write_csv, main
from ls_ledger.errors import StateError
from ls_ledger.fixtures import (
    CertRecord,
    IdentityRecord,
    TxRecord,
    example_records,
    format_record,
    random_records,
    write_records,
)
from ls_ledger.snapshot import load_bundle
from ls_ledger.stream_core import SUBSTREAM_LABELS, InducedGraph, _key_fault, substream_by_class

ALL_COMMANDS = ("overview", "graph", "closures", "match", "relations", "neighborhoods")

# the options of each command besides --out: those its stage reads
OPTIONS = {
    "ingest": ("--input", "--remuniter", "--strict"),
    "overview": ("--bin", "--window"),
    "graph": ("--samples", "--seed"),
    "closures": (),
    "match": (),
    "relations": ("--ordered-pairs",),
    "neighborhoods": (),
}
# a null model of 2 samples keeps a full run short
QUICK = {"graph": ["--samples", "2"]}


@pytest.fixture()
def ledger_file(tmp_path):
    path = tmp_path / "ledger.jsonl"
    write_records(path, example_records())
    return path


def run_all(runner, ledger, out_dir, options=None):
    """Ingest ``ledger`` and run every stage, each given its ``options``."""
    options = options or {}
    result = runner.invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(out_dir), *options.get("ingest", ())]
    )
    assert result.exit_code == 0, result.output
    for command in ALL_COMMANDS:
        result = runner.invoke(main, [command, "--out", str(out_dir), *options.get(command, ())])
        assert result.exit_code == 0, f"{command}: {result.output}"
    return out_dir


def substreams(parts):
    """Every transaction substream of a snapshot's parts, keyed by label."""
    _, cert, tx = parts
    return {label: substream_by_class(tx, cert.nodes, label) for label in SUBSTREAM_LABELS}


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
    parts = load_bundle(out)
    keys, cert, tx = parts
    assert cert.link_count == 12
    assert tx.link_count == 14
    subs = substreams(parts)
    assert subs["MM"].link_count == 12
    assert sum(s.link_count for s in subs.values()) == 14
    assert keys[0] == "a"
    assert cert.nodes.tolist() == [0, 1, 2, 3]


# the arrays load_bundle reads; every other entry of the snapshot it skips
LOADED = (
    "keys",
    "members",
    "tx_amount",
    *(f"{prefix}_{column}" for prefix in ("cert", "tx") for column in ("t", "src", "dst")),
)


def parts_columns(parts):
    """The key table, stream intervals, nodes and columns, and substream
    columns of a snapshot's parts, as lists."""
    keys, cert, tx = parts
    streams = [cert, tx, *substreams(parts).values()]
    return keys, [
        [s.interval, *(c.tolist() for c in (s.nodes, s.t, s.src, s.dst, s.amount) if c is not None)]
        for s in streams
    ]


def _outside_interval(a):
    a["cert_interval"][1] = a["cert_t"][-1] - 1


def _two_dimensional_interval(a):
    a["cert_interval"] = a["cert_interval"].reshape(2, 1)


def _wide_interval(a):
    # every link still lies inside; read, it would make overview bin the days up to it
    a["cert_interval"][1] = a["cert_t"][-1] + 86_400


def test_load_reads_neither_node_sets_nor_sub_arrays(ledger_file, tmp_path):
    runner = CliRunner()
    out = tmp_path / "o"
    runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    intact = (out / "snapshot.npz").read_bytes()
    before = parts_columns(load_bundle(out))

    def drop_unread_arrays(arrays):
        for name in ("cert_nodes", "tx_nodes", *(f"sub_{label}" for label in SUBSTREAM_LABELS)):
            del arrays[name]

    def transacting_nodes_only(arrays):
        # loaded over tx nodes [a, b], the other handles' rows would vanish
        arrays["tx_nodes"] = np.array([0, 1])

    for change in (drop_unread_arrays, transacting_nodes_only):
        (out / "snapshot.npz").write_bytes(intact)
        _rewrite(change)(out / "snapshot.npz")
        assert parts_columns(load_bundle(out)) == before, change.__name__


# each stream's interval is the span of its links, whatever the array holds
@pytest.mark.parametrize("change", [_outside_interval, _two_dimensional_interval, _wide_interval])
def test_damaged_interval_array_loads_the_intact_parts(ledger_file, tmp_path, change):
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    before = parts_columns(load_bundle(out))
    _rewrite(change)(out / "snapshot.npz")
    assert parts_columns(load_bundle(out)) == before


def test_load_reads_each_array_it_uses_once(ledger_file, tmp_path, monkeypatch):
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    opened = []
    zip_open = zipfile.ZipFile.open

    def counted(self, name, *args, **kwargs):
        opened.append(getattr(name, "filename", name))
        return zip_open(self, name, *args, **kwargs)

    # ZipFile.read opens the entry through ZipFile.open, so each read counts once
    monkeypatch.setattr(zipfile.ZipFile, "open", counted)
    load_bundle(out)
    assert sorted(opened) == sorted(f"{name}.npy" for name in LOADED)


def test_substreams_are_built_by_the_stage_that_reads_them(ledger_file, tmp_path, monkeypatch):
    build = stream_core.substream_by_class
    calls = []

    def counted(*args):
        calls.append(args[2])
        return build(*args)

    # every module that binds it, so no stage or load builds one uncounted
    for name, module in list(sys.modules.items()):
        if name.startswith("ls_ledger") and getattr(module, "substream_by_class", None) is build:
            monkeypatch.setattr(module, "substream_by_class", counted)
    out = tmp_path / "o"
    runner = CliRunner()
    result = runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    load_bundle(out)
    assert calls == []

    built = {}
    for command in ALL_COMMANDS:
        calls.clear()
        result = runner.invoke(main, [command, "--out", str(out), *QUICK.get(command, ())])
        assert result.exit_code == 0, f"{command}: {result.output}"
        built[command] = list(calls)
    assert built == {command: ["MM"] for command in ALL_COMMANDS} | {"graph": ["MM", "AA"]}


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
    # clustering and null_model_triangles share one
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
    a = run_all(runner, ledger_file, tmp_path / "a", options={"graph": ["--seed", "9"]})
    b = run_all(runner, ledger_file, tmp_path / "b", options={"graph": ["--seed", "9"]})
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
def test_key_with_a_quote_is_a_malformed_line(tmp_path, strict):
    # unquoted in a CSV row, a key starting with '"' would open a quoted
    # field that swallows the rows after it
    records = [
        IdentityRecord(0, '"a', "a"),
        IdentityRecord(0, "b", "b"),
        IdentityRecord(0, "c", "c"),
        CertRecord(1, "b", "c"),
        TxRecord(2, "c", "b", 5),
    ]
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text("".join(format_record(r) + "\n" for r in records))
    out = tmp_path / "o"
    runner = CliRunner()
    result = runner.invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(out)] + ["--strict"] * strict
    )
    reason = "line 1: key '\"a' in field 'key' contains '\"'"
    if strict:
        assert_clean_error(result, f"Error: {reason}")
        assert not out.exists()
        return
    assert result.exit_code == 0, result.output
    assert f"warning: skipped {reason}\n" in result.output
    assert runner.invoke(main, ["overview", "--out", str(out)]).exit_code == 0
    lines = (out / "degrees.csv").read_text().splitlines()
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert rows == [["node", "in", "out"], ["b", "0", "1"], ["c", "1", "0"]]


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_key_with_a_lone_surrogate_is_a_malformed_line(ledger_file, tmp_path, strict):
    # a JSON escape gives a key that no UTF-8 file can hold, so every CSV
    # naming it would fail to write, after the stage replaced other files
    lines = ledger_file.read_text().splitlines()
    lines.append('{"type":"tx","time":5,"from":"a","to":"w\\ud800x","amount":7}')
    ledger_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    runner = CliRunner()
    result = runner.invoke(
        main, ["ingest", "--input", str(ledger_file), "--out", str(out)] + ["--strict"] * strict
    )
    reason = f"line {len(lines)}: key 'w\\ud800x' in field 'to' contains '\\ud800'"
    if strict:
        assert_clean_error(result, f"Error: {reason}")
        assert not out.exists()
        return
    assert result.exit_code == 0, result.output
    assert f"warning: skipped {reason}\n" in result.output
    assert runner.invoke(main, ["graph", "--out", str(out), *QUICK["graph"]]).exit_code == 0


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
    assert load_bundle(out)[0] == ["A", "B", "Dé"]

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


@pytest.mark.parametrize(
    "name, shown",
    [
        pytest.param("led\nger.jsonl", "led\\nger.jsonl", id="newline"),
        # the byte 0xff of a file name reaches the command as a lone surrogate
        pytest.param("bad\udcff.jsonl", "bad\\udcff.jsonl", id="not-utf8"),
    ],
)
def test_input_path_comment_stays_one_utf8_line(ledger_file, name, shown):
    ledger = ledger_file.rename(ledger_file.with_name(name))
    out = ledger.parent / "o"
    result = CliRunner().invoke(
        main, ["ingest", "--input", str(ledger), "--out", str(out), "--remuniter", "w"]
    )
    assert result.exit_code == 0, result.output
    for fname in ("repartition.csv", "repartition_filtered.csv"):
        lines = (out / fname).read_text(encoding="utf-8").splitlines()
        assert f"# input={ledger.parent}/{shown}" in lines
        rows = list(csv.reader(line for line in lines if not line.startswith("#")))
        assert rows[0] == ["substream", "count", "count_share", "amount", "amount_share"]
        assert [row[0] for row in rows[1:]] == list(SUBSTREAM_LABELS)


def test_printable_comment_is_written_verbatim(tmp_path):
    _write_csv(tmp_path / "t.csv", ["input=dir/é d\\x.jsonl"], "a", [(1,)])
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "# input=dir/é d\\x.jsonl\na\n1\n"


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


def test_window_must_cover_bin(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["overview", "--out", str(tmp_path / "o"), "--bin", "100", "--window", "10"]
    )
    assert result.exit_code == 2, result.output  # click usage error
    assert "Invalid value for '--window'" in result.output
    assert not (tmp_path / "o").exists()


def test_remuniter_flow(tmp_path):
    records = example_records()
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


def test_empty_remuniter_is_unknown_key(ledger_file, tmp_path):
    # no key is empty, so --remuniter "" names no wallet of the ledger
    out = tmp_path / "o"
    out.mkdir()
    result = CliRunner().invoke(
        main, ["ingest", "--input", str(ledger_file), "--out", str(out), "--remuniter", ""]
    )
    assert_clean_error(result, "Error: --remuniter key '' not present in the ledger")
    assert list(out.iterdir()) == []


def test_each_command_takes_its_stage_options_and_out():
    taken = {name: sorted(opt for p in c.params for opt in p.opts) for name, c in main.commands.items()}
    assert taken == {name: sorted(["--out", *options]) for name, options in OPTIONS.items()}


def test_each_command_takes_exactly_the_config_fields_its_stage_reads():
    # the RunConfig fields that each function of cli reads, by the
    # commands whose run calls it; a field is named as its click parameter
    reads = {}
    for fn in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
        if isinstance(fn, ast.FunctionDef):
            fields = {
                node.attr
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cfg"
            }
            if fields:
                reads[fn.name] = fields
    serves = {f"cmd_{name}": {name} for name in OPTIONS}
    serves |= {"_write_repartition": {"ingest"}, "_run": set(OPTIONS)}
    # _comments records all five knobs on every file, a command's own or
    # their defaults, until the snapshot-format change records only a
    # command's own
    assert reads.keys() - serves.keys() == {"_comments"}
    for name, command in main.commands.items():
        read = set().union(*(reads[fn] for fn, commands in serves.items() if name in commands))
        assert read == {p.name for p in command.params}, name


def assert_usage_error(result, command: str, args: list[str], option: str) -> None:
    """``result`` is click's usage error for ``command`` given ``args``, a
    bad value of ``option``: it names the first option of ``args`` that the
    command does not take, else the value of ``option``."""
    assert result.exit_code == 2, result.output
    error = result.output.splitlines()[-1]
    foreign = [a for a in args if a.startswith("--") and a not in ("--out", *OPTIONS[command])]
    if foreign:
        # click words it "No such option: --x" or "No such option '--x'."
        assert "No such option" in error and foreign[0] in error, error
    else:
        assert f"Invalid value for '{option}'" in error, error


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize(
    "option",
    [
        ["--strict"],
        ["--remuniter", "w"],
        # every option of another metric command, which each one but
        # that command rejects as well
        *(
            pytest.param(args, id=args[0])
            for args in (
                ["--bin", "1"],
                ["--window", "86400"],
                ["--samples", "1"],
                ["--seed", "1"],
                ["--ordered-pairs"],
            )
        ),
    ],
)
def test_metric_commands_reject_ingest_options(tmp_path, command, option):
    runner = CliRunner()
    result = runner.invoke(main, [command, "--out", str(tmp_path / "o"), *option])
    if option[0] in OPTIONS[command]:  # taken: the run gets as far as the snapshot
        assert result.exit_code == 1 and "no snapshot" in result.output, result.output
    else:
        assert_usage_error(result, command, option, option[0])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["ingest", *ALL_COMMANDS])
def test_negative_seed_is_usage_error(ledger_file, tmp_path, command):
    # random.Random(-1) draws what random.Random(1) draws, so --seed -1
    # would repeat --seed 1's null-model samples under another label; a
    # command without a null model takes no --seed at all
    args = ["--input", str(ledger_file)] if command == "ingest" else []
    result = CliRunner().invoke(
        main, [command, *args, "--out", str(tmp_path / "o"), "--seed", "-1"]
    )
    assert_usage_error(result, command, ["--seed"], "--seed")
    assert not (tmp_path / "o").exists()


# each option click rejects, and the arguments that break it; a command
# that does not take one rejects it as no option of its own
BAD_OPTIONS = {
    "--bin": ["--bin", "0"],
    "--samples": ["--samples", "0"],
    "--window": ["--bin", "100", "--window", "99"],
}


@pytest.mark.parametrize("command", ["ingest", *ALL_COMMANDS])
@pytest.mark.parametrize("option", BAD_OPTIONS)
def test_bad_option_is_usage_error_naming_it(ledger_file, tmp_path, command, option):
    args = ["--input", str(ledger_file)] if command == "ingest" else []
    result = CliRunner().invoke(
        main, [command, *args, "--out", str(tmp_path / "o"), *BAD_OPTIONS[option]]
    )
    assert_usage_error(result, command, BAD_OPTIONS[option], option)
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
    parts = load_bundle(out)

    calls = []

    def save_then_fail(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return real_save(*args, **kwargs)

    real_save = snapshot.np.save
    monkeypatch.setattr(snapshot.np, "save", save_then_fail)
    with pytest.raises(OSError, match="disk full"):
        snapshot.save_bundle(out, parts)
    assert (out / "snapshot.npz").read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]


def test_fixture_module_writes_ledger(tmp_path, capsys):
    from ls_ledger.fixtures import main as fixtures_main

    path = tmp_path / "demo.jsonl"
    assert fixtures_main([str(path)]) == 0
    assert path.read_text().count("\n") == 30  # 4 ids + 12 certs + 14 txs
    assert fixtures_main([str(tmp_path / "rand.jsonl"), "5"]) == 0
    # a negative seed would silently write the ledger of its absolute value
    for seed in ("-3", "3.5", "x", ""):
        capsys.readouterr()
        assert fixtures_main([str(tmp_path / "bad.jsonl"), seed]) == 2, seed
        assert capsys.readouterr().err.startswith("usage: python -m ls_ledger.fixtures"), seed
    assert not (tmp_path / "bad.jsonl").exists()


def test_fixture_module_bad_out_is_clean_error(tmp_path, capsys):
    from ls_ledger.fixtures import main as fixtures_main

    # an OUT that cannot be written is one error line naming it, not a traceback
    out = tmp_path / "missing" / "demo.jsonl"
    assert fixtures_main([str(out)]) == 1
    assert capsys.readouterr().err == f"Error: No such file or directory: {out}\n"
    assert not (tmp_path / "missing").exists()


def test_failed_ledger_write_keeps_previous_ledger(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    write_records(ledger, example_records())
    before = ledger.read_bytes()
    # the third record cannot be formatted, after two lines are written
    with pytest.raises(AttributeError):
        write_records(ledger, [*example_records()[:2], object()])
    assert ledger.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ledger.jsonl"]


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


def _claims_values(name: str, exponent: int):
    """A damage that rewrites the header of ``name``.npy to claim 2**exponent
    values and keeps its data bytes, far too few for them."""

    def damage(path: Path) -> None:
        with zipfile.ZipFile(path) as zf:
            entries = {info.filename: zf.read(info) for info in zf.infolist()}
        fh = io.BytesIO(entries[f"{name}.npy"])
        np.lib.format.read_magic(fh)
        _, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header,
            {
                "descr": np.lib.format.dtype_to_descr(dtype),
                "fortran_order": fortran_order,
                "shape": (2**exponent,),
            },
        )
        entries[f"{name}.npy"] = header.getvalue() + fh.read()
        with zipfile.ZipFile(path, "w") as zf:
            for entry, data in entries.items():
                zf.writestr(entry, data)

    damage.__name__ = f"_{name}_claims_2^{exponent}_values"
    return damage


def _unequal_columns(a):
    a["tx_src"] = a["tx_src"][:-1]


def _self_link(a):
    a["cert_dst"][0] = a["cert_src"][0]


def _out_of_order(a):
    a["cert_t"][[0, -1]] = a["cert_t"][[-1, 0]]


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
                _negative_amount,
                _unkeyed_handle,
                _repeated_key,
                _unkeyed_member,
                _float_times,
                _float_members,
                _integer_keys,
                _two_dimensional_members,
            ],
        ),
        # each allocation numpy would make for the claim fails at once
        _claims_values("cert_t", 40),
        _claims_values("keys", 45),
        _claims_values("tx_amount", 61),
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


# seeded damages to one array that load reads, a 1-D array of at least one
# value; a changed value stays small, so a damaged interval never asks
# overview for more bins than memory holds
def _changed_value(rng, a):
    values = a.tolist()
    i = rng.randrange(len(values))
    if a.dtype.kind == "U":
        values[i] = rng.choice(("", "x", "a,b", values[0]))
    else:
        values[i] = rng.choice((-1, 0, 1, values[i] + 1, values[i] - 1))
    return np.array(values)


def _truncated(rng, a):
    return a[: rng.randrange(len(a))]


def _reversed(rng, a):
    return a[::-1]


def _float_dtype(rng, a):
    return (np.arange(len(a)) if a.dtype.kind == "U" else a).astype(np.float64)


def _repeated_element(rng, a):
    i = rng.randrange(len(a))
    return np.insert(a, i, a[i])


def _emptied(rng, a):
    return a[:0]


def _zero_dimensional(rng, a):
    return np.array(a[rng.randrange(len(a))])


def _swapped_ends(rng, a):
    a = a.copy()
    a[[0, -1]] = a[[-1, 0]]
    return a


# the arrays the seeded damages draw from, in the order that fixes the
# draws of the seeded test: those load reads and the two intervals, which
# it ignores, so damaging them alone must change nothing
DAMAGED = (
    "keys",
    "members",
    "tx_amount",
    *(f"{prefix}_{column}" for prefix in ("cert", "tx") for column in ("interval", "t", "src", "dst")),
)

SEEDED_DAMAGES = (
    _changed_value,
    _truncated,
    _reversed,
    _float_dtype,
    _repeated_element,
    _emptied,
    _zero_dimensional,
    _swapped_ends,
)


def test_seeded_snapshot_damage_runs_or_is_clean_state_error(ledger_file, tmp_path):
    # each case damages one or two of the arrays of DAMAGED; every metric
    # stage then runs, or fails through an Error: line naming the snapshot,
    # and runs where only intervals are damaged
    runner = CliRunner()
    out = tmp_path / "o"
    result = runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    path = out / "snapshot.npz"
    with np.load(path) as data:
        intact = {name: data[name] for name in data.files}
    rng = random.Random(5)
    for case in range(36):
        arrays, damages = dict(intact), []
        names = rng.sample(DAMAGED, rng.randint(1, 2))
        for name in names:
            damage = rng.choice(SEEDED_DAMAGES)
            arrays[name] = damage(rng, arrays[name])
            damages.append(f"{damage.__name__}({name})")
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        for command in ALL_COMMANDS:
            result = runner.invoke(main, [command, "--out", str(out), *QUICK.get(command, ())])
            context = (case, damages, command, result.output)
            # a ClickException exits through SystemExit; anything else is a traceback
            assert isinstance(result.exception, (SystemExit, type(None))), (*context, result.exception)
            assert result.exit_code in (0, 1) and "Traceback" not in result.output, context
            errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
            assert bool(result.exit_code) == any(str(path) in line for line in errors), context
            if all(name.endswith("_interval") for name in names):
                assert result.exit_code == 0, context


# seeded damages to a ledger file's bytes, lines or fields
def _flipped_byte(rng, data):
    if not data:
        return data
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1 :]


def _truncated_bytes(rng, data):
    return data[: rng.randrange(len(data) + 1)]


def _on_lines(change):
    """A damage that changes the list of the ledger's lines."""

    def damage(rng, data):
        lines = data.split(b"\n")
        change(rng, lines)
        return b"\n".join(lines)

    damage.__name__ = change.__name__
    return damage


@_on_lines
def _repeated_line(rng, lines):
    i = rng.randrange(len(lines))
    lines.insert(i, lines[i])


@_on_lines
def _deleted_line(rng, lines):
    del lines[rng.randrange(len(lines))]


@_on_lines
def _swapped_lines(rng, lines):
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]


@_on_lines
def _changed_field(rng, lines):
    i = rng.randrange(len(lines))
    try:
        record = json.loads(lines[i])
        field = rng.choice(sorted(record))
    except (ValueError, TypeError, IndexError):  # no JSON object, or an empty one
        return
    if rng.random() < 0.3:
        del record[field]
    else:
        record[field] = rng.choice(
            (None, -1, 0, 1.5, 2**63, 2**70, "", "x", "a,b", "#c", "é", [], {}, True, "5")
        )
    lines[i] = json.dumps(record).encode()


LEDGER_DAMAGES = (
    _flipped_byte,
    _truncated_bytes,
    _repeated_line,
    _deleted_line,
    _swapped_lines,
    _changed_field,
)


def test_seeded_ledger_damage_ingests_or_is_one_clean_error(tmp_path):
    # ingest of a damaged ledger, strict or not, with a donation wallet or
    # without, exits 0, or 1 with one Error: line and no traceback
    ledgers = []
    for records, wallet in ((example_records(), "w"), (random_records(9), "A000")):
        write_records(tmp_path / "ledger.jsonl", records)
        ledgers.append(((tmp_path / "ledger.jsonl").read_bytes(), wallet))
    runner = CliRunner()
    path, out = tmp_path / "damaged.jsonl", tmp_path / "o"
    rng = random.Random(17)
    for case in range(60):
        data, wallet = ledgers[case % 2]
        damages = rng.sample(LEDGER_DAMAGES, rng.randint(1, 3))
        for damage in damages:
            data = damage(rng, data)
        path.write_bytes(data)
        remuniter = f"--remuniter={wallet}"
        for extra in ([], ["--strict"], [remuniter], ["--strict", remuniter]):
            result = runner.invoke(main, ["ingest", f"--input={path}", f"--out={out}", *extra])
            context = (case, [d.__name__ for d in damages], extra, result.output)
            # a ClickException exits through SystemExit; anything else is a traceback
            error = result.exception
            assert isinstance(error, (SystemExit, type(None))), (*context, error)
            assert result.exit_code in (0, 1) and "Traceback" not in result.output, context
            errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
            assert len(errors) == result.exit_code, context


@pytest.mark.parametrize(
    "key, fault",
    [
        ("a,b", "contains ','"),
        ("a|b", "contains '|'"),
        ('a"b', "contains '\"'"),
        ("a b", "contains ' '"),
        ("a\nb", "contains '\\n'"),
        ("#x", "starts with '#'"),
        ("", "is empty"),
        # no UTF-8 file can hold it: every CSV naming it would fail to write
        ("w\ud800x", "contains '\\ud800'"),
    ],
    ids=["comma", "pipe", "quote", "space", "newline", "hash", "empty", "surrogate"],
)
def test_snapshot_key_that_ingest_rejects_is_state_error(ledger_file, tmp_path, key, fault):
    # written unquoted, such a key would break the CSV rows that name it
    runner = CliRunner()
    out = tmp_path / "o"
    result = runner.invoke(main, ["ingest", "--input", str(ledger_file), "--out", str(out)])
    assert result.exit_code == 0, result.output

    def bad_first_key(a):
        keys = a["keys"].tolist()
        keys[0] = key
        a["keys"] = np.array(keys)

    _rewrite(bad_first_key)(out / "snapshot.npz")
    result = runner.invoke(main, ["overview", "--out", str(out)])
    assert_clean_error(result, str(out / "snapshot.npz"), f"key 0 in keys.npy {fault}")
    assert not (out / "degrees.csv").exists()


def test_keys_of_ascii_letters_and_digits_pass_the_key_rule():
    # loading a snapshot passes a table of such keys without a per-key scan
    assert not any(map(_key_fault, string.ascii_letters + string.digits))


# keys the rule accepts though they are not ASCII letters and digits, and
# keys it rejects, which a table may hold in any place
LEGAL_KEYS = ("é", "-", "_", "naïve", "a-b_c", "Ω", "x#")
FAULTY_KEYS = ("", "#", "#a", "#a,b", "a,b", "a|b", 'a"', "a b", "é\t", "\n", "a\x00", "\x7f", "é\x85")


@pytest.mark.parametrize("seed", range(60))
def test_key_check_names_the_first_faulty_key_as_a_per_key_scan_does(seed):
    rng = random.Random(seed)
    keys = [f"k{i}{rng.choice(LEGAL_KEYS)}" for i in range(rng.randint(1, 40))]
    if seed % 5:
        keys.insert(0, rng.choice(LEGAL_KEYS))
    for fault in rng.sample(FAULTY_KEYS, (0, 1, 2, 3)[seed % 4]):
        keys.insert(rng.choice((0, rng.randint(0, len(keys)), len(keys))), fault)
    want = oracles.key_table_fault(keys)
    if want is None:
        snapshot._check_keys(keys)
    else:
        with pytest.raises(ValueError) as err:
            snapshot._check_keys(keys)
        assert str(err.value) == want


def test_rerun_leaves_no_output_that_this_run_skips(ledger_file, tmp_path):
    # a null model needs 2 edges, and the filtered repartition --remuniter:
    # a rerun without them must not keep an earlier run's tables beside its own
    runner = CliRunner()

    def run(out, *args):
        result = runner.invoke(main, [*args, "--out", str(out), *QUICK.get(args[0], ())])
        assert result.exit_code == 0, result.output

    out = tmp_path / "o"
    run(out, "ingest", "--input", str(ledger_file), "--remuniter", "w")
    run(out, "graph")
    skipped = {"null_model.csv", "null_model_txmm.csv", "repartition_filtered.csv"}
    assert skipped <= set(dir_digest(out))

    small = tmp_path / "small.jsonl"
    records = [IdentityRecord(0, "A", "a"), IdentityRecord(0, "B", "b"), CertRecord(1, "A", "B")]
    write_records(small, records)
    fresh = tmp_path / "fresh"
    for where in (out, fresh):
        run(where, "ingest", "--input", str(small))
        run(where, "graph")
    assert not skipped & set(dir_digest(out))
    assert dir_digest(out) == dir_digest(fresh)
