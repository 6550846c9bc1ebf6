"""The stage process: ``python -m ls_ledger.cli`` and ``cli.run``.

Every stage of a pipeline runs as ``python -m ls_ledger.cli STAGE`` (or the
``ls-ledger`` script, which calls the same ``run``), not through click's
test runner. These cases run that path in a fresh interpreter and compare
what it prints and writes with ``CliRunner`` on the same input, and check
that the process's collector settings stay out of ``main()`` and of
library imports.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import click
from click.testing import CliRunner

from ls_ledger.cli import main
from ls_ledger.fixtures import example_records, write_records
from ls_ledger.ledger_ingest import parse_records

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
PROG = "python -m ls_ledger.cli"


def stage(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ls_ledger.cli", *args], env=ENV, capture_output=True, text=True
    )


def python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_help_matches_click_runner():
    proc = stage("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == CliRunner().invoke(main, ["--help"], prog_name=PROG).output


def test_missing_snapshot_is_one_error_line(tmp_path):
    proc = stage("overview", "--out", str(tmp_path / "nope"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), proc.stderr
    assert "snapshot" in lines[0]
    assert not (tmp_path / "nope").exists()


def test_unknown_option_is_usage_error(tmp_path):
    proc = stage("closures", "--out", str(tmp_path), "--no-such-option")
    assert proc.returncode == 2
    assert "No such option" in proc.stderr


def test_stages_write_what_click_runner_writes(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    write_records(ledger, example_records())
    runner = CliRunner()
    outs = {side: tmp_path / side for side in ("process", "runner")}
    for args in (["ingest", "--input", str(ledger)], ["graph", "--samples", "5"], ["closures"]):
        proc = stage(*args, "--out", str(outs["process"]))
        assert proc.returncode == 0, proc.stderr
        result = runner.invoke(main, [*args, "--out", str(outs["runner"])])
        assert result.exit_code == 0, result.output
        assert proc.stdout == result.stdout, args[0]
    names = sorted(p.name for p in outs["runner"].iterdir())
    assert names == sorted(p.name for p in outs["process"].iterdir())
    assert "closures_k3.csv" in names and "null_model.csv" in names
    for name in names:
        assert (outs["process"] / name).read_bytes() == (outs["runner"] / name).read_bytes(), name


def test_ingest_writes_its_warnings_in_one_write(tmp_path, monkeypatch):
    ledger = tmp_path / "ledger.jsonl"
    write_records(ledger, example_records())
    clean = stage("ingest", "--input", str(ledger), "--out", str(tmp_path / "clean"))
    assert clean.returncode == 0 and clean.stderr == ""  # not even a blank line
    with ledger.open("a") as fh:
        fh.write('{"type":"nope","time":0}\nnot json\n')
    issues = parse_records(ledger.read_text().splitlines()).issues
    assert len(issues) == 2
    dirty = stage("ingest", "--input", str(ledger), "--out", str(tmp_path / "dirty"))
    assert dirty.returncode == 0, dirty.stderr
    assert dirty.stderr == "".join(f"warning: skipped line {n}: {r}\n" for n, r in issues)

    to_stderr = []
    echo = click.echo
    monkeypatch.setattr(
        click, "echo", lambda message=None, **kw: to_stderr.append(kw.get("err")) or echo(message, **kw)
    )
    args = ["ingest", "--input", str(ledger), "--out", str(tmp_path / "runner")]
    assert CliRunner().invoke(main, args).exit_code == 0
    assert to_stderr.count(True) == 1


def test_console_script_runs_the_process_entry_point():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'ls-ledger = "ls_ledger.cli:run"'


def test_importing_cli_keeps_the_default_collector():
    code = "import gc, ls_ledger.cli; print(gc.isenabled(), gc.get_freeze_count())"
    assert python(code).split() == ["True", "0"]


def test_in_process_main_keeps_the_default_collector(tmp_path):
    write_records(tmp_path / "ledger.jsonl", example_records())
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    result = CliRunner().invoke(
        main, ["ingest", "--input", str(tmp_path / "ledger.jsonl"), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 0, result.output
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


# Counts the collections that start, before anything is frozen, while the
# body of a module imported on the way to ``main`` runs: numpy, click, the
# stdlib modules they load, and ``ls_ledger``'s own submodules. The bodies
# of ``ls_ledger/__init__.py`` and ``cli.py`` themselves are left out, as is
# runpy's compiling of ``cli.py`` when no bytecode is cached: those run
# before ``gc.disable()`` can, and allocate too little to matter.
COLLECTION_PROBE = """
import gc, importlib.util, json, os, runpy, sys

PACKAGE = importlib.util.find_spec("ls_ledger").submodule_search_locations[0]
OUTER = {os.path.join(PACKAGE, "__init__.py"), os.path.join(PACKAGE, "cli.py"), "<string>"}

def importing():
    f = sys._getframe()
    while f is not None:
        if f.f_code.co_name == "<module>" and f.f_code.co_filename not in OUTER:
            return True
        f = f.f_back
    return False

counts = [0, 0, 0]
def count(phase, info):
    if phase == "start" and gc.get_freeze_count() == 0 and importing():
        counts[info["generation"]] += 1

gc.callbacks.append(count)
sys.argv = ["ls-ledger", "--help"]
try:
    runpy.run_module("ls_ledger.cli", run_name="__main__")
except SystemExit as exit:
    assert exit.code in (0, None), exit.code
gc.callbacks.remove(count)
print(json.dumps(counts))
"""


def test_no_collection_while_the_stage_imports_load():
    counts = json.loads(python(COLLECTION_PROBE).splitlines()[-1])
    assert counts == [0, 0, 0]
