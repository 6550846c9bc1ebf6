"""Each stage process loads only the ``ls_ledger`` modules it runs.

Every CLI stage is its own process, so a metric module imported at the top
of ``cli`` would be paid for by every stage. Each case runs one command in
a fresh interpreter, the way ``ls-ledger`` does, and compares the
``ls_ledger`` submodules loaded at its end with the exact set expected.
The package itself, which ``python -m ls_ledger.cli`` imports before
``cli``, loads its names on first use.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ls_ledger
from ls_ledger import stream_core
from ls_ledger.fixtures import example_records, write_records

SRC = Path(__file__).resolve().parents[1] / "src"
BASE = {"atomic", "cli", "errors", "snapshot", "stream_core"}

# run main(), then print the loaded submodules as the last stdout line
PROBE = """
import json, sys
from ls_ledger.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exit:
    code = exit.code
print(json.dumps([code, sorted(
    m.split(".", 1)[1] for m in sys.modules if m.startswith("ls_ledger.")
)]))
"""

EXPECTED = {
    "--help": BASE,
    "ingest": BASE | {"ledger_ingest"},
    "overview": BASE | {"graph_metrics"},
    "graph": BASE | {"graph_metrics"},
    "closures": BASE | {"temporal_metrics"},
    "match": BASE | {"interplay"},
    "relations": BASE | {"interplay"},
    "neighborhoods": BASE | {"temporal_metrics"},
}


def loaded_modules(args: list[str]) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args], env=env, capture_output=True, text=True
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code in (0, None), proc.stderr
    return set(modules)


@pytest.fixture(scope="module")
def ingested(tmp_path_factory) -> tuple[Path, set[str]]:
    """The --out directory of an ingest of the example ledger, and the
    modules that ingest loaded."""
    tmp = tmp_path_factory.mktemp("stages")
    ledger = tmp / "ledger.jsonl"
    write_records(ledger, example_records())
    out = tmp / "out"
    return out, loaded_modules(["ingest", "--input", str(ledger), "--out", str(out)])


def test_bare_package_import_loads_no_submodule_and_no_numpy():
    # python -m ls_ledger.cli imports the package before cli.py runs, so
    # this is what loads ahead of cli's first line
    code = "import json, sys, ls_ledger; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    loaded = json.loads(proc.stdout)
    assert [m for m in loaded if m.startswith("ls_ledger")] == ["ls_ledger"]
    assert "numpy" not in loaded and "click" not in loaded


def test_package_names_resolve_on_first_use():
    for name in ls_ledger.__all__:
        assert getattr(ls_ledger, name) is getattr(stream_core, name), name
    from ls_ledger import Link, build_stream

    assert build_stream([Link(0, 0, 1)]).link_count == 1
    with pytest.raises(AttributeError, match="no_such_name"):
        ls_ledger.no_such_name


def test_help_loads_no_metric_module():
    assert loaded_modules(["--help"]) == EXPECTED["--help"]


def test_ingest_loads_only_the_parser(ingested):
    assert ingested[1] == EXPECTED["ingest"]


@pytest.mark.parametrize("command", [c for c in EXPECTED if c not in ("--help", "ingest")])
def test_stage_loads_only_its_metric_module(ingested, command):
    args = [command, "--out", str(ingested[0])]
    if command == "graph":
        args += ["--samples", "2"]
    assert loaded_modules(args) == EXPECTED[command]
