"""Each stage process loads only the ``ls_ledger`` modules it runs.

Every CLI stage is its own process, so a metric module imported at the top
of ``cli`` would be paid for by every stage. Each case runs one command in
a fresh interpreter, the way ``ls-ledger`` does, and compares the
``ls_ledger`` submodules loaded at its end with the exact set expected.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
