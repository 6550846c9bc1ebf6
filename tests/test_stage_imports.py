"""Each stage process loads only the ``ls_ledger`` modules it runs.

Every CLI stage is its own process, so a metric module imported at the top
of ``cli`` would be paid for by every stage. Each case runs one command in
a fresh interpreter, the way ``ls-ledger`` does, and compares the
``ls_ledger`` submodules loaded at its end with the exact set expected;
``numpy.ma`` (about 1.4 MB and 10 ms, which ``np.unique`` without
``return_inverse`` loads on numpy 2.4) and ``dataclasses`` (about 1 ms,
plus 0.5-0.75 ms per class defined) each count as one more, never
expected, unless a bare ``import numpy`` loads it already, as numpy 1.x
does ``numpy.ma``.
The package itself, which ``python -m ls_ledger.cli`` imports before
``cli``, loads its names on first use, and the ledger writer
(``fixtures``) loads no pipeline module and not numpy.
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

# run main(), then print the loaded submodules as the last stdout line,
# numpy.ma and dataclasses among them only where a bare numpy import does
# not load them
PROBE = """
import json, sys
import numpy
pinned = [m for m in ("numpy.ma", "dataclasses") if m not in sys.modules]
from ls_ledger.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exit:
    code = exit.code
print(json.dumps([code, sorted(
    m.split(".", 1)[1] for m in sys.modules if m.startswith("ls_ledger.")
) + [m for m in pinned if m in sys.modules]]))
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


def loaded_modules(args: list[str], probe: str = PROBE) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True
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


def imported(module: str) -> list[str]:
    """Every module loaded by importing ``module`` in a fresh interpreter."""
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    return json.loads(proc.stdout)


def test_bare_package_import_loads_no_submodule_and_no_numpy():
    # python -m ls_ledger.cli imports the package before cli.py runs, so
    # this is what loads ahead of cli's first line
    loaded = imported("ls_ledger")
    assert [m for m in loaded if m.startswith("ls_ledger")] == ["ls_ledger"]
    assert "numpy" not in loaded and "click" not in loaded


def test_ledger_writer_loads_no_pipeline_code():
    loaded = imported("ls_ledger.fixtures")
    assert [m for m in loaded if m.startswith("ls_ledger")] == [
        "ls_ledger", "ls_ledger.atomic", "ls_ledger.fixtures",
    ]
    assert "numpy" not in loaded


def test_package_names_resolve_on_first_use():
    for name in ls_ledger.__all__:
        assert getattr(ls_ledger, name) is getattr(stream_core, name), name
    from ls_ledger import stream_from_columns

    assert stream_from_columns([0], [0], [1]).link_count == 1
    with pytest.raises(AttributeError, match="no_such_name"):
        ls_ledger.no_such_name


def test_numpy_ma_pin_is_exact_on_numpy_2():
    # numpy 2 loads numpy.ma lazily, so there the pin counts it whoever
    # loads it: a stage that calls np.unique without return_inverse fails
    code = "import sys, numpy; print(numpy.__version__, 'numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    version, eager = proc.stdout.split()
    if int(version.split(".")[0]) < 2:
        pytest.skip(f"numpy {version} imports numpy.ma on import")
    assert eager == "False"
    run = "    main(sys.argv[1:])"
    unique_first = PROBE.replace(run, "    numpy.unique(numpy.arange(3))\n" + run)
    assert unique_first != PROBE
    assert loaded_modules(["--help"], unique_first) == EXPECTED["--help"] | {"numpy.ma"}


def test_dataclasses_pin_counts_a_stage_that_loads_it():
    code = "import sys, numpy; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if proc.stdout.split() != ["False"]:
        pytest.skip("a bare numpy import loads dataclasses")
    run = "    main(sys.argv[1:])"
    dataclasses_first = PROBE.replace(run, "    import dataclasses\n" + run)
    assert dataclasses_first != PROBE
    assert loaded_modules(["--help"], dataclasses_first) == EXPECTED["--help"] | {"dataclasses"}


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
