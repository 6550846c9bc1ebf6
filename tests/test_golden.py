"""Golden outputs: the sha256 of every file the CLI writes to ``--out``, and
of each CSV's rows (its lines without the configuration lines).

Two runs of the same code agreeing (``test_cli_determinism_byte_identical``)
does not show that a refactor kept the numbers; these hashes pin them across
versions. The configuration lines are the ``#`` comment lines that record
how a file was made: ``# ls-ledger <command>``, the ``# bin=... window=...``
knobs line and ``# input=...``. The row hashes keep a change of those alone
apart from one that moves a result: a re-record of configuration lines
leaves every one of them as it was. Every other line is hashed, the
comment lines that hold results too (the match fractions, the average
clustering, the null model's mean). After a deliberate output change,
regenerate them with

    PYTHONPATH=src python tests/test_golden.py

which prints the files whose configuration lines alone changed and those
whose rows changed, and name in CHANGES.md which files changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from ls_ledger.cli import main
from ls_ledger.fixtures import example_records, random_records, write_records

GOLDEN = Path(__file__).with_name("golden.json")
STAGES = ("overview", "graph", "closures", "match", "relations", "neighborhoods")

# ledger name -> (records, options of each stage that is given some)
CASES = {
    "example": (example_records, {}),
    "random77": (
        lambda: random_records(77, n_members=10, n_certs=60, n_txs=90),
        {"graph": ("--seed", "5", "--samples", "40")},
    ),
    # the donation wallet A000 pays 5 members in 7 transactions: pins
    # repartition_filtered.csv
    "random77_remuniter": (
        lambda: random_records(77, n_members=10, n_certs=60, n_txs=90),
        {"ingest": ("--remuniter", "A000"), "graph": ("--seed", "5", "--samples", "40")},
    ),
    # rows 1-2 of ratios.csv normalized by ordered member pairs
    "random77_ordered": (
        lambda: random_records(77, n_members=10, n_certs=60, n_txs=90),
        {"graph": ("--seed", "5", "--samples", "40"), "relations": ("--ordered-pairs",)},
    ),
    # a sparse cert graph: distances 2 to 11 and 47 unreachable pairs
    "random79": (
        lambda: random_records(79, n_members=40, n_certs=40, n_txs=200),
        {"graph": ("--seed", "3", "--samples", "10")},
    ),
    # 12 wallets trading among themselves: the txaa graph has 8 triangles,
    # so clustering_txaa.csv holds coefficients from 0 to 2/3
    "random80_txaa": (
        lambda: random_records(80, n_members=12, n_anonymous=12, n_certs=60, n_txs=160),
        {"graph": ("--seed", "2", "--samples", "20")},
    ),
    # 200 links over 21 instants: same-instant links and repeated pairs give
    # 11 zero look-back 2-closures, 53 finite 3-closures in closures_k3.csv
    # and 6 zero-delay matches, pinning the tie rules
    "random81_ties": (
        lambda: random_records(81, n_members=8, n_anonymous=4, n_certs=80, n_txs=120, t_max=20),
        {"graph": ("--seed", "1", "--samples", "5")},
    ),
    # the lines in a seeded random order: identities after their key's
    # transactions, keys first seen as a transaction's "to"; pins the
    # handle order in snapshot.npz
    "random82_shuffled": (
        lambda: shuffled(
            random_records(82, n_members=10, n_anonymous=6, n_certs=50, n_txs=120), 82
        ),
        {"graph": ("--seed", "6", "--samples", "10")},
    ),
    # members without a single certification: an empty certification
    # stream over a non-empty node set, read by every stage
    "random83_nocert": (
        lambda: random_records(83, n_members=10, n_certs=0, n_txs=60),
        {"graph": ("--seed", "4", "--samples", "5")},
    ),
    # certifications without a single transaction: empty transaction streams
    "random83_notx": (
        lambda: random_records(83, n_members=10, n_certs=40, n_txs=0),
        {"graph": ("--seed", "4", "--samples", "5")},
    ),
}


def shuffled(records: list, seed: int) -> list:
    random.Random(seed).shuffle(records)
    return records


# the starts of the comment lines that record a run's configuration
CONFIGURATION = (b"# ls-ledger ", b"# bin=", b"# input=")


def data_rows(data: bytes) -> bytes:
    """A CSV's lines without its configuration lines: its result comment
    lines, the header and the rows."""
    return b"".join(ln for ln in data.splitlines(keepends=True) if not ln.startswith(CONFIGURATION))


def output_hashes(case: str, workdir: Path) -> dict[str, dict[str, str]]:
    """Run every stage on the case's ledger; hash each file in ``--out``
    (``files``) and each CSV's rows without its configuration lines
    (``rows``).

    The ledger and output paths are relative to ``workdir`` because the
    ingest comment lines record the input path.
    """
    make_records, options = CASES[case]
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=workdir):
        write_records("ledger.jsonl", make_records())
        commands = [["ingest", "--input", "ledger.jsonl"], *([s] for s in STAGES)]
        for command in commands:
            result = runner.invoke(main, [*command, "--out", "out", *options.get(command[0], ())])
            assert result.exit_code == 0, f"{command[0]}: {result.output}"
        outputs = {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}
    return {
        "files": {name: sha256(data) for name, data in outputs.items()},
        "rows": {
            name: sha256(data_rows(data))
            for name, data in outputs.items()
            if name.endswith(".csv")
        },
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def differing(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The names whose hash differs, or that only one side holds."""
    return sorted(n for n in expected.keys() | actual.keys() if expected.get(n) != actual.get(n))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_hashes(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    actual = output_hashes(case, tmp_path)
    rows = differing(expected["rows"], actual["rows"])
    assert not rows, f"{case}: rows differ from {GOLDEN.name}: {rows}"
    files = differing(expected["files"], actual["files"])
    assert not files, f"{case}: outputs differ from {GOLDEN.name}: {files}"


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {case: output_hashes(case, Path(tmp)) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    for case, new in hashes.items():
        old = recorded.get(case, {"files": {}, "rows": {}})
        rows = differing(old.get("rows", {}), new["rows"])
        comments = [n for n in differing(old["files"], new["files"]) if n not in rows]
        print(f"{case}: configuration lines alone: {comments}; rows: {rows}", file=sys.stderr)
