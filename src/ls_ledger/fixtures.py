"""The ledger writer: the example ledger, seeded random ledgers, and the
records that make them.

No stage imports this module, and it imports no pipeline module, nor
numpy. The example events are the four-node, twelve-link stream over
[0, 6] used throughout the tests; its closure values and induced graph
are known exactly. ``random_records`` draws a ledger reproducible from a
seed, for property tests, golden outputs and demos. ``format_record``
writes one record as a line in the ingestion format, which
``ledger_ingest.parse_records`` reads back.

Run ``python -m ls_ledger.fixtures OUT.jsonl [SEED]`` to write the example
ledger, or the random ledger of SEED.
"""

from __future__ import annotations

import json
import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .atomic import atomic_file

EXAMPLE_EVENTS: tuple[tuple[int, str, str], ...] = (
    (0, "c", "b"),
    (0, "a", "d"),
    (1, "d", "a"),
    (2, "b", "a"),
    (2, "c", "d"),
    (4, "c", "b"),
    (4, "b", "d"),
    (5, "a", "b"),
    (5, "b", "c"),
    (5, "d", "c"),
    (6, "a", "b"),
    (6, "d", "a"),
)


@dataclass(frozen=True, slots=True)
class IdentityRecord:
    t: int
    key: str
    uid: str


@dataclass(frozen=True, slots=True)
class CertRecord:
    t: int
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class TxRecord:
    t: int
    src: str
    dst: str
    amount: int


def format_record(rec: IdentityRecord | CertRecord | TxRecord) -> str:
    """Canonical one-line serialization; parse_records round-trips it."""
    if isinstance(rec, IdentityRecord):
        obj = {"type": "identity", "time": rec.t, "key": rec.key, "uid": rec.uid}
    elif isinstance(rec, CertRecord):
        obj = {"type": "cert", "time": rec.t, "from": rec.src, "to": rec.dst}
    else:
        obj = {
            "type": "tx",
            "time": rec.t,
            "from": rec.src,
            "to": rec.dst,
            "amount": rec.amount,
        }
    return json.dumps(obj, separators=(",", ":"))


def example_records() -> list[IdentityRecord | CertRecord | TxRecord]:
    """The example stream as a full ledger: identities for the four nodes,
    the 12 links as certifications, the same 12 as member transactions, and
    two transactions with an anonymous wallet so every substream is
    non-trivial."""
    records: list[IdentityRecord | CertRecord | TxRecord] = [
        IdentityRecord(0, key, f"user_{key}") for key in "abcd"
    ]
    records.extend(CertRecord(t, u, v) for t, u, v in EXAMPLE_EVENTS)
    records.extend(
        TxRecord(t, u, v, amount=100 * (i + 1))
        for i, (t, u, v) in enumerate(EXAMPLE_EVENTS)
    )
    records.append(TxRecord(3, "a", "w", amount=500))
    records.append(TxRecord(4, "w", "b", amount=250))
    return records


def write_records(path, records: Sequence) -> None:
    """Write ``records`` to ``path``, one line each, whole or not at all."""
    with atomic_file(Path(path), encoding="utf-8") as fh:
        for rec in records:
            fh.write(format_record(rec) + "\n")


def random_records(
    seed: int,
    n_members: int = 8,
    n_anonymous: int = 4,
    n_certs: int = 30,
    n_txs: int = 60,
    t_max: int = 1_000,
) -> list[IdentityRecord | CertRecord | TxRecord]:
    """A seeded random ledger: identities, certifications among members,
    transactions over all keys."""
    rng = random.Random(seed)
    members = [f"M{i:03d}" for i in range(n_members)]
    wallets = [f"A{i:03d}" for i in range(n_anonymous)]
    records: list[IdentityRecord | CertRecord | TxRecord] = [
        IdentityRecord(rng.randint(0, t_max), key, f"user_{key}") for key in members
    ]
    for _ in range(n_certs):
        u, v = rng.sample(members, 2)
        records.append(CertRecord(rng.randint(0, t_max), u, v))
    everyone = members + wallets
    for _ in range(n_txs):
        u, v = rng.sample(everyone, 2)
        records.append(TxRecord(rng.randint(0, t_max), u, v, rng.randint(1, 50_000)))
    return records


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    # SEED is a non-negative integer, as random.Random would seed -3 as 3
    if len(args) not in (1, 2) or not all(seed.isdecimal() for seed in args[1:]):
        print("usage: python -m ls_ledger.fixtures OUT.jsonl [SEED]", file=sys.stderr)
        return 2
    records = random_records(int(args[1])) if len(args) == 2 else example_records()
    try:
        write_records(args[0], records)
    except OSError as err:  # named as ls-ledger names it: OUT, not its temporary file
        print(f"Error: {err.strerror or err}: {args[0]}", file=sys.stderr)
        return 1
    print(f"wrote {args[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
