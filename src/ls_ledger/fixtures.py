"""Bundled fixtures: the 12-link example stream and seeded random data.

The example stream is the four-node, twelve-link stream over [0, 6] used
throughout the tests; its closure values and induced graph are known
exactly. Random generators produce streams and ledger record files that
are reproducible from a seed, for property tests and demos.

Run ``python -m ls_ledger.fixtures OUT.jsonl`` to write the example ledger
in the ingestion format.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Sequence

from .ledger_ingest import CertRecord, IdentityRecord, TxRecord, format_record
from .stream_core import Link, LinkStream, NodeTable, build_stream

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


def example_stream() -> tuple[LinkStream, NodeTable]:
    """The 12-link stream over nodes a, b, c, d and interval [0, 6]."""
    table = NodeTable("abcd")
    links = [Link(t, table.id_of(u), table.id_of(v)) for t, u, v in EXAMPLE_EVENTS]
    return build_stream(links, interval=(0, 6)), table


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
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(format_record(rec) + "\n")


def random_links(
    rng: random.Random,
    n_nodes: int,
    n_links: int,
    t_max: int = 100,
    with_amounts: bool = False,
) -> list[Link]:
    """Uniform random directed links over ``n_nodes`` handles; duplicates
    and reciprocal links arise naturally."""
    links = []
    for _ in range(n_links):
        u, v = rng.sample(range(n_nodes), 2)
        amount = rng.randint(0, 10_000) if with_amounts else None
        links.append(Link(rng.randint(0, t_max), u, v, amount=amount))
    return links


def random_stream(
    seed: int,
    max_nodes: int = 10,
    max_links: int = 200,
    t_max: int = 100,
) -> LinkStream:
    """A seeded random stream with 2..max_nodes nodes and 1..max_links links."""
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, max_links)
    return build_stream(random_links(rng, n, m, t_max=t_max))


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
    if len(args) == 2:
        write_records(args[0], random_records(int(args[1])))
    else:
        write_records(args[0], example_records())
    print(f"wrote {args[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
