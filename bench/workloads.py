"""Seeded ledgers for the benchmark workloads.

Every generator draws from one ``random.Random(seed)`` and writes the
ledger in the ingestion format (line-delimited JSON), so the same seed
gives byte-identical input. Keys are 44 base58 characters like the real
currency's public keys. All ledgers span two years of Unix time, so the
daily activity bins and the closure look-backs have realistic lengths.

The generators do not import the program: the benchmark's inputs cannot
move when the program's own fixtures change. ``uniform`` draws certs and
transactions as ``ls_ledger.fixtures.random_records`` does (a uniform
ordered pair of distinct keys per record), so its sizes compare with the
hand-run figures the benchmark replaces.

Each generator also tallies what the program must report about its input
(record counts, the per-substream transaction counts and amounts, the
miners paid by the donation wallet, the line numbers of malformed lines)
so the benchmark can check outputs for any seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
T0 = 1_488_000_000  # early 2017, when the real currency started
SPAN = 2 * 365 * 86_400
LABELS = ("MM", "MA", "AM", "AA")


@dataclass
class Ledger:
    """A generated ledger and the facts about it that outputs must show."""

    path: Path
    remuniter: str
    lines: int = 0
    identities: int = 0
    certs: int = 0
    txs: int = 0
    malformed: list[int] = field(default_factory=list)  # 1-based line numbers
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABELS, 0))
    amounts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABELS, 0))
    filtered_counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABELS, 0))
    filtered_amounts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABELS, 0))
    miners: set[str] = field(default_factory=set)
    cert_edges: list[tuple[str, str]] = field(default_factory=list)


class _Writer:
    """Appends records to the ledger file and to the ledger's tallies."""

    def __init__(self, ledger: Ledger, members: set[str]):
        self.ledger = ledger
        self.members = members
        self.out: list[str] = []

    def raw(self, line: str) -> None:
        self.out.append(line)

    def identity(self, t: int, key: str, uid: str) -> None:
        self.ledger.identities += 1
        self.raw(f'{{"type":"identity","time":{t},"key":"{key}","uid":"{uid}"}}')

    def cert(self, t: int, src: str, dst: str) -> None:
        self.ledger.certs += 1
        self.ledger.cert_edges.append((src, dst))
        self.raw(f'{{"type":"cert","time":{t},"from":"{src}","to":"{dst}"}}')

    def tx(self, t: int, src: str, dst: str, amount: int) -> None:
        led = self.ledger
        led.txs += 1
        label = ("M" if src in self.members else "A") + ("M" if dst in self.members else "A")
        led.counts[label] += 1
        led.amounts[label] += amount
        if led.remuniter in (src, dst):
            if src == led.remuniter and dst in self.members:
                led.miners.add(dst)
        else:
            led.filtered_counts[label] += 1
            led.filtered_amounts[label] += amount
        self.raw(
            f'{{"type":"tx","time":{t},"from":"{src}","to":"{dst}","amount":{amount}}}'
        )

    def write(self) -> Ledger:
        self.ledger.lines = len(self.out)
        self.ledger.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.ledger.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.out) + "\n")
        return self.ledger


def _keys(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    keys = []
    while len(keys) < n:
        key = "".join(rng.choices(B58, k=44))
        if key not in taken:
            taken.add(key)
            keys.append(key)
    return keys


def _times(rng: random.Random, n: int) -> list[int]:
    return [T0 + rng.randrange(SPAN) for _ in range(n)]


def _people(rng: random.Random, n_members: int, n_wallets: int):
    taken: set[str] = set()
    return _keys(rng, n_members, taken), _keys(rng, n_wallets, taken)


def _identities(w: _Writer, rng: random.Random, members: list[str]) -> None:
    for i, key in enumerate(members):
        w.identity(T0 + rng.randrange(SPAN), key, f"user{i}")


def uniform(
    path: Path,
    seed: int,
    n_members: int,
    n_wallets: int,
    n_certs: int,
    n_txs: int,
) -> Ledger:
    """Certs between uniform member pairs, transactions between uniform
    pairs of all keys; wallet 0 is the donation wallet and pays members."""
    rng = random.Random(seed)
    members, wallets = _people(rng, n_members, n_wallets)
    w = _Writer(Ledger(path, remuniter=wallets[0]), set(members))
    _identities(w, rng, members)
    for t in _times(rng, n_certs):
        w.cert(t, *rng.sample(members, 2))
    everyone = members + wallets
    for t in _times(rng, n_txs):
        w.tx(t, *rng.sample(everyone, 2), rng.randint(1, 50_000))
    _pay_miners(w, rng, members, n_members // 10)
    return w.write()


def _pay_miners(w: _Writer, rng: random.Random, members: list[str], n: int) -> None:
    """Block rewards: the donation wallet pays ``n`` random members."""
    for t in _times(rng, n):
        w.tx(t, w.ledger.remuniter, rng.choice(members), rng.randint(1, 5_000))


CLOSURE = 0.9  # share of certs that close a triangle
FOLLOW = 0.5  # share of transactions along a cert pair


def clustered(
    path: Path,
    seed: int,
    n_members: int,
    n_wallets: int,
    n_certs: int,
    n_txs: int,
) -> Ledger:
    """Certs grown by triadic closure: each cert, with probability
    ``CLOSURE``, links a member to a neighbor of one of its neighbors,
    otherwise to a uniform member. A pair already linked either way is
    drawn again, so every seed gives ``n_certs`` distinct undirected edges
    and the same null-model work. Times rise with growth order, so a
    closing cert comes after the two certs it closes. With probability
    ``FOLLOW`` a transaction runs along an existing cert pair; the rest are
    uniform over all keys."""
    rng = random.Random(seed)
    members, wallets = _people(rng, n_members, n_wallets)
    w = _Writer(Ledger(path, remuniter=wallets[0]), set(members))
    _identities(w, rng, members)

    adj: dict[str, list[str]] = {m: [] for m in members}
    linked: set[tuple[str, str]] = set()
    edges: list[tuple[str, str]] = []
    for t in sorted(_times(rng, n_certs)):
        while True:
            u, v = rng.sample(members, 2)
            if edges and rng.random() < CLOSURE:
                a, mid = rng.choice(edges)
                if rng.random() < 0.5:
                    a, mid = mid, a
                x = rng.choice(adj[mid])
                if x != a:
                    u, v = a, x
            if (min(u, v), max(u, v)) not in linked:
                break
        w.cert(t, u, v)
        linked.add((min(u, v), max(u, v)))
        adj[u].append(v)
        adj[v].append(u)
        edges.append((u, v))

    everyone = members + wallets
    for t in _times(rng, n_txs):
        if rng.random() < FOLLOW:
            u, v = rng.choice(edges)
            if rng.random() < 0.5:
                u, v = v, u
        else:
            u, v = rng.sample(everyone, 2)
        w.tx(t, u, v, rng.randint(1, 50_000))
    _pay_miners(w, rng, members, n_members // 10)
    return w.write()


AA_SHARE = 0.85  # wallet-to-wallet share of transactions
BAD_SHARE = 0.02  # malformed share of lines after the identities
_BAD_LINES = (
    lambda k, m, t: f'{{"type":"tx","time":{t},"from":"{k}',  # truncated
    lambda k, m, t: f'{{"type":"tx","time":{t},"from":"{k}","to":"{m}","amount":-5}}',
    lambda k, m, t: f'{{"type":"tx","time":{t},"from":"{k}","to":"{k}","amount":5}}',
    lambda k, m, t: f'{{"type":"membership","time":{t},"key":"{m}"}}',
    lambda k, m, t: f'{{"type":"tx","time":{t},"from":"{k}","to":"{m}"}}',
    lambda k, m, t: f'{{"type":"tx","time":"{t}","from":"{k}","to":"{m}","amount":5}}',
    lambda k, m, t: f'{{"type":"identity","time":{t},"key":"{m}","uid":"dup{t}"}}',
    lambda k, m, t: f'{{"type":"cert","time":{t},"from":"{m}","to":"{m}"}}',
)


def dirty(
    path: Path,
    seed: int,
    n_members: int,
    n_wallets: int,
    n_certs: int,
    n_txs: int,
) -> Ledger:
    """Transaction-dominated ledger, ``AA_SHARE`` of it between anonymous
    wallets and the rest split evenly over MM, MA and AM, with uniform
    certs, block rewards from the donation wallet, and ``BAD_SHARE`` of
    lines malformed in ways lenient parsing skips with a warning (bad JSON,
    missing or mistyped fields, self-links, negative amounts, an unknown
    record type, a duplicate identity). No malformed line removes a valid
    record, so no cert loses its member endpoints."""
    rng = random.Random(seed)
    members, wallets = _people(rng, n_members, n_wallets)
    w = _Writer(Ledger(path, remuniter=wallets[0]), set(members))
    _identities(w, rng, members)
    for t in _times(rng, n_certs):
        w.cert(t, *rng.sample(members, 2))
    for t in _times(rng, n_txs):
        r = rng.random()
        if r < AA_SHARE:
            u, v = rng.sample(wallets, 2)
        else:
            third = (r - AA_SHARE) * 3 / (1 - AA_SHARE)
            if third < 1:
                u, v = rng.sample(members, 2)
            elif third < 2:
                u, v = rng.choice(members), rng.choice(wallets)
            else:
                u, v = rng.choice(wallets), rng.choice(members)
        w.tx(t, u, v, rng.randint(1, 50_000))
    _pay_miners(w, rng, members, n_members // 10)

    valid, w.out = w.out, []
    for i, line in enumerate(valid):
        if i >= n_members and rng.random() < BAD_SHARE:
            bad = rng.choice(_BAD_LINES)(rng.choice(wallets), rng.choice(members), T0 + rng.randrange(SPAN))
            w.out.append(bad)
            w.ledger.malformed.append(len(w.out))
        w.out.append(line)
    return w.write()


def example(path: Path) -> Ledger:
    """The program's bundled 12-link example ledger, with wallet ``w`` as
    the donation wallet; needs ``src`` on ``sys.path``."""
    from ls_ledger.fixtures import example_records

    records = example_records()
    members = {rec.key for rec in records if type(rec).__name__ == "IdentityRecord"}
    w = _Writer(Ledger(path, remuniter="w"), members)
    for rec in records:
        kind = type(rec).__name__
        if kind == "IdentityRecord":
            w.identity(rec.t, rec.key, rec.uid)
        elif kind == "CertRecord":
            w.cert(rec.t, rec.src, rec.dst)
        else:
            w.tx(rec.t, rec.src, rec.dst, rec.amount)
    return w.write()


def average_clustering(edges: list[tuple[str, str]], n_nodes: int) -> float:
    """Mean local clustering of the undirected graph of ``edges`` over
    ``n_nodes`` nodes, nodes of degree < 2 counting 0, as the program's
    ``average`` column does."""
    adj: dict[str, set[str]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    total = 0.0
    for nbrs in adj.values():
        k = len(nbrs)
        if k >= 2:
            closed = sum(len(nbrs & adj[x]) for x in nbrs) / 2
            total += 2 * closed / (k * (k - 1))
    return total / n_nodes if n_nodes else 0.0


def uniform_clustering(seed: int, n_members: int, n_certs: int, draws: int = 10) -> float:
    """Mean cert clustering of ``uniform`` at the given member and cert
    counts over ``draws`` graphs: on a graph of a few hundred certs, one
    draw varies by more than the margin it is compared with."""
    rng = random.Random(seed)
    total = 0.0
    for _ in range(draws):
        edges = [tuple(rng.sample(range(n_members), 2)) for _ in range(n_certs)]
        total += average_clustering(edges, n_members)
    return total / draws
