"""Cross-stream analyses between the certification stream and the
member-to-member transaction stream.

Everything here works on unordered member pairs: relation sets (any link /
one direction only / both directions), the 12-cell ratio table, per-pair
transaction counts and the certification fraction as a function of that
count, and the time matching of certifications against transactions.

Tie conventions, chosen once and applied everywhere: an event exactly
simultaneous with an anchor counts as "already there" (<= comparisons),
and among equally close events in absolute time the earlier one wins.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ClassificationError
from .stream_core import LinkStream, NodeClassification, PairIndex, node_mask

Pair = tuple[int, int]  # unordered, stored as (min, max)


def _pairs(idx: PairIndex) -> list[Pair]:
    return list(zip(idx.u.tolist(), idx.v.tolist()))


@dataclass(frozen=True)
class RelationSets:
    """Unordered pairs with at least one link (any), links in exactly one
    direction (uni), and links in both directions (bi); uni and bi
    partition any."""

    any: frozenset[Pair]
    uni: frozenset[Pair]
    bi: frozenset[Pair]


def relation_sets(
    s: LinkStream, cls: NodeClassification | None = None
) -> RelationSets:
    """Build the relation sets of a stream restricted to members.

    When a classification is given, every endpoint must be a member.
    """
    if cls is not None:
        ends = np.column_stack((s.src, s.dst)).ravel()  # link order, source first
        outside = ~node_mask(ends, cls.members)
        if outside.any():
            raise ClassificationError(
                f"non-member endpoint: {cls.name_of(int(ends[outside.argmax()]))}"
            )
    idx = s.pairs
    forward = np.bincount(idx.segment[s.src < s.dst], minlength=len(idx.u))
    backward = np.diff(idx.starts) - forward
    pairs = _pairs(idx)
    bi = frozenset(compress(pairs, ((forward > 0) & (backward > 0)).tolist()))
    any_ = frozenset(pairs)
    return RelationSets(any=any_, uni=any_ - bi, bi=bi)


@dataclass(frozen=True)
class RatioCell:
    label: str
    numerator: int
    denominator: int
    value: float | None  # None marks an empty denominator


@dataclass(frozen=True)
class RatioTable:
    cells: tuple[RatioCell, ...]
    ordered_pairs: bool  # convention used for the member-pair denominator


def relation_ratio_table(
    certs: RelationSets,
    txs: RelationSets,
    n_members: int,
    ordered_pairs: bool = False,
) -> RatioTable:
    """The 12 link-probability ratios between certification and transaction
    relation sets.

    Rows 1-2 normalize each set by the number of member pairs, n*(n-1)/2
    unordered by default (the sets themselves are unordered; the ordered
    convention merely doubles the denominator). Rows 3-4 are conditional:
    the share of one stream's pairs also related in the other. With fewer
    than 2 members there are no member pairs, so rows 1-2 are NA cells.
    """
    n_pairs = n_members * (n_members - 1)
    if not ordered_pairs:
        n_pairs //= 2

    def cell(label: str, num: int, den: int) -> RatioCell:
        return RatioCell(label, num, den, num / den if den else None)

    c_any, c_uni, c_bi = certs.any, certs.uni, certs.bi
    t_any, t_uni, t_bi = txs.any, txs.uni, txs.bi
    cells = (
        cell("C_any/pairs", len(c_any), n_pairs),
        cell("C_uni/pairs", len(c_uni), n_pairs),
        cell("C_bi/pairs", len(c_bi), n_pairs),
        cell("T_any/pairs", len(t_any), n_pairs),
        cell("T_uni/pairs", len(t_uni), n_pairs),
        cell("T_bi/pairs", len(t_bi), n_pairs),
        cell("T_any&C_any/C_any", len(t_any & c_any), len(c_any)),
        cell("T_any&C_uni/C_uni", len(t_any & c_uni), len(c_uni)),
        cell("T_any&C_bi/C_bi", len(t_any & c_bi), len(c_bi)),
        cell("C_any&T_any/T_any", len(c_any & t_any), len(t_any)),
        cell("C_any&T_uni/T_uni", len(c_any & t_uni), len(t_uni)),
        cell("C_any&T_bi/T_bi", len(c_any & t_bi), len(t_bi)),
    )
    return RatioTable(cells=cells, ordered_pairs=ordered_pairs)


def pair_transaction_counts(tx_mm: LinkStream) -> Counter[Pair]:
    """Transactions per unordered member pair, both directions pooled."""
    idx = tx_mm.pairs
    return Counter(dict(zip(_pairs(idx), np.diff(idx.starts).tolist())))


@dataclass(frozen=True)
class FractionByK:
    k: int
    n_pairs: int
    frac_any: float  # share of k-transaction pairs with any certification
    frac_bi: float  # share with a bidirectional certification


def certification_fraction_by_k(
    tau: Mapping[Pair, int], certs: RelationSets
) -> list[FractionByK]:
    """For each transaction count k, the certified share of the pairs that
    made exactly k transactions; frac_bi <= frac_any pointwise."""
    n_pairs = Counter(tau.values())
    n_any = Counter(k for pair, k in tau.items() if pair in certs.any)
    n_bi = Counter(k for pair, k in tau.items() if pair in certs.bi)
    return [
        FractionByK(k=k, n_pairs=n, frac_any=n_any[k] / n, frac_bi=n_bi[k] / n)
        for k, n in sorted(n_pairs.items())
    ]


class MatchCategory(enum.Enum):
    BEFORE = "before"
    AFTER = "after"
    NEVER = "never"


@dataclass(frozen=True)
class MatchOutcome:
    pair: Pair
    anchor: int  # first certification time between the pair
    category: MatchCategory
    delay: int | None  # signed, transaction time minus anchor; None for never


@dataclass(frozen=True)
class MatchReport:
    outcomes: tuple[MatchOutcome, ...]
    fractions: dict[MatchCategory, float]
    both_sided: int  # pairs with transactions on both sides of the anchor


def _nearest(idx: PairIndex, seg: np.ndarray, anchor: np.ndarray):
    """For each anchor and the pair segment ``seg`` of ``idx``: the position
    of the pair's latest link at or before the anchor (-1 where none),
    whether a link follows the anchor, and the signed offset from the anchor
    to the link closest in absolute time, ties resolved toward the earlier
    link. The offset means nothing where ``seg`` is -1."""
    before = idx.latest(seg, anchor, inclusive=True)
    following = np.where(before >= 0, before + 1, idx.starts[seg])
    has_after = (seg >= 0) & (following < idx.starts[seg + 1])
    t_before = idx.time_at(before)
    t_after = idx.time_at(np.where(has_after, following, -1))
    use_before = (before >= 0) & (~has_after | (anchor - t_before <= t_after - anchor))
    return before, has_after, np.where(use_before, t_before, t_after) - anchor


def _first_times(idx: PairIndex) -> np.ndarray:
    """The earliest link time of every pair of ``idx``."""
    return idx.times[idx.starts[:-1]]


def _fractions(code: np.ndarray, categories: list) -> dict:
    """Share of each category among the codes, its position in
    ``categories``; 0 for every category without codes."""
    tally = np.bincount(code, minlength=len(categories)).tolist()
    n = len(code)
    return {cat: (c / n if n else 0.0) for cat, c in zip(categories, tally)}


def match_certifications(cert_stream: LinkStream, tx_mm: LinkStream) -> MatchReport:
    """For each pair's first certification, locate the closest transaction.

    A transaction at or before the anchor makes the pair "before" (a
    pre-existing transaction takes precedence), one strictly after makes it
    "after", and pairs that never transact are "never". The signed delay
    always points at the transaction closest in absolute time.
    """
    certs = cert_stream.pairs
    anchor = _first_times(certs)
    seg = tx_mm.pairs.find(certs.u, certs.v)
    before, has_after, delay = _nearest(tx_mm.pairs, seg, anchor)
    code = np.where(seg < 0, 2, np.where(before >= 0, 0, 1))  # MatchCategory order
    categories = list(MatchCategory)
    outcomes = tuple(
        map(
            MatchOutcome,
            _pairs(certs),
            anchor.tolist(),
            map(categories.__getitem__, code.tolist()),
            np.where(seg < 0, None, delay).tolist(),
        )
    )
    return MatchReport(
        outcomes=outcomes,
        fractions=_fractions(code, categories),
        both_sided=int(np.count_nonzero((before >= 0) & has_after)),
    )


def preceding_transaction_counts(
    cert_stream: LinkStream, tx_mm: LinkStream
) -> dict[Pair, tuple[int, int]]:
    """Bulk form over every first certification: pair -> (anchor, number of
    strictly earlier transactions). Pairs with zero earlier transactions are
    included so callers can split the distribution themselves."""
    certs, txs = cert_stream.pairs, tx_mm.pairs
    anchor = _first_times(certs)
    seg = txs.find(certs.u, certs.v)
    before = txs.latest(seg, anchor, inclusive=False)
    count = np.where(before >= 0, before - txs.starts[seg] + 1, 0)
    return dict(zip(_pairs(certs), zip(anchor.tolist(), count.tolist())))


class TxCategory(enum.Enum):
    ALREADY_CERTIFIED = "already_certified"
    FUTURE_CERTIFIED = "future_certified"
    NEVER = "never"


@dataclass(frozen=True)
class TxClassReport:
    categories: tuple[TxCategory, ...]  # aligned with the stream's links
    fractions: dict[TxCategory, float]


def classify_transactions(tx_mm: LinkStream, cert_stream: LinkStream) -> TxClassReport:
    """Classify each transaction by whether the pair's first certification
    exists at transaction time, only later, or never."""
    certs = cert_stream.pairs
    seg = certs.find(tx_mm.src, tx_mm.dst)
    first_cert = certs.time_at(np.where(seg >= 0, certs.starts[seg], -1))  # -1: never
    code = np.where(first_cert < 0, 2, np.where(first_cert <= tx_mm.t, 0, 1))  # TxCategory order
    categories = list(TxCategory)
    return TxClassReport(
        categories=tuple(map(categories.__getitem__, code.tolist())),
        fractions=_fractions(code, categories),
    )


@dataclass(frozen=True)
class NewTxDelay:
    pair: Pair
    first_tx: int
    delay: int | None  # certification time minus first transaction; None if uncertified


@dataclass(frozen=True)
class NewTxDelayReport:
    delays: tuple[NewTxDelay, ...]
    unmatched: int  # pairs whose endpoints never certified


def new_transaction_cert_delays(
    tx_mm: LinkStream, cert_stream: LinkStream
) -> NewTxDelayReport:
    """For each pair's first-ever transaction, the signed offset to the
    certification closest in absolute time; pairs without any certification
    are counted as unmatched."""
    txs, certs = tx_mm.pairs, cert_stream.pairs
    first_tx = _first_times(txs)
    seg = certs.find(txs.u, txs.v)
    _, _, delay = _nearest(certs, seg, first_tx)
    rows = tuple(
        map(NewTxDelay, _pairs(txs), first_tx.tolist(), np.where(seg < 0, None, delay).tolist())
    )
    return NewTxDelayReport(delays=rows, unmatched=int(np.count_nonzero(seg < 0)))
