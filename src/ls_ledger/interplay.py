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
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError
from .stream_core import LinkStream, NodeClassification, node_mask

Pair = tuple[int, int]  # unordered, stored as (min, max)


def _pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


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
    directed = set(zip(s.src.tolist(), s.dst.tolist()))
    bi = set()
    uni = set()
    for u, v in directed:
        if u < v:
            if (v, u) in directed:
                bi.add((u, v))
            else:
                uni.add((u, v))
        elif (v, u) not in directed:
            uni.add((v, u))
    return RelationSets(
        any=frozenset(bi | uni), uni=frozenset(uni), bi=frozenset(bi)
    )


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

    def value(self, label: str) -> float | None:
        for cell in self.cells:
            if cell.label == label:
                return cell.value
        raise KeyError(f"no ratio cell labeled {label!r}")


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
    return Counter({pair: len(ts) for pair, ts in _pair_event_times(tx_mm).items()})


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
    pairs_by_k: dict[int, list[Pair]] = {}
    for pair, k in tau.items():
        pairs_by_k.setdefault(k, []).append(pair)
    rows = []
    for k in sorted(pairs_by_k):
        pairs = pairs_by_k[k]
        n = len(pairs)
        rows.append(
            FractionByK(
                k=k,
                n_pairs=n,
                frac_any=sum(1 for p in pairs if p in certs.any) / n,
                frac_bi=sum(1 for p in pairs if p in certs.bi) / n,
            )
        )
    return rows


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


def _pair_event_times(s: LinkStream) -> dict[Pair, list[int]]:
    """Link times per unordered pair, both directions pooled; sorted, since
    the stream is."""
    times: dict[Pair, list[int]] = {}
    for t, u, v in zip(s.t.tolist(), s.src.tolist(), s.dst.tolist()):
        times.setdefault(_pair(u, v), []).append(t)
    return times


def _closest_signed_delay(times: list[int], anchor: int) -> int:
    """Signed offset of the event closest to the anchor in absolute time,
    ties resolved toward the earlier event."""
    i = bisect_right(times, anchor)
    before = times[i - 1] if i else None
    after = times[i] if i < len(times) else None
    if before is None:
        return after - anchor
    if after is None:
        return before - anchor
    if anchor - before <= after - anchor:
        return before - anchor
    return after - anchor


def match_certifications(cert_stream: LinkStream, tx_mm: LinkStream) -> MatchReport:
    """For each pair's first certification, locate the closest transaction.

    A transaction at or before the anchor makes the pair "before" (a
    pre-existing transaction takes precedence), one strictly after makes it
    "after", and pairs that never transact are "never". The signed delay
    always points at the transaction closest in absolute time.
    """
    cert_times = _pair_event_times(cert_stream)
    tx_times = _pair_event_times(tx_mm)
    outcomes = []
    tally = dict.fromkeys(MatchCategory, 0)
    both_sided = 0
    for pair in sorted(cert_times):
        anchor = cert_times[pair][0]
        times = tx_times.get(pair)
        if not times:
            category, delay = MatchCategory.NEVER, None
        else:
            has_before = times[0] <= anchor
            has_after = times[-1] > anchor
            both_sided += has_before and has_after
            category = MatchCategory.BEFORE if has_before else MatchCategory.AFTER
            delay = _closest_signed_delay(times, anchor)
        tally[category] += 1
        outcomes.append(
            MatchOutcome(pair=pair, anchor=anchor, category=category, delay=delay)
        )
    n = len(outcomes)
    fractions = {cat: (tally[cat] / n if n else 0.0) for cat in MatchCategory}
    return MatchReport(
        outcomes=tuple(outcomes), fractions=fractions, both_sided=both_sided
    )


def preceding_transaction_counts(
    cert_stream: LinkStream, tx_mm: LinkStream
) -> dict[Pair, tuple[int, int]]:
    """Bulk form over every first certification: pair -> (anchor, number of
    strictly earlier transactions). Pairs with zero earlier transactions are
    included so callers can split the distribution themselves."""
    cert_times = _pair_event_times(cert_stream)
    tx_times = _pair_event_times(tx_mm)
    return {
        pair: (ts[0], bisect_left(tx_times.get(pair, []), ts[0]))
        for pair, ts in sorted(cert_times.items())
    }


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
    cert_times = _pair_event_times(cert_stream)
    cats = []
    tally = dict.fromkeys(TxCategory, 0)
    for t, u, v in zip(tx_mm.t.tolist(), tx_mm.src.tolist(), tx_mm.dst.tolist()):
        certs = cert_times.get(_pair(u, v))
        if certs is None:
            cat = TxCategory.NEVER
        elif certs[0] <= t:
            cat = TxCategory.ALREADY_CERTIFIED
        else:
            cat = TxCategory.FUTURE_CERTIFIED
        tally[cat] += 1
        cats.append(cat)
    n = len(cats)
    fractions = {cat: (tally[cat] / n if n else 0.0) for cat in TxCategory}
    return TxClassReport(categories=tuple(cats), fractions=fractions)


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
    cert_times = _pair_event_times(cert_stream)
    tx_times = _pair_event_times(tx_mm)
    rows = []
    unmatched = 0
    for pair in sorted(tx_times):
        t0 = tx_times[pair][0]
        certs = cert_times.get(pair)
        if not certs:
            unmatched += 1
            rows.append(NewTxDelay(pair=pair, first_tx=t0, delay=None))
        else:
            rows.append(
                NewTxDelay(
                    pair=pair, first_tx=t0, delay=_closest_signed_delay(certs, t0)
                )
            )
    return NewTxDelayReport(delays=tuple(rows), unmatched=unmatched)
