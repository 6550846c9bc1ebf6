"""Cross-stream analyses between the certification stream and the
member-to-member transaction stream.

Both streams must be over one node set, the members, as a loaded
snapshot gives them. Everything here works on unordered member pairs, the
segments of a stream's ``pairs`` index: relation sets, the 12-cell ratio
table, per-pair transaction counts and the certification fraction as a
function of that count, and the time matching of certifications against
transactions.
Every per-pair or per-link result is an int64 or bool array aligned with
the pairs or the links of the stream its docstring names, a category is
a code, its position in its label tuple, and a table is columns aligned
with its label tuple. A kernel returns a tuple of its columns, shares and
counts, in the order its docstring names them. ``relation_sets`` returns
the named tuple ``RelationSets``, the input of two kernels, not a result
to write out. Callers hold the indexes and turn the results into rows.

Tie conventions, chosen once and applied everywhere: an event exactly
simultaneous with an anchor counts as "already there" (<= comparisons),
and among equally close events in absolute time the earlier one wins.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .stream_core import LinkStream, PairIndex


class RelationSets(NamedTuple):
    """The unordered pairs of a stream with at least one link (any), and
    which of them have links in both directions (bi); the others have links
    in one direction only (uni)."""

    pairs: PairIndex
    bi: np.ndarray  # bool per pair of ``pairs``


def relation_sets(s: LinkStream) -> RelationSets:
    """Build the relation sets of a stream restricted to members."""
    idx = s.pairs
    forward = np.bincount(idx.segment[s.src < s.dst], minlength=len(idx.u))
    backward = np.diff(idx.starts) - forward
    return RelationSets(idx, (forward > 0) & (backward > 0))


def _cert_kind(txs: RelationSets, certs: RelationSets) -> np.ndarray:
    """For each pair of ``txs``, its relation in ``certs``: 0 none, 1 uni,
    2 bi."""
    seg = certs.pairs.find_pairs(txs.pairs)
    kind = np.zeros(len(seg), dtype=np.int64)
    found = seg >= 0
    kind[found] = 1 + certs.bi[seg[found]]
    return kind


# the cells of the ratio table: rows 1-2 over the member pairs, rows 3-4
# conditional on a relation in the other stream
RATIO_CELLS = (
    "C_any/pairs",
    "C_uni/pairs",
    "C_bi/pairs",
    "T_any/pairs",
    "T_uni/pairs",
    "T_bi/pairs",
    "T_any&C_any/C_any",
    "T_any&C_uni/C_uni",
    "T_any&C_bi/C_bi",
    "C_any&T_any/T_any",
    "C_any&T_uni/T_uni",
    "C_any&T_bi/T_bi",
)


def relation_ratio_table(
    certs: RelationSets,
    txs: RelationSets,
    n_members: int,
    ordered_pairs: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 12 link-probability ratios between certification and transaction
    relation sets, as numerator, denominator and value columns aligned with
    ``RATIO_CELLS``; the value is NaN where the denominator is 0.

    Rows 1-2 normalize each set by the number of member pairs, n*(n-1)/2
    unordered by default (the sets themselves are unordered; the ordered
    convention merely doubles the denominator). Rows 3-4 are conditional:
    the share of one stream's pairs also related in the other. With fewer
    than 2 members there are no member pairs, so rows 1-2 are NaN.
    """
    n_pairs = n_members * (n_members - 1)
    if not ordered_pairs:
        n_pairs //= 2
    c_any, c_bi = len(certs.bi), int(np.count_nonzero(certs.bi))
    t_any, t_bi = len(txs.bi), int(np.count_nonzero(txs.bi))
    kind = _cert_kind(txs, certs)
    _, t_c_uni, t_c_bi = np.bincount(kind, minlength=3).tolist()
    t_c_any = t_c_uni + t_c_bi
    t_bi_c_any = int(np.count_nonzero(txs.bi & (kind > 0)))
    # the any, uni and bi sets of each stream: rows 1-2 count them, rows
    # 3-4 divide by them
    sizes = [c_any, c_any - c_bi, c_bi, t_any, t_any - t_bi, t_bi]
    numerator = np.array(
        [*sizes, t_c_any, t_c_uni, t_c_bi, t_c_any, t_c_any - t_bi_c_any, t_bi_c_any]
    )
    denominator = np.array([n_pairs] * 6 + sizes)
    value = np.divide(
        numerator, denominator, out=np.full(len(RATIO_CELLS), np.nan), where=denominator > 0
    )
    return numerator, denominator, value


def pair_transaction_counts(tx_mm: LinkStream) -> np.ndarray:
    """Transactions per unordered member pair, both directions pooled,
    aligned with ``tx_mm.pairs``."""
    return np.diff(tx_mm.pairs.starts)


def certification_fraction_by_k(
    tau: np.ndarray, txs: RelationSets, certs: RelationSets
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each transaction count k, the certified share of the pairs that
    made exactly k transactions; ``tau`` holds the count of every pair of
    ``txs``. Returns the columns k (ascending), n_pairs, frac_any (the share
    with any certification) and frac_bi (with a bidirectional one);
    frac_bi <= frac_any pointwise."""
    ks, k_of = np.unique(tau, return_inverse=True)
    kind = _cert_kind(txs, certs)
    n_pairs = np.bincount(k_of, minlength=len(ks))
    n_any, n_bi = (np.bincount(k_of[mask], minlength=len(ks)) for mask in (kind > 0, kind == 2))
    return ks, n_pairs, n_any / n_pairs, n_bi / n_pairs


MATCH_CATEGORIES = ("before", "after", "never")


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


def _fractions(code: np.ndarray, labels: tuple[str, ...]) -> np.ndarray:
    """Share of each label's code among the codes, aligned with ``labels``;
    0 everywhere without codes."""
    return np.bincount(code, minlength=len(labels)) / max(len(code), 1)


def match_certifications(
    cert_stream: LinkStream, tx_mm: LinkStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """For each pair's first certification, locate the closest transaction.

    A transaction at or before the anchor makes the pair "before" (a
    pre-existing transaction takes precedence), one strictly after makes it
    "after", and pairs that never transact are "never". The signed delay
    always points at the transaction closest in absolute time.

    Returns ``(anchor, category, delay, fractions, both_sided)``: the first
    three aligned with ``cert_stream.pairs``, the pair's first certification
    time, its position in ``MATCH_CATEGORIES`` and its delay, the
    transaction time minus the anchor, undefined for "never"; the share of
    each of ``MATCH_CATEGORIES``; and the number of pairs with transactions
    on both sides of the anchor.
    """
    certs = cert_stream.pairs
    anchor = _first_times(certs)
    seg = tx_mm.pairs.find_pairs(certs)
    before, has_after, delay = _nearest(tx_mm.pairs, seg, anchor)
    code = np.where(seg < 0, 2, np.where(before >= 0, 0, 1))  # MATCH_CATEGORIES order
    both_sided = int(np.count_nonzero((before >= 0) & has_after))
    return anchor, code, delay, _fractions(code, MATCH_CATEGORIES), both_sided


def preceding_transaction_counts(cert_stream: LinkStream, tx_mm: LinkStream) -> np.ndarray:
    """For each pair of ``cert_stream.pairs``, the number of transactions
    strictly earlier than its first certification; pairs with none count 0,
    so callers can split the distribution themselves."""
    certs, txs = cert_stream.pairs, tx_mm.pairs
    seg = txs.find_pairs(certs)
    before = txs.latest(seg, _first_times(certs), inclusive=False)
    return np.where(before >= 0, before - txs.starts[seg] + 1, 0)


TX_CATEGORIES = ("already_certified", "future_certified", "never")


def classify_transactions(
    tx_mm: LinkStream, cert_stream: LinkStream
) -> tuple[np.ndarray, np.ndarray]:
    """Classify each transaction by whether the pair's first certification
    exists at transaction time, only later, or never.

    Returns ``(categories, fractions)``: the position in ``TX_CATEGORIES``
    of every link of ``tx_mm``, in stream order, and the share of each of
    ``TX_CATEGORIES``.
    """
    certs = cert_stream.pairs
    seg = certs.find_pairs(tx_mm.pairs)[tx_mm.pairs.segment]
    first_cert = certs.time_at(np.where(seg >= 0, certs.starts[seg], -1))  # -1: never
    code = np.where(first_cert < 0, 2, np.where(first_cert <= tx_mm.t, 0, 1))  # TX_CATEGORIES order
    return code, _fractions(code, TX_CATEGORIES)


def new_transaction_cert_delays(
    tx_mm: LinkStream, cert_stream: LinkStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """For each pair's first-ever transaction, the signed offset to the
    certification closest in absolute time; pairs without any certification
    are counted as unmatched.

    Returns ``(first_tx, delay, certified, unmatched)``: the first three
    aligned with ``tx_mm.pairs``, the time of the pair's first transaction,
    the certification time minus it, undefined where the pair is
    uncertified, and whether the pair has a certification; then the number
    of pairs whose endpoints never certified.
    """
    txs, certs = tx_mm.pairs, cert_stream.pairs
    first_tx = _first_times(txs)
    seg = certs.find_pairs(txs)
    _, _, delay = _nearest(certs, seg, first_tx)
    certified = seg >= 0
    return first_tx, delay, certified, len(seg) - int(np.count_nonzero(certified))
