"""Directed link-stream data model and fundamental stream operations.

A link stream couples a time interval, a node set, and a chronologically
ordered sequence of timestamped directed links, held as sorted int64
columns: time, source, target and, for transactions, amount. Timestamps
are integer seconds since the Unix epoch: the data source records
blockchain median times, and integers keep every equality test exact. Node
identities are dense integer handles, so links stay small: the key table
``keys`` is a list of public-key strings in which a handle is a position,
and ``_key_fault`` is the one rule of what a key may hold. A node set
(a stream's nodes, the members or the miners) has one form: its distinct
handles ascending in a read-only int64 array. The member set alone splits
the keys: a handle in it is an identified member, any other handle an
anonymous wallet, and a substream is named by its label, the classes of
its links' sources and targets (MM, MA, AM, AA). Binned activity series
are int64 arrays over a grid of fixed-width bins. Every stage imports
this module, so its classes are plain classes: none loads ``dataclasses``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import cached_property

import numpy as np

from .errors import IntervalError

# a key must not split a CSV row or a "src|dst" pair label, open a quoted
# CSV field, read as a "#" comment line, nor hold a lone surrogate, which
# no UTF-8 file can hold; base58 keys never match
_KEY_BREAK = re.compile(r'[,|"\s\x00-\x1f\x7f-\x9f\ud800-\udfff]')


def _key_fault(key: str) -> str | None:
    """Why ``key`` cannot be a key in the key table, or None if it can."""
    if not key:
        return "is empty"
    if key[0] == "#":
        return "starts with '#'"
    bad = _KEY_BREAK.search(key)
    return f"contains {bad.group()!r}" if bad else None


def _distinct_sorted(values) -> np.ndarray:
    """The distinct ints of ``values``, an array or any iterable, ascending
    in a read-only int64 array: the one form of a node set. A sort and a
    diff, as ``np.unique`` can load ``numpy.ma`` (1.4 MB) on numpy 2.4."""
    if not isinstance(values, np.ndarray):
        values = np.fromiter(values, dtype=np.int64)
    values = np.sort(values.astype(np.int64, copy=False), axis=None)
    # x - (x - 1) is 1 even where x - 1 wraps, so the first value stays
    values = values[np.diff(values, prepend=values[:1] - 1) != 0]
    values.setflags(write=False)
    return values


class LinkStream:
    """A time interval, a node set, and links sorted by (t, source, target).

    The links are the columns ``t``, ``src``, ``dst`` and ``amount``:
    read-only int64 arrays of one length, ``amount`` being ``None`` for
    certifications; ``nodes`` is a node set. A stream keeps private copies
    of the columns it is given, so no caller can change it, and every read
    operation is safe to share across threads. Use
    :func:`stream_from_columns` to build a stream from columns in any order.
    """

    def __init__(self, interval, nodes, t, src, dst, amount=None):
        # private read-only copies, which no caller's array can change
        t, src, dst, amount = (
            c if c is None else np.array(c, dtype=np.int64) for c in (t, src, dst, amount)
        )
        for c in (t, src, dst, amount):
            if c is not None:
                c.setflags(write=False)
        self.interval, self.nodes = interval, _distinct_sorted(nodes)
        self.t, self.src, self.dst, self.amount = t, src, dst, amount
        if t.ndim != 1 or any(c.shape != t.shape for c in (src, dst, amount) if c is not None):
            raise ValueError("link columns must be one-dimensional and of one length")
        n = len(t)
        t0, t1 = interval
        if t0 > t1:
            raise IntervalError(f"empty interval [{t0}, {t1}]")
        if not n:
            return
        loops = np.flatnonzero(src == dst)
        if len(loops):
            i = int(loops[0])
            raise IntervalError(f"self-link rejected: ({t[i]}, {src[i]}, {dst[i]})", index=i)
        if t.min() < 0:
            raise ValueError(f"negative timestamp {t.min()}")
        if amount is not None and amount.min() < 0:
            raise ValueError(f"negative amount {amount.min()}")

        outside = (t < t0) | (t > t1)
        foreign = ~(np.isin(src, self.nodes) & np.isin(dst, self.nodes))
        dt, ds = np.diff(t), np.diff(src)
        decreasing = np.zeros(n, dtype=bool)
        decreasing[1:] = (dt < 0) | ((dt == 0) & ((ds < 0) | ((ds == 0) & (np.diff(dst) < 0))))
        bad = outside | foreign | decreasing
        if bad.any():
            i = int(bad.argmax())  # the first offending link
            if outside[i]:
                msg = f"link {i} at t={t[i]} outside interval [{t0}, {t1}]"
            elif foreign[i]:
                msg = f"link {i} has endpoint outside node set"
            else:
                msg = f"links out of order at position {i}"
            raise IntervalError(msg, index=i)

    @property
    def link_count(self) -> int:
        return len(self.t)

    @cached_property
    def pairs(self) -> PairIndex:
        """Link times per unordered pair, both directions pooled; built on
        first use."""
        return PairIndex(self, directed=False)

    @cached_property
    def directed_pairs(self) -> PairIndex:
        """Link times per (source, target) pair; built on first use."""
        return PairIndex(self, directed=True)

    def restrict(self, keep: np.ndarray, nodes: np.ndarray) -> LinkStream:
        """The links where the boolean mask ``keep`` holds, over ``nodes``;
        the interval is unchanged."""
        return LinkStream(
            interval=self.interval,
            nodes=nodes,
            t=self.t[keep],
            src=self.src[keep],
            dst=self.dst[keep],
            amount=None if self.amount is None else self.amount[keep],
        )


# a label names the source class, then the target class: M for a member,
# A for an anonymous wallet
SUBSTREAM_LABELS = ("MM", "MA", "AM", "AA")


class InducedGraph:
    """Static directed graph aggregated from a stream: one edge per node pair
    that interacted at least once. A view of the stream's pair indexes,
    which alone decide how links group into edges and in what order. Its
    kernels, built on first read, number nodes by place: an index in ``nodes``."""

    def __init__(self, stream: LinkStream):
        self.stream = stream

    @property
    def nodes(self) -> np.ndarray:
        return self.stream.nodes

    def undirected_edges(self) -> np.ndarray:
        """Symmetrized view: one (min, max) row per unordered pair, ascending."""
        return self.nodes[self.ends.T]

    @cached_property
    def ends(self) -> np.ndarray:
        """The places of the first and of the second ends of the
        ``undirected_edges()`` rows, which still ascend, as two rows."""
        return np.stack(self.stream.pairs.ranks)

    @cached_property
    def degree(self) -> np.ndarray:
        """Undirected degree of every place."""
        return np.bincount(self.ends.ravel(), minlength=len(self.nodes))

    @cached_property
    def rank(self) -> np.ndarray:
        """Position of every place in the order of (degree, id)."""
        # the inverse of the stable order, in which ties keep ids ascending
        return np.argsort(np.argsort(self.degree, kind="stable"))

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR form of the undirected view: the neighbors of place i are
        the places ``others[offsets[i]:offsets[i + 1]]``, ascending."""
        # the rows ascend, so a stable sort by node lists first the rows
        # ending there (lower neighbors), then those starting there
        order = np.argsort(self.ends[::-1].ravel(), kind="stable")
        return np.concatenate(([0], np.cumsum(self.degree))), self.ends.ravel()[order]


def stream_from_columns(
    t,
    src,
    dst,
    amount=None,
    interval: tuple[int, int] | None = None,
    nodes: Iterable[int] | None = None,
) -> LinkStream:
    """A stream from link columns in any order, ``amount`` omitted for
    certifications, sorted once by (t, source, target) and stable on ties.

    The interval defaults to [min t, max t], or [0, 0] without links; the
    node set defaults to the endpoints of the links.
    """
    t, src, dst = (np.asarray(c, dtype=np.int64) for c in (t, src, dst))
    order = np.lexsort((dst, src, t))
    t, src, dst = t[order], src[order], dst[order]
    return LinkStream(
        interval=_span(t) if interval is None else interval,
        nodes=np.concatenate((src, dst)) if nodes is None else nodes,
        t=t,
        src=src,
        dst=dst,
        amount=None if amount is None else np.asarray(amount, dtype=np.int64)[order],
    )


def _span(t: np.ndarray) -> tuple[int, int]:
    """The interval of links at the ascending times ``t``: [first, last],
    or [0, 0] without links."""
    return (int(t[0]), int(t[-1])) if len(t) else (0, 0)


def induced_graph(s: LinkStream) -> InducedGraph:
    """The stream's static graph: its (source, target) pairs, deduplicated."""
    return InducedGraph(s)


def activity(s: LinkStream, t: int) -> int:
    """Number of distinct node pairs active exactly at time ``t``.

    Duplicate links at the same instant count once: the measure is over the
    set of pairs, not link multiplicities. ``t`` must lie in the interval;
    instants between events simply yield 0.
    """
    t0, t1 = s.interval
    if not t0 <= t <= t1:
        raise IntervalError(f"t={t} outside interval [{t0}, {t1}]")
    lo, hi = (np.searchsorted(s.t, t, side=side) for side in ("left", "right"))
    src, dst = s.src[lo:hi], s.dst[lo:hi]  # sorted by (src, dst): count the changes
    return int(hi > lo) + int(np.count_nonzero((np.diff(src) != 0) | (np.diff(dst) != 0)))


def activity_series(s: LinkStream, bin_width: int) -> np.ndarray:
    """Link counts per bin of width ``bin_width``, an int64 array over the
    grid that starts at the interval start: bin k covers [t0 + k*w,
    t0 + (k+1)*w).

    Counts links with multiplicity, so the series total is exactly the number
    of links whatever the bin width. A bin wider than the interval is the
    one bin at its start.
    """
    if bin_width <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    t0, t1 = s.interval
    n_bins = (t1 - t0) // bin_width + 1
    # one bin needs no division, which numpy cannot do by a width past int64
    bins = (s.t - t0) // bin_width if n_bins > 1 else np.zeros_like(s.t)
    return np.bincount(bins, minlength=n_bins)


def rolling_sum(values: np.ndarray, bin_width: int, window: int) -> np.ndarray:
    """Right-aligned rolling sum over ``window`` seconds of a series binned
    by ``bin_width``, as an int64 array over the same grid.

    The value at bin b sums the bins whose start lies in (start(b) -
    window, start(b)], current bin included; leading windows are partial
    sums over the bins available so far.
    """
    if window < bin_width:
        raise ValueError(f"window {window} smaller than bin width {bin_width}")
    # bins per window, ceil, clipped to the series so that it fits int64
    span = min(-(-window // bin_width), len(values))
    csum = np.cumsum(values, dtype=np.int64)
    return csum - np.concatenate((np.zeros(span, dtype=np.int64), csum[: len(csum) - span]))


def link_classes(s: LinkStream, members: np.ndarray) -> np.ndarray:
    """The substream of every link of ``s`` under the member set
    ``members``, as its position in ``SUBSTREAM_LABELS``: 2 * (source
    anonymous) + (target anonymous)."""
    return 2 * ~np.isin(s.src, members) + ~np.isin(s.dst, members)


def substream_by_class(s: LinkStream, members: np.ndarray, label: str) -> LinkStream:
    """Restrict a stream to the links of the substream ``label``.

    The interval is left unchanged (all substreams share the parent's time
    interval) and the node set is the class-restricted node set, so nodes
    without any retained link stay present.
    """
    if label not in SUBSTREAM_LABELS:
        raise ValueError(f"unknown substream label {label!r}")
    code = SUBSTREAM_LABELS.index(label)
    anonymous = ~np.isin(s.nodes, members)  # a node's class: 0 member, 1 anonymous
    kept = (anonymous == code >> 1) | (anonymous == code & 1)
    return s.restrict(link_classes(s, members) == code, s.nodes[kept])


class PairIndex:
    """A stream's links grouped by node pair, from one stable sort of the
    links by pair, so times stay ascending within each pair.

    Pairs are directed ``(source, target)``, or unordered ``(min, max)``
    with both directions pooled. A pair ``(u, v)`` is held only as its key
    ``rank(u) * len(nodes) + rank(v)``, a rank being a place in the
    stream's ``nodes``; ``ranks`` splits the keys back into the two ends.
    Segment ``j`` is the pair ``keys[j]``, in ascending key order, which is
    ``(u, v)`` order, and holds the grouped links ``starts[j]:starts[j +
    1]``: their times in ``times`` and their places in the stream in
    ``positions``. ``segment`` gives every stream link its segment. Times
    are keyed by dense ranks, so no composite key overflows int64 whatever
    the handles and times.
    """

    def __init__(self, s: LinkStream, directed: bool):
        # ranks ascend with handles, so they order pairs as handles do; the
        # node set holds every link end, so the distinct values below are
        # the node set, and each end's inverse is its rank
        n = s.link_count
        _, place = np.unique(np.concatenate((s.nodes, s.src, s.dst)), return_inverse=True)
        u, v = place[len(s.nodes) :].reshape(2, n)
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        key = u * len(s.nodes) + v
        positions = np.argsort(key, kind="stable")
        key = key[positions]
        new = np.diff(key, prepend=-1) != 0  # keys are >= 0
        first = np.flatnonzero(new)
        segment = np.empty(n, dtype=np.int64)
        segment[positions] = np.cumsum(new) - 1
        self.directed = directed
        self.starts = np.append(first, n)
        self.times = s.t[positions]
        self.positions = positions
        self.segment = segment
        self.nodes = s.nodes  # the stream's node set: a node's rank is its place there
        self.keys = key[first]  # rank(u) * len(nodes) + rank(v) per segment, ascending

    def find_pairs(self, other: PairIndex) -> np.ndarray:
        """Segment of each pair of ``other``, -1 where this index has no
        link between its ends. Both indexes must be of one kind and over
        equal node sets, which key a pair alike; else ValueError."""
        if other.directed != self.directed or not np.array_equal(other.nodes, self.nodes):
            raise ValueError("pair indexes of different kinds or over different node sets")
        return self._find(other.keys)

    @cached_property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """The ranks (places in ``nodes``) of ``u`` and of ``v`` per
        segment."""
        return np.divmod(self.keys, len(self.nodes))

    def find_ranks(self, ru: np.ndarray, rv: np.ndarray) -> np.ndarray:
        """Segment of each pair ``(nodes[ru[i]], nodes[rv[i]])``, -1 where
        the pair has no link."""
        return self._find(ru * len(self.nodes) + rv)

    def _find(self, key: np.ndarray) -> np.ndarray:
        """Segment of each pair key, -1 where the pair has no link."""
        if not len(self.keys):
            return np.full(np.shape(key), -1, dtype=np.int64)
        j = np.searchsorted(self.keys, key).clip(max=len(self.keys) - 1)
        return np.where(self.keys[j] == key, j, -1)

    @cached_property
    def _time_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct link times, sorted, and ``segment * len(instants) +
        rank(time)`` per position, which ascends."""
        instants, rank = np.unique(self.times, return_inverse=True)
        return instants, self.segment[self.positions] * len(instants) + rank

    def latest(self, seg: np.ndarray, t: np.ndarray, inclusive: bool) -> np.ndarray:
        """Position of the latest link of segment ``seg[i]`` at or before
        ``t[i]``, or strictly before it unless ``inclusive``; -1 where there
        is none or ``seg[i]`` is -1."""
        instants, time_keys = self._time_keys
        r = np.searchsorted(instants, t, side="right" if inclusive else "left")
        pos = np.searchsorted(time_keys, seg * len(instants) + r) - 1
        return np.where((seg >= 0) & (pos >= self.starts[seg]), pos, -1)

    def time_at(self, pos: np.ndarray) -> np.ndarray:
        """Time of the link at each position, -1 where ``pos`` is -1."""
        if not len(self.times):
            return np.full(np.shape(pos), -1, dtype=np.int64)
        return np.where(pos >= 0, self.times[pos], -1)


_BLOCK = 1 << 14  # rows per block of an expansion by _expand


def _blocks(weights: np.ndarray):
    """Slices of consecutive items whose weights sum to at most ``_BLOCK``,
    or of one item where it alone weighs more."""
    ends = np.cumsum(weights)
    i = 0
    while i < len(weights):
        done = ends[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(ends, done + _BLOCK, side="right")))
        yield slice(i, j)
        i = j


def _expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``starts[i]:starts[i] + counts[i]`` end to end: for each
    element, its range i and its value."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, starts[owner] + offset
