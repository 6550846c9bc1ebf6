"""Directed link-stream data model and fundamental stream operations.

A link stream couples a time interval, a node set, and a chronologically
ordered sequence of timestamped directed links, held as sorted int64
columns: time, source, target and, for transactions, amount. Timestamps
are integer seconds since the Unix epoch: the data source records
blockchain median times, and integers keep every equality test exact. Node
identities are dense integer handles; the handle <-> public-key mapping
lives in a :class:`NodeTable` side table so links stay small. A node set
(a stream's nodes, the members or the wallets) has one form: its distinct
handles ascending in a read-only int64 array. Binned activity series are
int64 arrays over a grid of fixed-width bins.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClassificationError, IntervalError, SelfLinkError


class NodeTable:
    """Bijective mapping between public-key strings and dense int handles."""

    def __init__(self, keys: Iterable[str] = ()):
        """Handles in order of first appearance in ``keys``."""
        self._keys: list[str] = list(dict.fromkeys(keys))
        self._key_to_id: dict[str, int] = dict(zip(self._keys, range(len(self._keys))))

    def id_of(self, key: str) -> int:
        try:
            return self._key_to_id[key]
        except KeyError:
            raise KeyError(f"unknown key {key!r}") from None

    def handles(self, keys: Iterable[str]) -> np.ndarray:
        """The handle of each key as an int64 array, -1 for a key not in
        the table."""
        get = self._key_to_id.get
        return np.array([get(k, -1) for k in keys], dtype=np.int64)

    def key_of(self, handle: int) -> str:
        if 0 <= handle < len(self._keys):
            return self._keys[handle]
        raise KeyError(f"unknown node handle {handle}")

    def keys(self) -> list[str]:
        return list(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._key_to_id

    def __len__(self) -> int:
        return len(self._keys)


@dataclass(frozen=True, slots=True)
class Link:
    """One timestamped directed event, optionally weighted by an amount: an
    input row of :func:`build_stream`.

    ``amount`` is in currency centimes and present only for transaction
    links; certifications carry ``None``. Self-links are rejected here, at
    the earliest possible point.
    """

    t: int
    source: int
    target: int
    amount: int | None = None

    def __post_init__(self):
        if self.source == self.target:
            raise SelfLinkError(
                f"self-link rejected: ({self.t}, {self.source}, {self.target})"
            )
        if self.t < 0:
            raise ValueError(f"negative timestamp {self.t}")
        if self.amount is not None and self.amount < 0:
            raise ValueError(f"negative amount {self.amount}")


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


@dataclass(frozen=True, eq=False)
class LinkStream:
    """A time interval, a node set, and links sorted by (t, source, target).

    The links are the columns ``t``, ``src``, ``dst`` and ``amount``:
    read-only int64 arrays of one length, ``amount`` being ``None`` for
    certifications; ``nodes`` is a node set. Instances are immutable after
    construction; every read operation is safe to share across threads. Use
    :func:`build_stream` to build a stream from :class:`Link` rows.
    """

    interval: tuple[int, int]
    nodes: np.ndarray
    t: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    amount: np.ndarray | None = None

    def __post_init__(self):
        for name in ("t", "src", "dst", "amount"):
            if getattr(self, name) is not None:  # keep a private read-only copy
                col = np.array(getattr(self, name), dtype=np.int64)
                col.setflags(write=False)
                object.__setattr__(self, name, col)
        object.__setattr__(self, "nodes", _distinct_sorted(self.nodes))
        t, src, dst, amount = self.t, self.src, self.dst, self.amount
        if t.ndim != 1 or any(c.shape != t.shape for c in (src, dst, amount) if c is not None):
            raise ValueError("link columns must be one-dimensional and of one length")
        n = len(t)
        t0, t1 = self.interval
        if t0 > t1:
            raise IntervalError(f"empty interval [{t0}, {t1}]")
        if not n:
            return
        loops = np.flatnonzero(src == dst)
        if len(loops):
            i = int(loops[0])
            raise SelfLinkError(f"self-link rejected: ({t[i]}, {src[i]}, {dst[i]})")
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
        return PairIndex.of(self, directed=False)

    @cached_property
    def directed_pairs(self) -> PairIndex:
        """Link times per (source, target) pair; built on first use."""
        return PairIndex.of(self, directed=True)

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


class NodeClass(enum.Enum):
    MEMBER = "member"
    ANONYMOUS = "anonymous"


SUBSTREAM_LABELS = ("MM", "MA", "AM", "AA")
# label -> (source class, target class)
SUBSTREAM_CLASSES = {
    label: tuple(NodeClass.MEMBER if c == "M" else NodeClass.ANONYMOUS for c in label)
    for label in SUBSTREAM_LABELS
}


@dataclass(frozen=True, eq=False)
class NodeClassification:
    """Partition of node handles into identified members and anonymous wallets.

    ``table`` is optional and only used to name keys in error messages.
    """

    members: np.ndarray
    anonymous: np.ndarray
    table: NodeTable | None = None

    def __post_init__(self):
        for name in ("members", "anonymous"):
            object.__setattr__(self, name, _distinct_sorted(getattr(self, name)))
        overlap = self.members[np.isin(self.members, self.anonymous)]
        if len(overlap):
            raise ClassificationError(f"nodes classified twice: {overlap.tolist()}")

    def nodes_of(self, cls: NodeClass) -> np.ndarray:
        return self.members if cls is NodeClass.MEMBER else self.anonymous

    def require_covers(self, nodes: np.ndarray) -> None:
        """Raise unless every node of the node set ``nodes`` has a class."""
        missing = nodes[~(np.isin(nodes, self.members) | np.isin(nodes, self.anonymous))]
        if len(missing):
            names = ", ".join(self.name_of(n) for n in missing.tolist())
            raise ClassificationError(f"unclassified node(s): {names}")

    def name_of(self, node: int) -> str:
        """Key string for error messages, falling back to the raw handle."""
        if self.table is not None:
            try:
                return repr(self.table.key_of(node))
            except KeyError:
                pass
        return str(node)


@dataclass(frozen=True, eq=False)
class InducedGraph:
    """Static directed graph aggregated from a stream: one edge per node pair
    that interacted at least once. A view of the stream's pair indexes,
    which alone decide how links group into edges and in what order. Its
    kernels, built on first read, number nodes by place: an index in ``nodes``."""

    stream: LinkStream

    @property
    def nodes(self) -> np.ndarray:
        return self.stream.nodes

    def directed_edges(self) -> np.ndarray:
        """One (source, target) row per directed pair, ascending."""
        p = self.stream.directed_pairs
        return np.column_stack((p.u, p.v))

    def undirected_edges(self) -> np.ndarray:
        """Symmetrized view: one (min, max) row per unordered pair, ascending."""
        p = self.stream.pairs
        return np.column_stack((p.u, p.v))

    @cached_property
    def ends(self) -> np.ndarray:
        """The places of the first and of the second ends of the
        ``undirected_edges()`` rows, which still ascend, as two rows."""
        p = self.stream.pairs
        # search the distinct endpoints, not all 2m ends, then gather by rank
        return np.searchsorted(self.nodes, p.nodes)[np.stack(p.ranks)]

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


@dataclass(frozen=True, eq=False)
class BinnedSeries:
    """Counts per fixed-width time bin, an int64 array; bin k covers
    [start + k*w, start + (k+1)*w)."""

    start: int
    bin_width: int
    values: np.ndarray

    def bin_starts(self) -> list[int]:
        """The start of every bin, as exact Python ints."""
        end = self.start + len(self.values) * self.bin_width
        return list(range(self.start, end, self.bin_width))


def build_stream(
    links: Iterable[Link], interval: tuple[int, int] | None = None
) -> LinkStream:
    """Assemble a stream from links, sorting by (t, source, target).

    The sort is stable, so equal links keep their input order. The interval
    defaults to [min t, max t] of the links; an empty link list requires an
    explicit interval. Links outside an explicit interval are rejected with
    the offending link's index (position in the sorted order). Links carry
    amounts all or none.
    """
    links = list(links)
    if not links and interval is None:
        raise IntervalError("empty link sequence requires an explicit interval")
    kinds = {ln.amount is not None for ln in links}
    if len(kinds) > 1:
        raise ValueError("links mix amounts and no amounts")
    return stream_from_columns(
        [ln.t for ln in links],
        [ln.source for ln in links],
        [ln.target for ln in links],
        [ln.amount for ln in links] if True in kinds else None,
        interval=interval,
    )


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
    if interval is None:
        interval = (int(t[0]), int(t[-1])) if len(t) else (0, 0)
    return LinkStream(
        interval=interval,
        nodes=np.concatenate((src, dst)) if nodes is None else nodes,
        t=t,
        src=src,
        dst=dst,
        amount=None if amount is None else np.asarray(amount, dtype=np.int64)[order],
    )


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


def activity_series(s: LinkStream, bin_width: int) -> BinnedSeries:
    """Link counts per bin of width ``bin_width``, aligned to the interval start.

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
    return BinnedSeries(start=t0, bin_width=bin_width, values=np.bincount(bins, minlength=n_bins))


def rolling_sum(series: BinnedSeries, window: int) -> BinnedSeries:
    """Right-aligned rolling sum over ``window`` seconds of a binned series.

    The value at bin b sums the bins whose start lies in (b.start - window,
    b.start], current bin included; leading windows are partial sums over
    the bins available so far.
    """
    if window < series.bin_width:
        raise ValueError(
            f"window {window} smaller than bin width {series.bin_width}"
        )
    # bins per window, ceil, clipped to the series so that it fits int64
    span = min(-(-window // series.bin_width), len(series.values))
    csum = np.cumsum(series.values, dtype=np.int64)
    values = csum - np.concatenate((np.zeros(span, dtype=np.int64), csum[: len(csum) - span]))
    return BinnedSeries(start=series.start, bin_width=series.bin_width, values=values)


def class_mask(
    s: LinkStream,
    cls: NodeClassification,
    src_class: NodeClass,
    dst_class: NodeClass,
) -> np.ndarray:
    """Which links of ``s`` go from ``src_class`` nodes to ``dst_class`` nodes."""
    return np.isin(s.src, cls.nodes_of(src_class)) & np.isin(s.dst, cls.nodes_of(dst_class))


def substream_by_class(
    s: LinkStream,
    cls: NodeClassification,
    src_class: NodeClass,
    dst_class: NodeClass,
) -> LinkStream:
    """Restrict a stream to links from ``src_class`` nodes to ``dst_class`` nodes.

    The interval is left unchanged (all substreams share the parent's time
    interval) and the node set is the class-restricted node set, so nodes
    without any retained link stay present.
    """
    cls.require_covers(s.nodes)
    kept = np.isin(s.nodes, cls.nodes_of(src_class)) | np.isin(s.nodes, cls.nodes_of(dst_class))
    return s.restrict(class_mask(s, cls, src_class, dst_class), s.nodes[kept])


@dataclass(frozen=True, eq=False)
class PairIndex:
    """A stream's links grouped by node pair, from one stable sort of the
    links by pair, so times stay ascending within each pair.

    Pairs are directed ``(source, target)``, or unordered ``(min, max)``
    with both directions pooled. Segment ``j`` is the pair ``(u[j], v[j])``,
    in ascending ``(u, v)`` order, and holds the grouped links
    ``starts[j]:starts[j + 1]``: their times in ``times`` and their places
    in the stream in ``positions``. ``segment`` gives every stream link its
    segment. Lookups key pairs and times by dense ranks, so no composite key
    overflows int64 whatever the handles and times.
    """

    directed: bool
    u: np.ndarray
    v: np.ndarray
    starts: np.ndarray
    times: np.ndarray
    positions: np.ndarray
    segment: np.ndarray
    nodes: np.ndarray  # distinct endpoints, sorted: a node's rank is its position
    keys: np.ndarray  # rank(u) * len(nodes) + rank(v) per segment, ascending

    @classmethod
    def of(cls, s: LinkStream, directed: bool) -> PairIndex:
        u, v = s.src, s.dst
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        n = s.link_count
        nodes, rank = np.unique(np.concatenate((u, v)), return_inverse=True)
        key = rank[:n] * len(nodes) + rank[n:]
        positions = np.argsort(key, kind="stable")
        key = key[positions]
        new = np.diff(key, prepend=-1) != 0  # keys are >= 0
        first = np.flatnonzero(new)
        segment = np.empty(n, dtype=np.int64)
        segment[positions] = np.cumsum(new) - 1
        return cls(
            directed=directed,
            u=u[positions[first]],
            v=v[positions[first]],
            starts=np.append(first, n),
            times=s.t[positions],
            positions=positions,
            segment=segment,
            nodes=nodes,
            keys=key[first],
        )

    def find(self, u, v) -> np.ndarray:
        """Segment of each pair ``(u[i], v[i])``, -1 where the pair has no
        link; an unordered index takes the endpoints in either order."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if not self.directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        if not len(self.nodes):
            return np.full(u.shape, -1, dtype=np.int64)
        ru = np.searchsorted(self.nodes, u).clip(max=len(self.nodes) - 1)
        rv = np.searchsorted(self.nodes, v).clip(max=len(self.nodes) - 1)
        known = (self.nodes[ru] == u) & (self.nodes[rv] == v)
        return np.where(known, self.find_ranks(ru, rv), -1)

    @cached_property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """The ranks of ``u`` and of ``v`` per segment, for ``find_ranks``."""
        return np.divmod(self.keys, len(self.nodes))

    def find_ranks(self, ru: np.ndarray, rv: np.ndarray) -> np.ndarray:
        """Segment of each pair ``(nodes[ru[i]], nodes[rv[i]])``, -1 where
        the pair has no link."""
        key = ru * len(self.nodes) + rv
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
