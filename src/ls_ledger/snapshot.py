"""Columnar snapshot of an ingested ledger.

The snapshot is a zip of .npy arrays (readable with ``numpy.load``) holding
the certification and transaction streams, the key table, the member
partition, and the link indices of the four class substreams. Zip entries
get a fixed timestamp so identical data produces identical bytes, which the
CLI's determinism guarantee relies on.
"""

from __future__ import annotations

import io
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import StateError
from .ledger_ingest import SUBSTREAM_LABELS
from .stream_core import (
    Link,
    LinkStream,
    NodeClass,
    NodeClassification,
    NodeTable,
    substream_by_class,
)

SNAPSHOT_NAME = "snapshot.npz"
_EPOCH = (1980, 1, 1, 0, 0, 0)  # fixed zip timestamp for byte-stable output

_CLASS_OF_LABEL = {"M": NodeClass.MEMBER, "A": NodeClass.ANONYMOUS}


@dataclass(frozen=True)
class StreamBundle:
    """Everything downstream commands need: key table, partition, the two
    streams, and the four transaction substreams."""

    table: NodeTable
    cls: NodeClassification
    cert: LinkStream
    tx: LinkStream
    substreams: dict[str, LinkStream]  # keyed by MM / MA / AM / AA

    @property
    def tx_mm(self) -> LinkStream:
        return self.substreams["MM"]


def build_bundle(
    table: NodeTable,
    cls: NodeClassification,
    cert: LinkStream,
    tx: LinkStream,
) -> StreamBundle:
    subs = {
        label: substream_by_class(
            tx, cls, _CLASS_OF_LABEL[label[0]], _CLASS_OF_LABEL[label[1]]
        )
        for label in SUBSTREAM_LABELS
    }
    return StreamBundle(table=table, cls=cls, cert=cert, tx=tx, substreams=subs)


def _stream_arrays(prefix: str, s: LinkStream, with_amount: bool) -> dict[str, np.ndarray]:
    arrays = {
        f"{prefix}_interval": np.asarray(s.interval, dtype=np.int64),
        f"{prefix}_t": np.asarray([ln.t for ln in s.links], dtype=np.int64),
        f"{prefix}_src": np.asarray([ln.source for ln in s.links], dtype=np.int64),
        f"{prefix}_dst": np.asarray([ln.target for ln in s.links], dtype=np.int64),
        f"{prefix}_nodes": np.asarray(sorted(s.nodes), dtype=np.int64),
    }
    if with_amount:
        arrays[f"{prefix}_amount"] = np.asarray(
            [ln.amount or 0 for ln in s.links], dtype=np.int64
        )
    return arrays


def save_bundle(out_dir: str | Path, bundle: StreamBundle) -> Path:
    """Write the snapshot into ``out_dir`` and return its path."""
    arrays: dict[str, np.ndarray] = {}
    arrays.update(_stream_arrays("cert", bundle.cert, with_amount=False))
    arrays.update(_stream_arrays("tx", bundle.tx, with_amount=True))
    arrays["keys"] = np.asarray(bundle.table.keys(), dtype=np.str_)
    arrays["members"] = np.asarray(sorted(bundle.cls.members), dtype=np.int64)
    for label, sub in bundle.substreams.items():
        idx = _link_indices(bundle.tx, sub)
        arrays[f"sub_{label}"] = np.asarray(idx, dtype=np.int64)

    path = Path(out_dir) / SNAPSHOT_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.save(buf, arrays[name], allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, buf.getvalue())
    return path


def _link_indices(parent: LinkStream, sub: LinkStream) -> list[int]:
    """Positions of the substream's links inside the parent's sequence.

    Both sequences share sort order, so a single forward sweep suffices.
    """
    idx = []
    i = 0
    for ln in sub.links:
        while parent.links[i] != ln:
            i += 1
        idx.append(i)
        i += 1
    return idx


def load_bundle(out_dir: str | Path) -> StreamBundle:
    """Rebuild the bundle from ``out_dir``; raises StateError when the
    snapshot is missing or unreadable (truncated, not a zip, arrays missing)."""
    path = Path(out_dir) / SNAPSHOT_NAME
    if not path.exists():
        raise StateError(f"no snapshot at {path}; run the ingest command first")
    try:
        return _bundle_from(path)
    except (
        OSError, EOFError, ValueError, LookupError, zipfile.BadZipFile, zlib.error
    ) as err:
        raise StateError(
            f"unreadable snapshot at {path} ({err}); run the ingest command again"
        ) from err


def _bundle_from(path: Path) -> StreamBundle:
    with np.load(path, allow_pickle=False) as data:
        table = NodeTable(str(k) for k in data["keys"])
        members = frozenset(int(n) for n in data["members"])
        anonymous = frozenset(range(len(table))) - members
        cls = NodeClassification(members=members, anonymous=anonymous, table=table)

        cert = _stream_from(data, "cert", with_amount=False)
        tx = _stream_from(data, "tx", with_amount=True)
        substreams = {}
        for label in SUBSTREAM_LABELS:
            idx = data[f"sub_{label}"]
            links = tuple(tx.links[int(i)] for i in idx)
            nodes = (tx.nodes & cls.nodes_of(_CLASS_OF_LABEL[label[0]])) | (
                tx.nodes & cls.nodes_of(_CLASS_OF_LABEL[label[1]])
            )
            substreams[label] = LinkStream(
                interval=tx.interval, nodes=frozenset(nodes), links=links
            )
    return StreamBundle(table=table, cls=cls, cert=cert, tx=tx, substreams=substreams)


def _stream_from(data, prefix: str, with_amount: bool) -> LinkStream:
    t = data[f"{prefix}_t"]
    src = data[f"{prefix}_src"]
    dst = data[f"{prefix}_dst"]
    amounts = data[f"{prefix}_amount"] if with_amount else None
    links = tuple(
        Link(
            int(t[i]),
            int(src[i]),
            int(dst[i]),
            amount=int(amounts[i]) if with_amount else None,
        )
        for i in range(len(t))
    )
    interval = tuple(int(x) for x in data[f"{prefix}_interval"])
    nodes = frozenset(int(n) for n in data[f"{prefix}_nodes"])
    return LinkStream(interval=(interval[0], interval[1]), nodes=nodes, links=links)
