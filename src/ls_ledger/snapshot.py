"""Columnar snapshot of an ingested ledger.

The snapshot is a zip of .npy arrays (readable with ``numpy.load``) holding
the columns of the certification and transaction streams, the key table,
the member partition, and the link indices of the four class substreams.
Loading checks every array, then leaves the substreams unbuilt: a bundle
derives each one from the transaction stream and the partition on its
first read, so loading reads no ``sub_*`` array and a command builds only
the substreams it reads. Zip entries get a fixed
timestamp so identical data produces identical bytes, which the CLI's
determinism guarantee relies on.
"""

from __future__ import annotations

import io
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_file
from .errors import StateError
from .stream_core import (
    SUBSTREAM_CLASSES,
    LinkStream,
    NodeClassification,
    NodeTable,
    class_mask,
    substream_by_class,
)

SNAPSHOT_NAME = "snapshot.npz"
_EPOCH = (1980, 1, 1, 0, 0, 0)  # fixed zip timestamp for byte-stable output


@dataclass(frozen=True)
class StreamBundle:
    """Everything downstream commands need: key table, partition, the two
    streams, and the four transaction substreams, each built on first read."""

    table: NodeTable
    cls: NodeClassification
    cert: LinkStream
    tx: LinkStream
    _built: dict[str, LinkStream] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def substream(self, label: str) -> LinkStream:
        """The transaction substream ``label`` (MM / MA / AM / AA); later
        reads return the same object."""
        if label not in self._built:
            self._built[label] = substream_by_class(self.tx, self.cls, *SUBSTREAM_CLASSES[label])
        return self._built[label]

    @property
    def tx_mm(self) -> LinkStream:
        return self.substream("MM")


def build_bundle(
    table: NodeTable,
    cls: NodeClassification,
    cert: LinkStream,
    tx: LinkStream,
) -> StreamBundle:
    cls.require_covers(tx.nodes)  # what a substream build checks, checked at load
    return StreamBundle(table=table, cls=cls, cert=cert, tx=tx)


def save_bundle(out_dir: str | Path, bundle: StreamBundle) -> Path:
    """Write the snapshot into ``out_dir`` and return its path; a failed
    write leaves any previous snapshot in place."""
    arrays: dict[str, np.ndarray] = {}
    for prefix, s in (("cert", bundle.cert), ("tx", bundle.tx)):
        arrays[f"{prefix}_interval"] = np.asarray(s.interval, dtype=np.int64)
        arrays[f"{prefix}_t"] = s.t
        arrays[f"{prefix}_src"] = s.src
        arrays[f"{prefix}_dst"] = s.dst
        arrays[f"{prefix}_nodes"] = s.nodes
    arrays["tx_amount"] = bundle.tx.amount
    arrays["keys"] = np.asarray(bundle.table.keys(), dtype=np.str_)
    arrays["members"] = bundle.cls.members
    for label, classes in SUBSTREAM_CLASSES.items():
        keep = class_mask(bundle.tx, bundle.cls, *classes)
        arrays[f"sub_{label}"] = np.flatnonzero(keep)

    path = Path(out_dir) / SNAPSHOT_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_file(path, "wb") as fh, zipfile.ZipFile(
        fh, "w", compression=zipfile.ZIP_DEFLATED
    ) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.save(buf, arrays[name], allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, buf.getvalue())
    return path


def load_bundle(out_dir: str | Path) -> StreamBundle:
    """Rebuild the bundle from ``out_dir``; raises StateError when the
    snapshot is missing or unreadable (truncated, not a zip, arrays missing
    or of the wrong dtype or shape, columns that break a stream invariant, a
    repeated key, a node handle without a key, or certification nodes other
    than the members)."""
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
    # np.load on an open handle: a truncated archive then leaves no file open
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        keys = _array(data, "keys").tolist()
        table = NodeTable(keys)
        if len(table) != len(keys):  # the table keeps a repeated key once
            raise ValueError("keys.npy repeats a key")
        members = _array(data, "members")
        handles = np.arange(len(table))
        cls = NodeClassification(members, handles[~np.isin(handles, members)], table)
        cert = _stream_from(data, "cert")
        tx = _stream_from(data, "tx", amount=_array(data, "tx_amount"))
    if not np.isin(np.concatenate((cls.members, cert.nodes, tx.nodes)), handles).all():
        raise ValueError("a node handle has no key in keys.npy")
    if not np.array_equal(cert.nodes, cls.members):  # certifications are among members only
        raise ValueError("cert_nodes.npy differs from members.npy")
    return build_bundle(table, cls, cert, tx)


def _array(data, name: str) -> np.ndarray:
    """The array ``name``: ``keys`` a 1-D unicode array, every other one a
    1-D int64 array, of length 2 for an interval."""
    value = data[name]
    if not isinstance(value, np.ndarray):  # np.load returns a non-npy entry as bytes
        raise ValueError(f"{name}.npy is not an npy array")
    kind = np.str_ if name == "keys" else np.int64
    length = 2 if name.endswith("_interval") else value.size  # a 0-d or 2-D array fails
    if value.shape != (length,) or not np.issubdtype(value.dtype, kind):
        raise ValueError(f"{name}.npy has dtype {value.dtype} and shape {value.shape}")
    return value


def _stream_from(data, prefix: str, amount: np.ndarray | None = None) -> LinkStream:
    t0, t1 = _array(data, f"{prefix}_interval").tolist()
    return LinkStream(
        interval=(t0, t1),
        nodes=_array(data, f"{prefix}_nodes"),
        t=_array(data, f"{prefix}_t"),
        src=_array(data, f"{prefix}_src"),
        dst=_array(data, f"{prefix}_dst"),
        amount=amount,
    )
