"""Columnar snapshot of an ingested ledger.

The snapshot is a zip of .npy arrays (readable with ``numpy.load``) holding
the columns of the certification and transaction streams, the key table
(``keys.npy``, the key of each handle), the member set (every other key
is an anonymous wallet), the node set of each stream and the link indices
of the four class substreams. Its contents are four parts, ``(keys,
members, cert, tx)``: :func:`build_bundle` checks that they agree, at
ingest and at load, and :func:`load_bundle` returns them. A load opens the
zip once and reads each of the eleven arrays it uses once: ``keys``,
``members``, ``tx_amount`` and each stream's ``interval``, ``t``, ``src``
and ``dst``. It reads neither ``*_nodes`` nor ``sub_*``: the certification
stream is over the members and the transaction stream over every handle,
and each stage builds the substreams it reads from ``tx`` and ``members``.
Zip entries get a fixed timestamp so identical data produces identical
bytes, which the CLI's determinism guarantee relies on.
"""

from __future__ import annotations

import io
import math
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .atomic import atomic_file
from .errors import StateError
from .stream_core import (
    SUBSTREAM_LABELS,
    LinkStream,
    _distinct_sorted,
    _key_fault,
    class_mask,
)

SNAPSHOT_NAME = "snapshot.npz"
_EPOCH = (1980, 1, 1, 0, 0, 0)  # fixed zip timestamp for byte-stable output

Parts = tuple[list[str], np.ndarray, LinkStream, LinkStream]


def build_bundle(
    keys: list[str],
    members: np.ndarray,
    cert: LinkStream,
    tx: LinkStream,
) -> Parts:
    """The snapshot's parts ``(keys, members, cert, tx)``: the key table
    (the key of each handle), the member set and the two streams. Raise
    ValueError, naming the array that breaks the rule, unless no key
    repeats, every key passes ingest's rule, every member is a handle and
    each stream's interval spans its links, [0, 0] without links."""
    _check_keys(keys)
    if not ((members >= 0) & (members < len(keys))).all():
        raise ValueError("a handle of members.npy has no key in keys.npy")
    for prefix, s in (("cert", cert), ("tx", tx)):
        if s.interval != ((s.t[0], s.t[-1]) if s.link_count else (0, 0)):
            raise ValueError(f"{prefix}_interval.npy is not the span of the {prefix} links")
    return keys, members, cert, tx


def save_bundle(out_dir: str | Path, parts: Parts) -> Path:
    """Write the snapshot of ``parts`` into ``out_dir`` and return its path;
    a failed write leaves any previous snapshot in place."""
    keys, members, cert, tx = parts
    arrays: dict[str, np.ndarray] = {}
    for prefix, s in (("cert", cert), ("tx", tx)):
        arrays[f"{prefix}_interval"] = np.asarray(s.interval, dtype=np.int64)
        arrays[f"{prefix}_t"] = s.t
        arrays[f"{prefix}_src"] = s.src
        arrays[f"{prefix}_dst"] = s.dst
        arrays[f"{prefix}_nodes"] = s.nodes
    arrays["tx_amount"] = tx.amount
    arrays["keys"] = np.asarray(keys, dtype=np.str_)
    arrays["members"] = members
    for label in SUBSTREAM_LABELS:
        arrays[f"sub_{label}"] = np.flatnonzero(class_mask(tx, members, label))

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


def load_bundle(out_dir: str | Path) -> Parts:
    """The parts ``(keys, members, cert, tx)`` of the snapshot in
    ``out_dir``; raises StateError when the snapshot is missing or
    unreadable (truncated, not a zip, arrays missing, of the wrong dtype or
    shape or of other than the bytes their header claims, columns that
    break a stream invariant, or parts that :func:`build_bundle` rejects)."""
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


def _bundle_from(path: Path) -> Parts:
    with zipfile.ZipFile(path) as zf:
        keys = _array(zf, "keys").tolist()
        members = _distinct_sorted(_array(zf, "members"))
        # certifications are among members only, transactions over every handle
        cert = _stream_from(zf, "cert", members)
        tx = _stream_from(zf, "tx", np.arange(len(keys)), amount=_array(zf, "tx_amount"))
    return build_bundle(keys, members, cert, tx)


def _check_keys(keys: list[str]) -> None:
    """Raise ValueError if ``keys`` repeats a key or holds one that ingest
    would reject, naming the first. No ASCII letter or digit breaks the
    rule, so a table of non-empty keys of those alone, as base58 keys are,
    passes without a per-key scan."""
    if len(set(keys)) != len(keys):
        raise ValueError("keys.npy repeats a key")
    joined = "".join(keys)
    if joined.isascii() and joined.encode().isalnum() and all(keys):
        return
    for i, key in enumerate(keys):
        fault = _key_fault(key)
        if fault:
            raise ValueError(f"key {i} in keys.npy {fault}")


def _array(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array ``name``: ``keys`` a 1-D unicode array, every other one a
    1-D int64 array, of length 2 for an interval. The entry is read once,
    its CRC checked, and must hold exactly the bytes its header claims; the
    array is a read-only view of them."""
    raw = zf.read(f"{name}.npy")
    fh = io.BytesIO(raw)
    version = np.lib.format.read_magic(fh)  # ValueError on a non-npy entry
    if version == (1, 0):
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    else:
        shape, _, dtype = np.lib.format.read_array_header_2_0(fh)
    kind = np.str_ if name == "keys" else np.int64
    length = 2 if name.endswith("_interval") else math.prod(shape)  # a 0-d or 2-D array fails
    if shape != (length,) or not np.issubdtype(dtype, kind):
        raise ValueError(f"{name}.npy has dtype {dtype} and shape {shape}")
    held = len(raw) - fh.tell()
    if length * dtype.itemsize != held:
        raise ValueError(f"{name}.npy claims shape {shape} of {dtype}, but holds {held} bytes")
    return np.frombuffer(raw, dtype=dtype, offset=fh.tell())


def _stream_from(
    zf: zipfile.ZipFile, prefix: str, nodes: np.ndarray, amount: np.ndarray | None = None
) -> LinkStream:
    t0, t1 = _array(zf, f"{prefix}_interval").tolist()
    return LinkStream(
        interval=(t0, t1),
        nodes=nodes,
        t=_array(zf, f"{prefix}_t"),
        src=_array(zf, f"{prefix}_src"),
        dst=_array(zf, f"{prefix}_dst"),
        amount=amount,
    )
