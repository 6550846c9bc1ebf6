"""Columnar snapshot of an ingested ledger.

The snapshot is a zip of .npy arrays (readable with ``numpy.load``) holding
the columns of the certification and transaction streams, the key table
(``keys.npy``, the key of each handle), the member set (every other key
is an anonymous wallet), and the link indices of the four class
substreams. Its contents are four parts, ``(keys, members, cert, tx)``:
:func:`build_bundle` checks that they agree, at ingest and at load, and
:func:`load_bundle` returns them, reading no ``sub_*`` array; each stage
builds the substreams it reads from ``tx`` and ``members``. Zip entries
get a fixed timestamp so identical data produces identical bytes, which
the CLI's determinism guarantee relies on.
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
    repeats, every key passes ingest's rule, every member is a handle, the
    certification nodes are the members, and the transaction nodes are
    every handle."""
    _check_keys(keys)
    if not ((members >= 0) & (members < len(keys))).all():
        raise ValueError("a handle of members.npy has no key in keys.npy")
    if not np.array_equal(cert.nodes, members):  # certifications are among members only
        raise ValueError("cert_nodes.npy differs from members.npy")
    if not np.array_equal(tx.nodes, np.arange(len(keys))):
        raise ValueError("tx_nodes.npy is not every handle of keys.npy")
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
    unreadable (truncated, not a zip, arrays missing or of the wrong dtype
    or shape, columns that break a stream invariant, or parts that
    :func:`build_bundle` rejects)."""
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
    # np.load on an open handle: a truncated archive then leaves no file open
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        keys = _array(data, "keys").tolist()
        members = _distinct_sorted(_array(data, "members"))
        cert = _stream_from(data, "cert")
        tx = _stream_from(data, "tx", amount=_array(data, "tx_amount"))
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


def _array(data, name: str) -> np.ndarray:
    """The array ``name``: ``keys`` a 1-D unicode array, every other one a
    1-D int64 array, of length 2 for an interval."""
    _check_claimed_size(data, name)
    value = data[name]
    if not isinstance(value, np.ndarray):  # np.load returns a non-npy entry as bytes
        raise ValueError(f"{name}.npy is not an npy array")
    kind = np.str_ if name == "keys" else np.int64
    length = 2 if name.endswith("_interval") else value.size  # a 0-d or 2-D array fails
    if value.shape != (length,) or not np.issubdtype(value.dtype, kind):
        raise ValueError(f"{name}.npy has dtype {value.dtype} and shape {value.shape}")
    return value


def _check_claimed_size(data, name: str) -> None:
    """Raise ValueError if the header of ``name``.npy claims more values
    than its zip entry holds, before ``data[name]`` allocates room for them.
    An entry without the npy magic is left to ``_array``, which rejects it."""
    info = data.zip.getinfo(f"{name}.npy")
    with data.zip.open(info) as fh:
        try:
            version = np.lib.format.read_magic(fh)
        except ValueError:
            return
        if version == (1, 0):
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        else:
            shape, _, dtype = np.lib.format.read_array_header_2_0(fh)
        held = info.file_size - fh.tell()
    if math.prod(shape) * dtype.itemsize > held:
        raise ValueError(f"{name}.npy claims shape {shape} of {dtype}, but holds {held} bytes")


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
