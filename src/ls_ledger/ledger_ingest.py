"""Ledger record parsing, the key table and member set, and stream
construction.

The input is UTF-8 line-delimited JSON, one record per line, decoupling the
analytics from any blockchain access:

    {"type":"identity","time":<int>,"key":"<str>","uid":"<str>"}
    {"type":"cert","time":<int>,"from":"<str>","to":"<str>"}
    {"type":"tx","time":<int>,"from":"<str>","to":"<str>","amount":<int>}

Amounts are integers in currency centimes; no floating-point money anywhere.
Keys are written unquoted into CSV rows and ``src|dst`` pair labels, so a
key containing ``,``, ``|``, ``"``, whitespace or a control character, or
starting with ``#``, is a malformed line: the rule is
``stream_core._key_fault``, which loading a snapshot applies too. So is a
line that is not valid UTF-8, and one whose JSON nests deeper than the
recursion limit or holds an integer of more digits than Python converts.
Lenient parsing skips malformed lines and reports them with line numbers;
strict parsing raises on the first one.

The parser returns the identities as their keys, in line order. The keys
an identity names are the members; every other key is an anonymous
wallet. Ingest keeps this split as the key table ``keys``, a list of key
strings whose positions are the handles, and one sorted member set, which
the streams, the repartition and the miners read.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterable
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import IntegrityError, ParseError
from .stream_core import (
    SUBSTREAM_LABELS,
    LinkStream,
    _distinct_sorted,
    _key_fault,
    class_mask,
    stream_from_columns,
)

_INT64_MAX = 2**63 - 1
_decode = json.JSONDecoder().raw_decode

# names an offending value in a reason: strings and integers cut to 60
# characters around "...", containers to 6 levels and 6 items
_SHOWN = reprlib.Repr()
_SHOWN.maxstring = _SHOWN.maxlong = _SHOWN.maxother = 60


class LinkColumns:
    """Parsed links in line order, as parallel lists: times, source and
    target keys, and amounts of transactions or line numbers of
    certifications. ``amount`` and ``line`` stay None unless given; a
    column set's ``len()`` is its link count."""

    def __init__(self, amount: list[int] | None = None, line: list[int] | None = None):
        self.t: list[int] = []
        self.src: list[str] = []
        self.dst: list[str] = []
        self.amount, self.line = amount, line

    def __len__(self) -> int:
        return len(self.t)


class ParsedRecords(NamedTuple):
    """The identity keys, the certification and transaction columns, and
    the per-line issues (lenient mode only). ``LinkColumns`` is no named
    tuple: its ``len()`` is its link count."""

    identities: list[str]
    certifications: LinkColumns
    transactions: LinkColumns
    issues: list[tuple[int, str]]


def _require(obj: dict, name: str, line_no: int):
    if name not in obj:
        raise ParseError(f"missing field {name!r}", line_no)
    return obj[name]


def _int_field(obj: dict, name: str, line_no: int) -> int:
    v = _require(obj, name, line_no)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"field {name!r} must be an integer, got {_SHOWN.repr(v)}", line_no)
    if v > _INT64_MAX:  # streams hold int64 columns
        raise ParseError(f"field {name!r} is {_SHOWN.repr(v)}, above 2^63-1", line_no)
    return v


def _str_field(obj: dict, name: str, line_no: int) -> str:
    v = _require(obj, name, line_no)
    if not isinstance(v, str) or not v:
        raise ParseError(f"field {name!r} must be a non-empty string", line_no)
    return v


def _key_field(obj: dict, name: str, line_no: int, valid_keys: dict[str, str]) -> str:
    """A key string; each distinct key is checked once, then remembered in
    ``valid_keys``, which maps it to its first string object, so every
    column entry of one key shares that object."""
    v = _str_field(obj, name, line_no)
    if v not in valid_keys:
        fault = _key_fault(v)
        if fault:
            raise ParseError(f"key {_SHOWN.repr(v)} in field {name!r} {fault}", line_no)
        valid_keys[v] = v
    return valid_keys[v]


def parse_records(lines: Iterable[str | bytes], strict: bool = False) -> ParsedRecords:
    """Single-pass parse of line-delimited records.

    Returns ``(identities, certifications, transactions, issues)``: the
    keys of the identities, and the certifications and transactions as
    columns, each in input order, then the issues.
    A line with bytes that are not UTF-8 is malformed, whether it comes as
    ``bytes`` or as text read with ``errors="surrogateescape"``, which
    carries such bytes as lone surrogates.
    In lenient mode malformed lines are collected into ``issues`` as
    (line number, reason) pairs; in strict mode the first one raises
    :class:`ParseError`.
    """
    parsed = ParsedRecords([], LinkColumns(line=[]), LinkColumns(amount=[]), [])
    seen_keys: set[str] = set()
    seen_uids: set[str] = set()
    valid_keys: dict[str, str] = {}

    for line_no, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", "surrogateescape")
        line = raw.strip()
        if not line:
            continue
        try:
            _parse_line(line, line_no, parsed, seen_keys, seen_uids, valid_keys)
        except ParseError as err:
            if strict:
                raise
            parsed.issues.append((line_no, err.reason))
    return parsed


def _parse_line(
    line: str,
    line_no: int,
    parsed: ParsedRecords,
    seen_keys: set[str],
    seen_uids: set[str],
    valid_keys: dict[str, str],
) -> None:
    """Check one line and append its record to ``parsed``.

    A well-formed link passes a few cheap type and membership tests; the
    field helpers run only when one fails, to raise the reason."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError("not valid UTF-8", line_no) from None
    # json.loads without its wrappers, and with its messages: the line is
    # stripped, so any text after the value is extra data
    if line[0] == "\ufeff":
        raise ParseError("invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)", line_no)
    try:
        obj, end = _decode(line)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", line_no) from None
    except (ValueError, RecursionError) as err:  # an over-long integer or over-deep nesting
        raise ParseError(f"invalid JSON: {err}", line_no) from None
    if end != len(line):
        raise ParseError("invalid JSON: Extra data", line_no)
    if type(obj) is not dict:
        raise ParseError("record must be a JSON object", line_no)

    kind = obj.get("type")
    if kind is None:  # raises if missing; null is an unknown type below
        _require(obj, "type", line_no)
    t = obj.get("time")
    if type(t) is not int or not 0 <= t <= _INT64_MAX:
        t = _int_field(obj, "time", line_no)
        raise ParseError(f"negative time {t}", line_no)

    if kind == "tx" or kind == "cert":
        src = obj.get("from")
        if type(src) is not str or (src := valid_keys.get(src)) is None:
            src = _key_field(obj, "from", line_no, valid_keys)
        dst = obj.get("to")
        if type(dst) is not str or (dst := valid_keys.get(dst)) is None:
            dst = _key_field(obj, "to", line_no, valid_keys)
        if kind == "cert":
            if src == dst:
                raise ParseError(f"self-certification by {_SHOWN.repr(src)}", line_no)
            links = parsed.certifications
            links.line.append(line_no)
        else:
            amount = obj.get("amount")
            if type(amount) is not int or not 0 <= amount <= _INT64_MAX:
                amount = _int_field(obj, "amount", line_no)
            if src == dst:
                raise ParseError(f"self-transaction by {_SHOWN.repr(src)}", line_no)
            if amount < 0:
                raise ParseError(f"negative amount {amount}", line_no)
            links = parsed.transactions
            links.amount.append(amount)
        links.t.append(t)
        links.src.append(src)
        links.dst.append(dst)
    elif kind == "identity":
        key = _key_field(obj, "key", line_no, valid_keys)
        uid = _str_field(obj, "uid", line_no)
        if key in seen_keys:
            raise ParseError(f"duplicate identity key {_SHOWN.repr(key)}", line_no)
        if uid in seen_uids:
            raise ParseError(f"duplicate identity uid {_SHOWN.repr(uid)}", line_no)
        seen_keys.add(key)
        seen_uids.add(uid)
        parsed.identities.append(key)
    else:
        raise ParseError(f"unknown record type {_SHOWN.repr(kind)}", line_no)


def classify_keys(
    identity_keys: list[str], transactions: LinkColumns
) -> tuple[list[str], np.ndarray]:
    """The key table ``keys`` and the member set: members are the keys with
    an identity, and every other key of the table, a transaction endpoint
    without one, is an anonymous wallet.

    A key's handle is its position in ``keys``, in order of first
    appearance: members in identity order, so theirs are the smallest,
    then transaction endpoints, source before target, in line order.
    """
    ends = chain.from_iterable(zip(transactions.src, transactions.dst))
    keys = list(dict.fromkeys(chain(identity_keys, ends)))
    return keys, _distinct_sorted(np.arange(len(set(identity_keys))))


def build_streams(
    certs: LinkColumns, txs: LinkColumns, keys: list[str], members: np.ndarray
) -> tuple[LinkStream, LinkStream]:
    """Build the certification stream (over ``members``) and the
    transaction stream (over every key of ``keys``) from the parsed
    certification and transaction columns.

    Certification links are unweighted; transaction links carry amounts.
    Each interval spans the first to the last event of its kind; a stream
    with no events gets the degenerate interval [0, 0].
    """
    get = dict(zip(keys, range(len(keys)))).get
    # a key missing from the table has handle -1, which isin finds nowhere
    src, dst, tx_src, tx_dst = (
        np.array([get(k, -1) for k in column], dtype=np.int64)
        for column in (certs.src, certs.dst, txs.src, txs.dst)
    )
    src_ok, dst_ok = np.isin(src, members), np.isin(dst, members)
    ok = src_ok & dst_ok
    if not ok.all():
        i = int(ok.argmin())  # the first offending cert
        key = certs.src[i] if not src_ok[i] else certs.dst[i]
        raise IntegrityError(
            f"line {certs.line[i]}: certification involves non-member key {_SHOWN.repr(key)}"
        )
    cert = stream_from_columns(certs.t, src, dst, nodes=members)
    tx = stream_from_columns(txs.t, tx_src, tx_dst, txs.amount, nodes=np.arange(len(keys)))
    return cert, tx


def repartition(
    tx_stream: LinkStream, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray]:
    """Transaction counts and exchanged amounts per class substream, as the
    columns count, count share, amount and amount share aligned with
    ``SUBSTREAM_LABELS``.

    Amounts are Python ints, exact where an int64 sum could wrap. Shares
    are computed once, at the end, from exact integer totals; they sum to 1
    whenever the corresponding total is non-zero, and are 0 otherwise.
    """
    keep = [class_mask(tx_stream, members, label) for label in SUBSTREAM_LABELS]
    count = np.array([np.count_nonzero(k) for k in keep])
    amount = [0 if tx_stream.amount is None else sum(tx_stream.amount[k].tolist()) for k in keep]
    total = max(sum(amount), 1)
    return count, count / max(count.sum(), 1), amount, np.array([a / total for a in amount])


def filter_wallet(s: LinkStream, wallet: int) -> LinkStream:
    """Drop every link touching ``wallet`` and the wallet itself; the
    interval is unchanged. Filtering an absent node is a no-op."""
    return s.restrict((s.src != wallet) & (s.dst != wallet), s.nodes[s.nodes != wallet])


def identify_miners(tx_stream: LinkStream, members: np.ndarray, wallet: int) -> np.ndarray:
    """Members that received at least one transaction from the donation
    wallet of handle ``wallet``, as a node set."""
    if not np.any(tx_stream.nodes == wallet):
        raise KeyError(f"wallet {wallet} not present in the transaction stream")
    paid = tx_stream.dst[tx_stream.src == wallet]
    return _distinct_sorted(paid[np.isin(paid, members)])
