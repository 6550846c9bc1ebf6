"""Ledger record parsing, key classification, and stream construction.

The input is UTF-8 line-delimited JSON, one record per line, decoupling the
analytics from any blockchain access:

    {"type":"identity","time":<int>,"key":"<str>","uid":"<str>"}
    {"type":"cert","time":<int>,"from":"<str>","to":"<str>"}
    {"type":"tx","time":<int>,"from":"<str>","to":"<str>","amount":<int>}

Amounts are integers in currency centimes; no floating-point money anywhere.
Keys are written unquoted into CSV rows and ``src|dst`` pair labels, so a
key containing ``,``, ``|``, whitespace or a control character, or starting
with ``#``, is a malformed line. So is a line that is not valid UTF-8, and
one whose JSON nests deeper than the recursion limit or holds an integer of
more digits than Python converts.
Lenient parsing skips malformed lines and reports them with line numbers;
strict parsing raises on the first one.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import IntegrityError, ParseError
from .stream_core import (
    LinkStream,
    NodeClass,
    NodeClassification,
    NodeTable,
    class_mask,
    node_mask,
    stream_from_rows,
)

SUBSTREAM_LABELS = ("MM", "MA", "AM", "AA")
# label -> (source class, target class)
SUBSTREAM_CLASSES = {
    label: tuple(NodeClass.MEMBER if c == "M" else NodeClass.ANONYMOUS for c in label)
    for label in SUBSTREAM_LABELS
}

# a key must not split a CSV row or a "src|dst" pair label, nor read as a
# "#" comment line; base58 keys never match
_BAD_KEY = re.compile(r"^#|[,|\s\x00-\x1f\x7f-\x9f]")
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True, slots=True)
class IdentityRecord:
    t: int
    key: str
    uid: str


@dataclass(frozen=True, slots=True)
class CertRecord:
    t: int
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class TxRecord:
    t: int
    src: str
    dst: str
    amount: int


@dataclass
class ParsedRecords:
    """The three record collections plus per-line issues (lenient mode only)."""

    identities: list[IdentityRecord]
    certifications: list[CertRecord]
    transactions: list[TxRecord]
    issues: list[tuple[int, str]]


def _require(obj: dict, name: str, line_no: int):
    if name not in obj:
        raise ParseError(f"missing field {name!r}", line_no)
    return obj[name]


def _int_field(obj: dict, name: str, line_no: int) -> int:
    v = _require(obj, name, line_no)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"field {name!r} must be an integer, got {v!r}", line_no)
    if v > _INT64_MAX:  # streams hold int64 columns
        raise ParseError(f"field {name!r} is {v}, above 2^63-1", line_no)
    return v


def _str_field(obj: dict, name: str, line_no: int) -> str:
    v = _require(obj, name, line_no)
    if not isinstance(v, str) or not v:
        raise ParseError(f"field {name!r} must be a non-empty string", line_no)
    return v


def _key_field(obj: dict, name: str, line_no: int, valid_keys: set[str]) -> str:
    """A key string; each distinct key is checked once, then remembered in
    ``valid_keys``."""
    v = _str_field(obj, name, line_no)
    if v not in valid_keys:
        bad = _BAD_KEY.search(v)
        if bad:
            what = "starts with '#'" if bad.group() == "#" else f"contains {bad.group()!r}"
            raise ParseError(f"key {v!r} in field {name!r} {what}", line_no)
        valid_keys.add(v)
    return v


def parse_records(lines: Iterable[str | bytes], strict: bool = False) -> ParsedRecords:
    """Single-pass parse of line-delimited records.

    Returns the identities, certifications, and transactions in input order.
    A line with bytes that are not UTF-8 is malformed, whether it comes as
    ``bytes`` or as text read with ``errors="surrogateescape"``, which
    carries such bytes as lone surrogates.
    In lenient mode malformed lines are collected into ``issues`` as
    (line number, reason) pairs; in strict mode the first one raises
    :class:`ParseError`.
    """
    identities: list[IdentityRecord] = []
    certs: list[CertRecord] = []
    txs: list[TxRecord] = []
    issues: list[tuple[int, str]] = []
    seen_keys: set[str] = set()
    seen_uids: set[str] = set()
    valid_keys: set[str] = set()

    for line_no, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", "surrogateescape")
        line = raw.strip()
        if not line:
            continue
        try:
            rec = _parse_line(line, line_no, seen_keys, seen_uids, valid_keys)
        except ParseError as err:
            if strict:
                raise
            issues.append((line_no, err.reason))
            continue
        if isinstance(rec, IdentityRecord):
            identities.append(rec)
        elif isinstance(rec, CertRecord):
            certs.append(rec)
        else:
            txs.append(rec)
    return ParsedRecords(identities, certs, txs, issues)


def _parse_line(
    line: str,
    line_no: int,
    seen_keys: set[str],
    seen_uids: set[str],
    valid_keys: set[str],
) -> IdentityRecord | CertRecord | TxRecord:
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError("not valid UTF-8", line_no) from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", line_no) from None
    except (ValueError, RecursionError) as err:  # an over-long integer or over-deep nesting
        raise ParseError(f"invalid JSON: {err}", line_no) from None
    if not isinstance(obj, dict):
        raise ParseError("record must be a JSON object", line_no)

    kind = _require(obj, "type", line_no)
    t = _int_field(obj, "time", line_no)
    if t < 0:
        raise ParseError(f"negative time {t}", line_no)

    if kind == "identity":
        key = _key_field(obj, "key", line_no, valid_keys)
        uid = _str_field(obj, "uid", line_no)
        if key in seen_keys:
            raise ParseError(f"duplicate identity key {key!r}", line_no)
        if uid in seen_uids:
            raise ParseError(f"duplicate identity uid {uid!r}", line_no)
        seen_keys.add(key)
        seen_uids.add(uid)
        return IdentityRecord(t, key, uid)
    if kind == "cert":
        src = _key_field(obj, "from", line_no, valid_keys)
        dst = _key_field(obj, "to", line_no, valid_keys)
        if src == dst:
            raise ParseError(f"self-certification by {src!r}", line_no)
        return CertRecord(t, src, dst)
    if kind == "tx":
        src = _key_field(obj, "from", line_no, valid_keys)
        dst = _key_field(obj, "to", line_no, valid_keys)
        amount = _int_field(obj, "amount", line_no)
        if src == dst:
            raise ParseError(f"self-transaction by {src!r}", line_no)
        if amount < 0:
            raise ParseError(f"negative amount {amount}", line_no)
        return TxRecord(t, src, dst, amount)
    raise ParseError(f"unknown record type {kind!r}", line_no)


def format_record(rec: IdentityRecord | CertRecord | TxRecord) -> str:
    """Canonical one-line serialization; parse_records round-trips it."""
    if isinstance(rec, IdentityRecord):
        obj = {"type": "identity", "time": rec.t, "key": rec.key, "uid": rec.uid}
    elif isinstance(rec, CertRecord):
        obj = {"type": "cert", "time": rec.t, "from": rec.src, "to": rec.dst}
    else:
        obj = {
            "type": "tx",
            "time": rec.t,
            "from": rec.src,
            "to": rec.dst,
            "amount": rec.amount,
        }
    return json.dumps(obj, separators=(",", ":"))


def classify_keys(
    identities: Iterable[IdentityRecord],
    transactions: Iterable[TxRecord],
) -> NodeClassification:
    """Partition keys: members are those with an identity, anonymous wallets
    are transaction endpoints without one.

    Members are interned first so their handles are the smallest; the shared
    table is kept on the classification for key naming in error messages.
    """
    table = NodeTable()
    members = {table.intern(rec.key) for rec in identities}
    anon = set()
    for rec in transactions:
        for key in (rec.src, rec.dst):
            h = table.intern(key)
            if h not in members:
                anon.add(h)
    return NodeClassification(
        members=frozenset(members), anonymous=frozenset(anon), table=table
    )


def build_streams(
    records: ParsedRecords, cls: NodeClassification
) -> tuple[LinkStream, LinkStream]:
    """Build the certification stream (over members) and the transaction
    stream (over all keys) from parsed records.

    Certification links are unweighted; transaction links carry amounts.
    Each interval spans the first to the last event of its kind; a stream
    with no events gets the degenerate interval [0, 0].
    """
    table = cls.table
    if table is None:
        raise IntegrityError("classification carries no key table")

    for rec in records.certifications:
        for key in (rec.src, rec.dst):
            if key not in table or table.id_of(key) not in cls.members:
                raise IntegrityError(f"certification involves non-member key {key!r}")
    id_of = table.id_of
    cert = stream_from_rows(
        [(rec.t, id_of(rec.src), id_of(rec.dst)) for rec in records.certifications],
        weighted=False,
        nodes=cls.members,
    )
    tx = stream_from_rows(
        [
            (rec.t, id_of(rec.src), id_of(rec.dst), rec.amount)
            for rec in records.transactions
        ],
        weighted=True,
        nodes=cls.members | cls.anonymous,
    )
    return cert, tx


@dataclass(frozen=True)
class RepartitionRow:
    count: int
    count_share: float
    amount: int
    amount_share: float


@dataclass(frozen=True)
class RepartitionReport:
    """Link counts and exchanged amounts per transaction substream.

    Shares are computed once, at the end, from exact integer totals; they sum
    to 1 whenever the corresponding total is non-zero.
    """

    rows: dict[str, RepartitionRow]  # keyed by MM / MA / AM / AA


def repartition(tx_stream: LinkStream, cls: NodeClassification) -> RepartitionReport:
    """Split transaction counts and amounts across the four class substreams."""
    cls.require_covers(tx_stream.nodes)
    counts = {}
    amounts = {}
    for label in SUBSTREAM_LABELS:
        keep = class_mask(tx_stream, cls, *SUBSTREAM_CLASSES[label])
        counts[label] = int(keep.sum())
        # a sum of Python ints stays exact where an int64 sum could wrap
        amounts[label] = 0 if tx_stream.amount is None else sum(tx_stream.amount[keep].tolist())
    n = sum(counts.values())
    a = sum(amounts.values())
    rows = {
        label: RepartitionRow(
            count=counts[label],
            count_share=counts[label] / n if n else 0.0,
            amount=amounts[label],
            amount_share=amounts[label] / a if a else 0.0,
        )
        for label in SUBSTREAM_LABELS
    }
    return RepartitionReport(rows=rows)


def filter_wallet(s: LinkStream, wallet: int) -> LinkStream:
    """Drop every link touching ``wallet`` and the wallet itself; the
    interval is unchanged. Filtering an absent node is a no-op."""
    return s.restrict((s.src != wallet) & (s.dst != wallet), s.nodes - {wallet})


def identify_miners(
    tx_stream: LinkStream, cls: NodeClassification, remuniter_key: str
) -> frozenset[int]:
    """Members that received at least one transaction from the donation
    wallet identified by ``remuniter_key``."""
    table = cls.table
    if table is None or remuniter_key not in table:
        raise KeyError(f"key {remuniter_key!r} not present in the dataset")
    wallet = table.id_of(remuniter_key)
    if wallet not in tx_stream.nodes:
        raise KeyError(f"key {remuniter_key!r} not present in the transaction stream")
    paid = tx_stream.dst[tx_stream.src == wallet]
    return frozenset(paid[node_mask(paid, cls.members)].tolist())

