import io
import random

import pytest

from oracles import links_of
from ls_ledger.errors import IntegrityError, ParseError
from ls_ledger.fixtures import example_records, random_records
from ls_ledger.ledger_ingest import (
    CertRecord,
    IdentityRecord,
    TxRecord,
    build_streams,
    classify_keys,
    filter_wallet,
    format_record,
    identify_miners,
    parse_records,
    repartition,
)

LINES = [
    '{"type":"identity","time":0,"key":"A","uid":"alice"}',
    '{"type":"cert","time":0,"from":"A","to":"B"}',
    '{"type":"tx","time":5,"from":"A","to":"B","amount":150}',
]


def test_parse_records_basic():
    parsed = parse_records(LINES + ['{"type":"identity","time":1,"key":"B","uid":"bob"}'])
    assert parsed.identities == [
        IdentityRecord(0, "A", "alice"),
        IdentityRecord(1, "B", "bob"),
    ]
    assert parsed.certifications == [CertRecord(0, "A", "B")]
    assert parsed.transactions == [TxRecord(5, "A", "B", 150)]
    assert parsed.issues == []


def test_parse_accepts_bytes_and_blank_lines():
    raw = io.BytesIO(("\n".join(LINES) + "\n\n").encode("utf-8"))
    parsed = parse_records(raw)
    assert len(parsed.transactions) == 1


def test_parse_bytes_that_are_not_utf8_make_their_line_malformed():
    raw = io.BytesIO(("\n".join(LINES[:2]) + "\n\xff\xfe\n" + LINES[2] + "\n").encode("latin-1"))
    parsed = parse_records(raw)
    assert parsed.issues == [(3, "not valid UTF-8")]
    assert len(parsed.transactions) == 1
    with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
        parse_records(io.BytesIO(raw.getvalue()), strict=True)


@pytest.mark.parametrize(
    "bad",
    [
        '{"type":"warp","time":0,"from":"A","to":"B"}',
        '{"type":"tx","time":0,"from":"A","to":"B"}',
        '{"type":"tx","time":0,"from":"A","to":"B","amount":-5}',
        '{"type":"tx","time":"x","from":"A","to":"B","amount":5}',
        '{"type":"tx","time":0,"from":"A","to":"A","amount":1}',
        '{"type":"cert","time":0,"from":"A"}',
        "not json at all",
        "[1,2,3]",
        pytest.param("[" * 100_000 + "]" * 100_000, id="over_deep"),
        pytest.param(
            '{"type":"tx","time":' + "1" * 5_000 + ',"from":"A","to":"B","amount":1}',
            id="over_long_integer",
        ),
        # a byte that is not UTF-8, as errors="surrogateescape" reads it
        pytest.param('{"type":"identity","time":0,"key":"C\udcff","uid":"c"}', id="escaped_byte"),
    ],
)
def test_parse_malformed_lines(bad):
    lines = LINES + [bad]
    parsed = parse_records(lines)
    assert parsed.issues and parsed.issues[0][0] == 4
    with pytest.raises(ParseError) as err:
        parse_records(lines, strict=True)
    assert err.value.line_no == 4


@pytest.mark.parametrize(
    "record",
    [
        '{"type":"identity","time":0,"key":"a,b","uid":"ab"}',
        '{"type":"identity","time":0,"key":"#x","uid":"x"}',
        '{"type":"cert","time":0,"from":"A","to":"B|C"}',
        '{"type":"cert","time":0,"from":"B C","to":"A"}',
        '{"type":"tx","time":0,"from":"A","to":"B\\tC","amount":1}',
        '{"type":"tx","time":0,"from":"A\\u0085","to":"B","amount":1}',
        '{"type":"tx","time":0,"from":"A","to":"B\\u0000","amount":1}',
        '{"type":"tx","time":0,"from":"A","to":"B\\u2003","amount":1}',
    ],
)
def test_parse_rejects_keys_that_break_csv_rows(record):
    lines = LINES + [record]
    parsed = parse_records(lines)
    assert [line for line, _ in parsed.issues] == [4]
    assert "key" in parsed.issues[0][1]
    assert len(parsed.identities) + len(parsed.certifications) + len(parsed.transactions) == 3
    with pytest.raises(ParseError) as err:
        parse_records(lines, strict=True)
    assert err.value.line_no == 4


def test_parse_accepts_keys_inside_and_after_hash():
    # "#" only reads as a comment at the start of a row
    lines = ['{"type":"tx","time":0,"from":"A#1","to":"M000","amount":1}'] * 2
    parsed = parse_records(lines)
    assert parsed.issues == []
    assert [(r.src, r.dst) for r in parsed.transactions] == [("A#1", "M000")] * 2


def test_parse_duplicate_identity_rejected():
    lines = [
        '{"type":"identity","time":0,"key":"A","uid":"alice"}',
        '{"type":"identity","time":1,"key":"A","uid":"alias"}',
        '{"type":"identity","time":2,"key":"B","uid":"alice"}',
    ]
    parsed = parse_records(lines)
    assert [line for line, _ in parsed.issues] == [2, 3]


def test_parse_serialize_round_trip():
    records = example_records() + random_records(3)
    lines = [format_record(r) for r in records]
    parsed = parse_records(lines)
    assert parsed.issues == []
    assert parsed.identities + parsed.certifications + parsed.transactions == [
        r
        for group in (IdentityRecord, CertRecord, TxRecord)
        for r in records
        if isinstance(r, group)
    ]
    assert [format_record(r) for r in parsed.identities] == [
        ln for ln in lines if '"identity"' in ln
    ]


def test_classify_keys_example():
    ids = [IdentityRecord(0, "A", "a"), IdentityRecord(0, "B", "b")]
    txs = [TxRecord(1, "C", "A", 10)]
    cls = classify_keys(ids, txs)
    t = cls.table
    assert cls.members == {t.id_of("A"), t.id_of("B")}
    assert cls.anonymous == {t.id_of("C")}


def test_classify_keys_no_identities():
    cls = classify_keys([], [TxRecord(1, "X", "Y", 10)])
    assert not cls.members and len(cls.anonymous) == 2


def test_classify_keys_member_without_transactions():
    cls = classify_keys([IdentityRecord(0, "A", "a")], [])
    assert cls.members == {cls.table.id_of("A")}
    assert cls.table.id_of("A") in cls.members | cls.anonymous


def test_classify_partition_property():
    rng = random.Random(5)
    for trial in range(20):
        records = random_records(100 + trial, n_members=6, n_anonymous=3)
        ids = [r for r in records if isinstance(r, IdentityRecord)]
        txs = [r for r in records if isinstance(r, TxRecord)]
        cls = classify_keys(ids, txs)
        seen = {cls.table.id_of(r.key) for r in ids}
        for r in txs:
            seen |= {cls.table.id_of(r.src), cls.table.id_of(r.dst)}
        assert cls.members | cls.anonymous == seen
        assert not cls.members & cls.anonymous


def _ingest(records):
    ids = [r for r in records if isinstance(r, IdentityRecord)]
    certs = [r for r in records if isinstance(r, CertRecord)]
    txs = [r for r in records if isinstance(r, TxRecord)]
    from ls_ledger.ledger_ingest import ParsedRecords

    parsed = ParsedRecords(ids, certs, txs, [])
    cls = classify_keys(ids, txs)
    cert, tx = build_streams(parsed, cls)
    return parsed, cls, cert, tx


def test_build_streams_counts():
    parsed, cls, cert, tx = _ingest(example_records())
    assert cert.link_count == 12
    assert tx.link_count == 14
    assert cert.amount is None
    assert tx.amount is not None and len(tx.amount) == tx.link_count
    assert cert.interval == (0, 6)
    assert cert.nodes == cls.members


def test_build_streams_rejects_non_member_cert():
    records = [
        IdentityRecord(0, "A", "a"),
        CertRecord(1, "A", "GHOST"),
    ]
    with pytest.raises(IntegrityError) as err:
        _ingest(records)
    assert "GHOST" in str(err.value)


def test_repartition_synthetic_quarters():
    records = [
        IdentityRecord(0, "M1", "m1"),
        IdentityRecord(0, "M2", "m2"),
        TxRecord(1, "M1", "M2", 100),
        TxRecord(2, "M1", "A1", 100),
        TxRecord(3, "A1", "M2", 100),
        TxRecord(4, "A1", "A2", 100),
    ]
    _, cls, _, tx = _ingest(records)
    report = repartition(tx, cls)
    for label in ("MM", "MA", "AM", "AA"):
        assert report.rows[label].count == 1
        assert report.rows[label].count_share == pytest.approx(0.25)
        assert report.rows[label].amount_share == pytest.approx(0.25)


def test_parse_rejects_values_beyond_int64():
    top = 2**63 - 1
    lines = [
        f'{{"type":"tx","time":{top},"from":"A","to":"B","amount":{top}}}',
        f'{{"type":"tx","time":{top + 1},"from":"A","to":"B","amount":1}}',
        f'{{"type":"tx","time":0,"from":"A","to":"B","amount":{top + 1}}}',
    ]
    parsed = parse_records(lines)
    assert parsed.transactions == [TxRecord(top, "A", "B", top)]
    assert parsed.issues == [
        (2, f"field 'time' is {top + 1}, above 2^63-1"),
        (3, f"field 'amount' is {top + 1}, above 2^63-1"),
    ]
    with pytest.raises(ParseError) as err:
        parse_records(lines, strict=True)
    assert err.value.line_no == 2


def test_repartition_amounts_stay_exact_beyond_int64():
    top = 2**63 - 1
    records = [
        IdentityRecord(0, "M1", "m1"),
        TxRecord(1, "M1", "A1", top),
        TxRecord(2, "M1", "A1", top),
    ]
    _, cls, _, tx = _ingest(records)
    report = repartition(tx, cls)
    assert report.rows["MA"].amount == 2 * top
    assert sum(r.amount for r in report.rows.values()) == 2 * top


def test_repartition_all_members():
    records = [
        IdentityRecord(0, "M1", "m1"),
        IdentityRecord(0, "M2", "m2"),
        TxRecord(1, "M1", "M2", 70),
        TxRecord(2, "M2", "M1", 30),
    ]
    _, cls, _, tx = _ingest(records)
    report = repartition(tx, cls)
    assert report.rows["MM"].count_share == 1.0
    assert report.rows["MM"].amount_share == 1.0
    assert all(report.rows[k].count == 0 for k in ("MA", "AM", "AA"))


def test_repartition_shares_sum_to_one():
    rng = random.Random(17)
    for trial in range(10):
        records = random_records(50 + trial)
        _, cls, _, tx = _ingest(records)
        report = repartition(tx, cls)
        assert sum(r.count_share for r in report.rows.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(r.amount_share for r in report.rows.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(r.count for r in report.rows.values()) == tx.link_count


def test_filter_wallet_example(sample_stream):
    s, table = sample_stream
    filtered = filter_wallet(s, table.id_of("c"))
    kept = [(t, table.key_of(u), table.key_of(v)) for t, u, v in links_of(filtered)]
    assert kept == [
        (0, "a", "d"), (1, "d", "a"), (2, "b", "a"), (4, "b", "d"),
        (5, "a", "b"), (6, "a", "b"), (6, "d", "a"),
    ]
    assert table.id_of("c") not in filtered.nodes
    assert filtered.interval == s.interval


def test_filter_wallet_absent_node(sample_stream):
    s, _ = sample_stream
    assert links_of(filter_wallet(s, 99)) == links_of(s)


def test_filter_then_repartition_keeps_share_invariant():
    records = random_records(23)
    _, cls, _, tx = _ingest(records)
    wallet = next(iter(cls.anonymous))
    report = repartition(filter_wallet(tx, wallet), cls)
    assert sum(r.count_share for r in report.rows.values()) == pytest.approx(1.0, abs=1e-9)


def test_identify_miners():
    records = [
        IdentityRecord(0, "M1", "m1"),
        IdentityRecord(0, "M2", "m2"),
        TxRecord(1, "REM", "M1", 10),
        TxRecord(2, "REM", "M1", 10),
        TxRecord(3, "REM", "M2", 10),
        TxRecord(4, "REM", "A9", 10),
        TxRecord(5, "M1", "REM", 10),
    ]
    _, cls, _, tx = _ingest(records)
    miners = identify_miners(tx, cls, "REM")
    t = cls.table
    assert miners == {t.id_of("M1"), t.id_of("M2")}
    assert miners <= cls.members


def test_identify_miners_no_outgoing():
    records = [
        IdentityRecord(0, "M1", "m1"),
        TxRecord(1, "M1", "REM", 10),
    ]
    _, cls, _, tx = _ingest(records)
    assert identify_miners(tx, cls, "REM") == frozenset()


def test_identify_miners_unknown_key():
    _, cls, _, tx = _ingest(example_records())
    with pytest.raises(KeyError):
        identify_miners(tx, cls, "NOT_THERE")

