import io
import random

import numpy as np
import pytest

import oracles
from oracles import links_of, parsed_records
from ls_ledger.errors import IntegrityError, ParseError
from ls_ledger.fixtures import (
    CertRecord,
    IdentityRecord,
    TxRecord,
    example_records,
    format_record,
    random_records,
)
from ls_ledger.ledger_ingest import (
    build_streams,
    classify_keys,
    filter_wallet,
    identify_miners,
    parse_records,
    repartition,
)
from ls_ledger.snapshot import build_bundle, load_bundle, save_bundle
from ls_ledger.stream_core import (
    SUBSTREAM_LABELS,
    LinkStream,
    class_mask,
    stream_from_columns,
    substream_by_class,
)

LINES = [
    '{"type":"identity","time":0,"key":"A","uid":"alice"}',
    '{"type":"cert","time":0,"from":"A","to":"B"}',
    '{"type":"tx","time":5,"from":"A","to":"B","amount":150}',
]


def _parse(records):
    """Parse ``records`` through their canonical lines."""
    parsed = parse_records(map(format_record, records))
    assert parsed.issues == []
    return parsed


def test_parse_records_basic():
    parsed = parse_records(LINES + ['{"type":"identity","time":1,"key":"B","uid":"bob"}'])
    ids, certs, txs = parsed_records(parsed)
    assert ids == ["A", "B"]
    assert certs == [CertRecord(0, "A", "B")]
    assert txs == [TxRecord(5, "A", "B", 150)]
    assert parsed.issues == []
    counts = [len(parsed.identities), len(parsed.certifications), len(parsed.transactions)]
    assert counts == [2, 1, 1]


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


def _malformed(line: str, reason: str, id: str | None = None):
    return pytest.param(line, reason, id=id or line)


@pytest.mark.parametrize(
    "bad, reason",
    [
        _malformed('{"type":"warp","time":0,"from":"A","to":"B"}', "unknown record type 'warp'"),
        _malformed('{"type":"tx","time":0,"from":"A","to":"B"}', "missing field 'amount'"),
        _malformed('{"type":"tx","time":0,"from":"A","to":"B","amount":-5}', "negative amount -5"),
        _malformed(
            '{"type":"tx","time":"x","from":"A","to":"B","amount":5}',
            "field 'time' must be an integer, got 'x'",
        ),
        _malformed(
            '{"type":"tx","time":0,"from":"A","to":"A","amount":1}', "self-transaction by 'A'"
        ),
        _malformed('{"type":"cert","time":0,"from":"A"}', "missing field 'to'"),
        _malformed("not json at all", "invalid JSON: Expecting value"),
        _malformed("[1,2,3]", "record must be a JSON object"),
        _malformed(
            "[" * 100_000 + "]" * 100_000,
            "invalid JSON: maximum recursion depth exceeded while decoding a JSON array"
            " from a unicode string",
            id="over_deep",
        ),
        _malformed(
            '{"type":"tx","time":' + "1" * 5_000 + ',"from":"A","to":"B","amount":1}',
            "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion:"
            " value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit",
            id="over_long_integer",
        ),
        # a byte that is not UTF-8, as errors="surrogateescape" reads it
        _malformed(
            '{"type":"identity","time":0,"key":"C\udcff","uid":"c"}',
            "not valid UTF-8",
            id="escaped_byte",
        ),
        _malformed(
            '{"type":"cert","time":0,"from":"A","to":"B"',
            "invalid JSON: Expecting ',' delimiter",
            id="unclosed_object",
        ),
        _malformed(
            '{"type":"cert","time":0,"from":"A","to":"B"} 1',
            "invalid JSON: Extra data",
            id="extra_data",
        ),
        _malformed(
            '\ufeff{"type":"cert","time":0,"from":"A","to":"B"}',
            "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)",
            id="bom",
        ),
        _malformed('{"time":0,"from":"A","to":"B"}', "missing field 'type'", id="missing_type"),
        _malformed(
            '{"type":null,"time":0,"from":"A","to":"B"}',
            "unknown record type None",
            id="null_type",
        ),
        _malformed(
            '{"type":"cert","time":true,"from":"A","to":"B"}',
            "field 'time' must be an integer, got True",
            id="true_time",
        ),
        _malformed(
            '{"type":"cert","time":1.5,"from":"A","to":"B"}',
            "field 'time' must be an integer, got 1.5",
            id="float_time",
        ),
        _malformed(
            '{"type":"cert","from":"A","to":"B"}', "missing field 'time'", id="missing_time"
        ),
        _malformed(
            '{"type":"cert","time":-3,"from":"A","to":"B"}', "negative time -3", id="negative_time"
        ),
        _malformed(
            '{"type":"cert","time":9223372036854775808,"from":"A","to":"B"}',
            "field 'time' is 9223372036854775808, above 2^63-1",
            id="over_int64_time",
        ),
        _malformed(
            '{"type":"cert","time":0,"from":"a,b","to":"B"}',
            "key 'a,b' in field 'from' contains ','",
            id="bad_key",
        ),
        _malformed(
            '{"type":"cert","time":0,"from":"#B","to":"A"}',
            "key '#B' in field 'from' starts with '#'",
            id="hash_key",
        ),
        _malformed(
            '{"type":"tx","time":0,"from":"","to":"B","amount":1}',
            "field 'from' must be a non-empty string",
            id="empty_key",
        ),
        _malformed(
            '{"type":"tx","time":0,"from":"A","to":["B"],"amount":1}',
            "field 'to' must be a non-empty string",
            id="list_key",
        ),
        _malformed(
            '{"type":"cert","time":0,"from":"A","to":"A"}',
            "self-certification by 'A'",
            id="self_cert",
        ),
        _malformed(
            '{"type":"tx","time":0,"from":"A","to":"B","amount":true}',
            "field 'amount' must be an integer, got True",
            id="true_amount",
        ),
        _malformed(
            '{"type":"identity","time":0,"key":"A","uid":"alias"}',
            "duplicate identity key 'A'",
            id="duplicate_key",
        ),
        _malformed(
            '{"type":"identity","time":0,"key":"Z","uid":"alice"}',
            "duplicate identity uid 'alice'",
            id="duplicate_uid",
        ),
        _malformed(
            '{"type":"identity","time":0,"key":"Z","uid":""}',
            "field 'uid' must be a non-empty string",
            id="empty_uid",
        ),
    ],
)
def test_parse_malformed_lines(bad, reason):
    lines = LINES + [bad]
    parsed = parse_records(lines)
    assert parsed.issues == [(4, reason)]
    with pytest.raises(ParseError) as err:
        parse_records(lines, strict=True)
    assert err.value.line_no == 4
    assert err.value.reason == reason


def test_bom_on_the_first_line_is_malformed():
    # the CLI reads the ledger as "utf-8", which keeps a leading BOM
    lines = ["\ufeff" + LINES[0], *LINES[1:]]
    parsed = parse_records(lines)
    assert parsed.issues == [(1, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")]
    assert len(parsed.identities) == 0 and len(parsed.transactions) == 1


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
        '{"type":"identity","time":0,"key":"\\"a","uid":"qa"}',
        '{"type":"cert","time":0,"from":"A","to":"B\\""}',
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
    assert [(r.src, r.dst) for r in parsed_records(parsed)[2]] == [("A#1", "M000")] * 2


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
    ids, certs, txs = parsed_records(parsed)
    assert ids == [r.key for r in records if isinstance(r, IdentityRecord)]
    assert certs + txs == [
        r for group in (CertRecord, TxRecord) for r in records if isinstance(r, group)
    ]
    for kind, parsed_kind in (("cert", certs), ("tx", txs)):
        assert [format_record(r) for r in parsed_kind] == [
            ln for ln in lines if f'"type":"{kind}"' in ln
        ]


def test_classify_keys_example():
    parsed = _parse(
        [IdentityRecord(0, "A", "a"), IdentityRecord(0, "B", "b"), TxRecord(1, "C", "A", 10)]
    )
    keys, members = classify_keys(parsed.identities, parsed.transactions)
    assert members.tolist() == sorted([keys.index("A"), keys.index("B")])
    assert keys == ["A", "B", "C"]


def test_classify_keys_no_identities():
    parsed = _parse([TxRecord(1, "X", "Y", 10)])
    keys, members = classify_keys(parsed.identities, parsed.transactions)
    assert not len(members) and keys == ["X", "Y"]


def test_classify_keys_member_without_transactions():
    parsed = _parse([IdentityRecord(0, "A", "a")])
    keys, members = classify_keys(parsed.identities, parsed.transactions)
    assert members.tolist() == [keys.index("A")]
    assert len(keys) == 1


def test_classify_partition_property():
    rng = random.Random(5)
    for trial in range(20):
        records = random_records(100 + trial, n_members=6, n_anonymous=3)
        ids = [r for r in records if isinstance(r, IdentityRecord)]
        txs = [r for r in records if isinstance(r, TxRecord)]
        parsed = _parse(records)
        keys, members = classify_keys(parsed.identities, parsed.transactions)
        assert members.tolist() == sorted(keys.index(r.key) for r in ids)
        seen = set(members.tolist())
        for r in txs:
            seen |= {keys.index(r.src), keys.index(r.dst)}
        assert sorted(seen) == list(range(len(keys)))


def _ingest(records):
    """The parse, key table, member set and streams of ``records``."""
    parsed = _parse(records)
    keys, members = classify_keys(parsed.identities, parsed.transactions)
    cert, tx = build_streams(parsed.certifications, parsed.transactions, keys, members)
    return parsed, keys, members, cert, tx


def test_build_streams_counts():
    parsed, _, members, cert, tx = _ingest(example_records())
    assert cert.link_count == 12
    assert tx.link_count == 14
    assert cert.amount is None
    assert tx.amount is not None and len(tx.amount) == tx.link_count
    assert cert.interval == (0, 6)
    assert cert.nodes.tolist() == members.tolist()


def test_build_streams_rejects_non_member_cert():
    records = [
        IdentityRecord(0, "A", "a"),
        CertRecord(1, "A", "GHOST"),
    ]
    with pytest.raises(IntegrityError) as err:
        _ingest(records)
    assert "GHOST" in str(err.value)
    assert str(err.value) == "line 2: certification involves non-member key 'GHOST'"

    # the first offending cert is named by its line, its key cut short
    records = [
        IdentityRecord(0, "A", "a"),
        TxRecord(1, "A", "W", 5),
        CertRecord(2, "A", "A" + "x" * 100_000),
        CertRecord(0, "Y", "A"),
    ]
    with pytest.raises(IntegrityError) as err:
        _ingest(records)
    message = str(err.value)
    assert message.startswith("line 3: certification involves non-member key 'Axxx")
    assert "..." in message and len(message) < 150


def test_repartition_synthetic_quarters():
    records = [
        IdentityRecord(0, "M1", "m1"),
        IdentityRecord(0, "M2", "m2"),
        TxRecord(1, "M1", "M2", 100),
        TxRecord(2, "M1", "A1", 100),
        TxRecord(3, "A1", "M2", 100),
        TxRecord(4, "A1", "A2", 100),
    ]
    _, _, members, _, tx = _ingest(records)
    count, count_share, _, amount_share = repartition(tx, members)
    assert count.tolist() == [1] * len(SUBSTREAM_LABELS)
    assert count_share.tolist() == pytest.approx([0.25] * 4)
    assert amount_share.tolist() == pytest.approx([0.25] * 4)


def test_parse_rejects_values_beyond_int64():
    top = 2**63 - 1
    lines = [
        f'{{"type":"tx","time":{top},"from":"A","to":"B","amount":{top}}}',
        f'{{"type":"tx","time":{top + 1},"from":"A","to":"B","amount":1}}',
        f'{{"type":"tx","time":0,"from":"A","to":"B","amount":{top + 1}}}',
    ]
    parsed = parse_records(lines)
    assert parsed_records(parsed)[2] == [TxRecord(top, "A", "B", top)]
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
    _, _, members, _, tx = _ingest(records)
    _, _, amount, _ = repartition(tx, members)
    assert amount[SUBSTREAM_LABELS.index("MA")] == 2 * top
    assert sum(amount) == 2 * top


def test_repartition_all_members():
    records = [
        IdentityRecord(0, "M1", "m1"),
        IdentityRecord(0, "M2", "m2"),
        TxRecord(1, "M1", "M2", 70),
        TxRecord(2, "M2", "M1", 30),
    ]
    _, _, members, _, tx = _ingest(records)
    count, count_share, _, amount_share = repartition(tx, members)
    assert count_share[SUBSTREAM_LABELS.index("MM")] == 1.0
    assert amount_share[SUBSTREAM_LABELS.index("MM")] == 1.0
    assert dict(zip(SUBSTREAM_LABELS, count.tolist())) == {"MM": 2, "MA": 0, "AM": 0, "AA": 0}


def test_repartition_shares_sum_to_one():
    rng = random.Random(17)
    for trial in range(10):
        records = random_records(50 + trial)
        _, _, members, _, tx = _ingest(records)
        count, count_share, _, amount_share = repartition(tx, members)
        assert count_share.sum() == pytest.approx(1.0, abs=1e-9)
        assert amount_share.sum() == pytest.approx(1.0, abs=1e-9)
        assert count.sum() == tx.link_count


def test_filter_wallet_example(sample_stream):
    s, keys = sample_stream
    filtered = filter_wallet(s, keys.index("c"))
    kept = [(t, keys[u], keys[v]) for t, u, v in links_of(filtered)]
    assert kept == [
        (0, "a", "d"), (1, "d", "a"), (2, "b", "a"), (4, "b", "d"),
        (5, "a", "b"), (6, "a", "b"), (6, "d", "a"),
    ]
    assert keys.index("c") not in filtered.nodes
    assert filtered.interval == s.interval


def test_filter_wallet_absent_node(sample_stream):
    s, _ = sample_stream
    assert links_of(filter_wallet(s, 99)) == links_of(s)


def test_filter_then_repartition_keeps_share_invariant():
    records = random_records(23)
    _, _, members, _, tx = _ingest(records)
    wallet = len(members)  # the first anonymous wallet
    _, count_share, _, _ = repartition(filter_wallet(tx, wallet), members)
    assert count_share.sum() == pytest.approx(1.0, abs=1e-9)


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
    _, keys, members, _, tx = _ingest(records)
    miners = identify_miners(tx, members, keys.index("REM"))
    assert miners.tolist() == sorted([keys.index("M1"), keys.index("M2")])
    assert np.isin(miners, members).all()


def test_identify_miners_no_outgoing():
    records = [
        IdentityRecord(0, "M1", "m1"),
        TxRecord(1, "M1", "REM", 10),
    ]
    _, keys, members, _, tx = _ingest(records)
    assert identify_miners(tx, members, keys.index("REM")).tolist() == []


def test_identify_miners_unknown_key():
    # a handle past the key table has no key and is in no stream
    _, keys, members, _, tx = _ingest(example_records())
    with pytest.raises(KeyError, match="not present in the transaction stream"):
        identify_miners(tx, members, len(keys))



@pytest.mark.parametrize(
    "bad, starts",
    [
        pytest.param(
            '{"type":"cert","time":' + "[" * 900 + "]" * 900 + ',"from":"A","to":"B"}',
            "field 'time' must be an integer, got [[",
            id="deep_time",
        ),
        pytest.param(
            '{"type":' + "[" * 900 + "]" * 900 + ',"time":0,"from":"A","to":"B"}',
            "unknown record type [[",
            id="deep_type",
        ),
        pytest.param(
            '{"type":"cert","time":0,"from":"' + "k" * 3_000_000 + ',","to":"B"}',
            "key 'kkk",
            id="huge_bad_key",
        ),
        pytest.param(
            '{"type":"cert","time":0,"from":"%s","to":"%s"}' % ("k" * 3_000_000, "k" * 3_000_000),
            "self-certification by 'kkk",
            id="huge_self_cert",
        ),
        pytest.param(
            '{"type":"tx","time":0,"from":"A","to":"B","amount":' + "9" * 4_000 + "}",
            "field 'amount' is 999",
            id="long_amount",
        ),
    ],
)
def test_reasons_bound_the_offending_value(bad, starts):
    [(line_no, reason)] = parse_records(LINES + [bad]).issues
    assert line_no == 4
    assert reason.startswith(starts)
    assert len(reason) < 200


# malformed lines whose reason does not depend on the lines before them
INJECTED = [
    ("{", "invalid JSON: Expecting property name enclosed in double quotes"),
    ('"cert"', "record must be a JSON object"),
    ('{"time":1,"from":"M000","to":"M001"}', "missing field 'type'"),
    (
        '{"type":"cert","time":false,"from":"M000","to":"M001"}',
        "field 'time' must be an integer, got False",
    ),
    ('{"type":"cert","time":-1,"from":"M000","to":"M001"}', "negative time -1"),
    (
        '{"type":"cert","time":1,"from":"M0,1","to":"M001"}',
        "key 'M0,1' in field 'from' contains ','",
    ),
    ('{"type":"cert","time":1,"from":"M001","to":"M001"}', "self-certification by 'M001'"),
    ('{"type":"tx","time":1,"from":"A000","to":"A000","amount":3}', "self-transaction by 'A000'"),
    ('{"type":"tx","time":1,"from":"A000","to":"M000","amount":-3}', "negative amount -3"),
    ('{"type":"tx","time":1,"from":"A000","to":"M000"}', "missing field 'amount'"),
    ('{"type":"block","time":1}', "unknown record type 'block'"),
]


def test_columnar_ingest_matches_record_oracle():
    """Shuffled seeded ledgers with blank and malformed lines: the issues,
    the handle order and every stream column equal the record-by-record
    references."""
    for seed in range(200):
        rng = random.Random(seed)
        n_members = rng.randint(2, 9)
        records = random_records(
            seed,
            n_members=n_members,
            n_anonymous=rng.randint(0, 5),
            n_certs=rng.choice((0, rng.randint(1, 40))),
            n_txs=rng.choice((0, rng.randint(1, 80))),
            t_max=rng.choice((10, 1_000)),
        )
        rng.shuffle(records)
        lines, issues = [], []
        for rec in records:
            if rng.random() < 0.05:
                line, reason = rng.choice(INJECTED)
                lines.append(line)
                issues.append((len(lines), reason))
            if rng.random() < 0.02:
                lines.append("")
            lines.append(format_record(rec))

        parsed = parse_records(lines)
        assert parsed.issues == issues
        if issues:
            with pytest.raises(ParseError) as err:
                parse_records(lines, strict=True)
            assert (err.value.line_no, err.value.reason) == issues[0]
        ids, certs, txs = parsed_records(parsed)
        assert ids == [r.key for r in records if isinstance(r, IdentityRecord)]
        assert (certs, txs) == tuple(
            [r for r in records if isinstance(r, kind)] for kind in (CertRecord, TxRecord)
        )

        keys, member_set = classify_keys(parsed.identities, parsed.transactions)
        oracle_keys, members, anonymous = oracles.classify_keys(ids, txs)
        assert keys == oracle_keys
        assert member_set.tolist() == sorted(members)
        assert sorted(members | anonymous) == list(range(len(keys)))

        cert, tx = build_streams(
            parsed.certifications, parsed.transactions, keys, member_set
        )
        oracle_streams = oracles.build_streams(certs, txs, oracle_keys)
        (cert_interval, cert_rows), (tx_interval, tx_rows) = oracle_streams
        assert (cert.interval, links_of(cert)) == (cert_interval, cert_rows)
        assert tx.interval == tx_interval
        assert list(zip(*(c.tolist() for c in (tx.t, tx.src, tx.dst, tx.amount)))) == tx_rows
        assert cert.nodes.tolist() == sorted(members)
        assert tx.nodes.tolist() == sorted(members | anonymous)


def test_member_set_matches_the_two_set_partition():
    """Seeded ledgers, shuffled ones included: for every label, the links,
    the substream node set and the repartition row that the member set
    alone gives equal those of the record-by-record member and anonymous
    sets."""
    for seed in range(60):
        rng = random.Random(seed)
        records = random_records(
            seed,
            n_members=rng.randint(2, 9),
            n_anonymous=rng.randint(0, 5),
            n_txs=rng.choice((0, rng.randint(1, 80))),
        )
        if seed % 2:
            rng.shuffle(records)
        parsed, keys, members, _, tx = _ingest(records)
        ids, _, txs = parsed_records(parsed)
        oracle_keys, oracle_members, anonymous = oracles.classify_keys(ids, txs)
        assert keys == oracle_keys
        of_class = {"M": oracle_members, "A": anonymous}
        count, _, amount, _ = repartition(tx, members)
        for i, label in enumerate(SUBSTREAM_LABELS):
            sources, targets = of_class[label[0]], of_class[label[1]]
            want = [
                u in sources and v in targets for u, v in zip(tx.src.tolist(), tx.dst.tolist())
            ]
            assert class_mask(tx, members, label).tolist() == want, (seed, label)
            sub = substream_by_class(tx, members, label)
            assert sub.nodes.tolist() == sorted(sources | targets), (seed, label)
            amounts = [a for a, kept in zip(tx.amount.tolist(), want) if kept]
            assert (count[i], amount[i]) == (len(amounts), sum(amounts)), (seed, label)


def test_node_sets_are_sorted_int64_arrays(tmp_path):
    """Every node set the package builds has one form: its distinct handles
    ascending, as a read-only int64 array."""

    def check(nodes, what):
        assert isinstance(nodes, np.ndarray) and nodes.dtype == np.int64, what
        assert nodes.ndim == 1 and (np.diff(nodes) > 0).all(), what
        assert not nodes.flags.writeable, what
        return nodes.tolist()

    for nodes, want in ((None, [0, 1, 3]), (frozenset({7, 3, 1, 0}), [0, 1, 3, 7])):
        assert check(stream_from_columns([2, 1], [3, 1], [1, 0], nodes=nodes).nodes, nodes) == want
    repeats = [7, 3, 3, 1, 0, 7]
    assert check(stream_from_columns([2, 1], [3, 1], [1, 0], nodes=repeats).nodes, "list") == [
        0, 1, 3, 7,
    ]

    _, keys, members, cert, tx = _ingest(random_records(31))
    check(members, "members")
    check(cert.nodes, "cert")
    check(tx.nodes, "tx")
    check(tx.restrict(tx.src < tx.dst, tx.nodes[::-1]).nodes, "restrict")
    for label in SUBSTREAM_LABELS:
        check(substream_by_class(tx, members, label).nodes, label)
    wallet = len(members)  # the first anonymous wallet
    assert wallet not in check(filter_wallet(tx, wallet).nodes, "filter_wallet")
    # a source that pays a member, so the miners are not empty
    payer = int(tx.src[np.isin(tx.dst, members)][0])
    assert check(identify_miners(tx, members, payer), "identify_miners")

    save_bundle(tmp_path, build_bundle(keys, members, cert, tx))
    _, loaded_members, loaded_cert, loaded_tx = load_bundle(tmp_path)
    assert check(loaded_members, "loaded members") == members.tolist()
    assert check(loaded_cert.nodes, "loaded cert") == cert.nodes.tolist()
    assert check(loaded_tx.nodes, "loaded tx") == tx.nodes.tolist()


@pytest.mark.parametrize("sparse", [False, True], ids=["example", "random"])
def test_loaded_streams_are_over_the_members(tmp_path, sparse):
    # 8 members, 3 certifications and 4 transactions: some member has no
    # certification and some member no transaction
    records = random_records(7, n_members=8, n_certs=3, n_txs=4) if sparse else example_records()
    _, keys, members, cert, tx = _ingest(records)
    save_bundle(tmp_path, build_bundle(keys, members, cert, tx))
    _, members, cert, tx = load_bundle(tmp_path)
    tx_mm = substream_by_class(tx, members, "MM")
    assert cert.nodes.tolist() == tx_mm.nodes.tolist() == members.tolist()
    if sparse:
        for s in (cert, tx):
            assert set(members.tolist()) - set(s.src.tolist()) - set(s.dst.tolist())


def test_bundle_intervals_span_their_links():
    _, keys, members, cert, tx = _ingest(random_records(31))
    build_bundle(keys, members, cert, tx)
    for prefix, s in (("cert", cert), ("tx", tx)):
        t0, t1 = s.interval
        for interval in ((0, t1), (t0, t1 + 1), (t0 - 1, t1)):
            widened = LinkStream(interval, s.nodes, s.t, s.src, s.dst, s.amount)
            streams = (widened, tx) if prefix == "cert" else (cert, widened)
            with pytest.raises(ValueError, match=f"^{prefix}_interval.npy "):
                build_bundle(keys, members, *streams)
    # without links the interval is [0, 0]
    empty = stream_from_columns([], [], [], nodes=members)
    build_bundle(keys, members, empty, tx)
    with pytest.raises(ValueError, match="^cert_interval.npy "):
        build_bundle(keys, members, LinkStream((1, 1), members, [], [], []), tx)
