import base64
import binascii
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import re
import tempfile
import time
from array import array
from http import HTTPStatus

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconlab.httplog import (
    _NO_EXTRA,
    ExchangeView,
    ExchangeViews,
    HttpExchange,
    LogFormatError,
    cut_torn_tail,
    exchange_from_json,
    exchange_to_json,
    exchange_views,
    mime_distribution,
    mime_type,
    read_exchange_log,
    read_exchange_views,
    write_exchange_log,
)
from beaconlab import correlate, httplog
from beaconlab.clientsim import FETCH_LOG, FetchRecord, read_fetch_log
from beaconlab.dnssim import QUERY_LOG, DnsQueryRecord, read_query_log
from beaconlab.inject import TAG_LOG, Tag
from beaconlab.ua import (
    UA_LOG, VULN_DB_LOG, UaRecord, VersionRange, VulnDb, ratio_series, unique_ua_growth
)


def make_exchange(
    content_type=None,
    body=b"",
    encrypted=False,
    exchange_id="x1",
    timestamp=0.0,
    extra=None,
):
    headers = ()
    if content_type is not None:
        headers = (("Content-Type", content_type),)
    return HttpExchange(
        exchange_id=exchange_id,
        timestamp=timestamp,
        flow_id="f1",
        method="GET",
        url="http://example.test/",
        request_headers=(("Host", "example.test"),),
        response_status=200,
        response_headers=headers,
        response_body=b"" if encrypted else body,
        is_encrypted=encrypted,
        extra=extra or {},
    )


class TestMimeType:
    def test_parameters_stripped(self):
        assert mime_type(make_exchange("text/html; charset=utf-8")) == "text/html"

    def test_encrypted_is_unknown(self):
        assert mime_type(make_exchange("text/html", encrypted=True)) == "unknown"

    def test_case_folded(self):
        # verified against a hand-enumerated header fixture
        fixture = [
            ("Image/JPEG", "image/jpeg"),
            ("TEXT/HTML;charset=ISO-8859-1", "text/html"),
            ("application/XML ; q=1", "application/xml"),
        ]
        for raw, expected in fixture:
            assert mime_type(make_exchange(raw)) == expected

    def test_missing_header(self):
        assert mime_type(make_exchange(None)) == "unknown"

    def test_first_content_type_wins(self):
        exchange = dataclasses.replace(
            make_exchange("text/html"),
            response_headers=(
                ("Content-Type", "text/html"),
                ("Content-Type", "image/png"),
            ),
        )
        assert mime_type(exchange) == "text/html"


def _bare_exchange(**fields):
    """An exchange built with HttpExchange's own defaults for what is not given."""
    return HttpExchange(
        **{
            "exchange_id": "x1",
            "timestamp": 0.0,
            "flow_id": "f1",
            "method": "GET",
            "url": "http://example.test/",
            "request_headers": (("Host", "example.test"),),
            "response_status": 200,
            "response_headers": (("Content-Type", "text/plain"),),
            "response_body": b"ok",
            **fields,
        }
    )


def older_line(line: str, client: str = '"c00001"') -> str:
    """A writer line as it was written while the capture carried the
    simulator's client id: with "ground_truth_client", its value the JSON
    text ``client``, after "flow_id"."""
    at = line.index(',"method":')
    return line[:at] + f',"ground_truth_client":{client}' + line[at:]


class TestSlottedExchange:
    def test_has_no_instance_dict(self):
        assert not hasattr(_bare_exchange(), "__dict__")

    def test_default_extra_is_one_read_only_empty_mapping(self):
        first, second = _bare_exchange(), _bare_exchange(exchange_id="x2")
        assert first.extra is second.extra
        assert first.extra == {}
        with pytest.raises(TypeError):
            first.extra["note"] = "x"
        assert second.extra == {}

    def test_read_without_unknown_keys_shares_the_default(self):
        read = exchange_from_json(json.loads(exchange_to_json(_bare_exchange())))
        assert read.extra is _bare_exchange().extra
        assert read == _bare_exchange(extra={})

    def test_line_with_a_real_extra_dict(self):
        exchange = _bare_exchange(extra={"note": "é", "url": "shadowed", "n": [1, None]})
        line = exchange_to_json(exchange)
        assert line == encoder_line(exchange)
        assert line == (
            '{"exchange_id":"x1","timestamp":0.0,"flow_id":"f1","method":"GET",'
            '"url":"http://example.test/","request_headers":[["Host",'
            '"example.test"]],"response_status":200,"response_headers":[["Content-Type",'
            '"text/plain"]],"response_body":"b2s=","is_encrypted":false,"note":"é","n":[1,null]}'
        )
        assert exchange_to_json(_bare_exchange(extra={})) == exchange_to_json(_bare_exchange())

    @pytest.mark.parametrize("client", ['"c00001"', "null"])
    def test_an_older_lines_client_id_is_an_unknown_key(self, tmp_path, client):
        # Both readers take it as any unknown key: kept in extra, written
        # back after the fixed keys; the line is decoded, not read from its text.
        line = exchange_to_json(_bare_exchange())
        older = older_line(line, client)
        path = str(tmp_path / "log.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(older + "\n")
        [read] = read_exchange_log(path)
        assert read == _bare_exchange(extra={"ground_truth_client": json.loads(client)})
        assert exchange_to_json(read) == line[:-1] + f',"ground_truth_client":{client}}}'
        assert httplog._CANONICAL_LINE.fullmatch(older) is None
        assert read_exchange_views(path) == exchange_views([read])


_REQUIRED_FIELDS = (
    "x1", 0.0, "f1", "GET", "http://example.test/", (("Host", "example.test"),), 200,
    (("Content-Type", "text/plain"),), b"ok",
)


class TestHandWrittenInit:
    def test_parameters_are_the_fields_in_order_with_their_defaults(self):
        parameters = list(inspect.signature(HttpExchange).parameters.values())
        fields = dataclasses.fields(HttpExchange)
        assert [p.name for p in parameters] == [f.name for f in fields]
        for parameter, field in zip(parameters, fields):
            assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if field.default_factory is not dataclasses.MISSING:
                assert field.default_factory() is _NO_EXTRA
            elif field.default is dataclasses.MISSING:
                assert parameter.default is inspect.Parameter.empty
            else:
                assert parameter.default is field.default
        assert HttpExchange(*_REQUIRED_FIELDS).extra is _NO_EXTRA

    def test_by_position_equals_by_keyword(self):
        by_position = HttpExchange(*_REQUIRED_FIELDS, False, {"n": 1})
        assert by_position == _bare_exchange(extra={"n": 1})
        assert [getattr(by_position, f.name) for f in dataclasses.fields(HttpExchange)] == [
            *_REQUIRED_FIELDS, False, {"n": 1}
        ]

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(HttpExchange)])
    def test_frozen(self, name):
        exchange = _bare_exchange()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(exchange, name, "changed")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(exchange, name)
        assert exchange == _bare_exchange()
        assert not hasattr(exchange, "__dict__")

    def test_replace_and_equality(self):
        exchange = _bare_exchange(method="HEAD")
        changed = dataclasses.replace(exchange, url="http://other.test/", extra={"n": 1})
        assert changed.url == "http://other.test/" and changed.extra == {"n": 1}
        assert changed.method == "HEAD" and changed.response_body == b"ok"
        assert changed != exchange
        assert dataclasses.replace(changed, url=exchange.url, extra={}) == exchange
        assert dataclasses.replace(exchange) == exchange
        with pytest.raises(TypeError):
            dataclasses.replace(exchange, not_a_field=1)
        with pytest.raises(ValueError, match="encrypted exchanges carry no body"):
            dataclasses.replace(exchange, is_encrypted=True)

    def test_encrypted_record_with_a_body_is_refused(self):
        with pytest.raises(ValueError, match="encrypted exchanges carry no body"):
            HttpExchange(*_REQUIRED_FIELDS, True)
        with pytest.raises(ValueError, match="encrypted exchanges carry no body"):
            _bare_exchange(is_encrypted=True)
        assert HttpExchange(*_REQUIRED_FIELDS[:-1], b"", True).is_encrypted
        assert _bare_exchange(response_body=b"", is_encrypted=True).is_encrypted

    def test_missing_or_unknown_arguments_are_refused(self):
        with pytest.raises(TypeError):
            HttpExchange(*_REQUIRED_FIELDS[:-1])
        with pytest.raises(TypeError):
            _bare_exchange(not_a_field=1)
        with pytest.raises(TypeError):
            HttpExchange(*_REQUIRED_FIELDS, False, _NO_EXTRA, "one too many")


class TestHeaderPairTable:
    def test_equal_pairs_of_other_types_keep_their_own_text(self, tmp_path):
        pairs = [("n", "1"), ("n", 1), ("n", 1.0), ("n", True), ("n", HTTPStatus.OK), ["n", "1"]]
        # twice over, so each pair meets whatever the others left in the table
        exchanges = [_bare_exchange(response_headers=(pair,)) for pair in pairs * 2]
        path = str(tmp_path / "log.jsonl")
        write_exchange_log(exchanges, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read().splitlines() == [encoder_line(exchange) for exchange in exchanges]
        # an appender keeps its table from one append to the next
        appended = str(tmp_path / "appended.jsonl")
        appender = httplog.exchange_log_appender(appended)
        for exchange in exchanges:
            appender.append(exchange)
        appender.close()
        with open(appended, encoding="utf-8") as fh, open(path, encoding="utf-8") as written:
            assert fh.read() == written.read()

    def test_extra_keys_and_foreign_types_write_the_line_of_the_record(self, tmp_path):
        exchanges = [
            _bare_exchange(
                exchange_id=7, timestamp=12, response_status=HTTPStatus.OK, is_encrypted=0,
                request_headers=(["Host", "example.test"], ("X-Count", 3)),
                extra={"ground_truth_client": 3, "note": ["é", 1.5, None], "url": "shadowed"},
            ),
            _bare_exchange(extra={"flow_id": "shadowed"}),
            _bare_exchange(response_body=b"", is_encrypted=True),
        ]
        lines = "".join(exchange_to_json(exchange) + "\n" for exchange in exchanges)
        assert lines == "".join(encoder_line(exchange) + "\n" for exchange in exchanges)
        written, appended = tmp_path / "written.jsonl", tmp_path / "appended.jsonl"
        write_exchange_log(exchanges, str(written))
        appender = httplog.exchange_log_appender(str(appended))
        appender.append(exchanges[0])
        appender.append(*exchanges[1:])
        appender.close()
        assert written.read_text(encoding="utf-8") == appended.read_text(encoding="utf-8") == lines

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(httplog, "_PAIR_JSON_SIZE", 8)
        headers = tuple((f"X-{i}", str(i)) for i in range(20))
        expected = json.dumps([list(pair) for pair in headers], separators=(",", ":"))
        pair_json: dict = {}
        assert httplog._headers_json(headers, pair_json) == expected
        assert 0 < len(pair_json) <= 8
        assert httplog._headers_json(headers, pair_json) == expected

    def test_long_log_written_in_batches(self, tmp_path):
        exchanges = [
            _bare_exchange(exchange_id=f"x{i}", request_headers=(("User-Agent", f"ua{i % 7}"),))
            for i in range(3 * httplog._LINES_PER_WRITE + 5)
        ]
        path = str(tmp_path / "log.jsonl")
        write_exchange_log(exchanges, path)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == "".join(exchange_to_json(e) + "\n" for e in exchanges)


class TestMimeDistribution:
    def test_hand_counted_fixture(self):
        exchanges = [make_exchange("text/html")] * 3 + [make_exchange("image/gif")]
        dist = mime_distribution(exchange_views(exchanges))
        assert dist.counts == {"text/html": 3, "image/gif": 1}
        assert dist.total == 4

    def test_empty(self):
        dist = mime_distribution([])
        assert dist.counts == {}
        assert dist.total == 0

    def test_encrypted_excluded(self):
        exchanges = [make_exchange("text/html"), make_exchange(None, encrypted=True)]
        dist = mime_distribution(exchange_views(exchanges))
        assert dist.total == 1

    def test_unknown_bucketed_separately(self):
        dist = mime_distribution(exchange_views([make_exchange(None), make_exchange("text/css")]))
        assert dist.counts == {"unknown": 1, "text/css": 1}

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.none(),
                    st.sampled_from(["", ";", " ", " Text/HTML ; charset=x", "text/html", "TEXT/html;", "a,b"]),
                    st.text(alphabet="Tt/; =,x", max_size=8),
                ),
                st.booleans(),
            ),
            max_size=12,
        )
    )
    def test_counts_each_value_as_mime_type_does(self, rows):
        # mapped once per distinct value, counted as once per exchange
        exchanges = [make_exchange(value, encrypted=encrypted) for value, encrypted in rows]
        expected: dict = {}
        for exchange in exchanges:
            if not exchange.is_encrypted:
                expected[mime_type(exchange)] = expected.get(mime_type(exchange), 0) + 1
        dist = mime_distribution(exchange_views(exchanges))
        assert (dist.counts, dist.total) == (expected, sum(expected.values()))


header_st = st.tuples(
    st.text(alphabet="ABCDEFabcdef-", min_size=1, max_size=12),
    st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=30),
)


exchange_st = st.builds(
    HttpExchange,
    exchange_id=st.text(alphabet="abcdef0123456789", min_size=1, max_size=12),
    timestamp=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    flow_id=st.text(alphabet="abcdef0123456789", min_size=1, max_size=12),
    method=st.sampled_from(["GET", "POST", "HEAD"]),
    url=st.just("http://example.test/x"),
    request_headers=st.lists(header_st, max_size=4).map(tuple),
    response_status=st.integers(min_value=100, max_value=599),
    response_headers=st.lists(header_st, max_size=4).map(tuple),
    response_body=st.binary(max_size=200),
    is_encrypted=st.just(False),
)


def encoder_line(exchange):
    """The exchange-log line with every field, the body too, passed through
    the JSON encoder: the reference for the spliced line."""
    obj = {
        "exchange_id": exchange.exchange_id,
        "timestamp": exchange.timestamp,
        "flow_id": exchange.flow_id,
        "method": exchange.method,
        "url": exchange.url,
        "request_headers": [[name, value] for name, value in exchange.request_headers],
        "response_status": exchange.response_status,
        "response_headers": [[name, value] for name, value in exchange.response_headers],
        "response_body": base64.b64encode(exchange.response_body).decode("ascii"),
        "is_encrypted": exchange.is_encrypted,
    }
    for key, value in exchange.extra.items():
        if key not in obj:
            obj[key] = value
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


# Text that looks like the body field once encoded, or is not ASCII.
_tricky_text = st.sampled_from(
    ['"response_body":""', '\\"response_body\\":\\"', "response_body", "é☃ 中", ""]
) | st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=30)


def splice_exchange_st(encrypted):
    return st.builds(
        HttpExchange,
        exchange_id=_tricky_text,
        timestamp=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        flow_id=st.text(alphabet="abcdef0123456789", min_size=1, max_size=12),
        method=st.sampled_from(["GET", "POST", "CONNECT"]),
        url=_tricky_text,
        request_headers=st.lists(st.tuples(_tricky_text, _tricky_text), max_size=3).map(tuple),
        response_status=st.integers(min_value=100, max_value=599),
        response_headers=st.lists(st.tuples(_tricky_text, _tricky_text), max_size=3).map(tuple),
        response_body=st.just(b"") if encrypted else st.binary(max_size=300),
        is_encrypted=st.just(encrypted),
        extra=st.dictionaries(
            st.sampled_from(["response_body", "url", "note", "é", "ground_truth_client"])
            | st.text(max_size=8),
            st.none() | st.integers() | _tricky_text | st.lists(_tricky_text, max_size=2),
            max_size=3,
        ),
    )


# Text with non-ASCII, control and separator characters, and text that
# looks like the body field once encoded.
_any_text = _tricky_text | st.text(
    alphabet=st.characters(codec="utf-8") | st.sampled_from("\x00\x1f\x7f\r\n\t\"\\\u2028\U0001f600"),
    max_size=20,
)
# Values json.dumps writes in its own way: non-finite floats, int and bool
# subclasses and nested containers.
_json_leaf = (
    st.none() | st.booleans() | st.integers() | st.floats() | _any_text
    | st.sampled_from([HTTPStatus.OK, HTTPStatus.NOT_FOUND])
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_any_text, inner, max_size=3),
    max_leaves=6,
)


def direct_line_exchange_st(encrypted):
    return st.builds(
        HttpExchange,
        exchange_id=_any_text,
        timestamp=st.floats() | st.integers() | st.sampled_from([math.nan, math.inf, -math.inf]),
        flow_id=_any_text,
        method=_any_text,
        url=_any_text,
        request_headers=st.lists(st.tuples(_any_text, _any_text), max_size=3).map(tuple),
        response_status=st.integers(min_value=-1, max_value=1000) | st.booleans()
        | st.sampled_from([HTTPStatus.OK, HTTPStatus.NOT_FOUND]),
        response_headers=st.lists(st.tuples(_any_text, _any_text), max_size=3).map(tuple),
        response_body=st.just(b"") if encrypted else st.binary(max_size=300),
        is_encrypted=st.just(encrypted),
        extra=st.dictionaries(
            st.sampled_from(["response_body", "timestamp", "url", "note", "é", "ground_truth_client"])
            | _any_text,
            _json_value,
            max_size=4,
        ),
    )


class TestLogRoundTrip:
    def test_spliced_body_line_of_a_4k_page(self):
        exchange = make_exchange("text/html", body=bytes(range(256)) * 16, extra={"n": "é"})
        assert exchange_to_json(exchange) == encoder_line(exchange)

    def test_canonical_byte_identity(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        exchanges = [make_exchange("text/html", body=b"<html>\x00\xff</html>", timestamp=1.5)]
        write_exchange_log(exchanges, path)
        with open(path, "rb") as fh:
            first = fh.read()
        write_exchange_log(read_exchange_log(path), path)
        with open(path, "rb") as fh:
            assert fh.read() == first

    def test_truncated_line_reports_line_number(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        write_exchange_log([make_exchange("text/html"), make_exchange("text/css")], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"exchange_id": "x3", "timest')
        with pytest.raises(LogFormatError) as excinfo:
            read_exchange_log(path)
        assert excinfo.value.line_no == 3

    def test_large_log_preserves_order_and_values(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        exchanges = [
            make_exchange("text/html", body=bytes([i % 256]) * (i % 7), exchange_id=f"x{i}",
                          timestamp=float(i))
            for i in range(10_000)
        ]
        write_exchange_log(exchanges, path)
        back = read_exchange_log(path)
        assert back == exchanges

    def test_unknown_fields_preserved(self):
        exchange = make_exchange("text/html", extra={"custom_note": "kept"})
        obj = json.loads(exchange_to_json(exchange))
        assert obj["custom_note"] == "kept"
        assert exchange_from_json(obj).extra == {"custom_note": "kept"}

    def test_encrypted_body_invariant(self):
        with pytest.raises(ValueError):
            HttpExchange(
                exchange_id="x",
                timestamp=0.0,
                flow_id="f",
                method="CONNECT",
                url="https://example.test",
                request_headers=(),
                response_status=200,
                response_headers=(),
                response_body=b"data",
                is_encrypted=True,
            )

    @settings(max_examples=100)
    @given(exchange_st)
    def test_json_round_trip_equality(self, exchange):
        assert exchange_from_json(json.loads(exchange_to_json(exchange))) == exchange

    @settings(max_examples=60)
    @given(st.one_of(splice_exchange_st(False), splice_exchange_st(True)))
    def test_spliced_body_gives_the_encoder_line(self, exchange):
        assert exchange_to_json(exchange) == encoder_line(exchange)

    @settings(max_examples=150)
    @given(st.one_of(direct_line_exchange_st(False), direct_line_exchange_st(True)))
    def test_line_equals_the_whole_record_dumps_line(self, exchange):
        assert exchange_to_json(exchange) == encoder_line(exchange)

    @settings(max_examples=100)
    @given(exchange_st)
    def test_mime_type_stable_under_reserialization(self, exchange):
        round_tripped = exchange_from_json(json.loads(exchange_to_json(exchange)))
        assert mime_type(round_tripped) == mime_type(exchange)

    @settings(max_examples=50)
    @given(st.lists(exchange_st, max_size=20))
    def test_distribution_total_matches_enumeration(self, exchanges):
        dist = mime_distribution(exchange_views(exchanges))
        assert dist.total == sum(1 for e in exchanges if not e.is_encrypted)
        assert sum(dist.counts.values()) == dist.total


def _record(**changes) -> dict:
    obj = json.loads(exchange_to_json(make_exchange("text/html", body=b"<p>x</p>")))
    obj.update(changes)
    return obj


# One line per check the exchange-log readers make; each is line 3 of its log.
MALFORMED_LINES = {
    "bad_base64_padding": json.dumps(_record(response_body="PHA+eDwvcD4")),
    "encrypted_with_body": json.dumps(_record(is_encrypted=True)),
    "missing_field": json.dumps({k: v for k, v in _record().items() if k != "url"}),
    "headers_not_a_list": json.dumps(_record(request_headers="Host: example.test")),
    "header_pair_of_three": json.dumps(_record(response_headers=[["a", "b", "c"]])),
    "non_object": "[1, 2, 3]",
    "status_not_a_number": json.dumps(_record(response_status="ok")),
    "status_null": json.dumps(_record(response_status=None)),
    "status_infinity": json.dumps(_record(response_status=math.inf)),
    "body_not_a_string": json.dumps(_record(response_body=5)),
    "torn_last_line": '{"exchange_id": "x3", "timest',
    "timestamp_string": json.dumps(_record(timestamp="soon")),
    "timestamp_null": json.dumps(_record(timestamp=None)),
    "timestamp_bool": json.dumps(_record(timestamp=True)),
    "timestamp_infinity": json.dumps(_record(timestamp=math.inf)),
    "timestamp_minus_infinity": json.dumps(_record(timestamp=-math.inf)),
    "timestamp_nan": json.dumps(_record(timestamp=math.nan)),
    "timestamp_beyond_float": json.dumps(_record(timestamp=10**400)),
    "nested_too_deep": "[" * 100_000 + "]" * 100_000,
}


class TestExchangeViews:
    @pytest.mark.parametrize("bad_line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
    def test_rejects_what_the_full_reader_rejects(self, tmp_path, bad_line):
        path = str(tmp_path / "log.jsonl")
        write_exchange_log([make_exchange("text/html"), make_exchange("text/css")], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad_line)
            if not bad_line.endswith("timest"):
                fh.write("\n" + exchange_to_json(make_exchange("image/gif")) + "\n")
        with pytest.raises(LogFormatError) as full:
            read_exchange_log(path)
        with pytest.raises(LogFormatError) as views:
            read_exchange_views(path)
        assert full.value.line_no == views.value.line_no == 3
        assert views.value.path == path

    def test_reads_what_the_full_reader_reads(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        exchanges = [
            make_exchange("text/html", body=b"<p>a</p>", timestamp=1.0),
            make_exchange(encrypted=True, timestamp=2.0),
            make_exchange(timestamp=3.0),
        ]
        write_exchange_log(exchanges, path)
        # the encrypted exchange keeps no view
        assert read_exchange_views(path) == [
            ExchangeView("", 1.0, "text/html"),
            ExchangeView("", 3.0, None),
        ]
        assert read_exchange_views(path) == exchange_views(exchanges)

    def test_columns_hold_each_distinct_value_once(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        rows = [("a/1", 1.0, "text/html"), ("", 2.0, None), ("a/1", 3.0, "text/html"),
                ("b/2", 4.0, "image/gif"), ("", 5.0, "text/html")]
        exchanges = [
            dataclasses.replace(
                make_exchange(content_type, timestamp=timestamp),
                request_headers=(("User-Agent", raw),) if raw else (),
            )
            for raw, timestamp, content_type in rows
        ]
        write_exchange_log(exchanges, path)
        views = read_exchange_views(path)
        assert isinstance(views, ExchangeViews)
        assert views.times == array("d", [1.0, 2.0, 3.0, 4.0, 5.0])
        assert views.user_agents == ("a/1", "", "b/2")
        assert views.content_types == ("text/html", None, "image/gif")
        assert views.ua_ids == array("I", [0, 1, 0, 2, 1])
        assert views.type_ids == array("I", [0, 1, 0, 2, 0])
        expected = [ExchangeView(*row) for row in rows]
        assert len(views) == 5
        assert list(views) == expected and views == expected and expected == views
        assert views == tuple(expected) and views == ExchangeViews(rows)
        assert views[3] == expected[3] and views[-1] == expected[-1]
        assert type(views[0]) is ExchangeView and views[0].raw == "a/1"
        assert views != expected[:-1] and views != [*expected[:-1], ExchangeView("", 5.0, None)]
        assert views != 5
        with pytest.raises(IndexError):
            views[5]

    def test_a_time_a_double_cannot_hold_keeps_its_value(self, tmp_path):
        # 2**53 + 1 rounds to 2**53 as a C double: with a window of 3 s it
        # would fall into the window of 2**53, the one before its own
        path = str(tmp_path / "log.jsonl")
        exchanges = [
            dataclasses.replace(
                make_exchange("text/html", timestamp=timestamp),
                request_headers=(("User-Agent", raw),),
            )
            for raw, timestamp in (("A/1", 2.0**53 - 6), ("A/1", 2**53), ("B/1", 2**53 + 1))
        ]
        write_exchange_log(exchanges, path)
        views = read_exchange_views(path)
        assert views == exchange_views(exchanges)
        assert [(view.first_seen, type(view.first_seen)) for view in views] == [
            (2.0**53 - 6, float), (2**53, int), (2**53 + 1, int)
        ]
        first = (2**53 - 6) // 3  # the first time's window
        starts = [3 * k for k in range(first, first + 4)]
        assert unique_ua_growth(views, 3) == list(zip(starts, [1, 1, 1, 2]))
        series = ratio_series(views, VulnDb(()), 3)
        assert [(p.window_start, p.not_vulnerable) for p in series.points] == list(zip(starts, [1, 0, 1, 1]))

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["User-Agent", "user-agent", "Content-Type", "CONTENT-TYPE", "Host"]),
                st.text(max_size=20),
            ),
            max_size=5,
        ),
        st.booleans(),
    )
    def test_view_matches_the_full_record(self, headers, encrypted):
        exchange = dataclasses.replace(
            make_exchange(encrypted=encrypted),
            request_headers=tuple(headers),
            response_headers=tuple(reversed(headers)),
        )
        obj = json.loads(exchange_to_json(exchange))
        full = exchange_from_json(obj)
        assert [httplog._line_view(json.dumps(obj))] == (exchange_views([full]) or [None])
        if not encrypted:
            user_agent = next((v for k, v in headers if k.lower() == "user-agent"), None)
            assert httplog._line_view(json.dumps(obj)) == ExchangeView(
                user_agent or "", full.timestamp, full.header("content-type")
            )
            assert mime_distribution([httplog._line_view(json.dumps(obj))]).counts == {mime_type(full): 1}


# A canonical record, then one defect or harmless change at a time. Each
# mutation takes the record (a dict) and a hypothesis data object.
def _canonical_record() -> dict:
    exchange = dataclasses.replace(
        make_exchange("text/html; charset=utf-8", body=b"<p>x</p>", timestamp=7.5),
        request_headers=(("Host", "example.test"), ("User-Agent", "ua/1")),
    )
    return json.loads(exchange_to_json(exchange))


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _drop_field(obj, data):
    del obj[data.draw(st.sampled_from(sorted(obj)))]


def _retype_value(obj, data):
    obj[data.draw(st.sampled_from(sorted(obj)))] = data.draw(_ANY_JSON)


def _header_list(obj, data) -> list:
    """One of the record's header lists, or [] if an earlier mutation took it."""
    headers = obj.get(data.draw(st.sampled_from(["request_headers", "response_headers"])))
    return headers if isinstance(headers, list) else []


def _break_header_pair(obj, data):
    headers = _header_list(obj, data)
    at = data.draw(st.integers(0, len(headers)))
    bad = data.draw(st.sampled_from([["a"], ["a", "b", "c"], [], "a: b", {"a": "b"}, None]))
    headers.insert(at, bad)


def _corrupt_body(obj, data):
    obj["response_body"] = data.draw(st.text("AZaz09+/=-!\n ", max_size=16))


def _bad_timestamp(obj, data):
    obj["timestamp"] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf, True, False, "7.5", None, 10**400])
    )


def _rename_header(obj, data):
    pairs = [pair for pair in _header_list(obj, data) if isinstance(pair, list) and len(pair) == 2]
    if pairs:
        pair = data.draw(st.sampled_from(pairs))
        pair[data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from(["USER-AGENT", "content-type", 5, None, ["x"]])
        )


_MUTATIONS = [_drop_field, _retype_value, _break_header_pair, _corrupt_body, _bad_timestamp,
              _rename_header]


class TestOneGate:
    """Both exchange-log readers go through one record gate: mutated lines
    are rejected by both at the same line or read by both alike."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2), st.data())
    def test_readers_agree_on_mutated_lines(self, mutations, data):
        obj = _canonical_record()
        for mutate in mutations:
            mutate(obj, data)
        good = exchange_to_json(make_exchange("image/gif"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(good + "\n" + json.dumps(obj) + "\n" + good + "\n")
            try:
                full = read_exchange_log(path)
            except LogFormatError as exc:
                with pytest.raises(LogFormatError) as views:
                    read_exchange_views(path)
                assert exc.line_no == views.value.line_no == 2
                return
            assert read_exchange_views(path) == exchange_views(full)


# The exchange-log record gate as it stood while it decoded every body,
# kept frozen here: the readers must refuse exactly what it refuses, at the
# same line, with the same reason, and read what it accepts.
_REFERENCE_FIELDS = (
    "exchange_id", "timestamp", "flow_id", "ground_truth_client", "method", "url",
    "request_headers", "response_status", "response_headers", "response_body", "is_encrypted",
)
_REFERENCE_REQUIRED = frozenset(_REFERENCE_FIELDS) - {"ground_truth_client"}


def _reference_walk_headers(raw, what, lowered):
    if isinstance(raw, list):
        found = None
        for pair in raw:
            if not isinstance(pair, list) or len(pair) != 2:
                break
            if found is None and str(pair[0]).lower() == lowered:
                found = str(pair[1])
        else:
            return found
    raise ValueError(f"{what} must be a list of [name, value] pairs")


def _reference_finite_time(value):
    try:
        seconds = float(value)
    except OverflowError:
        seconds = math.inf
    if not math.isfinite(seconds):
        raise ValueError(f"time is not a finite number: {value!r}")
    return seconds


def _reference_gate(obj):
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    if not _REFERENCE_REQUIRED <= obj.keys():
        missing = [f for f in _REFERENCE_FIELDS if f in _REFERENCE_REQUIRED and f not in obj]
        raise ValueError(f"missing fields: {', '.join(missing)}")
    if type(obj["timestamp"]) not in (int, float):
        raise ValueError("timestamp is not a number")
    _reference_finite_time(obj["timestamp"])
    user_agent = _reference_walk_headers(obj["request_headers"], "request_headers", "user-agent")
    status = int(obj["response_status"])
    content_type = _reference_walk_headers(obj["response_headers"], "response_headers", "content-type")
    body = binascii.a2b_base64(obj["response_body"])
    if obj["is_encrypted"] and body:
        raise ValueError("encrypted exchanges carry no body")
    return status, body, user_agent, content_type


# A JSON value written into the line as this raw text (e.g. 1e400, which
# json.dumps cannot write), through a placeholder string.
class _RawJson(str):
    pass


def _line_of(obj: dict) -> str:
    raws = {}

    def placeholder(value):
        if isinstance(value, _RawJson):
            key = f"@raw{len(raws)}@"
            raws[key] = str(value)
            return key
        return value

    line = json.dumps({key: placeholder(value) for key, value in obj.items()})
    for key, text in raws.items():
        line = line.replace(json.dumps(key), text)
    return line


_BASE64_TEXT = st.binary(max_size=9).map(lambda b: base64.b64encode(b).decode("ascii"))
_BODIES = st.one_of(
    _BASE64_TEXT,
    # 0-4 pad characters after canonical text, or after text cut short
    st.tuples(_BASE64_TEXT, st.integers(0, 3), st.integers(0, 4)).map(
        lambda t: t[0].rstrip("=")[: len(t[0].rstrip("=")) - t[1]] + "=" * t[2]
    ),
    # a space, "=", a line break or a non-ASCII letter put anywhere
    st.tuples(_BASE64_TEXT, st.integers(0, 12), st.sampled_from([" ", "=", "\n", "\t", "é", "ß", "Ω"])).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1]:]
    ),
    st.text(alphabet="ABab09+/= é", max_size=10),
    st.sampled_from(["", " ", "    ", "=", "==", "A===", "AB=C", "QUJD", "QUI=", "QQ==", "QQ=", "ABCDE"]),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.booleans(),
    st.lists(st.text(alphabet="AB=", max_size=4), max_size=2),
)
_TIMESTAMPS = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.floats(),
    st.sampled_from([
        _RawJson("1e400"), _RawJson("-1e400"), math.nan, math.inf, -math.inf,
        10**400, -(10**400), 2**1024, 2**1023, "7.5", None,
    ]),
)


def _gate_body(obj, data):
    obj["response_body"] = data.draw(_BODIES)


def _gate_timestamp(obj, data):
    obj["timestamp"] = data.draw(_TIMESTAMPS)


def _gate_drop_key(obj, data):
    obj.pop(data.draw(st.sampled_from(sorted(_REFERENCE_REQUIRED))), None)


def _gate_extra_key(obj, data):
    obj[data.draw(st.sampled_from(["note", "x-extra", "ground_truth_client"]))] = data.draw(_ANY_JSON)


def _gate_encrypted(obj, data):
    obj["is_encrypted"] = data.draw(st.sampled_from([True, 1, "yes", False, 0, None]))
    obj["response_body"] = data.draw(st.sampled_from(["QUJD", "QQ==", "", " ", "\n", "  \t "]))


_GATE_MUTATIONS = [_gate_body, _gate_timestamp, _gate_drop_key, _gate_extra_key, _gate_encrypted]


def _check_against_reference(obj: dict) -> str:
    """_check_line_against_reference of ``obj`` written by json.dumps."""
    return _check_line_against_reference(_line_of(obj))


def _types(views) -> list:
    return [tuple(map(type, view)) for view in views]


def _check_line_against_reference(line: str) -> str:
    """Read a log whose second line is ``line`` with both readers and check
    them against _reference_gate; returns what the reference made of it."""
    good = make_exchange("image/gif", body=b"GIF")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(exchange_to_json(good) + "\n" + line + "\n" + exchange_to_json(good) + "\n")
        try:
            status, body, user_agent, content_type = _reference_gate(json.loads(line))
        except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: an infinite status
            for read in (read_exchange_log, read_exchange_views):
                with pytest.raises(LogFormatError) as refused:
                    read(path)
                assert (refused.value.line_no, refused.value.reason) == (2, str(exc))
            return "refused"
        parsed = json.loads(line)
        good_view = ExchangeView("", good.timestamp, "image/gif")
        views = []  # an encrypted exchange keeps no view
        if not parsed["is_encrypted"]:
            views.append(ExchangeView(user_agent or "", parsed["timestamp"], content_type))
        read = read_exchange_views(path)
        assert read == [good_view, *views, good_view]
        assert _types(read) == _types([good_view, *views, good_view])
        first, full, last = read_exchange_log(path)
        assert first == last == good
        assert (full.response_status, full.response_body) == (status, body)
        full_user_agent = httplog._first_header(full.request_headers, "user-agent")
        assert (full_user_agent, full.header("content-type")) == (user_agent, content_type)
        assert (full.timestamp, full.is_encrypted) == (parsed["timestamp"], bool(parsed["is_encrypted"]))
        assert exchange_views([full]) == views
        return "accepted"


# Exchanges whose lines the view reader reads from their text, or decodes
# for a header list that is not ASCII: header names in other cases,
# repeated, or not ASCII (İ changes length under str.lower, ß does not; ſ
# matches s under re.IGNORECASE but is not lowered to it).
_CANONICAL_TEXT = st.text(alphabet="az09 /;=.-İßſ☃\x7f", max_size=8)
_CANONICAL_HEADERS = st.lists(
    st.tuples(
        st.sampled_from(["User-Agent", "user-agent", "USER-AGENT", "uSeR-aGeNt", "Content-Type",
                         "content-type", "CONTENT-TYPE", "Host", "İ", "ß", "İUser-Agent",
                         "User-Agentß", "uſer-agent", "Content-Typeİ", ""]),
        _CANONICAL_TEXT,
    ),
    max_size=4,
).map(tuple)
_CANONICAL_EXCHANGES = st.builds(
    HttpExchange,
    exchange_id=_CANONICAL_TEXT,
    timestamp=st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**20, 10**20),
    flow_id=_CANONICAL_TEXT,
    method=st.sampled_from(["GET", "POST", "CONNECT"]),
    url=_CANONICAL_TEXT,
    request_headers=_CANONICAL_HEADERS,
    response_status=st.integers(-1000, 1000),
    response_headers=_CANONICAL_HEADERS,
    response_body=st.binary(max_size=12),
).flatmap(
    lambda exchange: st.sampled_from([
        exchange, dataclasses.replace(exchange, response_body=b"", is_encrypted=True)
    ])
)


def _replace_value(line: str, key: str, text: str) -> str:
    """``line`` with the JSON text of ``key``'s value, a number, a string or
    a literal, replaced by ``text``; "ground_truth_client", which the writer
    no longer writes, is put where an older writer put it."""
    if key == "ground_truth_client":
        return older_line(line, text)
    return re.sub(rf'"{key}":(?:"[^"\\]*"|[^,}}]*)', lambda _: f'"{key}":{text}', line, count=1)


# Where a string starts: four fields' values and each header list's first
# name; and what is put there: an escape, a control character, a character
# that is not ASCII, or text that looks like a pair's start.
_STRING_STARTS = [
    '"exchange_id":"', '"flow_id":"', '"method":"', '"url":"', '"request_headers":[["',
    '"response_headers":[["',
]
_STRING_INSERTS = [
    '\\"', "\\\\", "\\n", "\\u0041", "\\u00e9", "\\/", "\\x", "\\u12", "\x00", "\x01", "\t", "\x1f",
    "\x7f", "é", "İ", "[", '["user-agent","',
]


def _insert_into_string(line: str, start: str, text: str) -> str:
    """``text`` put at ``start``, if the line has it."""
    at = line.find(start)
    if at < 0:  # an empty header list
        return line
    at += len(start)
    return line[:at] + text + line[at:]


def _canonical_unchanged(line, data):
    return line


def _canonical_string(line, data):
    start = data.draw(st.sampled_from(_STRING_STARTS))
    return _insert_into_string(line, start, data.draw(st.sampled_from(_STRING_INSERTS)))


_DIGITS_5000 = "1" + "0" * 4999
# JSON texts, and near misses, of the values the pattern reads: 301 digits
# is finite as a float, 400 digits is not.
_FIXED_VALUES = {
    "timestamp": [
        "7", "-0", "0", "-0.0", "1e3", "1E-2", "-7.5e+2", "2.5E+1", "1e-400", "1e400", "-1e400",
        "1" + "0" * 299, "-1" + "0" * 299, "1" + "0" * 300, "1" + "0" * 400, _DIGITS_5000,
        _DIGITS_5000 + ".5", "01", "1.", ".5", "+1", "NaN", "Infinity", "-Infinity", '"7"', "true",
    ],
    "response_status": ["200.0", "2e2", "1e400", "1" + "0" * 300, _DIGITS_5000, "null", '"200"', "true"],
    "ground_truth_client": ["5", "true", "false", "[]", '{"a":1}', "1.5", '""', "null", "nul", "[", "NaN"],
    "is_encrypted": ["true", "false", "1", "0", "null", '"yes"', "tru", "True"],
    "response_body": ['""', '"QUJD"', '"QQ=="', '"QUI="', '"QQ="', '"A==="', '"AAAAA==="', '"===="',
                      '"Q=Q="', '"QQ==QQ=="', '"-_AB"', '"QU D"', '"QUJDé"', "null", "5"],
}


def _canonical_value(line, data):
    key = data.draw(st.sampled_from(sorted(_FIXED_VALUES)))
    return _replace_value(line, key, data.draw(st.sampled_from(_FIXED_VALUES[key])))


def _canonical_extra_key(line, data):
    pair = data.draw(st.sampled_from(['"note":1', '"timestamp":5', '"is_encrypted":true', '"response_body":"!"']))
    return line[:-1] + "," + pair + "}"


def _canonical_reorder(line, data):
    pairs = json.loads(line, object_pairs_hook=list)
    at = data.draw(st.integers(0, len(pairs) - 2))
    pairs[at], pairs[at + 1] = pairs[at + 1], pairs[at]
    return json.dumps(dict(pairs), separators=(",", ":"), ensure_ascii=False)


def _canonical_whitespace(line, data):
    old = data.draw(st.sampled_from(['{"', ',"timestamp"', '"url":', ':[', "}"]))
    new = {'{"': '{ "', ',"timestamp"': ', "timestamp"', '"url":': '"url" :', ':[': ':\t[', "}": " }"}[old]
    return line.replace(old, new, 1) if old != "}" else line[:-1] + new


def _canonical_body(line, data):
    start = line.index('"response_body":"') + len('"response_body":"')
    end = line.index('"', start)
    body = line[start:end]
    at = data.draw(st.integers(0, len(body)))
    body = data.draw(st.sampled_from([
        body[:-1], body + "A", body[:at] + "=" + body[at + 1:], body + "A===", body + "====",
        body[:at] + "=" + body[at:], body[:at] + data.draw(st.sampled_from("-_ é")) + body[at + 1:],
    ]))
    return line[:start] + body + line[end:]


def _canonical_encrypted(line, data):
    return line.replace('"is_encrypted":false}', '"is_encrypted":true}')


_CANONICAL_MUTATIONS = [
    _canonical_unchanged, _canonical_string, _canonical_value,
    _canonical_extra_key, _canonical_reorder, _canonical_whitespace, _canonical_body,
    _canonical_encrypted,
]


class TestGateAgainstReference:
    """Both readers refuse exactly what the decoding gate refused, at the
    same line with the same reason, and read what it accepted as it read it."""

    @settings(max_examples=400, deadline=None)
    @given(_CANONICAL_EXCHANGES, st.sampled_from(_CANONICAL_MUTATIONS), st.data())
    def test_written_lines_with_one_mutation(self, exchange, mutate, data):
        _check_line_against_reference(mutate(exchange_to_json(exchange), data))

    @pytest.mark.parametrize("start", _STRING_STARTS)
    @pytest.mark.parametrize("text", _STRING_INSERTS)
    def test_written_line_with_one_string_changed(self, start, text):
        exchange = dataclasses.replace(
            make_exchange("text/css", timestamp=1.5),
            request_headers=(("Host", "example.test"), ("User-Agent", "ua/1")),
        )
        _check_line_against_reference(_insert_into_string(exchange_to_json(exchange), start, text))

    @pytest.mark.parametrize("key, text", [
        (key, text) for key, texts in _FIXED_VALUES.items() for text in texts
    ], ids=lambda value: value if len(value) < 20 else f"{len(value)}-chars")
    @pytest.mark.parametrize("encrypted", [False, True])
    def test_written_line_with_one_value_replaced(self, key, text, encrypted):
        exchange = dataclasses.replace(
            make_exchange("text/css", encrypted=encrypted, timestamp=1.5),
            request_headers=(("User-Agent", "ua/1"),),
        )
        _check_line_against_reference(_replace_value(exchange_to_json(exchange), key, text))

    @settings(max_examples=150, deadline=None)
    @given(_BODIES, st.sampled_from([False, True, 0, 1, None, "", "x"]))
    def test_bodies(self, body, encrypted):
        obj = _canonical_record()
        obj["response_body"] = body
        obj["is_encrypted"] = encrypted
        _check_against_reference(obj)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(_GATE_MUTATIONS), min_size=1, max_size=3), st.data())
    def test_mutated_records(self, mutations, data):
        obj = _canonical_record()
        for mutate in mutations:
            mutate(obj, data)
        _check_against_reference(obj)

    @pytest.mark.parametrize("last", ["!", "é", '"'])
    def test_several_mb_body_with_a_bad_last_character_is_refused_in_linear_time(self, last):
        line = exchange_to_json(make_exchange("image/gif", body=b"\x00" * 6_000_000))
        end = line.index('","is_encrypted"')
        start = time.process_time()
        assert _check_line_against_reference(line[:end - 1] + last + line[end:]) == "refused"
        assert time.process_time() - start < 5.0  # a pattern that backtracks takes hours

    @pytest.mark.parametrize("body, outcome", [
        ("PHA+eDwvcD4=", "accepted"),
        ("", "accepted"),
        ("  \n", "accepted"),  # no data characters: empty bytes
        ("QQ==QQ==", "accepted"),  # what follows the padding is ignored
        ("QQ=", "refused"),
        ("A B=", "refused"),
        ("Q===", "refused"),
        ("QUJDé", "refused"),
        (None, "refused"),
    ])
    def test_fixed_bodies(self, body, outcome):
        obj = _canonical_record()
        obj["response_body"] = body
        assert _check_against_reference(obj) == outcome


class _Decoded(Exception):
    pass


# The scenario of each benchmark workload's offline part, at toy size.
_WORKLOAD_SHAPES = {
    "calibrated": {"client_count": 20, "duration_seconds": 600.0},
    "churn": {"client_count": 60, "duration_seconds": 3600.0, "visit_rate": 0.0005, "restart_count": 6},
}


def _simulated_log(tmp_path, shape="calibrated"):
    """A simulator's exchanges in one workload's shape, with bodies and
    encrypted ones, and the log path they are written to."""
    from beaconlab.clientsim import calibrated_config, run_scenario

    result = run_scenario(calibrated_config(seed=5, **_WORKLOAD_SHAPES[shape]))
    path = str(tmp_path / "exchanges.jsonl")
    write_exchange_log(result.exchanges, path)
    assert any(e.response_body for e in result.exchanges)
    assert any(e.is_encrypted for e in result.exchanges)
    return result.exchanges, path


@pytest.mark.parametrize("shape", _WORKLOAD_SHAPES)
def test_view_reader_decodes_no_canonical_line(tmp_path, monkeypatch, shape):
    exchanges, path = _simulated_log(tmp_path, shape)

    def decode(*args):
        raise _Decoded(args)

    monkeypatch.setattr(json, "loads", decode)
    assert read_exchange_views(path) == exchange_views(exchanges)
    with pytest.raises(_Decoded):
        read_exchange_log(path)


def test_view_reader_decodes_no_canonical_body(tmp_path, monkeypatch):
    exchanges, path = _simulated_log(tmp_path)
    expected = read_exchange_views(path)

    def decode(value):
        raise _Decoded(value)

    monkeypatch.setattr(binascii, "a2b_base64", decode)
    assert read_exchange_views(path) == expected
    with pytest.raises(_Decoded):
        read_exchange_log(path)


# Every CSV layout, with strings the writer must quote (comma, quote, line
# break) or leave empty.
LAYOUTS = {
    "tags": (
        TAG_LOG,
        [
            Tag("static", "pixel", "http://pixel.z.test/p.gif", "x1", 1.5),
            Tag("dynamic", "d1", 'http://d1.z.test/a,"b"', "x\n2", 2.0),
        ],
    ),
    "dns": (
        QUERY_LOG,
        [DnsQueryRecord("a.z.test", "10.0.0.1", 1.25), DnsQueryRecord("b.z.test", "", 1e-7)],
    ),
    "fetch": (FETCH_LOG, [FetchRecord(0.1, "10.0.0.2", "http://a.z.test/p.gif?x=1,2")]),
    "ua": (
        UA_LOG,
        [UaRecord('Browser/1.0 (a; "b" 2.0)', 3.0), UaRecord("", 4.0)],
    ),
    "vuln_db": (
        VULN_DB_LOG,
        list(
            VulnDb.from_pairs(
                [("acme", "1.0", "2.0"), ("open low", None, "3"), ("hi", "4", None)]
            ).entries
        ),
    ),
}


class TestCsvLog:
    @pytest.mark.parametrize("name", LAYOUTS)
    def test_round_trip(self, tmp_path, name):
        layout, records = LAYOUTS[name]
        path = str(tmp_path / "log.csv")
        layout.write(records, path)
        assert layout.read(path) == records

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_appender_writes_what_write_writes(self, tmp_path, name):
        layout, records = LAYOUTS[name]
        written, appended = str(tmp_path / "w.csv"), str(tmp_path / "a.csv")
        layout.write(records, written)
        for record in records:  # reopened for each record: the header goes in once
            appender = layout.appender(appended)
            appender.append(record)
            appender.close()
        with open(written, "rb") as fh_w, open(appended, "rb") as fh_a:
            assert fh_a.read() == fh_w.read()

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_a_header_in_another_column_order_fails_at_line_1(self, tmp_path, name):
        layout, records = LAYOUTS[name]
        path = str(tmp_path / "log.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(layout.header[::-1])
            writer.writerows(list(layout.to_row(record))[::-1] for record in records)
        expected = f"expected the header {','.join(layout.header)}"
        assert outcome(layout.read, path) == (LogFormatError, path, 1, expected)

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_a_zero_byte_file_is_an_empty_log(self, tmp_path, name):
        path = str(tmp_path / "log.csv")
        open(path, "w").close()
        assert LAYOUTS[name][0].read(path) == []


# Text fields the CSV writer must quote (a comma, a quote, a line break, a
# lone empty field) or may write as they are, non-ASCII text among them.
_CSV_TEXT = st.one_of(
    st.sampled_from([",", '"', "\r", "\n", "\r\n", "", "a,b", 'x"y', " lead", "é", "中文", "x\x00y"]),
    st.text(max_size=8),
)
_CSV_FLOATS = st.one_of(
    st.sampled_from([1e-07, 100000000000000.0, 1e16, 0.1, -0.0, 1.5, 1e300]),
    st.floats(),
)
# Records of each layout, from such fields.
_CSV_RECORDS = {
    "tags": st.builds(Tag, _CSV_TEXT, _CSV_TEXT, _CSV_TEXT, _CSV_TEXT, _CSV_FLOATS),
    "dns": st.builds(DnsQueryRecord, _CSV_TEXT, _CSV_TEXT, _CSV_FLOATS),
    "fetch": st.builds(FetchRecord, _CSV_FLOATS, _CSV_TEXT, _CSV_TEXT),
    "ua": st.builds(UaRecord, _CSV_TEXT, _CSV_FLOATS),
    "vuln_db": st.tuples(
        _CSV_TEXT,
        st.one_of(
            st.builds(VersionRange, _CSV_TEXT, st.none()),
            st.builds(VersionRange, st.none(), _CSV_TEXT),
        ),
    ),
}


class _OtherFloat(float):
    """A float whose repr and str are not float's."""

    def __repr__(self):
        return "other"

    __str__ = __repr__


def _csv_writer_bytes(layout, records) -> bytes:
    """The file csv.writer writes for ``records`` under ``layout``'s header."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(layout.header)
    writer.writerows(map(layout.to_row, records))
    return out.getvalue().encode("utf-8")


def _written_and_appended(layout, records, tmp) -> tuple[bytes, bytes]:
    """The bytes CsvLog.write writes for ``records``, and the bytes an
    appender writes for them, a few records per append."""
    written, appended = os.path.join(tmp, "w.csv"), os.path.join(tmp, "a.csv")
    layout.write(records, written)
    appender = layout.appender(appended)
    for start in range(0, len(records), 3):
        appender.append(*records[start:start + 3])
    appender.close()
    with open(written, "rb") as fh_w, open(appended, "rb") as fh_a:
        return fh_w.read(), fh_a.read()


class TestCsvWriterBytes:
    """CsvLog writes every row as csv.writer writes it: rows it can join
    by commas as they are, and the ones csv.writer quotes."""

    @pytest.mark.parametrize("name", LAYOUTS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_layout(self, name, data):
        layout = LAYOUTS[name][0]
        records = data.draw(st.lists(_CSV_RECORDS[name], max_size=12))
        with tempfile.TemporaryDirectory() as tmp:
            expected = _csv_writer_bytes(layout, records)
            assert _written_and_appended(layout, records, tmp) == (expected, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(1, 4),
        fields=st.lists(
            st.one_of(
                _CSV_TEXT, _CSV_FLOATS, st.integers(), st.booleans(), st.none(),
                st.builds(_OtherFloat, _CSV_FLOATS),
            ),
            max_size=30,
        ),
    )
    def test_fields_of_any_type(self, width, fields):
        # rows of the header's width and shorter ones; None, bool and a
        # float whose repr is not float's among the fields
        layout = httplog.CsvLog([f"c{i}" for i in range(width)], list, tuple)
        records = [fields[i:i + width] for i in range(0, len(fields), width)]
        with tempfile.TemporaryDirectory() as tmp:
            expected = _csv_writer_bytes(layout, records)
            assert _written_and_appended(layout, records, tmp) == (expected, expected)

    def test_a_single_empty_field_is_quoted(self, tmp_path):
        layout = httplog.CsvLog(["only"], list, tuple)
        records = [("",), ("a",), ("",)]
        expected = _csv_writer_bytes(layout, records)
        assert expected == b'only\r\n""\r\na\r\n""\r\n'
        assert _written_and_appended(layout, records, str(tmp_path)) == (expected, expected)

    def test_rows_quoted_across_write_batches(self, tmp_path):
        count = 3 * httplog._LINES_PER_WRITE + 5
        records = [
            Tag("static", "pixel", "http://a,b/" if i % 97 == 0 else "http://a/", f"x{i}", i / 7)
            for i in range(count)
        ]
        expected = _csv_writer_bytes(TAG_LOG, records)
        assert _written_and_appended(TAG_LOG, records, str(tmp_path)) == (expected, expected)


# Cells each layout's from_row parses, or nearly so, and cells that break a
# row: a quote, a separator, a line break, NUL.
_CSV_CELLS = st.one_of(
    st.sampled_from(
        ["1.5", "nan", "-inf", "1e400", "", "static", "dynamic", "d1.z.test", "10.0.0.1",
         "http://a.z.test/p.gif", "http://[abc/", "acme", "1.0", "2.0", "3.0.x", '"', 'a"b',
         ",", "\n", "\r", "\x00", "\udc80"]
    ),
    st.text(max_size=8),
)
# Rows of cells, under no header or one of the layouts' headers, so that a
# reader past its header check sees them.
_CSV_FILES = st.one_of(
    st.binary(max_size=160),
    st.builds(
        lambda head, rows: "\r\n".join(head + rows).encode("utf-8", "surrogateescape"),
        st.sampled_from([[]] + [[",".join(layout.header)] for layout, _ in LAYOUTS.values()]),
        st.lists(st.lists(_CSV_CELLS, max_size=6).map(",".join), max_size=6),
    ),
)


def listed(stream):
    """A streaming reader as a list reader."""
    return lambda path: list(stream(path))


READERS = {name: layout.read for name, (layout, _) in LAYOUTS.items()}
# The streams analyze folds, and the list readers of the same logs.
ANALYZE_STREAMS = {
    "tags": (TAG_LOG.read, correlate.read_tag_log),
    "dns": (read_query_log, correlate.read_query_log),
    "fetch": (read_fetch_log, correlate.read_fetch_log),
}
READERS.update({f"analyze_{name}": listed(stream) for name, (_, stream) in ANALYZE_STREAMS.items()})


def outcome(read, path):
    """What ``read`` returns for ``path``, or the error it raises as (type, path, line, reason)."""
    try:
        return read(path)
    except LogFormatError as exc:
        return (LogFormatError, exc.path, exc.line_no, exc.reason)


class TestCsvLogOnArbitraryBytes:
    @pytest.mark.parametrize("name", READERS)
    @settings(max_examples=150, deadline=None)
    @given(content=_CSV_FILES)
    def test_raises_only_log_format_error(self, name, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.csv")
            with open(path, "wb") as fh:
                fh.write(content)
            try:
                READERS[name](path)
            except LogFormatError as exc:
                assert exc.path == path

    @pytest.mark.parametrize("name", ANALYZE_STREAMS)
    @settings(max_examples=60, deadline=None)
    @given(content=_CSV_FILES)
    def test_analyze_stream_agrees_with_the_list_reader(self, name, content):
        read, stream = ANALYZE_STREAMS[name]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.csv")
            with open(path, "wb") as fh:
                fh.write(content)
            assert outcome(listed(stream), path) == outcome(read, path)


class TestTagKinds:
    @pytest.mark.parametrize("kind", ["bogus", "STATIC", "Dynamic", ""])
    @pytest.mark.parametrize(
        "read",
        [TAG_LOG.read, listed(correlate.read_tag_log)],
        ids=["tag_log", "analyze_stream"],
    )
    def test_a_kind_other_than_static_or_dynamic_fails_at_its_line(self, tmp_path, read, kind):
        path = str(tmp_path / "tags.csv")
        rows = [("static", "pixel", "http://pixel.z.test/p.gif", "x1", "1.5"),
                (kind, "d1", "http://d1.z.test/p.gif", "x1", "1.5")]
        TAG_LOG.write([], path)
        with open(path, "a", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert outcome(read, path) == (LogFormatError, path, 3, f"unknown tag kind {kind!r}")


# The time column of each CSV layout that has one.
TIME_COLUMNS = {"tags": 4, "dns": 0, "fetch": 0, "ua": 0}


# Each streaming form, as a list, with the layout that writes its log.
TIME_STREAMS = {
    "tags_stream": ("tags", listed(TAG_LOG.stream)),
    "dns_stream": ("dns", listed(QUERY_LOG.stream)),
    "fetch_stream": ("fetch", listed(FETCH_LOG.stream)),
    "ua_stream": ("ua", listed(UA_LOG.stream)),
    "analyze_tags": ("tags", listed(correlate.read_tag_log)),
    "analyze_dns": ("dns", listed(correlate.read_query_log)),
    "analyze_fetch": ("fetch", listed(correlate.read_fetch_log)),
}
TIME_CELLS = ["nan", "inf", "-Infinity", "1e400", "soon", ""]


def log_with_time_cell(tmp_path, name, cell) -> str:
    """A log of the layout ``name`` whose line 3 holds ``cell`` as its time."""
    layout, records = LAYOUTS[name]
    path = str(tmp_path / "log.csv")
    layout.write(records[:1], path)
    row = list(layout.to_row(records[0]))
    row[TIME_COLUMNS[name]] = cell
    with open(path, "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(row)
    return path


class TestTimeCells:
    @pytest.mark.parametrize("cell", TIME_CELLS)
    @pytest.mark.parametrize("name", TIME_COLUMNS)
    def test_time_that_is_not_a_finite_number_names_its_line(self, tmp_path, name, cell):
        path = log_with_time_cell(tmp_path, name, cell)
        with pytest.raises(LogFormatError) as excinfo:
            LAYOUTS[name][0].read(path)
        assert excinfo.value.line_no == 3

    @pytest.mark.parametrize("cell", TIME_CELLS)
    @pytest.mark.parametrize("stream", TIME_STREAMS)
    def test_stream_raises_what_the_list_reader_raises(self, tmp_path, stream, cell):
        name, read = TIME_STREAMS[stream]
        path = log_with_time_cell(tmp_path, name, cell)
        streamed = outcome(read, path)
        assert streamed == outcome(LAYOUTS[name][0].read, path)
        assert streamed[:3] == (LogFormatError, path, 3)


# Past this many lines of a CSV layout's shortest rows, a text file has
# decoded ahead more than once (8 KiB at a time).
_PAST_READ_AHEAD = 1000


def layout_of(reader: str) -> str:
    """The LAYOUTS name of the log a READERS entry reads."""
    return reader.removeprefix("analyze_")


def _corrupt_line(path: str, line_no: int, newlines=(b"\n",)) -> None:
    """Put a 0xff byte into line ``line_no`` of ``path`` (after its first
    byte), past the first 8 KiB, and end the lines with ``newlines`` in turn."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    assert len(b"".join(lines[: line_no - 1])) > 8192
    lines[line_no - 1] = lines[line_no - 1][:1] + b"\xff" + lines[line_no - 1][1:]
    with open(path, "wb") as fh:
        for i, line in enumerate(lines):
            fh.write(line + newlines[i % len(newlines)])


# Each line ending a text file splits at, mixed, and the one each writer uses.
_NEWLINES = {"mixed": (b"\n", b"\r", b"\r\n"), "crlf": (b"\r\n",), "lf": (b"\n",)}


class TestInvalidUtf8NamesItsLine:
    @pytest.mark.parametrize("newlines", _NEWLINES)
    @pytest.mark.parametrize("name", READERS)
    def test_csv_reader(self, tmp_path, name, newlines):
        layout, records = LAYOUTS[layout_of(name)]
        path = str(tmp_path / "log.csv")
        layout.write(records[:1] * (_PAST_READ_AHEAD + 100), path)
        bad_line = _PAST_READ_AHEAD + 1
        _corrupt_line(path, bad_line, _NEWLINES[newlines])
        with pytest.raises(LogFormatError) as excinfo:
            READERS[name](path)
        assert (excinfo.value.path, excinfo.value.line_no) == (path, bad_line)
        assert "can't decode byte 0xff" in excinfo.value.reason

    @pytest.mark.parametrize("newlines", _NEWLINES)
    @pytest.mark.parametrize("read", [read_exchange_log, read_exchange_views])
    def test_exchange_log(self, tmp_path, read, newlines):
        path = str(tmp_path / "log.jsonl")
        write_exchange_log([make_exchange("text/html", exchange_id=f"x{i}") for i in range(300)], path)
        bad_line = 250
        _corrupt_line(path, bad_line, _NEWLINES[newlines])
        with pytest.raises(LogFormatError) as excinfo:
            read(path)
        assert (excinfo.value.path, excinfo.value.line_no) == (path, bad_line)
        assert "can't decode byte 0xff" in excinfo.value.reason

    @pytest.mark.parametrize("read", [QUERY_LOG.read, correlate.read_query_log])
    def test_an_earlier_bad_row_in_the_same_block_comes_first(self, tmp_path, read):
        path = str(tmp_path / "log.csv")
        QUERY_LOG.write(LAYOUTS["dns"][1][:1] * 600, path)
        _corrupt_line(path, 510)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        lines[504] = b"1.0,only two fields\n"  # line 505: the read-ahead reached line 510 already
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(LogFormatError) as excinfo:
            list(read(path))
        assert excinfo.value.line_no == 505
        assert excinfo.value.reason == "expected 3 fields, got 2"


class TestCutTornTail:
    @pytest.mark.parametrize("content, kept", [
        (b"", b""),
        (b"a\nb\n", b"a\nb\n"),
        (b"a\nb\nc", b"a\nb\n"),
        (b"a\r\nb\r", b"a\r\n"),
        (b"no newline at all", b""),
        (b"a\n" + b"x" * 200_000, b"a\n"),  # torn line longer than one scan block
    ])
    def test_cut(self, tmp_path, content, kept):
        path = tmp_path / "log"
        path.write_bytes(content)
        assert cut_torn_tail(str(path)) == len(content) - len(kept)
        assert path.read_bytes() == kept

    def test_missing_file(self, tmp_path):
        assert cut_torn_tail(str(tmp_path / "absent")) == 0
        assert not (tmp_path / "absent").exists()
