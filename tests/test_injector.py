import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconlab import inject
from beaconlab.httplog import HttpExchange, mime_type
from beaconlab.inject import (
    DYNAMIC,
    MARKER_BEGIN,
    MARKER_END,
    STATIC,
    Tag,
    Injector,
    read_tag_log,
    rewrite_log,
    strip_injected,
    write_tag_log,
)
from beaconlab.httplog import write_exchange_log, read_exchange_log


def make_exchange(body, content_type="text/html", encrypted=False, headers=(), ts=1.0):
    response_headers = ()
    if not encrypted:
        response_headers = (
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
        ) + tuple(headers)
    return HttpExchange(
        exchange_id="x1",
        timestamp=ts,
        flow_id="f1",
        method="GET",
        url="http://origin.example/page",
        request_headers=(),
        response_status=200,
        response_headers=response_headers,
        response_body=b"" if encrypted else body,
        is_encrypted=encrypted,
    )


def fresh_injector(seed=0):
    return Injector(zone="tracker.test", static_label="pixel", seed=seed)


def inject_record(injector, exchange):
    """``exchange`` through ``injector``, as a record and its tags."""
    headers, body, tags = injector.inject(
        exchange.response_headers, exchange.response_body, exchange.exchange_id, exchange.timestamp
    )
    return dataclasses.replace(exchange, response_headers=headers, response_body=body), tags


def tagged(exchange):
    return bool(inject_record(fresh_injector(), exchange)[1])


HTML = b"<html><head></head><body>x</body></html>"


class TestIsTaggable:
    def test_non_html_mime(self):
        assert not tagged(make_exchange(b"\xff\xd8", "image/jpeg"))

    def test_already_marked(self):
        injector = fresh_injector()
        rewritten, _ = inject_record(injector, make_exchange(HTML))
        assert inject_record(injector, rewritten)[1] == []

    def test_html_without_body_element(self):
        assert not tagged(make_exchange(b"<p>fragment</p>"))

    def test_body_with_attributes(self):
        assert tagged(make_exchange(b'<HTML><BODY class="a">x</BODY></HTML>'))

    def test_compressed_body_passthrough(self):
        exchange = make_exchange(b"<body>x</body>", headers=(("Content-Encoding", "gzip"),))
        assert not tagged(exchange)


class TestInject:
    def test_minimal_page_gains_both_beacons(self):
        injector = fresh_injector()
        rewritten, tags = inject_record(injector, make_exchange(b"<html><body>x</body></html>"))
        body = rewritten.response_body
        assert body.count(b"<img ") == 2
        assert b"pixel.tracker.test" in body
        assert [tag.kind for tag in tags] == [STATIC, DYNAMIC]
        dynamic = tags[1]
        assert dynamic.url == f"http://{dynamic.subdomain}.tracker.test/p.gif"
        assert dynamic.subdomain != "pixel"
        # inserted immediately before the closing body tag
        assert body.index(b"<img ") < body.index(b"</body>")
        assert b'width="1" height="1"' in body

    def test_not_taggable_byte_identical(self):
        injector = fresh_injector()
        exchange = make_exchange(b"GIF89a", "image/gif")
        headers, body, tags = injector.inject(
            exchange.response_headers, exchange.response_body, "x1", 1.0
        )
        assert headers is exchange.response_headers
        assert body is exchange.response_body
        assert tags == []
        assert injector.counter == 0

    def test_idempotent(self):
        injector = fresh_injector()
        once, _ = inject_record(injector, make_exchange(HTML))
        twice, tags = inject_record(injector, once)
        assert twice == once
        assert tags == []

    def test_unclosed_body_appends(self):
        injector = fresh_injector()
        rewritten, tags = inject_record(injector, make_exchange(b"<body><p>never closed"))
        assert tags
        assert rewritten.response_body.startswith(b"<body><p>never closed")
        assert rewritten.response_body.endswith(b"-->")

    def test_content_length_updated(self):
        injector = fresh_injector()
        rewritten, _ = inject_record(injector, make_exchange(HTML))
        assert rewritten.header("content-length") == str(len(rewritten.response_body))

    def test_length_pair_table_is_emptied_when_full(self, monkeypatch):
        monkeypatch.setattr(inject, "_LENGTH_PAIRS_SIZE", 2)
        injector = fresh_injector()
        sizes = []
        for n in range(5):  # five pages of five lengths
            rewritten, _ = inject_record(injector, make_exchange(HTML + b" " * n))
            assert rewritten.header("content-length") == str(len(rewritten.response_body))
            sizes.append(len(injector._length_pairs))
        assert sizes == [1, 2, 1, 2, 1]

    def test_reversible(self):
        injector = fresh_injector()
        for body in (HTML, b"<body>no close", b"<body>a</body><p>t</p></body>"):
            rewritten, _ = inject_record(injector, make_exchange(body))
            assert strip_injected(rewritten.response_body) == body

    def test_scenario_tag_count_equals_taggable_count(self):
        injector = fresh_injector()
        rng = random.Random(7)
        taggable = 0
        issued = []
        for i in range(688):
            if rng.random() < 0.4:
                exchange = make_exchange(HTML)
                taggable += 1
            else:
                exchange = make_exchange(b"data", "text/plain")
            issued.extend(inject_record(injector, exchange)[1])
        dynamic_issued = sum(1 for tag in issued if tag.kind == DYNAMIC)
        assert dynamic_issued == taggable


class TestGenerateSubdomain:
    def test_successive_calls_distinct(self):
        injector = fresh_injector()
        assert injector.generate_subdomain() != injector.generate_subdomain()

    def test_deterministic_for_seed_and_counter(self):
        assert fresh_injector(seed=5).generate_subdomain() == fresh_injector(
            seed=5
        ).generate_subdomain()

    def test_ten_thousand_distinct(self):
        injector = fresh_injector()
        labels = {injector.generate_subdomain() for _ in range(10_000)}
        assert len(labels) == 10_000
        assert all(len(label) <= 32 and label.isalnum() and label.islower() for label in labels)


class TestZone:
    @pytest.mark.parametrize(
        "zone", ["bad zone!.", "", "a..b", "x" * 64 + ".test", "tracker.test\n"]
    )
    def test_invalid_zone_rejected(self, zone):
        with pytest.raises(ValueError, match="invalid zone"):
            Injector(zone=zone)

    @pytest.mark.parametrize("label", ["pixel\n", "", "-pixel", "a.b", "x" * 64])
    def test_invalid_static_label_rejected(self, label):
        with pytest.raises(ValueError, match="invalid static label"):
            Injector(zone="tracker.test", static_label=label)

    def test_zone_is_normalized(self):
        injector = Injector(zone="Tracker.TEST.")
        assert injector.beacon_url("pixel") == "http://pixel.tracker.test/p.gif"


body_st = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda pre, mid, post: b"<html><body>" + mid + b"</body></html>",
        st.just(b""),
        st.binary(max_size=200).filter(lambda b: b"<!--bx" not in b and b"</body" not in b.lower()),
        st.just(b""),
    ),
)


class TestProperties:
    @settings(max_examples=300)
    @given(body_st, st.sampled_from(["text/html", "image/png", "text/plain"]))
    def test_inject_idempotent_and_consistent(self, body, content_type):
        injector = fresh_injector()
        exchange = make_exchange(body, content_type)
        once, tags = inject_record(injector, exchange)
        twice, tags2 = inject_record(injector, once)
        assert twice == once
        assert tags2 == []
        if content_type != "text/html":
            assert once.response_body == exchange.response_body
        if tags:
            assert once.header("content-length") == str(len(once.response_body))
            assert strip_injected(once.response_body) == exchange.response_body

    def test_dynamic_labels_unique_across_run(self):
        injector = fresh_injector()
        issued = []
        for _ in range(500):
            issued.extend(inject_record(injector, make_exchange(HTML))[1])
        dynamic = [tag.subdomain for tag in issued if tag.kind == DYNAMIC]
        assert len(set(dynamic)) == len(dynamic) == 500


class TestTagLogAndRewrite:
    def test_tag_log_round_trip(self, tmp_path):
        _, tags = inject_record(fresh_injector(), make_exchange(HTML))
        path = str(tmp_path / "tags.csv")
        write_tag_log(tags, path)
        assert read_tag_log(path) == tags

    def test_file_to_file_rewrite(self, tmp_path):
        in_path = str(tmp_path / "in.jsonl")
        out_path = str(tmp_path / "out.jsonl")
        tag_path = str(tmp_path / "tags.csv")
        write_exchange_log(
            [make_exchange(HTML), make_exchange(b"x", "text/plain")], in_path
        )
        count, tag_count = rewrite_log(in_path, out_path, tag_path, fresh_injector())
        assert (count, tag_count) == (2, 2)
        rewritten = read_exchange_log(out_path)
        assert b"<img " in rewritten[0].response_body
        assert rewritten[1].response_body == b"x"


# Injector.inject as it was when it built the whole block on every call:
# the reference for the block built once.
_REF_BODY_OPEN_RE = re.compile(rb"<body[\s>]", re.IGNORECASE)
_REF_BODY_CLOSE_RE = re.compile(rb"</body\s*>", re.IGNORECASE)


def _reference_image_element(url):
    return (
        f'<img src="{url}" width="1" height="1" '
        f'style="position:absolute;visibility:hidden" alt="">'
    )


def _reference_taggable(exchange):
    if exchange.is_encrypted or mime_type(exchange) != "text/html":
        return False
    encoding = exchange.header("content-encoding")
    if encoding is not None and encoding.strip().lower() not in ("", "identity"):
        return False
    body = exchange.response_body
    return MARKER_BEGIN.encode() not in body and _REF_BODY_OPEN_RE.search(body) is not None


def _reference_set_content_length(headers, length):
    out = []
    replaced = False
    for pair in headers:
        if pair[0].lower() == "content-length":
            if not replaced:
                out.append((pair[0], str(length)))
                replaced = True
        else:
            out.append(pair)
    if not replaced:
        out.append(("Content-Length", str(length)))
    return tuple(out)


def _reference_inject(injector, exchange):
    if not _reference_taggable(exchange):
        return exchange, []
    dynamic_label = injector.generate_subdomain()
    static_url = injector.beacon_url(injector.static_label)
    dynamic_url = injector.beacon_url(dynamic_label)
    block = (
        MARKER_BEGIN
        + _reference_image_element(static_url)
        + _reference_image_element(dynamic_url)
        + MARKER_END
    ).encode("ascii")
    body = exchange.response_body
    closes = list(_REF_BODY_CLOSE_RE.finditer(body))
    if closes:
        at = closes[-1].start()
        new_body = body[:at] + block + body[at:]
    else:
        new_body = body + block
    rewritten = dataclasses.replace(
        exchange,
        response_headers=_reference_set_content_length(exchange.response_headers, len(new_body)),
        response_body=new_body,
    )
    tags = [
        Tag(STATIC, injector.static_label, static_url, exchange.exchange_id, exchange.timestamp),
        Tag(DYNAMIC, dynamic_label, dynamic_url, exchange.exchange_id, exchange.timestamp),
    ]
    return rewritten, tags


_BODY_PIECES = [
    b"<html>", b"<body>", b"<BODY class=x>", b"<body\t>", b"<bodyx>", b"</body>", b"</BODY >",
    b"</Body\r\n\t>", b"</body", b"</bodyx>", b"</ body>", b"<p>text</p>", b"\xff\x00", b"<", b">",
    MARKER_BEGIN.encode(), MARKER_END.encode(), b"<!--bx:", b"</html>",
]
_body_st = st.lists(st.sampled_from(_BODY_PIECES) | st.binary(max_size=8), max_size=12).map(b"".join)
_field_st = st.sampled_from([
    ("Content-Type", "text/html"), ("content-type", "TEXT/HTML; charset=utf-8"),
    ("Content-Type", " text/html ;x"), ("Content-Type", "text/plain"), ("Content-Type", ""),
    ("Content-Length", "1"), ("CONTENT-LENGTH", "99"), ("content-length", ""),
    ("Content-Encoding", "gzip"), ("Content-Encoding", " Identity "), ("content-encoding", ""),
    ("X-Other", "text/html"),
])


class TestBlockBuiltOnce:
    @settings(max_examples=400)
    @given(
        _body_st,
        st.lists(_field_st, max_size=6).map(tuple),
        st.sampled_from(["tracker.test", "Tracker.TEST."]),
        st.sampled_from(["pixel", "p-1"]),
        st.integers(0, 3),
    )
    def test_same_body_headers_and_tags_as_the_reference(self, body, headers, zone, label, seed):
        injector = Injector(zone=zone, static_label=label, seed=seed)
        reference = Injector(zone=zone, static_label=label, seed=seed)
        exchange = HttpExchange(
            "x7", 2.5, "f7", "GET", "http://o.test/", (), 200, headers, body, False, {"n": 1}
        )
        for _ in range(2):  # the second pass meets the block of the first
            rewritten, tags = inject_record(injector, exchange)
            expected, expected_tags = _reference_inject(reference, exchange)
            assert rewritten == expected
            assert rewritten.response_headers == expected.response_headers
            assert tags == expected_tags
            assert injector.counter == reference.counter
            assert bool(tags) == _reference_taggable(exchange)
            exchange = rewritten

    def test_cases_named(self):
        injector, reference = fresh_injector(), fresh_injector()
        html = (("Content-Type", "text/html"),)
        for body, headers in [
            (b"<html><BODY>a</BODY >b</body>c</html>", html + (("Content-Length", "1"),)),
            (b"<body>no close tag", html),
            (b"<body>a</BODY>b</body\n>c</bodyx></body", html),  # the last "</body" is no tag
            (b"<p>no body element</p></body>", html),
            (b"<body>x</body>", html + (("Content-Length", "1"), ("X", "y"), ("content-length", "2"))),
        ]:
            exchange = make_exchange(b"", headers=())
            exchange = dataclasses.replace(exchange, response_headers=headers, response_body=body)
            assert inject_record(injector, exchange) == _reference_inject(reference, exchange)
