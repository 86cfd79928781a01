import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconlab.httplog import HttpExchange
from beaconlab.inject import (
    DYNAMIC,
    STATIC,
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


HTML = b"<html><head></head><body>x</body></html>"


class TestIsTaggable:
    def test_non_html_mime(self):
        assert not fresh_injector().is_taggable(make_exchange(b"\xff\xd8", "image/jpeg"))

    def test_already_marked(self):
        injector = fresh_injector()
        rewritten, _ = injector.inject(make_exchange(HTML))
        assert not injector.is_taggable(rewritten)

    def test_html_without_body_element(self):
        assert not fresh_injector().is_taggable(make_exchange(b"<p>fragment</p>"))

    def test_encrypted(self):
        assert not fresh_injector().is_taggable(make_exchange(b"", encrypted=True))

    def test_body_with_attributes(self):
        assert fresh_injector().is_taggable(make_exchange(b'<HTML><BODY class="a">x</BODY></HTML>'))

    def test_compressed_body_passthrough(self):
        exchange = make_exchange(b"<body>x</body>", headers=(("Content-Encoding", "gzip"),))
        assert not fresh_injector().is_taggable(exchange)


class TestInject:
    def test_minimal_page_gains_both_beacons(self):
        injector = fresh_injector()
        rewritten, tags = injector.inject(make_exchange(b"<html><body>x</body></html>"))
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
        rewritten, tags = injector.inject(exchange)
        assert rewritten is exchange
        assert tags == []
        assert injector.counter == 0

    def test_idempotent(self):
        injector = fresh_injector()
        once, _ = injector.inject(make_exchange(HTML))
        twice, tags = injector.inject(once)
        assert twice == once
        assert tags == []

    def test_unclosed_body_appends(self):
        injector = fresh_injector()
        rewritten, tags = injector.inject(make_exchange(b"<body><p>never closed"))
        assert tags
        assert rewritten.response_body.startswith(b"<body><p>never closed")
        assert rewritten.response_body.endswith(b"-->")

    def test_content_length_updated(self):
        injector = fresh_injector()
        rewritten, _ = injector.inject(make_exchange(HTML))
        assert rewritten.header("content-length") == str(len(rewritten.response_body))

    def test_reversible(self):
        injector = fresh_injector()
        for body in (HTML, b"<body>no close", b"<body>a</body><p>t</p></body>"):
            rewritten, _ = injector.inject(make_exchange(body))
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
            issued.extend(injector.inject(exchange)[1])
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
        once, tags = injector.inject(exchange)
        twice, tags2 = injector.inject(once)
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
            issued.extend(injector.inject(make_exchange(HTML))[1])
        dynamic = [tag.subdomain for tag in issued if tag.kind == DYNAMIC]
        assert len(set(dynamic)) == len(dynamic) == 500


class TestTagLogAndRewrite:
    def test_tag_log_round_trip(self, tmp_path):
        _, tags = fresh_injector().inject(make_exchange(HTML))
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
