import os
import signal
import socket
import subprocess
import sys
import threading
from types import SimpleNamespace
from unittest import mock
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beaconlab
from beaconlab import dnssim
from beaconlab.dnssim import (
    DnsQueryRecord,
    DnsResponder,
    QCLASS_IN,
    QTYPE_A,
    QUERY_LOG,
    RCODE_NOERROR,
    RCODE_REFUSED,
    WildcardResolver,
    ZoneConfig,
    build_response,
    encode_name,
    encode_query,
    is_valid_name,
    normalize_name,
    parse_answer_address,
    parse_query,
    read_query_log,
    url_host,
    write_query_log,
)

CONFIG = ZoneConfig(zone="attacker.test", payload_address="192.0.2.7")


class TestResolve:
    def test_wildcard_subdomain(self):
        resolver = WildcardResolver(CONFIG)
        assert resolver.resolve("abc123.attacker.test", "src1", 1.0) == "192.0.2.7"
        assert len(resolver.log) == 1

    def test_zone_apex(self):
        resolver = WildcardResolver(CONFIG)
        assert resolver.resolve("attacker.test", "src1", 1.0) == "192.0.2.7"

    def test_out_of_zone_refused_and_unlogged(self):
        resolver = WildcardResolver(CONFIG)
        assert resolver.resolve("other.example", "src1", 1.0) is None
        assert resolver.log == []

    def test_invalid_name_refused_and_unlogged(self):
        resolver = WildcardResolver(CONFIG)
        assert resolver.resolve("bad..attacker.test", "src1", 1.0) is None
        assert resolver.resolve("", "src1", 1.0) is None
        assert resolver.log == []

    def test_suffix_match_requires_label_boundary(self):
        resolver = WildcardResolver(CONFIG)
        assert resolver.resolve("notattacker.test", "src1", 1.0) is None

    def test_normalization(self):
        resolver = WildcardResolver(CONFIG)
        resolver.resolve("A.Attacker.Test.", "src1", 1.0)
        resolver.resolve("a.attacker.test", "src2", 2.0)
        assert {record.name for record in resolver.log} == {"a.attacker.test"}

    def test_a_normalized_name_is_logged_as_the_asked_string(self):
        resolver = WildcardResolver(CONFIG)
        asked = ["".join(("a.", zone)) for zone in ("attacker.test", "Attacker.test", "attacker.test.")]
        for name in asked:
            resolver.resolve(name, "src1", 1.0)
        assert [record.name for record in resolver.log] == ["a.attacker.test"] * 3
        assert resolver.log[0].name is asked[0]
        assert resolver.log[1].name is not asked[1] and resolver.log[2].name is not asked[2]

    def test_wildcard_totality_and_log_completeness(self):
        resolver = WildcardResolver(CONFIG)
        answered = 0
        for i in range(200):
            if resolver.resolve(f"sub{i}.attacker.test", "src", float(i)) is not None:
                answered += 1
        assert answered == 200 == len(resolver.log)


def _padded(length: int, zone: str = "attacker.test") -> str:
    """A name in ``zone`` of exactly ``length`` characters, in labels of up
    to 63 characters."""
    labels = []
    room = length - len(zone)
    while room > 0:
        size = min(63, room - 1) or 1
        labels.append("x" * size)
        room -= size + 1
    return ".".join(labels + [zone])[-length:]


# Labels around every rule of the name check: case, hyphens at either end,
# underscores, empty labels, 63 and 64 characters, a newline, a non-ASCII
# letter and "\u212a" (KELVIN SIGN), which lowercases to an ASCII "k".
_label_st = st.text(st.sampled_from("aZ09-_\u212aé\n"), max_size=6) | st.sampled_from(
    ["", "-a", "a-", "_", "x" * 63, "x" * 64, "attacker", "test", "ATTACKER"]
)
_name_st = st.builds(
    lambda labels, zone, end: ".".join(labels + zone) + end,
    st.lists(_label_st, max_size=4),
    st.sampled_from([[], ["attacker", "test"], ["Attacker", "TEST"], ["test"], ["xattacker", "test"]]),
    st.sampled_from(["", ".", "..", "\n", ".\n"]),
) | st.sampled_from([_padded(n) for n in (252, 253, 254)] + [_padded(253).upper() + "."])


class TestResolveOnePatternCheck:
    """resolve answers exactly the names that are valid and in the zone
    once normalized, and logs exactly those."""

    def _check(self, name):
        resolver = WildcardResolver(CONFIG)
        normalized = normalize_name(name)
        expected = is_valid_name(normalized) and resolver.in_zone(normalized)
        answer = resolver.resolve(name, "src", 1.0)
        assert answer == (CONFIG.payload_address if expected else None)
        assert resolver.log == ([DnsQueryRecord(normalized, "src", 1.0)] if expected else [])

    @pytest.mark.parametrize("name", [
        "attacker.test", "ATTACKER.test.", "attacker.test\n", "a.attacker.test\n", "\u212a.attacker.test",
        _padded(253), _padded(254), _padded(253) + ".", "x" * 63 + ".attacker.test",
        "x" * 64 + ".attacker.test", "-a.attacker.test", "a-.attacker.test", "_a_.attacker.test",
        "a..attacker.test", ".attacker.test", "", ".", "notattacker.test",
    ])
    def test_edges(self, name):
        self._check(name)

    @settings(max_examples=300)
    @given(_name_st)
    def test_agrees_with_the_label_and_zone_checks(self, name):
        self._check(name)

    def test_lengths_of_the_padded_names(self):
        assert [len(_padded(n)) for n in (252, 253, 254)] == [252, 253, 254]
        assert is_valid_name(_padded(253)) and not is_valid_name(_padded(254))
        assert WildcardResolver(CONFIG).resolve(_padded(253), "src", 1.0) is not None


class TestQueryLog:
    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "dns.csv")
        log = [DnsQueryRecord("a.attacker.test", "10.0.0.1", 1.25)]
        write_query_log(log, path)
        assert read_query_log(path) == log


class TestNames:
    def test_normalize(self):
        assert normalize_name("A.B.C.") == "a.b.c"

    @pytest.mark.parametrize("name", ["a.b.c", "x1.feedback.test", "", "10.0.0.1"])
    def test_a_normalized_name_is_returned_itself(self, name):
        name = "".join(list(name))  # a string of its own, not a shared constant
        assert normalize_name(name) is name

    @pytest.mark.parametrize(
        "name,valid",
        [
            ("a.b", True),
            ("sub-1.zone.test", True),
            ("", False),
            ("-bad.zone", False),
            ("a." + "x" * 64, False),
            ("a.b\n", False),
            ("pixel\n.tracker.test", False),
        ],
    )
    def test_validity(self, name, valid):
        assert is_valid_name(name) is valid


def _urlsplit_host(url: str) -> str:
    """What url_host gives, all through urlsplit."""
    return normalize_name(urlsplit(url).hostname or "")


def _assert_same_host(url: str) -> None:
    try:
        expected = _urlsplit_host(url)
    except ValueError:
        with pytest.raises(ValueError):
            url_host(url)
    else:
        assert url_host(url) == expected


# URLs that reach both paths of url_host: mostly plain http, with upper
# case, trailing dots, ports, userinfo, and at most one character that
# urlsplit treats specially or that is not ASCII, NFKC forms holding a
# delimiter included. Arbitrary text after "http://" as well.
_PLAIN = st.text(st.sampled_from("aZz09.-_"), max_size=5)
_SPECIAL_CHARS = ["@", ":", "[", "]", "%", "\\", "\t", "\r", "\n", " ", "é", "İ", "Ａ", "\u2100", "\uff03"]
_SPECIAL = st.sampled_from(["", ""] + _SPECIAL_CHARS)
_URLS = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["http://"] * 6 + ["HTTP://", "Http://", "https://", "http:/", ""]),
        st.sampled_from(["", "", "", "", "user@", "u:p@"]),
        _PLAIN,
        _SPECIAL,
        _PLAIN,
        st.sampled_from(["", "", "", "", ".", "..", ":80", ":x"]),
        st.sampled_from(["", "/", "/p.gif", "?q=a:b", "#f@x", "/a?b#c", "/\tx", "\\y"]),
    ),
) | st.text(max_size=12).map("http://".__add__)


class TestUrlHost:
    @pytest.mark.parametrize("url, host", [
        ("http://Pixel.Feedback.TEST./p.gif", "pixel.feedback.test"),
        ("http://d1.z.test?x", "d1.z.test"),
        ("http://u@d1.z.test:81/", "d1.z.test"),
        ("HTTP://D1.Z.TEST/", "d1.z.test"),
        ("http:///p.gif", ""),
        ("http://a%Z.z.test/", "a%z.z.test"),
        ("http://a.z.test:80/", "a.z.test"),
        ("http://[::1]/", "::1"),
        ("http://a\t.Z/", "a.z"),
        ("http://a\\b.Z/", "a\\b.z"),
        ("http://É.z/", "é.z"),
    ])
    def test_examples(self, url, host):
        assert url_host(url) == host == _urlsplit_host(url)

    @pytest.mark.parametrize("char", _SPECIAL_CHARS)
    def test_one_special_character(self, char):
        _assert_same_host(f"http://a{char}B.z./p.gif")

    def test_rejects_what_urlsplit_rejects(self):
        with pytest.raises(ValueError):
            url_host("http://[abc/p.gif")

    @settings(max_examples=300)
    @given(_URLS)
    def test_fast_path_gives_the_urlsplit_label(self, url):
        _assert_same_host(url)


class TestWireFormat:
    def test_query_round_trip(self):
        packet = encode_query(0x1234, "img.attacker.test")
        txid, labels, qtype, question = parse_query(packet)
        assert (txid, labels, qtype) == (0x1234, [b"img", b"attacker", b"test"], QTYPE_A)
        assert question == packet[12:]

    def test_a_label_that_holds_a_dot_stays_one_label(self):
        dotted = encode_query(1, "")[:12] + _name([b"pixel.feedback", b"test"]) + b"\x00\x01\x00\x01"
        assert parse_query(dotted)[1] == [b"pixel.feedback", b"test"]
        assert parse_query(encode_query(1, "pixel.feedback.test"))[1] == [b"pixel", b"feedback", b"test"]

    def test_garbage_rejected(self):
        assert parse_query(b"\x00\x01") is None

    @pytest.mark.parametrize("name", ["", ".", "..."])
    def test_root_encodes_as_one_zero_octet(self, name):
        assert encode_name(name) == b"\x00"

    def test_longest_label_and_name_encode(self):
        assert encode_name("x" * 63 + ".z") == b"\x3f" + b"x" * 63 + b"\x01z\x00"
        name = ".".join(["x" * 63] * 3 + ["x" * 61])  # 253 characters, 255 octets
        assert len(encode_name(name)) == 255
        assert b".".join(parse_query(encode_query(1, name))[1]) == name.encode("ascii")

    @pytest.mark.parametrize(
        "name",
        [
            "a..b",  # empty interior label
            ".a",  # empty first label
            "x" * 64 + ".z",  # label over 63 octets
            ".".join(["x" * 63] * 3 + ["x" * 62]),  # 254 characters, 256 octets
        ],
        ids=["empty_label", "empty_first_label", "label_64", "name_256_octets"],
    )
    def test_name_without_a_wire_form_rejected(self, name):
        with pytest.raises(ValueError):
            encode_name(name)


def _name(labels):
    return b"".join(bytes([len(label)]) + label for label in labels) + b"\x00"


def _reference_reply(responder, packet, source, now):
    """handle_packet's reply and log record (None for none), composed from
    the public wire helpers and the resolver's own name checks, plus the
    wire rule that no label may hold a dot."""
    if len(packet) < 12 or packet[2] & 0xF8 or packet[4:6] != b"\x00\x01":
        return None, None
    parsed = parse_query(packet)
    if parsed is None:
        return None, None
    txid, labels, qtype, question = parsed
    qclass = int.from_bytes(question[-2:], "big")
    normalized = normalize_name(b".".join(labels).decode("ascii", errors="replace"))
    if (
        qclass != QCLASS_IN
        or any(b"." in label for label in labels)
        or not is_valid_name(normalized)
        or not responder.resolver.in_zone(normalized)
    ):
        return build_response(txid, question, RCODE_REFUSED), None
    if qtype != QTYPE_A:
        return build_response(txid, question, RCODE_NOERROR), None
    config = responder.config
    reply = build_response(
        txid, question, RCODE_NOERROR, address=config.payload_address, ttl=config.ttl_seconds
    )
    return reply, DnsQueryRecord(normalized, source, now)


def _reply_as_reference(responder, packet, source="10.0.0.1"):
    """handle_packet's reply, after asserting that it and the log record it
    appends equal the reference's."""
    now = 1_700_000_000.25
    log = responder.resolver.log
    before = len(log)
    with mock.patch.object(dnssim, "time", SimpleNamespace(time=lambda: now)):
        reply = responder.handle_packet(packet, source)
    expected_reply, expected_record = _reference_reply(responder, packet, source, now)
    assert reply == expected_reply
    assert log[before:] == ([] if expected_record is None else [expected_record])
    return reply


# Arbitrary bytes; well-formed queries in and out of the zone; and packets
# shaped like a query: a standard or arbitrary header, labels (plain,
# arbitrary or longer than 63) with or without the zone after them, then a
# type and class (IN, CH or ANY), or a short or long tail.
_PACKETS = st.one_of(
    st.binary(max_size=64),
    st.builds(
        encode_query,
        st.integers(0, 0xFFFF),
        st.from_regex(
            r"[a-zA-Z0-9_-]{1,8}\.(attacker\.test|ATTACKER\.test|example)", fullmatch=True
        ),
        st.sampled_from([QTYPE_A, 16, 28]),
    ),
    st.builds(
        lambda header, labels, zone, tail: header + _name(labels + zone) + tail,
        st.one_of(st.just(encode_query(7, "")[:12]), st.binary(min_size=12, max_size=12)),
        st.lists(
            st.one_of(st.sampled_from([b"pixel", b"D1", b"a.b", b""]), st.binary(max_size=70)),
            max_size=3,
        ),
        st.sampled_from([[], [b"attacker", b"test"], [b"ATTACKER", b"Test"]]),
        st.one_of(
            st.sampled_from([
                b"\x00\x01\x00\x01", b"\x00\x10\x00\x01", b"\x00\x01\x00\x03", b"\x00\x01\x00\xff"
            ]),
            st.binary(max_size=6),
        ),
    ),
)


class TestArbitraryPackets:
    @settings(max_examples=400)
    @given(_PACKETS)
    def test_parse_query_gives_none_or_a_question_sliced_from_the_packet(self, packet):
        parsed = parse_query(packet)
        if parsed is None:
            return
        txid, labels, qtype, question = parsed
        assert txid == int.from_bytes(packet[:2], "big")
        assert all(isinstance(label, bytes) for label in labels) and 0 <= qtype <= 0xFFFF
        assert question == packet[12 : 12 + len(question)]
        assert question[:-4] == _name(labels)  # the labels are the name's, unjoined
        assert question[-4:-2] == qtype.to_bytes(2, "big")

    @pytest.fixture(scope="class")
    def responder(self):
        responder = DnsResponder(CONFIG, port=0)
        yield responder
        responder.stop()

    @settings(max_examples=400)
    @given(packet=_PACKETS)
    def test_handle_packet_logs_only_in_zone_address_queries(self, responder, packet):
        log = responder.resolver.log
        before = len(log)
        reply = _reply_as_reference(responder, packet)
        assert reply is None or isinstance(reply, bytes)
        if len(log) == before:
            return
        assert len(log) == before + 1
        _, labels, qtype, question = parse_query(packet)
        assert qtype == QTYPE_A
        assert question[-2:] == b"\x00\x01"  # class IN
        assert log[-1].name == normalize_name(b".".join(labels).decode("ascii"))
        assert responder.resolver.in_zone(log[-1].name)
        assert parse_answer_address(reply) == CONFIG.payload_address


def _udp_ask(address, packet, timeout=3.0):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        sock.sendto(packet, address)
        data, _ = sock.recvfrom(4096)
    return data


class TestResponder:
    @pytest.fixture()
    def responder(self):
        responder = DnsResponder(CONFIG, port=0)
        responder.start()
        yield responder
        responder.stop()

    def test_in_zone_address_query(self, responder):
        packet = encode_query(0xBEEF, "uniq1.attacker.test")
        reply = _udp_ask(responder.address, packet)
        assert reply[0:2] == packet[0:2]  # transaction id echoed
        assert reply[12 : 12 + len(packet) - 12] == packet[12:]  # question echoed
        assert parse_answer_address(reply) == "192.0.2.7"
        assert len(responder.resolver.log) == 1
        assert responder.resolver.log[0].name == "uniq1.attacker.test"

    def test_out_of_zone_refused(self, responder):
        reply = _udp_ask(responder.address, encode_query(1, "nope.example"))
        assert reply[3] & 0x0F == RCODE_REFUSED
        assert parse_answer_address(reply) is None
        assert responder.resolver.log == []

    @pytest.mark.parametrize(
        "qclass, rcode, logged", [(1, RCODE_NOERROR, 1), (3, RCODE_REFUSED, 0), (255, RCODE_REFUSED, 0)],
        ids=["in", "chaos", "any"],
    )
    def test_only_class_in_is_answered_and_logged(self, responder, qclass, rcode, logged):
        reply = _udp_ask(responder.address, _question([b"pixel", b"attacker", b"test"], qclass=qclass))
        assert reply[3] & 0x0F == rcode
        assert reply[6:8] == logged.to_bytes(2, "big")  # ANCOUNT
        assert len(responder.resolver.log) == logged

    def test_non_address_type_gets_no_answer(self, responder):
        reply = _udp_ask(responder.address, encode_query(2, "x.attacker.test", qtype=16))
        assert reply[3] & 0x0F == RCODE_NOERROR
        assert parse_answer_address(reply) is None

    def test_configured_ttl_in_answer(self):
        responder = DnsResponder(
            ZoneConfig(zone="attacker.test", payload_address="192.0.2.7", ttl_seconds=60),
            port=0,
        )
        responder.start()
        try:
            reply = _udp_ask(responder.address, encode_query(3, "t.attacker.test"))
            question_len = len(encode_query(3, "t.attacker.test")) - 12
            ttl = int.from_bytes(reply[12 + question_len + 6 : 12 + question_len + 10], "big")
            assert ttl == 60
        finally:
            responder.stop()


    def test_stop_without_start_closes_the_socket(self, tmp_path):
        log = QUERY_LOG.appender(str(tmp_path / "dns_queries.csv"))
        responder = DnsResponder(CONFIG, port=0, log=log)
        stopper = threading.Thread(target=responder.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        # the port is free again, so the responder's socket is closed
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(responder.address)
        # the log is the caller's to close, and still open
        log.append(DnsQueryRecord("a.attacker.test", "10.0.0.1", 1.0))
        log.close()
        assert len(read_query_log(str(tmp_path / "dns_queries.csv"))) == 1


def _with_header(packet, flags=None, qdcount=None):
    header = bytearray(packet)
    if flags is not None:
        header[2:4] = flags.to_bytes(2, "big")
    if qdcount is not None:
        header[4:6] = qdcount.to_bytes(2, "big")
    return bytes(header)


class TestNonStandardPackets:
    QUERY = encode_query(7, "pixel.attacker.test")

    @pytest.fixture()
    def responder(self):
        responder = DnsResponder(CONFIG, port=0)
        responder.start()
        yield responder
        responder.stop()

    @pytest.mark.parametrize(
        "packet",
        [
            _with_header(QUERY, flags=0x8100),  # QR=1: a response
            _with_header(QUERY, flags=0x1100),  # OPCODE=2: a status request
            _with_header(QUERY, qdcount=0),
            _with_header(QUERY, qdcount=2),
        ],
        ids=["response", "opcode_status", "no_question", "two_questions"],
    )
    def test_ignored_without_reply_or_log(self, responder, packet):
        assert responder.handle_packet(packet, "10.0.0.1") is None
        assert responder.resolver.log == []


def _question(labels, qtype=QTYPE_A, qclass=QCLASS_IN):
    return (
        encode_query(0x2B2B, "x")[:12]
        + _name(labels)
        + qtype.to_bytes(2, "big")
        + qclass.to_bytes(2, "big")
    )


def _outcome(reply) -> str:
    if reply is None:
        return "ignored"
    if reply[3] & 0x0F == RCODE_REFUSED:
        return "refused"
    return "answered" if reply[6:8] == b"\x00\x01" else "no_answer"


ZONE_LABELS = [b"attacker", b"test"]


class TestOnePassReplies:
    """handle_packet against the reference at the edges of the name rules."""

    @pytest.fixture(scope="class")
    def responder(self):
        # a TTL and payload other than the defaults, to show the precomputed answer
        config = ZoneConfig(
            zone="attacker.test", payload_address="198.51.100.23", ttl_seconds=3600
        )
        responder = DnsResponder(config, port=0)
        yield responder
        responder.stop()

    @pytest.mark.parametrize(
        "packet, outcome",
        [
            (_question([b"a" * 63] + ZONE_LABELS), "answered"),
            (_question([b"a" * 64] + ZONE_LABELS), "ignored"),
            # 47 + 3 * 63 octets of labels, the zone and 5 dots: 253 characters
            (_question([b"b" * 47] + [b"a" * 63] * 3 + ZONE_LABELS), "answered"),
            (_question([b"b" * 48] + [b"a" * 63] * 3 + ZONE_LABELS), "refused"),
            (_question([b"a.b"] + ZONE_LABELS), "refused"),
            (_question([b"pixel.attacker", b"test"]), "refused"),
            (_question([b"PiXeL", b"ATTACKER", b"Test"]), "answered"),
            (_question([b"x", b"attacker", b"test."]), "refused"),
            (_question([b"x"] + ZONE_LABELS + [b"."]), "refused"),
            (_question(ZONE_LABELS), "answered"),
            (_question([b"pixel\n"] + ZONE_LABELS), "refused"),
            (_question([b"pix\xffel"] + ZONE_LABELS), "refused"),
            (_question([b"-x"] + ZONE_LABELS), "refused"),
            (_question([b"notattacker", b"test"]), "refused"),
            (_question([b"x", b"example"]), "refused"),
            (_question([b"x"] + ZONE_LABELS + [b"example"]), "refused"),
            (_question([b"x", b"attacker", b"testy"]), "refused"),
            (_question([b"x"] + ZONE_LABELS, qtype=28), "no_answer"),
            (_question([b"x"] + ZONE_LABELS, qtype=16), "no_answer"),
            (_question([b"x"] + ZONE_LABELS, qtype=255), "no_answer"),
            (_question([b"x", b"example"], qtype=28), "refused"),
            (_question([b"pixel"] + ZONE_LABELS, qclass=1), "answered"),
            (_question([b"pixel"] + ZONE_LABELS, qclass=3), "refused"),
            (_question([b"pixel"] + ZONE_LABELS, qclass=255), "refused"),
            (_question([b"pixel"] + ZONE_LABELS, qclass=0x0101), "refused"),
            (_question([b"x"] + ZONE_LABELS, qtype=16, qclass=3), "refused"),
            (_with_header(_question([b"x"] + ZONE_LABELS), flags=0x8100), "ignored"),
            (_with_header(_question([b"x"] + ZONE_LABELS), flags=0x1100), "ignored"),
            (_with_header(_question([b"x"] + ZONE_LABELS), qdcount=0), "ignored"),
            (_with_header(_question([b"x"] + ZONE_LABELS), qdcount=2), "ignored"),
            (_question([b"x"] + ZONE_LABELS)[:-1], "ignored"),
            (_question([b"x"] + ZONE_LABELS)[:-5], "ignored"),
            (encode_query(1, "x")[:11], "ignored"),
        ],
        ids=[
            "label_63", "label_64", "name_253", "name_254", "label_with_dot", "dot_in_zone_label",
            "upper_case", "last_label_ends_in_dot", "dot_label", "apex", "newline_label", "non_ascii",
            "leading_hyphen", "no_label_boundary", "out_of_zone", "zone_not_last",
            "zone_label_longer", "aaaa", "txt", "any",
            "aaaa_out_of_zone", "class_in", "class_chaos", "class_any", "class_257",
            "txt_chaos", "response", "opcode_status", "no_question", "two_questions",
            "short_question", "unterminated_name", "short_header",
        ],
    )
    def test_edges_equal_the_reference(self, responder, packet, outcome):
        assert _outcome(_reply_as_reference(responder, packet)) == outcome

    def test_a_dotted_label_adds_no_static_beacon_hit(self):
        # Joined with dots, each of these questions reads pixel.feedback.test,
        # the static beacon; only the one with plain labels is that name.
        responder = DnsResponder(ZoneConfig("feedback.test", "192.0.2.7"), port=0)
        try:
            outcomes = [
                _outcome(responder.handle_packet(_question(labels), "10.0.0.9"))
                for labels in (
                    [b"pixel", b"feedback", b"test"],
                    [b"pixel.feedback", b"test"],
                    [b"pixel", b"feedback.test"],
                    [b"pixel", b"feedback", b"test."],
                )
            ]
        finally:
            responder.stop()
        assert outcomes == ["answered", "refused", "refused", "refused"]
        assert [record.name for record in responder.resolver.log] == ["pixel.feedback.test"]


class TestQueryLogSink:
    def test_each_record_is_on_disk_before_resolve_returns(self, tmp_path):
        path = str(tmp_path / "dns_queries.csv")
        sink = QUERY_LOG.appender(path)
        resolver = WildcardResolver(CONFIG, sink)
        try:
            for n in range(3):
                assert resolver.resolve(f"d{n}.attacker.test", "10.0.0.1", float(n)) is not None
                assert [r.name for r in read_query_log(path)][-1] == f"d{n}.attacker.test"
            assert resolver.resolve("nope.example", "10.0.0.1", 9.0) is None
            assert len(read_query_log(path)) == 3
        finally:
            sink.close()


def _start_dns(out_dir):
    """`beaconlab dns` as a child process on an ephemeral port; (child, address)."""
    src = os.path.dirname(os.path.dirname(beaconlab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.Popen(
        [sys.executable, "-u", "-m", "beaconlab.cli", "dns", "--zone", "attacker.test",
         "--payload", "192.0.2.7", "--listen", "127.0.0.1:0", "--out", str(out_dir)],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = child.stdout.readline()  # "dns responder on HOST:PORT zone=..."
    assert line.startswith("dns responder on "), line
    host, _, port = line.split()[3].rpartition(":")
    return child, (host, int(port))


def _answer_all(address, names):
    for n, name in enumerate(names):
        assert parse_answer_address(_udp_ask(address, encode_query(n, name))) == "192.0.2.7"


class TestCrashSafeQueryLog:
    def test_answered_queries_survive_sigkill_and_restart(self, tmp_path):
        path = str(tmp_path / "dns_queries.csv")
        first = [f"k{n}.attacker.test" for n in range(5)]
        second = [f"r{n}.attacker.test" for n in range(3)]
        child, address = _start_dns(tmp_path)
        with child:  # closes the child's stdout pipe
            try:
                _answer_all(address, first)
            finally:
                child.kill()
                child.wait(timeout=10)
        assert [r.name for r in read_query_log(path)] == first
        child, address = _start_dns(tmp_path)
        with child:
            try:
                _answer_all(address, second)
            finally:
                child.send_signal(signal.SIGTERM)
                assert child.wait(timeout=10) == 0
        assert [r.name for r in read_query_log(path)] == first + second
        with open(path, encoding="utf-8") as fh:
            assert fh.read().count("timestamp,source,name") == 1


class TestZoneConfig:
    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            ZoneConfig(zone="z.test", payload_address="192.0.2.1", ttl_seconds=-1)

    def test_invalid_zone_rejected(self):
        with pytest.raises(ValueError, match="invalid zone"):
            ZoneConfig(zone="bad..zone", payload_address="192.0.2.1")

    def test_zone_ending_in_newline_rejected(self):
        with pytest.raises(ValueError, match="invalid zone"):
            ZoneConfig(zone="tracker.test\n", payload_address="192.0.2.1")

    @pytest.mark.parametrize("ttl, accepted", [(2**31 - 1, True), (2**31, False), (2**32, False)])
    def test_ttl_at_most_two_to_the_31_minus_one(self, ttl, accepted):
        if accepted:
            assert ZoneConfig(zone="z.test", payload_address="192.0.2.1", ttl_seconds=ttl)
        else:
            with pytest.raises(ValueError, match="ttl_seconds"):
                ZoneConfig(zone="z.test", payload_address="192.0.2.1", ttl_seconds=ttl)

    @pytest.mark.parametrize("address", ["not-an-ip", "", "192.0.2", "256.0.0.1", "::1"])
    def test_payload_must_be_an_ipv4_address(self, address):
        with pytest.raises(ValueError, match="invalid payload address"):
            ZoneConfig(zone="z.test", payload_address=address)
