"""Wildcard DNS oracle for the attacker zone.

Every subdomain of the configured zone resolves to the payload-server
address, and every successful resolution is logged with its source and
timestamp: the DNS log is the primary beacon feedback channel. Runs as an
in-process resolver for simulation and as a real UDP responder for
integration tests. Authoritative-only: out-of-zone names are refused.
"""

from __future__ import annotations

import ipaddress
import re
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import urlsplit

from beaconlab.httplog import CsvLog, LogAppender, finite_time

# One label of a valid name: 1 to 63 of these characters, no hyphen at
# either end. Matched whole (fullmatch), so a trailing newline is no match.
_LABEL = r"[a-z0-9_](?:[a-z0-9_-]{0,61}[a-z0-9_])?"
_LABEL_RE = re.compile(_LABEL)

# Longest valid name in dotted text form (RFC 1035 section 2.3.4).
MAX_NAME_CHARS = 253


def _in_zone_pattern(zone: str) -> str:
    """The pattern whose full match is a valid name in ``zone``, a valid
    normalized name: labels of the _LABEL rule, then the zone. With the
    MAX_NAME_CHARS limit it says what is_valid_name and in_zone say together."""
    return rf"(?:{_LABEL}\.)*{re.escape(zone)}"


QTYPE_A = 1
QCLASS_IN = 1
RCODE_NOERROR = 0
RCODE_REFUSED = 5

# How often the receive loop looks for a shutdown request, in seconds.
POLL_INTERVAL_S = 0.05

# Largest query packet read; a longer one is cut to this length.
MAX_PACKET_BYTES = 8192


class DnsQueryRecord(NamedTuple):
    """One logged resolution: normalized name, source identity, timestamp."""

    name: str
    source: str
    timestamp: float


# DnsQueryRecord(*fields) without the generated __new__'s Python-level call.
_new_record = tuple.__new__


@dataclass(frozen=True)
class ZoneConfig:
    zone: str
    payload_address: str
    ttl_seconds: int = 0

    def __post_init__(self):
        # what build_response could not encode is refused before any query is logged
        if not 0 <= self.ttl_seconds < 2**31:  # RFC 2181 section 8
            raise ValueError("ttl_seconds must lie in [0, 2**31 - 1]")
        if not is_valid_name(normalize_name(self.zone)):
            raise ValueError(f"invalid zone: {self.zone!r}")
        try:
            ipaddress.IPv4Address(self.payload_address)
        except ValueError:
            raise ValueError(f"invalid payload address: {self.payload_address!r}") from None


def normalize_name(name: str) -> str:
    """``name`` lowered, without trailing dots. A name that is already so is
    returned itself, so a record keeps the caller's string, not a copy."""
    normalized = name.lower().rstrip(".")
    return name if normalized == name else normalized


# A plain "http://host" prefix whose host runs to "/", "?", "#" or the end.
# A host with a character urlsplit reads otherwise (userinfo "@", port
# ":", IPv6 brackets) or removes first (tab, CR, LF) does not match, nor
# does a backslash.
_PLAIN_HTTP_HOST = re.compile(r"http://([^/?#@:\[\]\\\t\r\n]*)(?:[/?#]|\Z)")


def url_host(url: str) -> str:
    """The host of a URL as a normalized name: normalize_name of urlsplit's
    hostname, "" if it has none. ValueError where urlsplit rejects the URL.

    A plain http URL with an ASCII host is sliced directly, which gives the
    same name at a sixth of urlsplit's cost; every other URL goes through
    urlsplit.
    """
    match = _PLAIN_HTTP_HOST.match(url)
    if match is not None and match[1].isascii():
        return normalize_name(match[1])
    return normalize_name(urlsplit(url).hostname or "")


def is_valid_name(name: str) -> bool:
    if not name or len(name) > MAX_NAME_CHARS:
        return False
    return all(_LABEL_RE.fullmatch(label) for label in name.split("."))


class WildcardResolver:
    """Authoritative resolver for one zone with an append-only query log.

    The log is a list unless a sink is given, such as a QUERY_LOG appender,
    which writes and flushes each record before resolve returns.
    """

    def __init__(
        self,
        config: ZoneConfig,
        log: list[DnsQueryRecord] | LogAppender[DnsQueryRecord] | None = None,
    ):
        self.config = config
        self.zone = normalize_name(config.zone)
        self.log = [] if log is None else log
        self._lock = threading.Lock()
        self._in_zone_name = re.compile(_in_zone_pattern(self.zone))

    def in_zone(self, name: str) -> bool:
        return name == self.zone or name.endswith("." + self.zone)

    def resolve(self, name: str, source: str, now: float) -> str | None:
        """Answer for an address query; None means refused / no answer.

        In-zone names (apex included) all resolve to the payload address
        and are logged; invalid and out-of-zone names are not logged.
        """
        normalized = normalize_name(name)
        if len(normalized) > MAX_NAME_CHARS or self._in_zone_name.fullmatch(normalized) is None:
            return None
        return self.answer(normalized, source, now)

    def answer(self, name: str, source: str, now: float) -> str:
        """Log ``name`` and return the payload address, checking nothing:
        the caller has normalized ``name`` and found it valid and in zone."""
        record = _new_record(DnsQueryRecord, (name, source, now))
        with self._lock:
            self.log.append(record)
        return self.config.payload_address


# dns_queries.csv: every answered in-zone address query.
QUERY_LOG = CsvLog(
    ("timestamp", "source", "name"),
    lambda row: _new_record(DnsQueryRecord, (row[2], row[1], finite_time(row[0]))),
)
write_query_log = QUERY_LOG.write
read_query_log = QUERY_LOG.read


# --- wire format -----------------------------------------------------------

def encode_name(name: str) -> bytes:
    """``normalize_name(name)`` in wire form; "" is the root. ValueError for
    a name that has no wire form: an empty label, a label over 63 octets or
    more than 255 octets in all (RFC 1035 sections 2.3.4 and 3.1)."""
    out = b""
    normalized = normalize_name(name)
    if normalized:
        for label in normalized.split("."):
            raw = label.encode("ascii")
            if not 0 < len(raw) <= 63:
                raise ValueError(f"label of {len(raw)} octets in {name!r}")
            out += bytes([len(raw)]) + raw
    out += b"\x00"
    if len(out) > 255:
        raise ValueError(f"name of {len(out)} octets: {name!r}")
    return out


def encode_query(txid: int, name: str, qtype: int = QTYPE_A) -> bytes:
    header = struct.pack(">HHHHHH", txid, 0x0100, 1, 0, 0, 0)
    return header + encode_name(name) + struct.pack(">HH", qtype, QCLASS_IN)


def _question(data: bytes) -> tuple[list[bytes], int] | None:
    """The wire labels of the question name that starts at byte 12, and the
    offset of the type and class after it; None for a label over 63 octets,
    or a name, type or class that runs past the end of the packet."""
    end = len(data)
    labels = []
    pos = 12
    while pos < end:
        length = data[pos]
        pos += 1
        if length == 0:
            return (labels, pos) if pos + 4 <= end else None
        if length > 63 or pos + length > end:
            return None
        labels.append(data[pos : pos + length])
        pos += length
    return None


def parse_query(data: bytes) -> tuple[int, list[bytes], int, bytes] | None:
    """(txid, wire labels, qtype, question bytes), or None for an unparsable
    packet. The labels are not joined, so a label that holds a dot stays one."""
    parsed = _question(data)
    if parsed is None:
        return None
    labels, pos = parsed
    qtype = int.from_bytes(data[pos : pos + 2], "big")
    return int.from_bytes(data[:2], "big"), labels, qtype, data[12 : pos + 4]


def build_response(
    txid: int,
    question: bytes,
    rcode: int,
    address: str | None = None,
    ttl: int = 0,
) -> bytes:
    ancount = 1 if address is not None else 0
    flags = 0x8400 | (rcode & 0x0F)  # QR=1, AA=1
    header = struct.pack(">HHHHHH", txid, flags, 1, ancount, 0, 0)
    packet = header + question
    if address is not None:
        packet += struct.pack(">HHHIH", 0xC00C, QTYPE_A, QCLASS_IN, ttl, 4)
        packet += socket.inet_aton(address)
    return packet


def parse_answer_address(data: bytes) -> str | None:
    """Address from the first A answer of a response packet, if any."""
    parsed = _question(data)
    if parsed is None:
        return None
    ancount = struct.unpack(">H", data[6:8])[0]
    if ancount == 0:
        return None
    pos = parsed[1] + 4
    if pos + 12 + 4 > len(data):
        return None
    rdlength = struct.unpack(">H", data[pos + 10 : pos + 12])[0]
    if rdlength != 4:
        return None
    return socket.inet_ntoa(data[pos + 12 : pos + 16])


class DnsResponder:
    """UDP responder answering address queries for one wildcard zone.

    Only standard queries are answered: a packet that is a response, has
    another opcode than QUERY or does not carry exactly one question gets
    no reply and no log record (RFC 1035 section 4.1.1). The zone is an
    Internet-class zone: a question of any other class, CH and ANY
    included, is REFUSED and not logged (RFC 1035 section 3.2.4).
    """

    def __init__(
        self,
        config: ZoneConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        log: list[DnsQueryRecord] | LogAppender[DnsQueryRecord] | None = None,
    ):
        self.resolver = WildcardResolver(config, log)
        self.config = config
        # Valid names in the zone, which ZoneConfig has found valid (so
        # ASCII). Matched on the lowered wire bytes.
        self._in_zone_name = re.compile(_in_zone_pattern(self.resolver.zone).encode("ascii"))
        # Each reply is the query's ID, one of three fixed header remainders,
        # the question, and for an answer one fixed record (RFC 1035 4.1.1).
        self._refused = build_response(0, b"", RCODE_REFUSED)[2:]
        self._no_answer = build_response(0, b"", RCODE_NOERROR)[2:]
        answered = build_response(
            0, b"", RCODE_NOERROR, address=config.payload_address, ttl=config.ttl_seconds
        )
        self._one_answer, self._answer = answered[2:12], answered[12:]
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self._sock.settimeout(POLL_INTERVAL_S)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._stopped = False
        self._thread: threading.Thread | None = None

    def _serve(self) -> None:
        """One receive loop: an answer costs microseconds, less than a thread."""
        while not self._stopped:
            try:
                data, peer = self._sock.recvfrom(MAX_PACKET_BYTES)
            except TimeoutError:
                continue
            try:
                reply = self.handle_packet(data, peer[0])
                if reply is not None:
                    self._sock.sendto(reply, peer)
            except Exception:  # one bad packet or a failed send must not stop the responder
                traceback.print_exc()

    def handle_packet(self, data: bytes, source: str) -> bytes | None:
        """The reply to one query packet, None for no reply; an answered
        query is logged first. One pass: the name is walked by parse_query's
        own walk, then lowered and checked once, as bytes. A label that
        holds a dot is REFUSED: joined, it would read as two labels."""
        # QR and OPCODE are the top five bits of byte 2; QDCOUNT is bytes 4-5
        if len(data) < 12 or data[2] & 0xF8 or data[4:6] != b"\x00\x01":
            return None
        parsed = _question(data)
        if parsed is None:
            return None
        labels, pos = parsed
        question = data[12 : pos + 4]
        name = b".".join(labels).lower()
        if (
            data[pos + 2 : pos + 4] != b"\x00\x01"  # QCLASS other than IN
            or name.count(b".") >= len(labels)  # a label holds a dot
            or len(name) > MAX_NAME_CHARS
            or self._in_zone_name.fullmatch(name) is None
        ):
            return data[:2] + self._refused + question
        if data[pos : pos + 2] != b"\x00\x01":  # QTYPE other than A
            return data[:2] + self._no_answer + question
        self.resolver.answer(name.decode("ascii"), source, time.time())
        return data[:2] + self._one_answer + question + self._answer

    def start(self) -> None:
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop serving and close the socket; the log belongs to the caller."""
        self._stopped = True
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._sock.close()
