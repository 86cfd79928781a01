"""Intercepting HTTP proxy with a local control channel.

Relays explicit HTTP/1.1 proxy requests to their origin and, in active
mode, runs response bodies through the beacon injector before delivery;
passive mode observes and logs without altering anything. CONNECT tunnels
are relayed opaque and logged as encrypted exchanges. A line-oriented
control socket (STATUS / MODE PASSIVE / MODE ACTIVE / SNAPSHOT) stands in
for the operator's command channel.

One asyncio event loop, in one thread, serves the listen socket, the
control socket and every connection. So the injector, the counters and
the logs have a single writer and need no lock. Client and upstream
connections are asyncio Protocols on one framer: each frames heads and
bodies from its own receive buffer as the bytes arrive, and an upstream
exchange ends in one callback, so a request served on a pooled upstream
connection takes no task, no stream reader and no future. Request and
response heads alike end their lines in CRLF, are refused at a bare LF at
once, and hold at most MAX_HEAD_BYTES with their empty line; they are
split with str methods and read under one set of RFC 7230 rules: one
HTTP-version, one field syntax, one set of connection options deciding
close and hop-by-hop fields, one Content-Length. Empty lines before a
request line are skipped (RFC 7230 3.5), but not before a status line.
Request bodies are framed by Content-Length only, up to
MAX_REQUEST_BODY_BYTES; responses are framed as RFC 7230 3.3.3 frames
them, and chunks as 4.1 does (hex sizes, CRLF lines, a CRLF after each
chunk's data). Each end of a CONNECT tunnel is a
Pipe protocol; after either end's EOF the tunnel has UPSTREAM_TIMEOUT_S to
drain. A client connection closes after any HTTP/1.0 request (6.3) or one
with the close option, and the reply before that close says Connection:
close (6.6).

Each relayed response leaves in one write on a TCP_NODELAY socket, so a
keep-alive client never waits out Nagle's algorithm against its own
delayed ACK (RFC 896, RFC 1122 4.2.3.2). Upstream connections are kept
alive and reused per origin. A pooled connection the origin closed while
it was idle is replaced before anything is sent on it, whatever the
method; a request lost on a reused connection after it was sent is
retried once, for idempotent methods only (RFC 7230 6.3.1, RFC 7231 4.2.2).
"""

from __future__ import annotations

import asyncio
import contextlib
import ipaddress
import re
import socket
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from http import HTTPStatus
from urllib.parse import urlsplit

from beaconlab.httplog import (
    Headers, HttpExchange, LogAppender, count_lines, exchange_log_appender
)
from beaconlab.inject import (
    DEFAULT_STATIC_LABEL, DYNAMIC, TAG_LOG, Injector, Tag
)

PASSIVE = "passive"
ACTIVE = "active"

_HOP_BY_HOP = {
    "connection",
    "proxy-connection",
    "keep-alive",
    "transfer-encoding",
    "te",
    "trailers",
    "upgrade",
}
# Response fields not relayed as received; Content-Length is set anew.
_NOT_RELAYED = _HOP_BY_HOP | {"content-length"}
# Request fields not forwarded as received; Host and Content-Length are set anew.
_NOT_FORWARDED = _HOP_BY_HOP | {"host", "content-length"}

# Methods relayed to an origin; CONNECT opens a tunnel, any other gets 501.
_RELAYED = {"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS"}

# Methods a proxy may resend after a failed attempt (RFC 7231 4.2.2).
_IDEMPOTENT = {"GET", "HEAD", "PUT", "DELETE", "OPTIONS"}

# Methods whose request carries Content-Length upstream even without a body.
_BODY_EXPECTED = {"POST", "PUT"}

# Idle upstream keep-alive connections kept across all origins; past this
# the least recently used one is closed.
MAX_IDLE_UPSTREAM = 32

# Largest request or response head (start line, header fields and the
# empty line after them), and longest chunk-size or control line, in bytes.
MAX_HEAD_BYTES = 65536

# Largest upstream response body relayed, in bytes; a longer one gets 502.
MAX_UPSTREAM_BODY_BYTES = 16 * 1024 * 1024

# Largest request body relayed, in bytes. A request whose Content-Length
# names more gets 413 before any of its body is read.
MAX_REQUEST_BODY_BYTES = 16 * 1024 * 1024

# Deadline, in seconds, of one upstream exchange (connect, request and
# response), of a tunnel's connect and of a tunnel's last drain; and of a
# client that has sent part of a request head, or a head and part of its
# body, for the rest of it (408 when it passes).
UPSTREAM_TIMEOUT_S = 15.0

# A field name: visible ASCII except ":".
_FIELD_NAME = re.compile(r"[!-9;-~]+")
# A chunk size: one or more hex digits, in ASCII.
_HEXDIGITS = re.compile(rb"[0-9A-Fa-f]+")
# Control characters and space, none of which may appear in a request target.
_CONTROL = re.compile(r"[\x00-\x20\x7f]")
_REASONS = {status.value: status.phrase for status in HTTPStatus}


class ProxyConfigError(ValueError):
    pass


@dataclass
class ProxyConfig:
    exchange_log_path: str
    tag_log_path: str
    error_log_path: str
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    control_host: str = "127.0.0.1"
    control_port: int = 0
    mode: str = PASSIVE
    zone: str = ""
    static_label: str = DEFAULT_STATIC_LABEL
    payload_address: str = ""
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in (PASSIVE, ACTIVE):
            raise ProxyConfigError(f"unknown mode: {self.mode!r}")
        if self.mode == ACTIVE and not (self.zone and self.static_label and self.payload_address):
            raise ProxyConfigError("active mode requires zone, static_label, payload_address")


def parse_control_command(line: str) -> tuple[str, str | None]:
    """(verb, argument) for one control line; raises ValueError if malformed."""
    parts = line.strip().split()
    if not parts:
        raise ValueError("empty command")
    verb = parts[0].upper()
    if verb in ("STATUS", "SNAPSHOT"):
        if len(parts) != 1:
            raise ValueError(f"{verb} takes no argument")
        return verb, None
    if verb == "MODE":
        if len(parts) != 2 or parts[1].upper() not in ("PASSIVE", "ACTIVE"):
            raise ValueError("MODE requires PASSIVE or ACTIVE")
        return verb, parts[1].lower()
    raise ValueError(f"unknown command: {parts[0]}")


def _digits(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits: no sign, blank, "_" or
    digit of another script, all of which int() takes."""
    return text.isascii() and text.isdigit()


class _Headers:
    """Header fields in arrival order, names in the case they came in.

    ``get`` returns the first value of a name, ignoring case. ``options``
    are the message's connection options (RFC 7230 6.1): the tokens of all
    its Connection fields, lowercased.
    """

    __slots__ = ("fields", "_first", "options")

    def __init__(self, fields: list[tuple[str, str]]):
        self.fields = fields
        first: dict[str, str] = {}
        for name, value in fields:
            first.setdefault(name.lower(), value)
        self._first = first
        self.options = frozenset(self.tokens("Connection")) if "connection" in first else frozenset()

    def get(self, name: str, default: str | None = None) -> str | None:
        return self._first.get(name.lower(), default)

    def get_all(self, name: str) -> list[str]:
        lowered = name.lower()
        if lowered not in self._first:
            return []
        return [value for key, value in self.fields if key.lower() == lowered]

    def tokens(self, name: str) -> list[str]:
        """The elements of the comma-separated lists of all ``name`` fields
        (RFC 7230 7), lowercased, without blanks or empty elements."""
        return [
            token for value in self.get_all(name)
            for token in (part.strip(" \t").lower() for part in value.split(","))
            if token
        ]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._first


def _split_head(head: bytes) -> tuple[str, _Headers]:
    """Start line and header fields of a head that ends in CRLF CRLF.

    A value loses its leading blanks and keeps its trailing ones. ValueError
    for a bare CR or LF, a field line without a name, or an obs-fold
    continuation line (RFC 7230 3.2.4).
    """
    text = head.decode("latin-1")
    lines = text.split("\r\n")
    if text.count("\r") != len(lines) - 1 or text.count("\n") != len(lines) - 1:
        raise ValueError("bare CR or LF in head")
    fields: list[tuple[str, str]] = []
    for line in lines[1:-2]:
        name, colon, value = line.partition(":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise ValueError(f"malformed field line {line[:40]!r}")
        fields.append((name, value.lstrip(" \t")))
    return lines[0], _Headers(fields)


def _version(text: str) -> tuple[int, int] | None:
    """(major, minor) of an HTTP-version, "HTTP/" DIGIT "." DIGIT in ASCII
    (RFC 7230 2.6); None for any other text."""
    if len(text) == 8 and text.startswith("HTTP/") and text[6] == "." and _digits(text[5] + text[7]):
        return int(text[5]), int(text[7])
    return None


def _closes(version: tuple[int, int], headers: _Headers) -> bool:
    """Whether the origin's connection closes after a response (RFC 7230
    6.3): it has the close option, or is older than HTTP/1.1 and lacks
    keep-alive. A client's closes after any HTTP/1.0 request."""
    options = headers.options
    return "close" in options or (version < (1, 1) and "keep-alive" not in options)


def _content_length(headers: _Headers) -> int | None:
    """Body length from Content-Length (RFC 7230 3.3.2-3.3.3): 0 if absent,
    None unless ASCII digits, or if repeated with different values. A length
    of more digits than the larger body cap, leading zeros aside, is read as
    one over that cap and not converted, as int() refuses over 4,300 digits."""
    values = {value.strip() for value in headers.get_all("Content-Length")}
    if not values:
        return 0
    value = values.pop()
    if values or not _digits(value):
        return None
    digits = value.lstrip("0")
    cap = max(MAX_REQUEST_BODY_BYTES, MAX_UPSTREAM_BODY_BYTES)
    return cap + 1 if len(digits) > len(str(cap)) else int(digits or "0")


def _end_to_end(headers: _Headers, dropped: set[str]) -> tuple[tuple[str, str], ...]:
    """The fields, in arrival order, whose names are neither in ``dropped``
    nor among the message's connection options (RFC 7230 6.1)."""
    if headers.options:
        dropped = dropped | headers.options
    return tuple(field for field in headers.fields if field[0].lower() not in dropped)


def _host_field(hostname: str, port: int) -> str:
    """The Host value http.client sends for an origin."""
    try:
        hostname.encode("ascii")
    except UnicodeEncodeError:
        hostname = hostname.encode("idna").decode("ascii")
    if ":" in hostname:  # an IPv6 literal
        hostname = "[" + hostname.partition("%")[0] + "]"
    return hostname if port == 80 else f"{hostname}:{port}"


def _connect_authority(target: str) -> tuple[str, int] | None:
    """Host and port of a CONNECT target in authority form (RFC 7230
    section 5.3.3): host, host:port, or an IPv6 literal in brackets, which
    are stripped (RFC 3986 section 3.2.2). The port defaults to 443. None
    for a target that does not parse or a port outside 1-65535."""
    if target.startswith("["):
        host, bracket, rest = target[1:].partition("]")
        if not bracket or rest[:1] not in ("", ":"):
            return None
        try:
            ipaddress.IPv6Address(host)
        except ValueError:
            return None
        port_text = rest[1:]
    else:
        host, _, port_text = target.partition(":")
    if not port_text:
        return host, 443
    if not _digits(port_text):  # port = *DIGIT (RFC 3986 section 3.2.3)
        return None
    try:
        port = int(port_text)
    except ValueError:  # more digits than int() converts
        return None
    return (host, port) if 0 < port < 65536 else None


def _error_reply(status: int, message: str, head_only: bool = False) -> bytes:
    """An error response that asks the client to close, reason phrase
    ``message``, with a one-line text body unless ``head_only``."""
    body = f"{status} {message}\n".encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {message}\r\nConnection: close\r\n"
        f"Content-Type: text/plain; charset=utf-8\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1", "replace")
    return head if head_only else head + body


class _BodyTooLarge(Exception):
    """An upstream response body longer than MAX_UPSTREAM_BODY_BYTES."""


def _status_head(head: bytes) -> tuple[int, _Headers, bool]:
    """(status, header fields, must close) of one response head that ends
    in CRLF CRLF: an HTTP/1.x status line with a three-digit code (RFC 7230
    3.1.2); ValueError if malformed."""
    start, headers = _split_head(head)
    protocol, _, rest = start.partition(" ")
    version = _version(protocol)
    code = rest.partition(" ")[0]
    if not (version and version[0] == 1 and len(code) == 3 and _digits(code) and code >= "100"):
        raise ValueError(f"bad status line {start[:40]!r}")
    return int(code), headers, _closes(version, headers)


def _write_eof(transport: asyncio.WriteTransport) -> None:
    """Half-close a tunnel end that is still open."""
    if not transport.is_closing():
        try:
            transport.write_eof()
        except OSError:
            pass


class _HeadTooLarge(ValueError):
    """A head over MAX_HEAD_BYTES."""


class _Framer(asyncio.Protocol):
    """A connection whose requests or responses are framed from its own
    receive buffer as the bytes arrive, under one set of rules: ``_head``
    takes the next head, ``_fixed`` the next ``length`` bytes of a body."""

    __slots__ = ("transport", "buffer", "scanned", "length")

    def __init__(self):
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.scanned = 0  # leading buffer bytes already checked for a bare LF
        self.length = 0  # the bytes _fixed takes next

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def _head(self) -> bytearray | None:
        """The next head, through the empty line that ends it, taken from the
        buffer; None until it is whole. ValueError, at once, for a line that
        ends in a bare LF, after which a CRLF CRLF may never come, and
        _HeadTooLarge for a head over MAX_HEAD_BYTES, its empty line included."""
        buf = self.buffer
        scanned = self.scanned
        if buf.startswith(b"\r\n"):  # an empty first line ends an empty head
            end = 2
        else:
            found = buf.find(b"\r\n\r\n", max(scanned - 3, 0))
            end = found + 4 if found >= 0 else 0
        checked = end or len(buf)
        # a CR just before the unchecked bytes pairs with an LF just after it
        start = scanned - 1 if scanned and buf[scanned - 1] == 13 else scanned
        if buf.count(b"\n", start, checked) != buf.count(b"\r\n", start, checked):
            raise ValueError("bare LF in head")
        if checked > MAX_HEAD_BYTES:
            raise _HeadTooLarge(f"head over {MAX_HEAD_BYTES} bytes")
        if not end:
            self.scanned = checked
            return None
        head = buf[:end]
        del buf[:end]
        self.scanned = 0
        return head

    def _fixed(self, prefix: bytes = b"", tail: int = 0) -> bytes | None:
        """``prefix`` and the next ``length`` bytes, taken from the buffer
        with ``tail`` more bytes after them; None until all have come."""
        buf = self.buffer
        length = self.length
        if len(buf) < length + tail:
            return None
        with memoryview(buf) as view:
            data = prefix + view[:length]
        del buf[:length + tail]
        return data


class _Upstream(_Framer):
    """One connection to an origin, reused while the origin keeps it alive.

    ``exchange`` sends a whole request in one write. The response is framed
    from the receive buffer as its bytes arrive (RFC 7230 3.3.3): interim
    1xx responses are skipped; there is no body after HEAD or for 204 and
    304; otherwise the body is chunked (the one transfer coding taken;
    decoded, trailer fields dropped), Content-Length long, or runs to the
    origin's close, and never longer than MAX_UPSTREAM_BODY_BYTES. The exchange ends
    in one call to the client: ``response`` with the whole response, or
    ``upstream_failed`` with the error, ConnectionResetError if the origin
    closed the connection before the first byte of the response.
    """

    __slots__ = ("client", "method", "step", "status", "headers", "must_close", "room", "chunks", "body")

    def __init__(self):
        super().__init__()
        self.client: _Client | None = None  # whose exchange is in flight
        self.step = None  # the framing step the buffered bytes go to next
        self.body = b""

    def exchange(self, client: _Client, message: bytes, method: str) -> None:
        if self.transport.is_closing():  # the origin closed it as soon as it opened
            client.upstream_failed(ConnectionResetError("remote end closed connection without response"))
            return
        self.client = client
        self.method = method
        self.step = self._status
        self.transport.write(message)

    def close(self) -> None:
        self.client = None
        self.transport.close()

    def data_received(self, data: bytes) -> None:
        if self.client is None:  # bytes no request asked for
            self.transport.close()
            return
        self.buffer += data
        try:
            while self.step is not None and self.step():
                pass
        except (ValueError, _BodyTooLarge) as exc:
            self._fail(exc)
            return
        if self.step is None:
            body, self.body = self.body, b""
            self._end(body)

    def eof_received(self) -> None:
        if self.client is None:
            return
        if self.step == self._to_close:
            self._end(bytes(self.buffer))
        elif self.step == self._status and not self.buffer:
            self._fail(ConnectionResetError("remote end closed connection without response"))
        else:
            self._fail(EOFError("remote end closed connection mid-response"))

    def connection_lost(self, exc: Exception | None) -> None:
        if self.client is not None:
            self._fail(exc or ConnectionResetError("connection lost"))

    def _fail(self, exc: Exception) -> None:
        client, self.client = self.client, None
        self.transport.close()
        client.upstream_failed(exc)

    def _end(self, body: bytes) -> None:
        client, self.client = self.client, None
        # bytes past the response leave the connection out of step
        client.response(self, self.status, self.headers, body, self.must_close or bool(self.buffer))

    # Framing steps: each takes what it can from the buffer and returns
    # True to run the next step at once, False to wait for more bytes.

    def _done(self, body: bytes) -> bool:
        self.body = body
        self.step = None
        return False

    def _status(self) -> bool:
        head = self._head()
        if head is None:
            return False
        status, headers, must_close = _status_head(head)
        if status < 200:
            return True  # an interim response; the final one follows
        self.status, self.headers, self.must_close = status, headers, must_close
        if self.method == "HEAD" or status in (204, 304):
            return self._done(b"")
        if "Transfer-Encoding" in headers:
            if headers.tokens("Transfer-Encoding") != ["chunked"]:  # no other coding is decoded
                raise ValueError(f"Transfer-Encoding {headers.get_all('Transfer-Encoding')!r}")
            self.chunks = []
            self.room = MAX_UPSTREAM_BODY_BYTES
            self.step = self._chunk_size
            return True
        if "Content-Length" not in headers:
            self.must_close = True
            self.step = self._to_close
            return True
        length = _content_length(headers)
        if length is None:
            raise ValueError(f"malformed Content-Length {headers.get_all('Content-Length')!r}")
        if length > MAX_UPSTREAM_BODY_BYTES:
            raise _BodyTooLarge(f"Content-Length {headers.get('Content-Length').strip()}")
        self.length = length
        self.step = self._content
        return True

    def _content(self) -> bool:
        body = self._fixed()
        return False if body is None else self._done(body)

    def _to_close(self) -> bool:
        if len(self.buffer) > MAX_UPSTREAM_BODY_BYTES:
            raise _BodyTooLarge("body read to the close")
        return False  # eof_received ends it

    def _line(self) -> bytes | None:
        """The next chunk-size or trailer line, without its CRLF; None until
        whole. ValueError for a line that ends in a bare LF."""
        buf = self.buffer
        end = buf.find(b"\n", 0, MAX_HEAD_BYTES + 1)
        if end < 0:
            if len(buf) > MAX_HEAD_BYTES:
                raise ValueError("chunk line too long")
            return None
        if buf[end - 1:end] != b"\r":
            raise ValueError("bare LF in chunk line")
        line = bytes(buf[:end - 1])
        del buf[:end + 1]
        return line

    def _chunk_size(self) -> bool:
        line = self._line()
        if line is None:
            return False
        # chunk-size [ chunk-ext ], chunk-size = 1*HEXDIG (RFC 7230 4.1),
        # with blanks before the extension's ";" (RFC 9112 7.1.1)
        size, semicolon, _ = line.partition(b";")
        if semicolon:
            size = size.rstrip(b" \t")
        if not _HEXDIGITS.fullmatch(size):
            raise ValueError(f"bad chunk size {line[:40]!r}")
        size = int(size, 16)
        if size == 0:
            self.step = self._trailer
            return True
        self.room -= size
        if self.room < 0:
            raise _BodyTooLarge("chunked body")
        self.length = size
        self.step = self._chunk_data
        return True

    def _chunk_data(self) -> bool:
        buf, length = self.buffer, self.length
        if len(buf) < length + 2:  # the data, then its CRLF
            return False
        if buf[length:length + 2] != b"\r\n":
            raise ValueError("chunk data not followed by CRLF")
        self.chunks.append(self._fixed(tail=2))
        self.step = self._chunk_size
        return True

    def _trailer(self) -> bool:
        line = self._line()
        if line is None:
            return False
        if not line:
            return self._done(b"".join(self.chunks))
        return True


class _Pipe(asyncio.Protocol):
    """One end of a CONNECT tunnel: what it reads goes to the other end as it
    comes, and reading pauses while the other end cannot keep up. After either
    end's EOF, passed on, both close at the other's or UPSTREAM_TIMEOUT_S later.
    The origin's end reads nothing before the client has its 200."""

    __slots__ = ("transport", "peer", "ended", "deadline", "lost")

    def __init__(self, lost=None, peer: _Pipe | None = None):
        self.transport: asyncio.Transport | None = None
        self.peer = peer  # the other end, once the tunnel is open
        self.ended = False  # this end has sent EOF
        self.deadline: asyncio.TimerHandle | None = None
        self.lost = lost  # called when this end's connection is lost

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        transport.pause_reading()

    def data_received(self, data: bytes) -> None:
        self.peer.transport.write(data)

    def eof_received(self) -> bool:
        self.ended = True
        _write_eof(self.peer.transport)
        if self.peer.ended:
            self._close()
        else:
            self.deadline = asyncio.get_running_loop().call_later(UPSTREAM_TIMEOUT_S, self._close)
        return True

    def pause_writing(self) -> None:
        self.peer.transport.pause_reading()

    def resume_writing(self) -> None:
        self.peer.transport.resume_reading()

    def connection_lost(self, exc: Exception | None) -> None:
        if self.deadline is not None:
            self.deadline.cancel()
        if self.peer is not None:
            self.peer.transport.close()
        if self.lost is not None:
            self.lost(exc)

    def _close(self) -> None:
        self.transport.close()
        self.peer.transport.close()


class _UpstreamPool:
    """Idle keep-alive connections to origins, keyed by (host, port).

    Holds at most MAX_IDLE_UPSTREAM connections, evicting the least
    recently returned. The newest idle connection to an origin is reused
    first, since it is the least likely to have been closed by the origin.
    The proxy uses it from its loop thread only; the lock makes it safe
    from any thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: OrderedDict[_Upstream, tuple[str, int]] = OrderedDict()

    def take(self, key: tuple[str, int]) -> _Upstream | None:
        with self._lock:
            for conn in reversed(self._idle):
                if self._idle[conn] == key:
                    del self._idle[conn]
                    return conn
        return None

    def give(self, key: tuple[str, int], conn: _Upstream) -> None:
        evicted = None
        with self._lock:
            self._idle[conn] = key
            if len(self._idle) > MAX_IDLE_UPSTREAM:
                evicted, _ = self._idle.popitem(last=False)
        if evicted is not None:
            evicted.close()

    def close_all(self) -> None:
        with self._lock:
            idle, self._idle = list(self._idle), OrderedDict()
        for conn in idle:
            conn.close()


@dataclass(slots=True)
class Request:
    """One client request, its head parsed and its body not yet taken.

    ``target`` is the request-target as sent: an absolute URL, or
    host:port for CONNECT. ``client`` is the connection it came on.
    Setting ``close`` ends that connection after this request.
    ``expects_continue``: an HTTP/1.1 request sent Expect: 100-continue.
    """

    method: str
    target: str
    headers: _Headers
    client: _Client
    close: bool
    expects_continue: bool


class _Refused(Exception):
    """A request refused before relaying: (status, reason phrase)."""


def _parse_request(head: bytes, client: _Client) -> Request:
    """The Request of a head; _Refused if malformed."""
    try:
        start, headers = _split_head(head)
    except ValueError:
        raise _Refused(400, "Bad request syntax") from None
    words = start.split()
    if len(words) != 3:
        raise _Refused(400, "Bad request syntax")
    method, target, protocol = words
    version = _version(protocol)
    if version is None:
        raise _Refused(400, "Bad request version")
    if version >= (2, 0):
        raise _Refused(505, "Invalid HTTP version")
    if method not in _RELAYED and method != "CONNECT":
        raise _Refused(501, "Unsupported method")
    expects_continue = version >= (1, 1) and (headers.get("Expect") or "").lower() == "100-continue"
    # a proxy keeps no persistent connection with an HTTP/1.0 client (RFC 7230 6.3)
    close = version < (1, 1) or "close" in headers.options
    return Request(method, target, headers, client, close, expects_continue)


class _Client(_Framer):
    """One client connection.

    Request heads are framed from the receive buffer. While a request is
    served, later bytes wait in the buffer and reading pauses, so pipelined
    requests are served one at a time, in order. A relayed request's
    upstream exchange runs under one deadline of UPSTREAM_TIMEOUT_S, and
    only opening a new upstream connection runs as a task. A client that
    has sent part of a head, or part of a body, has UPSTREAM_TIMEOUT_S for
    the rest of it, and gets 408 after that; an idle connection, or a
    request that arrives whole, runs under no deadline of its own. After a
    CONNECT's 200 the connection is handed to a _Pipe, the tunnel's end.
    """

    __slots__ = (
        "service", "request", "paused", "write_paused", "eof", "origin", "message", "upstream",
        "reused", "connecting", "deadline", "read_deadline",
    )

    def __init__(self, service: ProxyService):
        super().__init__()
        self.service = service
        self.request: Request | None = None  # the request being served
        self.paused = False  # reading paused while a request is served
        self.write_paused = False
        self.eof = False
        # the upstream exchange of the request being served
        self.origin: tuple[str, int] = ("", 0)
        self.message = b""
        self.upstream: _Upstream | None = None
        self.reused = False
        self.connecting: asyncio.Task | None = None
        self.deadline: asyncio.TimerHandle | None = None
        # while part of a head or body is buffered: when the rest is due
        self.read_deadline: asyncio.TimerHandle | None = None

    # -- the connection ------------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.service._connections += 1

    def connection_lost(self, exc: Exception | None) -> None:
        if self.read_deadline is not None:
            self.read_deadline.cancel()
        self.service._connections -= 1
        self.service._finish_if_idle()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.length:  # the body of the request being served
            self._send()
        elif self.request is None and not self.write_paused:
            self._serve()
        elif not self.paused:
            self.paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        if not self.eof:
            self.eof = True
            if self.length:
                self.transport.close()  # the client closed the connection mid-body
            elif self.request is None:
                self._serve()
        return True  # the reply to a request in flight may still go out

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        if self.request is None:
            self._serve()

    def _later(self, callback) -> asyncio.TimerHandle:
        """``callback`` called UPSTREAM_TIMEOUT_S from now, unless cancelled."""
        loop = self.service._loop
        return loop.call_at(loop.time() + UPSTREAM_TIMEOUT_S, callback)

    def _read_done(self) -> None:
        """The head or body the client was sending is whole: no deadline for it."""
        if self.read_deadline is not None:
            self.read_deadline.cancel()
            self.read_deadline = None

    def _read_expired(self) -> None:
        """The rest of a head or body did not come in time: 408, and close."""
        self.read_deadline = None
        peer = self.transport.get_extra_info("peername") or ("?", 0)
        what = "body" if self.length else "head"
        self.service._log_error(
            f"client {peer[0]}:{peer[1]}: no whole request {what} within {UPSTREAM_TIMEOUT_S} s"
        )
        self.transport.write(_error_reply(408, "Request Timeout"))
        self.transport.close()

    def _crash(self) -> None:
        """An error escaped serving this connection: log it and close."""
        if self.deadline is not None:
            self.deadline.cancel()
        self.service._log_error("internal error: " + traceback.format_exc().rstrip("\n"))
        self.transport.close()

    # -- requests --------------------------------------------------------------

    def _serve(self) -> None:
        """Serve buffered requests one at a time, until one is in flight, no
        whole head is buffered, or the connection closes."""
        transport = self.transport
        buf = self.buffer
        while self.request is None and not self.write_paused and not transport.is_closing():
            while buf.startswith(b"\r\n"):  # empty lines before a request line (RFC 7230 3.5)
                del buf[:2]
                self.scanned = 0
            try:
                try:
                    head = self._head()
                except _HeadTooLarge:
                    raise _Refused(431, "Request Header Fields Too Large") from None
                except ValueError:  # a line that ends in a bare LF
                    raise _Refused(400, "Bad request syntax") from None
                if head is None:
                    if self.eof:
                        transport.close()
                        return
                    if self.paused:
                        self.paused = False
                        transport.resume_reading()
                    if self.buffer and self.read_deadline is None:
                        self.read_deadline = self._later(self._read_expired)
                    return
                self._read_done()
                self.request = request = _parse_request(head, self)
            except _Refused as refusal:
                transport.write(_error_reply(*refusal.args))
                transport.close()
                return
            try:
                if request.method == "CONNECT":
                    self.service.handle_connect(request)
                else:
                    self.service.handle_request_socketless(request)
            except Exception:
                self._crash()
                return

    def finish(self, reply: bytes) -> None:
        """Send the reply to the request being served, then serve the next
        one, or close if the request asked for it."""
        request, self.request = self.request, None
        transport = self.transport
        if not transport.is_closing():
            transport.write(reply)
        if request.close:
            transport.close()
        elif self.buffer or self.eof or self.paused:
            self._serve()

    # -- the upstream exchange ------------------------------------------------

    def relay(self, origin: tuple[str, int], message: bytes, length: int) -> None:
        """Send the request being served to ``origin`` as ``message``, once
        the ``length`` bytes of its body have followed the head."""
        self.origin = origin
        self.message = message
        self.length = length
        if self._send():
            return
        if self.eof:
            self.transport.close()  # the client closed the connection mid-body
            return
        if self.request.expects_continue:
            self.transport.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.read_deadline = self._later(self._read_expired)
        if self.paused:
            self.paused = False
            self.transport.resume_reading()

    def _send(self) -> bool:
        """Send the message, with the body once it is whole in the buffer,
        upstream on an idle pooled connection to the origin if any; False until then."""
        if self.length:
            message = self._fixed(self.message)  # one copy of the body
            if message is None:
                return False
            self.message = message
            self.length = 0
            self._read_done()
        self.deadline = self._later(self._expire)
        conn = self.service._upstream.take(self.origin)
        if conn is not None and conn.transport.is_closing():
            # The origin closed it while it was idle. Nothing was sent on it,
            # so a request of any method goes on a fresh connection.
            conn = None
        if conn is None:
            self.reused = False
            self._open(_Upstream, self._exchange_on)
        else:
            self.reused = True
            self._exchange_on(None, conn)
        return True

    def _exchange_on(self, transport, conn: _Upstream) -> None:
        self.upstream = conn
        conn.exchange(self, self.message, self.request.method)

    def _open(self, protocol_factory, connected) -> None:
        self.connecting = self.service._loop.create_task(self._connect(protocol_factory, connected))

    async def _connect(self, protocol_factory, connected) -> None:
        """Open a connection to the origin and hand it to ``connected``."""
        try:
            try:
                transport, protocol = await self.service._loop.create_connection(
                    protocol_factory, *self.origin
                )
            finally:
                self.connecting = None
        except (OSError, ValueError) as exc:  # ValueError: a name the resolver cannot encode
            self.upstream_failed(exc)
            return
        try:
            connected(transport, protocol)
        except Exception:
            transport.close()  # the origin connection no one holds
            self._crash()

    def response(self, conn: _Upstream, status: int, headers: _Headers, body: bytes, close: bool) -> None:
        """The upstream exchange ended in a whole response."""
        self.deadline.cancel()
        self.upstream = None
        service = self.service
        if close or service._stopped:
            conn.close()
        else:
            service._upstream.give(self.origin, conn)
        try:
            service._deliver(self.request, status, headers, body)
        except Exception:
            self._crash()

    def upstream_failed(self, exc: Exception) -> None:
        """The upstream exchange failed. A request sent on a reused
        connection that the origin closed before answering is sent again
        on a fresh one, once, if it is idempotent (RFC 7230 6.3.1); any
        other failure gets a 502."""
        self.upstream = None
        if (
            self.reused
            and isinstance(exc, (ConnectionResetError, BrokenPipeError))
            and self.request.method in _IDEMPOTENT
        ):
            self.reused = False
            self._open(_Upstream, self._exchange_on)
            return
        self.deadline.cancel()
        try:
            self.service._bad_gateway(self.request, self.origin, exc)
        except Exception:
            self._crash()

    def _expire(self) -> None:
        """The deadline passed: close the upstream connection, with no retry."""
        if self.connecting is not None:
            self.connecting.cancel()
            self.connecting = None
        if self.upstream is not None:
            self.upstream.close()
            self.upstream = None
        self.reused = False
        self.upstream_failed(TimeoutError(f"no answer within {UPSTREAM_TIMEOUT_S} s"))

    # -- the tunnel -------------------------------------------------------------

    def open_tunnel(self, origin: tuple[str, int]) -> None:
        """Connect the CONNECT being served to ``origin``, under the deadline."""
        self.origin = origin
        self.deadline = self._later(self._expire)
        self._open(_Pipe, self._tunnel_on)

    def _tunnel_on(self, tunnel: asyncio.Transport, origin_end: _Pipe) -> None:
        """Log the CONNECT, whose origin connection is open, answer 200 and
        hand this connection to a _Pipe that relays both ways; a client that
        is gone gets nothing, and the CONNECT is not logged."""
        self.deadline.cancel()
        transport = self.transport
        if transport.is_closing():
            return tunnel.close()
        service = self.service
        exchange_id, flow_id = service._next_ids()
        logged = service._log_exchange(
            HttpExchange(
                exchange_id=exchange_id,
                timestamp=time.time(),
                flow_id=flow_id,
                method="CONNECT",
                url=f"https://{self.request.target}",
                request_headers=(),
                response_status=200,
                response_headers=(),
                response_body=b"",
                is_encrypted=True,
            ),
            [],
        )
        if not logged:
            tunnel.close()
            return service._refuse(self.request, 503, "proxy stopped")
        transport.write(b"HTTP/1.1 200 Connection Established\r\n\r\n")
        origin_end.peer = client_end = _Pipe(self.connection_lost, origin_end)
        client_end.transport = transport
        transport.set_protocol(client_end)
        if self.buffer:
            tunnel.write(bytes(self.buffer))
            self.buffer.clear()
        tunnel.resume_reading()
        if self.eof:
            client_end.eof_received()
        elif self.paused:
            transport.resume_reading()


class ProxyService:
    """Runs the listen socket, the control socket, and the logs.

    Both sockets are bound by the constructor; ``start`` serves them on
    one event loop in a daemon thread. The mode flag is read once per
    exchange, so a switch never applies to an exchange already past its
    injection decision. ``stop`` stops accepting and closes the upstream
    connections and the logs. A client connection that is still open
    then gets 503 with Connection: close on its next request, nothing more
    is relayed or logged, and the loop ends when the last one closes.
    """

    def __init__(self, config: ProxyConfig):
        config.validate()
        self.config = config
        self._mode = config.mode
        self._stopped = False  # the logs are closed once it is True
        # what is opened is closed again, last first, by _shutdown or if a
        # later step of the constructor raises
        with contextlib.ExitStack() as opened:
            self._error_log = LogAppender(
                config.error_log_path, lambda fh, lines: fh.writelines(lines)
            )
            opened.callback(self._error_log.close)
            self.exchange_log = exchange_log_appender(config.exchange_log_path)
            opened.callback(self.exchange_log.close)
            self.tag_log = TAG_LOG.appender(config.tag_log_path)
            opened.callback(self.tag_log.close)
            for log in (self._error_log, self.exchange_log, self.tag_log):
                if log.dropped:
                    self._log_error(f"{log.path}: dropped {log.dropped} bytes of a torn last line")
            self.injector = None
            if config.zone:
                tags = TAG_LOG.stream(config.tag_log_path)  # one row held at a time
                issued = sum(tag.kind == DYNAMIC for tag in tags)
                self.injector = Injector(
                    zone=config.zone, static_label=config.static_label, seed=config.seed
                )
                # resume after the labels earlier runs on this log issued, so
                # a restart with the same seed never issues one of them again
                self.injector.counter = issued
            # resume after the exchanges earlier runs on this log recorded, so
            # every exchange id (and the tags.csv rows naming it) stays unique
            self._exchange_seq = count_lines(config.exchange_log_path)
            self._listen_sock = socket.create_server((config.listen_host, config.listen_port))
            opened.callback(self._listen_sock.close)
            self._control_sock = socket.create_server((config.control_host, config.control_port))
            opened.callback(self._control_sock.close)
            self._upstream = _UpstreamPool()
            opened.callback(self._upstream.close_all)
            self._opened = opened.pop_all()
        self.exchanges_handled = 0
        self.tags_injected = 0
        self.listen_address: tuple[str, int] = self._listen_sock.getsockname()[:2]
        self.control_address: tuple[str, int] = self._control_sock.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections = 0  # client connections open
        self._finished: asyncio.Future | None = None  # made once both servers are up

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if not self._stopped:  # a stopped service's sockets are closed: no loop could serve them
            started = threading.Event()
            threading.Thread(target=self._run, args=(started,), daemon=True).start()
            started.wait()
        if self._stopped or self._finished is None:
            raise RuntimeError("the proxy's event loop did not start")

    def _run(self, started: threading.Event) -> None:
        try:
            asyncio.run(self._serve(started))
        finally:
            started.set()  # also when the loop failed to start

    async def _serve(self, started: threading.Event) -> None:
        loop = self._loop = asyncio.get_running_loop()
        server = await loop.create_server(lambda: _Client(self), sock=self._listen_sock)
        self._opened.callback(server.close)
        server = await asyncio.start_server(
            self._serve_control, sock=self._control_sock, limit=MAX_HEAD_BYTES
        )
        self._opened.callback(server.close)
        self._finished = loop.create_future()
        started.set()
        await self._finished

    def stop(self) -> None:
        if self._stopped:
            return
        if self._loop is None:  # never started
            self._shutdown()
            return
        done = threading.Event()

        def shutdown():
            try:
                self._shutdown()
            finally:
                done.set()

        self._loop.call_soon_threadsafe(shutdown)
        done.wait(timeout=5)

    def _shutdown(self) -> None:
        """Stop accepting, close upstream connections and logs; on the loop once started."""
        self._stopped = True
        self._opened.close()
        self._finish_if_idle()

    def _finish_if_idle(self) -> None:
        if self._stopped and not self._connections and self._finished is not None:
            if not self._finished.done():
                self._finished.set_result(None)

    # -- mode / control ------------------------------------------------------

    def current_mode(self) -> str:
        return self._mode

    def set_mode(self, mode: str) -> None:
        if mode == ACTIVE and self.injector is None:
            raise ProxyConfigError("active mode requires an injector zone")
        self._mode = mode

    def handle_control_line(self, line: str) -> str:
        try:
            verb, argument = parse_control_command(line)
        except ValueError as exc:
            return f"ERR {exc}"
        if verb == "STATUS":
            return (
                f"OK mode={self.current_mode().upper()} "
                f"exchanges={self.exchanges_handled} tags={self.tags_injected}"
            )
        if verb == "MODE":
            try:
                self.set_mode(argument)
            except ProxyConfigError as exc:
                return f"ERR {exc}"
            return f"OK mode={argument.upper()}"
        # SNAPSHOT: report file positions; every append call has flushed
        if self._stopped:
            return "ERR proxy stopped"
        exchange_bytes = self.exchange_log.tell()
        tag_bytes = self.tag_log.tell()
        return f"OK exchange_log_bytes={exchange_bytes} tag_log_bytes={tag_bytes}"

    async def _serve_control(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            async for raw in reader:
                line = raw.decode("utf-8", errors="replace")
                if line.strip():
                    writer.write((self.handle_control_line(line) + "\n").encode("utf-8"))
        except (OSError, ValueError):  # the peer went away, or a line over MAX_HEAD_BYTES
            pass
        finally:
            writer.close()

    # -- exchange handling ----------------------------------------------------

    def process_response(
        self, headers: Headers, body: bytes, exchange_id: str, timestamp: float, mode: str
    ) -> tuple[Headers, bytes, list[Tag]]:
        """Injection decision for one response's head and body under an
        already-read mode: Injector.inject's result, or the same objects
        and no tags."""
        if mode == ACTIVE and self.injector is not None:
            return self.injector.inject(headers, body, exchange_id, timestamp)
        return headers, body, []

    def _log_exchange(self, exchange: HttpExchange, tags: list[Tag]) -> bool:
        """Log one exchange and its tags; False, logging nothing, once stopped."""
        if self._stopped:
            return False
        self.exchange_log.append(exchange)
        if tags:
            self.tag_log.append(*tags)
        self.exchanges_handled += 1
        self.tags_injected += len(tags)
        return True

    def _log_error(self, message: str) -> None:
        if not self._stopped:
            self._error_log.append(f"{time.time():.3f} {message}\n")

    def _next_ids(self) -> tuple[str, str]:
        seq = self._exchange_seq
        self._exchange_seq += 1
        return f"x{seq:08d}", f"fl{seq:08d}"

    @staticmethod
    def _refuse(request: Request, status: int, message: str) -> None:
        request.close = True
        request.client.finish(_error_reply(status, message, request.method == "HEAD"))

    def handle_request_socketless(self, request: Request) -> None:
        """Check one absolute-URI proxy request and relay it; the response
        is delivered when the upstream exchange ends."""
        if self._stopped:
            return self._refuse(request, 503, "proxy stopped")
        url = request.target
        parts = urlsplit(url)
        hostname = parts.hostname
        try:
            port = parts.port or 80
            host_field = _host_field(hostname or "", port)
        except ValueError:  # a port out of range or not a number, a name IDNA rejects
            port = 0
        if parts.scheme != "http" or not hostname or not port or _CONTROL.search(url):
            return self._refuse(request, 400, "proxy requires absolute http URLs")
        headers = request.headers
        if "Transfer-Encoding" in headers:
            # Bodies are read by Content-Length only: an encoded body would be
            # relayed empty and its chunks parsed as the next request.
            self._log_error(f"Transfer-Encoding request refused for {url}")
            return self._refuse(request, 411, "Content-Length required")
        length = _content_length(headers)
        if length is None:
            self._log_error(
                f"malformed Content-Length {headers.get_all('Content-Length')!r} for {url}"
            )
            return self._refuse(request, 400, "malformed Content-Length")
        if length > MAX_REQUEST_BODY_BYTES:
            self._log_error(
                f"request body of {headers.get('Content-Length').strip()} bytes is over "
                f"{MAX_REQUEST_BODY_BYTES} bytes for {url}"
            )
            return self._refuse(request, 413, "request body too large")
        method = request.method
        # The request line and fields http.client would send for the same call,
        # then every other end-to-end field in arrival order (RFC 7230 3.2.2).
        selector = parts.path or "/"
        if parts.query:
            selector += "?" + parts.query
        lines = [f"{method} {selector} HTTP/1.1", "Host: " + host_field]
        if "Accept-Encoding" not in headers:
            lines.append("Accept-Encoding: identity")
        if length or method in _BODY_EXPECTED:
            lines.append(f"Content-Length: {length}")
        lines.extend(f"{name}: {value}" for name, value in _end_to_end(headers, _NOT_FORWARDED))
        lines.append("\r\n")
        request.client.relay((hostname, port), "\r\n".join(lines).encode("latin-1"), length)

    def _deliver(self, request: Request, status: int, upstream_headers: _Headers, body: bytes) -> None:
        """Inject, log and deliver one upstream response; a response to a
        client that is gone is neither injected nor logged."""
        if request.client.transport.is_closing():
            return request.client.finish(b"")
        method = request.method
        if status == 204:  # no Content-Length at all (RFC 7230 3.3.2)
            response_headers = _end_to_end(upstream_headers, _NOT_RELAYED)
        elif method == "HEAD" or status == 304:  # the origin's length, if it sent one
            response_headers = _end_to_end(upstream_headers, _HOP_BY_HOP)
        else:
            response_headers = _end_to_end(upstream_headers, _NOT_RELAYED) + (
                ("Content-Length", str(len(body))),
            )
        exchange_id, flow_id = self._next_ids()
        timestamp = time.time()
        response_headers, body, tags = self.process_response(
            response_headers, body, exchange_id, timestamp, self.current_mode()
        )
        exchange = HttpExchange(
            exchange_id=exchange_id,
            timestamp=timestamp,
            flow_id=flow_id,
            method=method,
            url=request.target,
            request_headers=_end_to_end(request.headers, _HOP_BY_HOP),
            response_status=status,
            response_headers=response_headers,
            response_body=body,
            is_encrypted=False,
        )
        if not self._log_exchange(exchange, tags):
            return self._refuse(request, 503, "proxy stopped")
        # status line, fields and body in a single write; a connection
        # closed after the reply says so in it (RFC 7230 6.6)
        reply = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in response_headers)
            + ("Connection: close\r\n\r\n" if request.close else "\r\n")
        ).encode("latin-1", "strict")
        if method != "HEAD":
            reply += body
        request.client.finish(reply)

    def _bad_gateway(self, request: Request, origin: tuple[str, int], exc: Exception) -> None:
        """A 502 and one error-log line for a request whose upstream exchange failed."""
        where = f"connect {request.target}" if request.method == "CONNECT" else f"upstream {origin[0]}"
        if isinstance(exc, _BodyTooLarge):
            self._log_error(f"{where}: {exc} is over {MAX_UPSTREAM_BODY_BYTES} bytes")
            return self._refuse(request, 502, "upstream response too large")
        self._log_error(f"{where}: {type(exc).__name__}: {exc}")
        self._refuse(request, 502, "upstream unreachable")

    def handle_connect(self, request: Request) -> None:
        """Opaque tunnel: logged as an encrypted exchange, never rewritten."""
        if self._stopped:
            return self._refuse(request, 503, "proxy stopped")
        authority = _connect_authority(request.target)
        if authority is None:
            return self._refuse(request, 400, "malformed CONNECT target")
        request.client.open_tunnel(authority)
