"""Intercepting HTTP proxy with a local control channel.

Relays explicit HTTP/1.1 proxy requests to their origin and, in active
mode, runs response bodies through the beacon injector before delivery;
passive mode observes and logs without altering anything. CONNECT tunnels
are relayed opaque and logged as encrypted exchanges. A line-oriented
control socket (STATUS / MODE PASSIVE / MODE ACTIVE / SNAPSHOT) stands in
for the operator's command channel.

One asyncio event loop, in one thread, serves the listen socket, the
control socket and every connection. So the injector, the counters and
the logs have a single writer and need no lock. Heads are split with str
methods. Request bodies are framed by Content-Length only; responses are
framed as RFC 7230 3.3.3 frames them.

Each relayed response leaves in one write on a TCP_NODELAY socket, so a
keep-alive client never waits out Nagle's algorithm against its own
delayed ACK (RFC 896, RFC 1122 4.2.3.2). Upstream connections are kept
alive and reused per origin; a stale reused connection is retried once,
for idempotent methods only (RFC 7230 6.3.1, RFC 7231 4.2.2).
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
    HttpExchange, LogAppender, count_lines, exchange_log_appender
)
from beaconlab.inject import (
    DEFAULT_STATIC_LABEL, DYNAMIC, TAG_LABEL_LOG, TAG_LOG, Injector, Tag
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

# Methods relayed to an origin; CONNECT opens a tunnel, any other gets 501.
_RELAYED = {"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS"}

# Methods a proxy may resend after a failed attempt (RFC 7231 4.2.2).
_IDEMPOTENT = {"GET", "HEAD", "PUT", "DELETE", "OPTIONS", "TRACE"}

# Methods whose request carries Content-Length upstream even without a body.
_BODY_EXPECTED = {"PATCH", "POST", "PUT"}

# Idle upstream keep-alive connections kept across all origins; past this
# the least recently used one is closed.
MAX_IDLE_UPSTREAM = 32

# Largest request or response head (start line and header fields), and
# longest chunk-size or control line, in bytes.
MAX_HEAD_BYTES = 65536

# Largest upstream response body relayed, in bytes; a longer one gets 502.
MAX_UPSTREAM_BODY_BYTES = 16 * 1024 * 1024

# Deadline of one upstream exchange (connect, request and response), of a
# tunnel's connect and of a tunnel's last drain, in seconds.
UPSTREAM_TIMEOUT_S = 15.0

# Bytes a tunnel, or a body read to the close, takes per read.
_READ_BYTES = 65536

_CONTENT_LENGTH = re.compile(r"[0-9]+")
# A field name: visible ASCII except ":" (what email's header parser takes).
_FIELD_NAME = re.compile(r"[!-9;-~]+")
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


class _Headers:
    """Header fields in arrival order, names in the case they came in.

    ``get`` returns the first value of a name, ignoring case, as
    ``email.message.Message.get`` does.
    """

    __slots__ = ("fields", "_first")

    def __init__(self, fields: list[tuple[str, str]]):
        self.fields = fields
        first: dict[str, str] = {}
        for name, value in fields:
            first.setdefault(name.lower(), value)
        self._first = first

    def get(self, name: str, default: str | None = None) -> str | None:
        return self._first.get(name.lower(), default)

    def get_all(self, name: str) -> list[str]:
        lowered = name.lower()
        return [value for key, value in self.fields if key.lower() == lowered]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._first


def _split_head(head: bytes) -> tuple[str, _Headers]:
    """Start line and header fields of a head that ends in CRLF CRLF.

    A value loses its leading blanks and keeps an obs-fold continuation
    line, joined by CRLF, as email's compat32 header parser gives it.
    ValueError for a bare CR or LF, or a field line without a name.
    """
    text = head.decode("latin-1")
    lines = text.split("\r\n")
    if text.count("\r") != len(lines) - 1 or text.count("\n") != len(lines) - 1:
        raise ValueError("bare CR or LF in head")
    fields: list[tuple[str, str]] = []
    for line in lines[1:-2]:
        if line[0] in " \t":
            if not fields:
                raise ValueError("continuation line before any field")
            name, value = fields[-1]
            fields[-1] = (name, value + "\r\n" + line)
            continue
        name, colon, value = line.partition(":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise ValueError(f"malformed field line {line[:40]!r}")
        fields.append((name, value.lstrip(" \t")))
    return lines[0], _Headers(fields)


def _content_length(headers: _Headers) -> int | None:
    """Request body length from Content-Length (RFC 7230 3.3.2): 0 if absent,
    None if malformed or repeated with different values."""
    values = {value.strip() for value in headers.get_all("Content-Length")}
    if not values:
        return 0
    value = values.pop()
    if values or not _CONTENT_LENGTH.fullmatch(value):
        return None
    return int(value)


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
    # port = *DIGIT (RFC 3986 section 3.2.3): no sign, blank or "_" as int() takes
    if not (port_text.isascii() and port_text.isdigit()):
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


async def _read_response(reader: asyncio.StreamReader, method: str) -> tuple[int, _Headers, bytes, bool]:
    """(status, header fields, body, must close) of one response, framed as
    http.client frames it (RFC 7230 3.3.3).

    Raises ConnectionResetError if the origin closed the connection before
    the first byte, OSError, ValueError or EOFError for a broken reply, and
    _BodyTooLarge, having read no more than MAX_UPSTREAM_BODY_BYTES of the
    body, for a longer one.
    """
    while True:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise
            raise ConnectionResetError("remote end closed connection without response") from None
        except asyncio.LimitOverrunError:
            raise ValueError("response head too large") from None
        start, headers = _split_head(head)
        words = start.split(None, 2)
        if len(words) < 2 or not words[0].startswith("HTTP/"):
            raise ValueError(f"bad status line {start[:40]!r}")
        status = int(words[1])
        if not 100 <= status <= 999:
            raise ValueError(f"bad status line {start[:40]!r}")
        if status != 100:  # a 100 Continue is followed by the real response
            break
    version = words[0]
    if version in ("HTTP/1.0", "HTTP/0.9"):
        connection = (headers.get("Connection") or "").lower()
        keep_alive = (
            "keep-alive" in headers
            or "keep-alive" in connection
            or "keep-alive" in (headers.get("Proxy-Connection") or "").lower()
        )
        close = not keep_alive
    elif version.startswith("HTTP/1."):
        close = "close" in (headers.get("Connection") or "").lower()
    else:
        raise ValueError(f"unknown protocol {version[:20]!r}")
    if method == "HEAD" or status < 200 or status in (204, 304):
        return status, headers, b"", close
    if (headers.get("Transfer-Encoding") or "").lower() == "chunked":
        return status, headers, await _read_chunked(reader), close
    length = None
    if value := headers.get("Content-Length"):
        try:
            length = int(value)
        except ValueError:
            pass
    if length is None or length < 0:
        return status, headers, await _read_to_close(reader), True
    if length > MAX_UPSTREAM_BODY_BYTES:
        raise _BodyTooLarge(f"Content-Length {length}")
    return status, headers, await reader.readexactly(length), close


async def _read_to_close(reader: asyncio.StreamReader) -> bytes:
    """A body delimited by the close of the connection."""
    chunks = []
    room = MAX_UPSTREAM_BODY_BYTES
    while chunk := await reader.read(min(room + 1, _READ_BYTES)):
        room -= len(chunk)
        if room < 0:
            raise _BodyTooLarge("body read to the close")
        chunks.append(chunk)
    return b"".join(chunks)


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    """A chunked body, decoded; trailer fields are read and dropped."""
    chunks = []
    room = MAX_UPSTREAM_BODY_BYTES
    try:
        while True:
            size = int((await reader.readuntil(b"\n")).partition(b";")[0], 16)
            if size < 0:
                raise ValueError("negative chunk size")
            if size == 0:
                break
            room -= size
            if room < 0:
                raise _BodyTooLarge("chunked body")
            chunks.append((await reader.readexactly(size + 2))[:-2])  # the data and its CRLF
        while await reader.readuntil(b"\n") not in (b"\r\n", b"\n"):
            pass
    except asyncio.LimitOverrunError:
        raise ValueError("chunk line too long") from None
    return b"".join(chunks)


class _Upstream:
    """One connection to an origin, reused while the origin keeps it alive."""

    __slots__ = ("reader", "writer")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, origin: tuple[str, int]) -> "_Upstream":
        return cls(*await asyncio.open_connection(*origin, limit=MAX_HEAD_BYTES))

    async def exchange(self, message: bytes, method: str) -> tuple[int, _Headers, bytes, bool]:
        """Send a whole request in one write and read its response; the
        connection is closed if that fails."""
        try:
            self.writer.write(message)
            return await _read_response(self.reader, method)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self.writer.close()


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
    """One client request, its head parsed and its body not yet read.

    ``target`` is the request-target as sent: an absolute URL, or
    host:port for CONNECT. Setting ``close`` ends the client connection
    after this request.
    """

    method: str
    target: str
    headers: _Headers
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    close: bool


class _Refused(Exception):
    """A request refused before relaying: (status, reason phrase)."""


async def _read_head(reader: asyncio.StreamReader) -> bytes:
    """One request head, read a line at a time through the empty line that
    ends it. _Refused, at once, for a line that ends in a bare LF, after
    which a CRLF CRLF may never come, and for a head over MAX_HEAD_BYTES.
    """
    lines = []
    size = 0
    line = b""
    try:
        while line != b"\r\n":
            line = await reader.readuntil(b"\n")
            if not line.endswith(b"\r\n"):
                raise _Refused(400, "Bad request syntax")
            size += len(line)
            if size > MAX_HEAD_BYTES:
                raise _Refused(431, "Request Header Fields Too Large")
            lines.append(line)
    except asyncio.LimitOverrunError:
        raise _Refused(431, "Request Header Fields Too Large") from None
    return b"".join(lines)


def _parse_request(head: bytes, reader, writer) -> Request:
    """The Request of a head, under http.server's rules; _Refused if malformed."""
    try:
        start, headers = _split_head(head)
    except ValueError:
        raise _Refused(400, "Bad request syntax") from None
    words = start.split()
    if len(words) != 3:
        raise _Refused(400, "Bad request syntax")
    method, target, protocol = words
    major, dot, minor = protocol[5:].partition(".")
    if not (
        protocol.startswith("HTTP/") and dot and major.isdecimal() and minor.isdecimal()
        and len(major) <= 10 and len(minor) <= 10
    ):
        raise _Refused(400, "Bad request version")
    version = (int(major), int(minor))
    if version >= (2, 0):
        raise _Refused(505, "Invalid HTTP version")
    if method not in _RELAYED and method != "CONNECT":
        raise _Refused(501, "Unsupported method")
    close = version < (1, 1)
    connection = (headers.get("Connection") or "").lower()
    if connection == "close":
        close = True
    elif connection == "keep-alive":
        close = False
    if version >= (1, 1) and (headers.get("Expect") or "").lower() == "100-continue":
        writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
    return Request(method, target, headers, reader, writer, close)


async def _copy(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Copy one direction of a tunnel until EOF or a reset, then pass the EOF on."""
    try:
        while chunk := await reader.read(_READ_BYTES):
            writer.write(chunk)
            await writer.drain()
    except OSError:
        pass
    finally:
        try:
            if not writer.is_closing():
                writer.write_eof()
        except OSError:
            pass


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
        # what the constructor opens is closed again if a later step raises
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
                tags = TAG_LABEL_LOG.stream(config.tag_log_path)  # one row held at a time
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
            opened.pop_all()
        self.exchanges_handled = 0
        self.tags_injected = 0
        self.listen_address: tuple[str, int] = self._listen_sock.getsockname()[:2]
        self.control_address: tuple[str, int] = self._control_sock.getsockname()[:2]
        self._upstream = _UpstreamPool()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._servers: list[asyncio.Server] = []
        self._connections = 0
        self._finished: asyncio.Future | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        started = threading.Event()
        threading.Thread(target=self._run, args=(started,), daemon=True).start()
        started.wait()
        if len(self._servers) != 2:
            raise RuntimeError("the proxy's event loop did not start")

    def _run(self, started: threading.Event) -> None:
        try:
            asyncio.run(self._serve(started))
        finally:
            started.set()  # also when the loop failed to start

    async def _serve(self, started: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._finished = self._loop.create_future()
        for sock, serve in (
            (self._listen_sock, self._serve_client),
            (self._control_sock, self._serve_control),
        ):
            server = await asyncio.start_server(self._tracked(serve), sock=sock, limit=MAX_HEAD_BYTES)
            self._servers.append(server)
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
        for server in self._servers:
            server.close()
        self._listen_sock.close()
        self._control_sock.close()
        self._upstream.close_all()
        self.exchange_log.close()
        self.tag_log.close()
        self._error_log.close()
        self._finish_if_idle()

    def _finish_if_idle(self) -> None:
        if self._stopped and not self._connections and self._finished is not None:
            if not self._finished.done():
                self._finished.set_result(None)

    def _tracked(self, serve):
        """``serve`` for one connection, counted until it closes; an error
        that escapes it is written to the error log, not raised."""

        async def run(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            self._connections += 1
            try:
                await serve(reader, writer)
            except (OSError, EOFError):
                pass  # the peer went away
            except Exception:
                self._log_error("internal error: " + traceback.format_exc().rstrip("\n"))
            finally:
                writer.close()
                self._connections -= 1
                self._finish_if_idle()

        return run

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
        except ValueError:  # a line longer than MAX_HEAD_BYTES
            pass

    # -- exchange handling ----------------------------------------------------

    def process_response(self, exchange: HttpExchange, mode: str) -> tuple[HttpExchange, list[Tag]]:
        """Injection decision for one exchange under an already-read mode."""
        if mode == ACTIVE and self.injector is not None:
            return self.injector.inject(exchange)
        return exchange, []

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

    async def _serve_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Requests of one client connection, one after another."""
        while True:
            try:
                request = _parse_request(await _read_head(reader), reader, writer)
            except asyncio.IncompleteReadError:
                return  # the client closed the connection
            except _Refused as refusal:
                writer.write(_error_reply(*refusal.args))
                return
            if request.method == "CONNECT":
                await self.handle_connect(request)
            else:
                await self.handle_request_socketless(request)
            if request.close:
                return

    @staticmethod
    def _refuse(request: Request, status: int, message: str) -> None:
        request.close = True
        request.writer.write(_error_reply(status, message, request.method == "HEAD"))

    async def _fetch(
        self, origin: tuple[str, int], method: str, message: bytes
    ) -> tuple[_Upstream, tuple[int, _Headers, bytes, bool]]:
        """Send one request upstream, on an idle pooled connection if there is one.

        A reused connection the origin has meanwhile closed fails before any
        response arrives; an idempotent request is then sent once more on a
        fresh connection, any other request fails.
        """
        conn = self._upstream.take(origin)
        if conn is not None:
            try:
                return conn, await conn.exchange(message, method)
            except (ConnectionResetError, BrokenPipeError):
                if method not in _IDEMPOTENT:
                    raise
        conn = await _Upstream.open(origin)
        return conn, await conn.exchange(message, method)

    async def handle_request_socketless(self, request: Request) -> None:
        """Relay one absolute-URI proxy request and deliver the response."""
        if self._stopped:
            return self._refuse(request, 503, "proxy stopped")
        url = request.target
        parts = urlsplit(url)
        try:
            port = parts.port or 80
            host_field = _host_field(parts.hostname or "", port)
        except ValueError:  # a port out of range or not a number, a name IDNA rejects
            port = 0
        if parts.scheme != "http" or not parts.hostname or not port or _CONTROL.search(url):
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
        method = request.method
        try:
            request_body = await request.reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            request.close = True  # the client closed the connection mid-body
            return
        request_headers = tuple(
            (name, value) for name, value in headers.fields if name.lower() not in _HOP_BY_HOP
        )
        # The request line and fields http.client would send for the same call,
        # then every other end-to-end field in arrival order (RFC 7230 3.2.2).
        upstream_fields = [
            f"{name}: {value}"
            for name, value in request_headers
            if name.lower() not in ("host", "content-length")
        ]
        selector = parts.path or "/"
        if parts.query:
            selector += "?" + parts.query
        lines = [f"{method} {selector} HTTP/1.1", "Host: " + host_field]
        if "Accept-Encoding" not in headers:
            lines.append("Accept-Encoding: identity")
        if request_body or method in _BODY_EXPECTED:
            lines.append(f"Content-Length: {len(request_body)}")
        lines.extend(upstream_fields)
        lines.append("\r\n")
        message = "\r\n".join(lines).encode("latin-1") + request_body
        origin = (parts.hostname, port)
        try:
            async with asyncio.timeout(UPSTREAM_TIMEOUT_S):
                conn, (status, upstream_headers, body, close) = await self._fetch(
                    origin, method, message
                )
        except _BodyTooLarge as exc:
            self._log_error(
                f"upstream {parts.hostname}: {exc} is over {MAX_UPSTREAM_BODY_BYTES} bytes"
            )
            return self._refuse(request, 502, "upstream response too large")
        except (OSError, ValueError, EOFError) as exc:
            self._log_error(f"upstream {parts.hostname}: {type(exc).__name__}: {exc}")
            return self._refuse(request, 502, "upstream unreachable")
        if close or self._stopped:
            conn.close()
        else:
            self._upstream.give(origin, conn)
        response_headers = tuple(
            (name, value)
            for name, value in upstream_headers.fields
            if name.lower() not in _NOT_RELAYED
        ) + (("Content-Length", str(len(body))),)
        exchange_id, flow_id = self._next_ids()
        exchange = HttpExchange(
            exchange_id=exchange_id,
            timestamp=time.time(),
            flow_id=flow_id,
            method=method,
            url=url,
            request_headers=request_headers,
            response_status=status,
            response_headers=response_headers,
            response_body=body,
            is_encrypted=False,
        )
        delivered, tags = self.process_response(exchange, self.current_mode())
        if not self._log_exchange(delivered, tags):
            return self._refuse(request, 503, "proxy stopped")
        # status line, fields and body in a single write
        status = delivered.response_status
        payload = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in delivered.response_headers)
            + "\r\n"
        ).encode("latin-1", "strict")
        if method != "HEAD":
            payload += delivered.response_body
        request.writer.write(payload)
        await request.writer.drain()

    async def handle_connect(self, request: Request) -> None:
        """Opaque tunnel: logged as an encrypted exchange, never rewritten."""
        request.close = True
        if self._stopped:
            return self._refuse(request, 503, "proxy stopped")
        target = request.target
        authority = _connect_authority(target)
        if authority is None:
            return self._refuse(request, 400, "malformed CONNECT target")
        host, port = authority
        try:
            async with asyncio.timeout(UPSTREAM_TIMEOUT_S):
                upstream_reader, upstream_writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            self._log_error(f"connect {target}: {type(exc).__name__}: {exc}")
            return self._refuse(request, 502, "upstream unreachable")
        exchange_id, flow_id = self._next_ids()
        logged = self._log_exchange(
            HttpExchange(
                exchange_id=exchange_id,
                timestamp=time.time(),
                flow_id=flow_id,
                method="CONNECT",
                url=f"https://{target}",
                request_headers=(),
                response_status=200,
                response_headers=(),
                response_body=b"",
                is_encrypted=True,
            ),
            [],
        )
        if not logged:
            upstream_writer.close()
            return self._refuse(request, 503, "proxy stopped")
        request.writer.write(b"HTTP/1.1 200 Connection Established\r\n\r\n")
        downstream = asyncio.ensure_future(_copy(upstream_reader, request.writer))
        try:
            await _copy(request.reader, upstream_writer)
            async with asyncio.timeout(UPSTREAM_TIMEOUT_S):
                await downstream
        except TimeoutError:
            pass
        finally:
            downstream.cancel()
            upstream_writer.close()
