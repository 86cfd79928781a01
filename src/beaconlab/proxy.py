"""Intercepting HTTP proxy with a local control channel.

Relays explicit HTTP/1.1 proxy requests to their origin and, in active
mode, runs response bodies through the beacon injector before delivery;
passive mode observes and logs without altering anything. CONNECT tunnels
are relayed opaque and logged as encrypted exchanges. A line-oriented
control socket (STATUS / MODE PASSIVE / MODE ACTIVE / SNAPSHOT) stands in
for the operator's command channel.

Each relayed response leaves in one write on a TCP_NODELAY socket, so a
keep-alive client never waits out Nagle's algorithm against its own
delayed ACK (RFC 896, RFC 1122 4.2.3.2). Upstream connections are kept
alive and reused per origin; a stale reused connection is retried once,
for idempotent methods only (RFC 7230 6.3.1, RFC 7231 4.2.2).
"""

from __future__ import annotations

import http.client
import re
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from beaconlab.httplog import (
    HttpExchange, LogAppender, LogFormatError, count_lines, exchange_log_appender
)
from beaconlab.inject import DEFAULT_STATIC_LABEL, DYNAMIC, TAG_LOG, Injector, Tag

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

# Methods a proxy may resend after a failed attempt (RFC 7231 4.2.2).
_IDEMPOTENT = {"GET", "HEAD", "PUT", "DELETE", "OPTIONS", "TRACE"}

# Idle upstream keep-alive connections kept across all origins; past this
# the least recently used one is closed.
MAX_IDLE_UPSTREAM = 32

# How often the serving loops look for a shutdown request, in seconds.
POLL_INTERVAL_S = 0.05

# Timeout of upstream connects and reads, and of a tunnel's last drain.
UPSTREAM_TIMEOUT_S = 15.0

_CONTENT_LENGTH = re.compile(r"[0-9]+")


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


def _content_length(headers) -> int | None:
    """Request body length from Content-Length (RFC 7230 3.3.2): 0 if absent,
    None if malformed or repeated with different values."""
    values = {value.strip() for value in headers.get_all("Content-Length", [])}
    if not values:
        return 0
    value = values.pop()
    if values or not _CONTENT_LENGTH.fullmatch(value):
        return None
    return int(value)


class _UpstreamPool:
    """Idle keep-alive connections to origins, keyed by (host, port).

    Holds at most MAX_IDLE_UPSTREAM connections, evicting the least
    recently returned. The newest idle connection to an origin is reused
    first, since it is the least likely to have been closed by the origin.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: OrderedDict[http.client.HTTPConnection, tuple[str, int]] = OrderedDict()

    def take(self, key: tuple[str, int]) -> http.client.HTTPConnection | None:
        with self._lock:
            for conn in reversed(self._idle):
                if self._idle[conn] == key:
                    del self._idle[conn]
                    return conn
        return None

    def give(self, key: tuple[str, int], conn: http.client.HTTPConnection) -> None:
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


class _RelayHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    service: "ProxyService"  # bound per server instance

    def log_message(self, fmt, *args):  # silence stderr chatter
        pass

    def _forward(self):
        self.service.handle_request_socketless(self)

    do_GET = do_POST = do_HEAD = do_PUT = do_DELETE = do_OPTIONS = _forward

    def do_CONNECT(self):
        self.service.handle_connect(self)


class _ControlHandler(socketserver.StreamRequestHandler):
    def handle(self):
        service: ProxyService = self.server.service  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            reply = service.handle_control_line(line)
            self.wfile.write((reply + "\n").encode("utf-8"))
            self.wfile.flush()


class ProxyService:
    """Runs the listen socket, the control socket, and the logs.

    The mode flag is read once per exchange, so a switch never applies to
    an exchange already past its injection decision. The injector and
    each log writer are single-writer behind one lock. After stop(), a
    client connection that is still open gets 503 with Connection: close
    and nothing more is relayed or logged.
    """

    def __init__(self, config: ProxyConfig):
        config.validate()
        self.config = config
        self._mode = config.mode
        self._mode_lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._stopped = False  # set under _log_lock; logs are closed once it is True
        self._error_log = LogAppender(config.error_log_path, lambda fh, lines: fh.writelines(lines))
        self.exchange_log = exchange_log_appender(config.exchange_log_path)
        self.tag_log = TAG_LOG.appender(config.tag_log_path)
        logs = (self._error_log, self.exchange_log, self.tag_log)
        for log in logs:
            if log.dropped:
                self._log_error(f"{log.path}: dropped {log.dropped} bytes of a torn last line")
        self.injector = None
        if config.zone:
            try:
                issued = sum(tag.kind == DYNAMIC for tag in TAG_LOG.read(config.tag_log_path))
            except LogFormatError:
                for log in logs:
                    log.close()
                raise
            self.injector = Injector(
                zone=config.zone, static_label=config.static_label, seed=config.seed
            )
            # resume after the labels earlier runs on this log issued, so
            # a restart with the same seed never issues one of them again
            self.injector.counter = issued
        self.exchanges_handled = 0
        self.tags_injected = 0
        # resume after the exchanges earlier runs on this log recorded, so
        # every exchange id (and the tags.csv rows naming it) stays unique
        self._exchange_seq = count_lines(config.exchange_log_path)
        handler = type("BoundRelayHandler", (_RelayHandler,), {"service": self})
        self._http_server = ThreadingHTTPServer(
            (config.listen_host, config.listen_port), handler
        )
        self._control_server = socketserver.ThreadingTCPServer(
            (config.control_host, config.control_port), _ControlHandler
        )
        self._control_server.daemon_threads = True
        self._control_server.service = self  # type: ignore[attr-defined]
        self._threads: list[threading.Thread] = []
        self._upstream = _UpstreamPool()

    # -- lifecycle ----------------------------------------------------------

    @property
    def listen_address(self) -> tuple[str, int]:
        return self._http_server.server_address[:2]

    @property
    def control_address(self) -> tuple[str, int]:
        return self._control_server.server_address[:2]

    def start(self) -> None:
        for server in (self._http_server, self._control_server):
            thread = threading.Thread(
                target=server.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        with self._log_lock:
            self._stopped = True
        self._http_server.shutdown()
        self._control_server.shutdown()
        self._http_server.server_close()
        self._control_server.server_close()
        for thread in self._threads:
            thread.join(timeout=5)
        self._upstream.close_all()
        with self._log_lock:
            self.exchange_log.close()
            self.tag_log.close()
            self._error_log.close()

    # -- mode / control ------------------------------------------------------

    def current_mode(self) -> str:
        with self._mode_lock:
            return self._mode

    def set_mode(self, mode: str) -> None:
        if mode == ACTIVE and self.injector is None:
            raise ProxyConfigError("active mode requires an injector zone")
        with self._mode_lock:
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
        with self._log_lock:
            if self._stopped:
                return "ERR proxy stopped"
            exchange_bytes = self.exchange_log.tell()
            tag_bytes = self.tag_log.tell()
        return f"OK exchange_log_bytes={exchange_bytes} tag_log_bytes={tag_bytes}"

    # -- exchange handling ----------------------------------------------------

    def process_response(self, exchange: HttpExchange, mode: str) -> tuple[HttpExchange, list[Tag]]:
        """Injection decision for one exchange under an already-read mode."""
        if mode == ACTIVE and self.injector is not None:
            with self._log_lock:
                return self.injector.inject(exchange)
        return exchange, []

    def _log_exchange(self, exchange: HttpExchange, tags: list[Tag]) -> bool:
        """Log one exchange and its tags; False, logging nothing, once stopped."""
        with self._log_lock:
            if self._stopped:
                return False
            self.exchange_log.append(exchange)
            if tags:
                self.tag_log.append(*tags)
            self.exchanges_handled += 1
            self.tags_injected += len(tags)
        return True

    def _log_error(self, message: str) -> None:
        with self._log_lock:
            if self._stopped:
                return
            self._error_log.append(f"{time.time():.3f} {message}\n")

    def _next_ids(self) -> tuple[str, str]:
        with self._log_lock:
            seq = self._exchange_seq
            self._exchange_seq += 1
        return f"x{seq:08d}", f"fl{seq:08d}"

    def _fetch(
        self, origin: tuple[str, int], method: str, selector: str, body: bytes, headers: dict
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request upstream, on an idle pooled connection if there is one.

        A reused connection the origin has meanwhile closed fails before any
        response arrives; an idempotent request is then sent once more on a
        fresh connection, any other request fails.
        """
        conn = self._upstream.take(origin)
        if conn is not None:
            try:
                return conn, self._send(conn, method, selector, body, headers)
            except (ConnectionResetError, BrokenPipeError):  # incl. RemoteDisconnected
                if method not in _IDEMPOTENT:
                    raise
        conn = http.client.HTTPConnection(*origin, timeout=UPSTREAM_TIMEOUT_S)
        return conn, self._send(conn, method, selector, body, headers)

    @staticmethod
    def _send(
        conn: http.client.HTTPConnection, method: str, selector: str, body: bytes, headers: dict
    ) -> http.client.HTTPResponse:
        try:
            conn.request(method, selector, body=body or None, headers=headers)
            return conn.getresponse()
        except BaseException:
            conn.close()
            raise

    def handle_request_socketless(self, handler: BaseHTTPRequestHandler) -> None:
        """Relay one absolute-URI proxy request and deliver the response."""
        if self._stopped:
            handler.send_error(503, "proxy stopped")  # with Connection: close
            return
        url = handler.path
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            handler.send_error(400, "proxy requires absolute http URLs")
            return
        if "Transfer-Encoding" in handler.headers:
            # Bodies are read by Content-Length only: an encoded body would be
            # relayed empty and its chunks parsed as the next request.
            self._log_error(f"Transfer-Encoding request refused for {url}")
            handler.send_error(411, "Content-Length required")  # with Connection: close
            return
        length = _content_length(handler.headers)
        if length is None:
            self._log_error(
                f"malformed Content-Length {handler.headers.get_all('Content-Length')!r} for {url}"
            )
            handler.send_error(400, "malformed Content-Length")
            return
        request_body = handler.rfile.read(length) if length else b""
        request_headers = tuple(
            (name, value)
            for name, value in handler.headers.items()
            if name.lower() not in _HOP_BY_HOP
        )
        selector = parts.path or "/"
        if parts.query:
            selector += "?" + parts.query
        origin = (parts.hostname, parts.port or 80)
        upstream_headers = {
            name: value
            for name, value in request_headers
            if name.lower() not in ("host", "content-length")
        }
        try:
            conn, upstream = self._fetch(
                origin, handler.command, selector, request_body, upstream_headers
            )
            try:
                body = upstream.read()
            except BaseException:
                conn.close()
                raise
        except (OSError, http.client.HTTPException) as exc:
            self._log_error(f"upstream {parts.hostname}: {exc}")
            handler.send_error(502, "upstream unreachable")
            return
        if upstream.will_close:
            conn.close()
        else:
            self._upstream.give(origin, conn)
        status = upstream.status
        response_headers = tuple(
            (name, value)
            for name, value in upstream.getheaders()
            if name.lower() not in _HOP_BY_HOP | {"content-length"}
        ) + (("Content-Length", str(len(body))),)
        exchange_id, flow_id = self._next_ids()
        exchange = HttpExchange(
            exchange_id=exchange_id,
            timestamp=time.time(),
            flow_id=flow_id,
            method=handler.command,
            url=url,
            request_headers=request_headers,
            response_status=status,
            response_headers=response_headers,
            response_body=body,
            is_encrypted=False,
        )
        mode = self.current_mode()
        delivered, tags = self.process_response(exchange, mode)
        if not self._log_exchange(delivered, tags):
            handler.send_error(503, "proxy stopped")  # with Connection: close
            return
        self._deliver(handler, delivered)

    @staticmethod
    def _deliver(handler: BaseHTTPRequestHandler, exchange: HttpExchange) -> None:
        """Status line, headers and body in a single write."""
        status = exchange.response_status
        reason = handler.responses.get(status, ("",))[0]
        head = f"{handler.protocol_version} {status} {reason}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in exchange.response_headers
        )
        payload = (head + "\r\n").encode("latin-1", "strict")
        if handler.command != "HEAD":
            payload += exchange.response_body
        handler.wfile.write(payload)

    def handle_connect(self, handler: BaseHTTPRequestHandler) -> None:
        """Opaque tunnel: logged as an encrypted exchange, never rewritten."""
        if self._stopped:
            handler.send_error(503, "proxy stopped")  # with Connection: close
            return
        target = handler.path
        host, _, port = target.partition(":")
        try:
            upstream = socket.create_connection(
                (host, int(port or 443)), timeout=UPSTREAM_TIMEOUT_S
            )
        except OSError as exc:
            self._log_error(f"connect {target}: {exc}")
            handler.send_error(502, "upstream unreachable")
            return
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
            upstream.close()
            handler.send_error(503, "proxy stopped")  # with Connection: close
            return
        handler.send_response_only(200, "Connection Established")
        handler.end_headers()
        handler.wfile.flush()
        client = handler.connection

        def pump(src: socket.socket, dst: socket.socket) -> None:
            try:
                while True:
                    chunk = src.recv(65536)
                    if not chunk:
                        break
                    dst.sendall(chunk)
            except OSError:
                pass
            finally:
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pass

        downstream = threading.Thread(target=pump, args=(upstream, client), daemon=True)
        downstream.start()
        pump(client, upstream)
        downstream.join(timeout=UPSTREAM_TIMEOUT_S)
        upstream.close()
        handler.close_connection = True
