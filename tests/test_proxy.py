import asyncio
import contextlib
import gc
import http.client
import itertools
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconlab import proxy
from beaconlab.clientsim import calibrated_vuln_db, write_fetch_log
from beaconlab.correlate import build_report_from_dir
from beaconlab.dnssim import DnsQueryRecord, write_query_log
from beaconlab.httplog import LogFormatError, read_exchange_log
from beaconlab.inject import DYNAMIC, read_tag_log
from beaconlab.proxy import (
    ACTIVE,
    MAX_IDLE_UPSTREAM,
    PASSIVE,
    ProxyConfig,
    ProxyConfigError,
    ProxyService,
    _UpstreamPool,
    parse_control_command,
)

HTML_PAGE = b"<html><head><title>t</title></head><body><p>hello</p></body></html>"
GIF_BYTES = b"GIF89a\x01\x00\x01\x00"
PAGE_4K = b"<html><head><title>4k</title></head><body><p>" + b"x" * 4040 + b"</p></body></html>"


class _OriginHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        if self.path.endswith(".gif"):
            body, ctype = GIF_BYTES, "image/gif"
        else:
            body, ctype = HTML_PAGE, "text/html; charset=utf-8"
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def origin():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _OriginHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()


class _KeepAliveOriginHandler(BaseHTTPRequestHandler):
    """Serves PAGE_4K in one write on a TCP_NODELAY socket, keeps connections
    alive, and records on its server every connection and POST it sees."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.accepted += 1
            self.server.open.add(self.connection)

    def finish(self):
        with self.server.lock:
            self.server.open.discard(self.connection)
        super().finish()

    def _reply(self):
        head = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n"
        self.wfile.write(head % len(PAGE_4K) + PAGE_4K)

    def do_GET(self):
        self._reply()

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        with self.server.lock:
            self.server.posts += 1
        self._reply()


@pytest.fixture()
def keepalive_origin():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveOriginHandler)
    server.lock = threading.Lock()
    server.accepted = server.posts = 0
    server.open = set()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def close_idle_origin_connections(server):
    """The origin drops every open connection, as an idle timeout would."""
    with server.lock:
        open_sockets = list(server.open)
    for sock in open_sockets:
        sock.shutdown(socket.SHUT_RDWR)
    deadline = time.monotonic() + 5
    while server.open and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not server.open


def raw_exchange(service, request: bytes) -> bytes:
    """Send raw bytes to the proxy and read until it closes the connection."""
    with socket.create_connection(service.listen_address, timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


class RawOrigin:
    """A loopback origin answering each request it reads with the next
    scripted reply, byte for byte.

    A reply is ``(bytes, close)``: with ``close`` set, the connection is
    closed after it. Keeps the raw bytes of every request and the number
    of connections accepted.
    """

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests: list[bytes] = []
        self.accepted = 0
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.address = self.sock.getsockname()[:2]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while self.replies:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            with conn:
                self._serve_connection(conn)

    def _serve_connection(self, conn):
        buffered = b""
        while self.replies:
            while b"\r\n\r\n" not in buffered:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffered += chunk
            head, _, buffered = buffered.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            while len(buffered) < length:
                buffered += conn.recv(65536)
            self.requests.append(head + b"\r\n\r\n" + buffered[:length])
            buffered = buffered[length:]
            reply, close = self.replies.pop(0)
            conn.sendall(reply)
            if close:
                return

    def url(self, path="/"):
        return "http://%s:%d%s" % (*self.address, path)

    def close(self):
        # a thread blocked in accept() wakes at a shutdown, not at a close
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.thread.join(timeout=5)


@pytest.fixture()
def raw_origin():
    origins = []

    def make(*replies):
        origins.append(RawOrigin(replies))
        return origins[-1]

    yield make
    for origin in origins:
        origin.close()


class TrickleOrigin:
    """A loopback origin that answers each request head it reads with the
    next scripted reply, sent in pieces whose sizes cycle through
    ``pieces``, with a pause after each. With no reply left it keeps the
    connection open and silent until the proxy closes it.

    A reply is ``(bytes, close)``: with ``close`` set, the connection is
    closed after it. Counts the connections accepted.
    """

    def __init__(self, replies, pieces=(1,)):
        self.replies = list(replies)
        self.pieces = pieces
        self.accepted = 0
        self.conns = []
        self.closed = threading.Event()
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.address = self.sock.getsockname()[:2]
        self.threads = [threading.Thread(target=self._serve, daemon=True)]
        self.threads[0].start()

    def _serve(self):
        while not self.closed.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            self.conns.append(conn)
            self.threads.append(threading.Thread(target=self._serve_connection, args=(conn,), daemon=True))
            self.threads[-1].start()

    def _serve_connection(self, conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffered = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buffered:
                    try:
                        chunk = conn.recv(65536)
                    except OSError:
                        return
                    if not chunk:
                        return
                    buffered += chunk
                buffered = buffered.partition(b"\r\n\r\n")[2]
                if not self.replies:
                    continue  # read on, answer nothing
                reply, close = self.replies.pop(0)
                at = 0
                for size in itertools.cycle(self.pieces):
                    if at >= len(reply):
                        break
                    conn.sendall(reply[at:at + size])
                    at += size
                    time.sleep(0.001)
                if close:
                    return

    def close(self):
        self.closed.set()
        for conn in self.conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        for thread in self.threads:
            thread.join(timeout=5)
        self.sock.close()


@pytest.fixture()
def trickle_origin():
    origins = []

    def make(*replies, pieces=(1,)):
        origins.append(TrickleOrigin(replies, pieces))
        return origins[-1]

    yield make
    for origin in origins:
        origin.close()


def split_reply(reply: bytes) -> tuple[bytes, dict, bytes]:
    """(status line, headers by lowercased name, body) of one raw reply."""
    head, _, body = reply.partition(b"\r\n\r\n")
    status, *lines = head.split(b"\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def read_until_closed(sock) -> bytes:
    """Everything the peer sends until it closes; a reset counts as a close."""
    reply = b""
    try:
        while chunk := sock.recv(65536):
            reply += chunk
    except ConnectionResetError:
        pass
    return reply


@pytest.fixture()
def service(tmp_path):
    config = ProxyConfig(
        exchange_log_path=str(tmp_path / "exchanges.jsonl"),
        tag_log_path=str(tmp_path / "tags.csv"),
        error_log_path=str(tmp_path / "errors.log"),
        mode=PASSIVE,
        zone="tracker.test",
        static_label="pixel",
        payload_address="192.0.2.9",
    )
    svc = ProxyService(config)
    svc.start()
    yield svc
    svc.stop()


def proxy_get(service, origin, path):
    host, port = service.listen_address
    conn = http.client.HTTPConnection(host, port, timeout=5)
    conn.request("GET", f"http://{origin[0]}:{origin[1]}{path}")
    response = conn.getresponse()
    body = response.read()
    conn.close()
    return response.status, body


def control(service, line):
    host, port = service.control_address
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall((line + "\n").encode())
        fh = sock.makefile("r")
        return fh.readline().strip()


class TestControlProtocol:
    def test_parse_valid(self):
        assert parse_control_command("STATUS") == ("STATUS", None)
        assert parse_control_command("mode active") == ("MODE", "active")
        assert parse_control_command("SNAPSHOT") == ("SNAPSHOT", None)

    def test_parse_invalid(self):
        for bad in ("", "MODE", "MODE SIDEWAYS", "REBOOT", "STATUS NOW"):
            with pytest.raises(ValueError):
                parse_control_command(bad)

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.text(max_size=30),
            st.lists(
                st.one_of(
                    st.sampled_from(["STATUS", "snapshot", "MODE", "mode", "ACTIVE", "passive"]),
                    st.text(max_size=8),
                ),
                max_size=3,
            ).map(" ".join),
        )
    )
    def test_parse_raises_only_value_error(self, line):
        try:
            parsed = parse_control_command(line)
        except ValueError:
            return
        assert parsed in {
            ("STATUS", None), ("SNAPSHOT", None), ("MODE", "passive"), ("MODE", "active")
        }

    def test_mode_roundtrip_over_socket(self, service):
        assert control(service, "MODE ACTIVE") == "OK mode=ACTIVE"
        assert control(service, "STATUS").startswith("OK mode=ACTIVE")
        assert control(service, "MODE PASSIVE") == "OK mode=PASSIVE"

    def test_malformed_command_is_an_error(self, service):
        assert control(service, "MODE").startswith("ERR")
        assert control(service, "FLY").startswith("ERR")
        # state unchanged
        assert control(service, "STATUS").startswith("OK mode=PASSIVE")

    def test_line_over_the_head_limit_closes_only_its_connection(self, service):
        with socket.create_connection(service.control_address, timeout=5) as sock:
            sock.sendall(b"STATUS" + b" " * proxy.MAX_HEAD_BYTES + b"\n")
            assert read_until_closed(sock) == b""
        assert control(service, "STATUS").startswith("OK mode=PASSIVE")


class TestHostField:
    """The Host field sent upstream is the one http.client would send."""

    @pytest.mark.parametrize("target, origin, host", [
        ("http://bücher.test/p", ("bücher.test", 80), "xn--bcher-kva.test"),
        ("http://bücher.test:8080/p", ("bücher.test", 8080), "xn--bcher-kva.test:8080"),
        ("http://[::1]:8080/p", ("::1", 8080), "[::1]:8080"),
        ("http://[fe80::1%25eth0]/p", ("fe80::1%25eth0", 80), "[fe80::1]"),
    ], ids=["idna", "idna-with-port", "ipv6", "ipv6-zone"])
    def test_idna_name_and_ipv6_literal(self, service, target, origin, host):
        # handled socket-free: the connection only records what it is handed,
        # so no name is looked up and nothing is connected
        relayed, finished = [], []
        client = SimpleNamespace(relay=lambda *args: relayed.append(args), finish=finished.append)
        request = proxy.Request("GET", target, proxy._Headers([("Host", "x")]), client, False, False)
        service.handle_request_socketless(request)
        message = f"GET /p HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n\r\n"
        assert relayed == [(origin, message.encode("ascii"), 0)]
        assert finished == []


class TestConnectTarget:
    @pytest.mark.parametrize("target, authority", [
        ("origin.test", ("origin.test", 443)),
        ("[::1]", ("::1", 443)),
        ("origin.test:8443", ("origin.test", 8443)),
    ], ids=["name", "ipv6", "port"])
    def test_a_target_with_no_port_goes_to_port_443(self, service, target, authority):
        # handled socket-free: the connection only records the tunnel it is asked for
        opened = []
        client = SimpleNamespace(open_tunnel=opened.append)
        service.handle_connect(proxy.Request("CONNECT", target, proxy._Headers([]), client, False, False))
        assert opened == [authority]


class TestRelay:
    def test_passive_transparency(self, service, origin):
        status, body = proxy_get(service, origin, "/page")
        assert status == 200
        assert body == HTML_PAGE

    def test_passive_logs_exchange(self, service, origin):
        proxy_get(service, origin, "/page")
        control(service, "SNAPSHOT")
        log = read_exchange_log(service.config.exchange_log_path)
        assert len(log) == 1
        assert log[0].response_body == HTML_PAGE
        assert log[0].extra == {}

    def test_active_injects_both_beacons(self, service, origin):
        control(service, "MODE ACTIVE")
        status, body = proxy_get(service, origin, "/page")
        assert status == 200
        assert body.count(b"<img ") == 2
        assert b"pixel.tracker.test" in body
        tags = read_tag_log(service.config.tag_log_path)
        assert [tag.kind for tag in tags] == ["static", "dynamic"]

    def test_active_non_html_passthrough(self, service, origin):
        control(service, "MODE ACTIVE")
        _, body = proxy_get(service, origin, "/img.gif")
        assert body == GIF_BYTES

    def test_upstream_unreachable_returns_gateway_error(self, service):
        host, port = service.listen_address
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("GET", "http://127.0.0.1:1/dead")
        response = conn.getresponse()
        assert response.status == 502
        response.read()
        conn.close()
        assert os.path.getsize(service.config.error_log_path) > 0

    def test_counters_match_log_lengths(self, service, origin):
        control(service, "MODE ACTIVE")
        for _ in range(3):
            proxy_get(service, origin, "/page")
        control(service, "SNAPSHOT")
        assert service.exchanges_handled == 3
        assert len(read_exchange_log(service.config.exchange_log_path)) == 3
        assert service.tags_injected == len(read_tag_log(service.config.tag_log_path)) == 6

    def test_mode_switch_between_exchanges(self, service, origin):
        _, passive_body = proxy_get(service, origin, "/page")
        control(service, "MODE ACTIVE")
        _, active_body = proxy_get(service, origin, "/page")
        control(service, "MODE PASSIVE")
        _, passive_again = proxy_get(service, origin, "/page")
        assert passive_body == passive_again == HTML_PAGE
        assert active_body != HTML_PAGE


class TestKeepAlive:
    def test_keepalive_requests_do_not_stall(self, service, keepalive_origin):
        control(service, "MODE ACTIVE")
        url = "http://%s:%d/page" % keepalive_origin.server_address
        conn = http.client.HTTPConnection(*service.listen_address, timeout=5)
        latencies = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                conn.request("GET", url)
                response = conn.getresponse()
                body = response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == 200
                assert body.count(b"<img ") == 2
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020

    def test_upstream_connection_reused(self, service, keepalive_origin):
        url = "http://%s:%d/page" % keepalive_origin.server_address
        conn = http.client.HTTPConnection(*service.listen_address, timeout=5)
        try:
            for _ in range(5):
                conn.request("GET", url)
                response = conn.getresponse()
                assert response.status == 200
                assert response.read() == PAGE_4K
        finally:
            conn.close()
        assert keepalive_origin.accepted == 1

    def test_pooled_requests_create_no_task(self, service, keepalive_origin):
        # nor a client-side timer: each request arrives whole
        url = "http://%s:%d/page" % keepalive_origin.server_address
        conn = http.client.HTTPConnection(*service.listen_address, timeout=5)
        loop = service._loop
        tasks = []
        timers = []

        def counting_factory(loop, coro, **kwargs):
            tasks.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        def counting_call_at(when, callback, *args, **kwargs):
            timers.append(callback)
            return type(loop).call_at(loop, when, callback, *args, **kwargs)

        def count():
            loop.set_task_factory(counting_factory)
            loop.call_at = counting_call_at

        try:
            conn.request("GET", url)  # opens the client and upstream connections
            assert conn.getresponse().read() == PAGE_4K
            counting = threading.Event()
            loop.call_soon_threadsafe(lambda: (count(), counting.set()))
            assert counting.wait(timeout=5)
            for _ in range(5):
                conn.request("GET", url)
                assert conn.getresponse().read() == PAGE_4K
        finally:
            conn.close()
        assert keepalive_origin.accepted == 1
        assert tasks == []
        # one upstream deadline per request, and no other timer
        assert [timer.__func__ for timer in timers] == [proxy._Client._expire] * 5

    def test_stale_connection_retried_for_get(self, service, keepalive_origin):
        assert proxy_get(service, keepalive_origin.server_address, "/page") == (200, PAGE_4K)
        close_idle_origin_connections(keepalive_origin)
        assert proxy_get(service, keepalive_origin.server_address, "/page") == (200, PAGE_4K)
        assert keepalive_origin.accepted == 2
        assert os.path.getsize(service.config.error_log_path) == 0

    def test_stale_connection_not_retried_for_post(self, service, keepalive_origin):
        # Nothing is sent on a pooled connection the origin has closed, so
        # the POST goes once, on a fresh connection.
        assert proxy_get(service, keepalive_origin.server_address, "/page")[0] == 200
        close_idle_origin_connections(keepalive_origin)
        host, port = service.listen_address
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("POST", "http://%s:%d/form" % keepalive_origin.server_address, body=b"a=1")
        response = conn.getresponse()
        assert response.read() == PAGE_4K
        conn.close()
        assert response.status == 200
        assert keepalive_origin.posts == 1
        assert keepalive_origin.accepted == 2
        assert os.path.getsize(service.config.error_log_path) == 0

    def test_post_lost_after_it_was_sent_is_not_resent(self, service, trickle_origin):
        # The origin reads the POST on the pooled connection and closes it
        # unanswered; the third reply would answer a second attempt.
        ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        origin = trickle_origin((ok, False), (b"", True), (ok, False), pieces=(64,))
        assert proxy_get(service, origin.address, "/first") == (200, b"ok")
        host, port = service.listen_address
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("POST", "http://%s:%d/form" % origin.address, body=b"a=1")
        response = conn.getresponse()
        response.read()
        conn.close()
        assert response.status == 502
        assert origin.accepted == 1
        assert len(origin.replies) == 1
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            (line,) = fh.readlines()
        assert "ConnectionResetError" in line

    @pytest.mark.parametrize("method, status, accepted, errors", [
        ("GET", 200, 2, 0), ("POST", 502, 1, 1)
    ])
    def test_request_lost_on_a_reused_connection(
        self, service, raw_origin, method, status, accepted, errors
    ):
        # The origin reads the second request on the pooled connection and
        # closes it without a byte; the third reply answers a second attempt.
        ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        origin = raw_origin((ok, False), (b"", True), (ok, False))
        assert proxy_get(service, origin.address, "/first") == (200, b"ok")
        conn = http.client.HTTPConnection(*service.listen_address, timeout=5)
        try:
            conn.request(method, origin.url("/again"), body=b"a=1" if method == "POST" else None)
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        assert response.status == status
        assert origin.accepted == accepted
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert len(lines) == errors
        assert all("ConnectionResetError" in line for line in lines)

    def test_stop_closes_pooled_connections(self, service, keepalive_origin):
        assert proxy_get(service, keepalive_origin.server_address, "/page")[0] == 200
        assert len(keepalive_origin.open) == 1
        service.stop()
        deadline = time.monotonic() + 5
        while keepalive_origin.open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not keepalive_origin.open


class _FakeConn:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestUpstreamPool:
    def test_idle_connections_are_bounded(self):
        pool = _UpstreamPool()
        conns = [_FakeConn() for _ in range(MAX_IDLE_UPSTREAM + 3)]
        for i, conn in enumerate(conns):
            pool.give(("origin", i), conn)
        # the three least recently returned were evicted and closed
        assert [conn.closed for conn in conns[:4]] == [True, True, True, False]
        assert pool.take(("origin", 0)) is None
        assert pool.take(("origin", 3)) is conns[3]
        pool.close_all()
        assert all(conn.closed for conn in conns if conn is not conns[3])
        assert pool.take(("origin", 4)) is None

    def test_concurrent_take_and_give(self, monkeypatch):
        monkeypatch.setattr(proxy, "MAX_IDLE_UPSTREAM", 2)
        pool = _UpstreamPool()
        in_use: set[int] = set()
        lock = threading.Lock()
        bad = []

        def worker(key):
            for _ in range(2000):
                conn = pool.take(key) or _FakeConn()
                with lock:
                    if id(conn) in in_use or conn.closed:
                        bad.append(conn)
                    in_use.add(id(conn))
                with lock:
                    in_use.discard(id(conn))
                pool.give(key, conn)

        threads = [threading.Thread(target=worker, args=(("origin", i % 3),)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not bad  # no connection handed out twice at once or after eviction
        assert len(pool._idle) <= 2


class TestMalformedRequest:
    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_rejected(self, service, origin, length):
        url = b"http://%s:%d/page" % (origin[0].encode(), origin[1])
        reply = raw_exchange(
            service,
            b"POST " + url + b" HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + b"\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert len(lines) == 1
        assert "Content-Length" in lines[0]

    @pytest.mark.parametrize("request_head, status", [
        (b"GET http://127.0.0.1:99999/ HTTP/1.1\r\n\r\n", 400),
        (b"GET http://127.0.0.1:%d/\x01 HTTP/1.1\r\n\r\n", 400),
        (b"GET http://127.0.0.1:%d/ HTTP/1.1\r\nHost x\r\n\r\n", 400),
        (b"GET http://127.0.0.1:%d/ HTTP/1.1\r\nX: a\nY: b\r\n\r\n", 400),
        (b"GET http://127.0.0.1:%d/ HTTP/1.1\r\nX: a\rY: b\r\n\r\n", 400),
        (b"GET http://127.0.0.1:%d/\r\n\r\n", 400),
        (b"GET http://127.0.0.1:%d/ HTTP/2.0\r\n\r\n", 505),
        (b"PATCH http://127.0.0.1:%d/ HTTP/1.1\r\n\r\n", 501),
        (b"CONNECT 127.0.0.1:port HTTP/1.1\r\n\r\n", 400),
        (b"CONNECT ::1:%d HTTP/1.1\r\n\r\n", 400),
        (b"CONNECT [::1:%d HTTP/1.1\r\n\r\n", 400),
        (b"CONNECT [::1]x%d HTTP/1.1\r\n\r\n", 400),
        (b"CONNECT [127.0.0.1]:%d HTTP/1.1\r\n\r\n", 400),
        (b"CONNECT 127.0.0.1:+%d HTTP/1.1\r\n\r\n", 400),
        (b"CONNECT 127.0.0.1:" + b"1" * 5000 + b" HTTP/1.1\r\n\r\n", 400),
        (b"GET http://127.0.0.1:%d/ HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n", 400),
        (b"GET http://127.0.0.1:%d/ HTTP/1.10\r\n\r\n", 400),
        (b"GET http://127.0.0.1:%d/ HTTP/01.1\r\n\r\n", 400),
    ], ids=["port-range", "control-char", "no-colon", "bare-lf", "bare-cr", "no-version",
            "http2", "unsupported-method", "connect-port", "connect-unbracketed-ipv6",
            "connect-unclosed-bracket", "connect-after-bracket", "connect-bracketed-ipv4",
            "connect-signed-port", "connect-5000-digit-port", "obs-fold", "two-digit-minor",
            "two-digit-major"])
    def test_malformed_request_gets_an_error_and_a_close(
        self, service, keepalive_origin, capfd, request_head, status
    ):
        if b"%d" in request_head:
            request_head %= keepalive_origin.server_address[1]
        with socket.create_connection(service.listen_address, timeout=5) as sock:
            sock.sendall(request_head)
            reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert b"Connection: close" in reply
        assert "Traceback" not in capfd.readouterr().err
        assert keepalive_origin.accepted == 0
        assert read_exchange_log(service.config.exchange_log_path) == []

    @pytest.mark.parametrize("request_head", [
        b"GET http://127.0.0.1:%d/ HTTP/1.1\nHost: x\n\n",
        b"GET http://127.0.0.1:%d/ HTTP/1.1\r\nX\r\n\r\n",
        b"GET http://127.0.0.1:%d/ HTTP/1.1\r\n\nHost: x\n\n",
    ], ids=["bare-lf-head", "one-byte-field-line", "bare-lf-blank-line"])
    def test_head_that_never_ends_in_crlf_crlf_is_answered_at_once(
        self, service, keepalive_origin, request_head
    ):
        request_head %= keepalive_origin.server_address[1]
        with socket.create_connection(service.listen_address, timeout=2) as sock:
            sock.sendall(request_head)  # and keep the connection open
            reply = read_until_closed(sock)  # times out unless the proxy answers and closes
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert keepalive_origin.accepted == 0

    def test_bare_lf_field_lines_after_a_crlf_request_line_are_answered_at_once(
        self, service, keepalive_origin
    ):
        request_head = b"GET http://127.0.0.1:%d/ HTTP/1.1\r\nHost: x\n\n" % (
            keepalive_origin.server_address[1]
        )
        with socket.create_connection(service.listen_address, timeout=1) as sock:
            sock.sendall(request_head)  # and keep the connection open
            reply = read_until_closed(sock)  # times out unless the proxy answers and closes
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert keepalive_origin.accepted == 0

    def test_head_of_many_short_lines_over_the_cap_is_refused(self, service, origin, capfd):
        url = b"http://%s:%d/page" % (origin[0].encode(), origin[1])
        fields = b"".join(b"X-%d: %s\r\n" % (i, b"a" * 60) for i in range(1200))
        with socket.create_connection(service.listen_address, timeout=5) as sock:
            sock.sendall(b"GET " + url + b" HTTP/1.1\r\n" + fields + b"\r\n")
            reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 431 ")
        assert "Traceback" not in capfd.readouterr().err
        assert read_exchange_log(service.config.exchange_log_path) == []

    def test_chunked_request_is_refused_unrelayed(self, service, keepalive_origin):
        host, port = keepalive_origin.server_address
        reply = raw_exchange(
            service,
            b"POST http://%s:%d/form HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n" % (host.encode(), port),
        )
        # one 411, then EOF: the chunk lines are never parsed as a request
        assert reply.startswith(b"HTTP/1.1 411 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in reply
        assert keepalive_origin.accepted == 0
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert len(lines) == 1
        assert "Transfer-Encoding" in lines[0]
        assert read_exchange_log(service.config.exchange_log_path) == []


class TestWireBehaviour:
    """What the relay sends each way, pinned byte for byte where it matters."""

    def test_chunked_response_is_delivered_dechunked(self, service, raw_origin):
        origin = raw_origin(
            (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\r\n"
             b"5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n", False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", False),
        )
        host, port = service.listen_address
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request("GET", origin.url("/chunked"))
            response = conn.getresponse()
            assert response.read() == b"hello world"
            assert response.getheader("Content-Length") == "11"
            assert response.getheader("Transfer-Encoding") is None
            conn.request("GET", origin.url("/next"))
            assert conn.getresponse().read() == b"ok"
        finally:
            conn.close()
        assert origin.accepted == 1  # the chunked reply left the connection reusable
        log = read_exchange_log(service.config.exchange_log_path)
        assert log[0].response_body == b"hello world"
        assert ("Content-Length", "11") in log[0].response_headers

    @pytest.mark.parametrize("first", [
        b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nwhole body, to the close",
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nwhole body, to the close",
        b"HTTP/1.0 200 OK\r\nContent-Length: 24\r\n\r\nwhole body, to the close",
    ], ids=["http10", "close-delimited", "http10-with-length"])
    def test_close_delimited_response_is_relayed_whole_and_not_pooled(
        self, service, raw_origin, first
    ):
        origin = raw_origin(
            (first, True),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", False),
        )
        assert proxy_get(service, origin.address, "/a") == (200, b"whole body, to the close")
        # a POST is not retried, so it fails if the closed connection was pooled
        conn = http.client.HTTPConnection(*service.listen_address, timeout=5)
        try:
            conn.request("POST", origin.url("/b"), body=b"x")
            response = conn.getresponse()
            assert (response.status, response.read()) == (200, b"ok")
        finally:
            conn.close()
        assert origin.accepted == 2
        assert os.path.getsize(service.config.error_log_path) == 0

    def test_bodiless_responses_carry_no_body(self, service, raw_origin):
        origin = raw_origin(
            (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\n", False),
            (b"HTTP/1.1 204 No Content\r\n\r\n", False),
            (b"HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\n\r\n", False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nlast", False),
        )
        request = (
            b"HEAD %(url)s/head HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET %(url)s/204 HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET %(url)s/304 HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET %(url)s/last HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        ) % {b"url": origin.url("").encode()}
        reply = raw_exchange(service, request)
        # each head is followed directly by the next status line
        heads = reply.split(b"\r\n\r\n")
        assert [head.split(b"\r\n")[0] for head in heads[:4]] == [
            b"HTTP/1.1 200 OK",
            b"HTTP/1.1 204 No Content",
            b"HTTP/1.1 304 Not Modified",
            b"HTTP/1.1 200 OK",
        ]
        assert heads[4] == b"last"
        assert origin.accepted == 1
        # Content-Length (RFC 7230 3.3.2): none on a 204; the origin's value,
        # or none, on HEAD and 304; as delivered, and as logged
        lengths = [split_reply(head)[1].get(b"content-length") for head in heads[:4]]
        assert lengths == [b"5", None, None, b"4"]
        logged = [
            dict((name.lower(), value) for name, value in exchange.response_headers).get("content-length")
            for exchange in read_exchange_log(service.config.exchange_log_path)
        ]
        assert logged == ["5", None, None, "4"]

    @pytest.mark.parametrize("request_head, status", [
        (b"POST %(url)s HTTP/1.1\r\nExpect: 100-continue\r\nTransfer-Encoding: chunked\r\n\r\n", 411),
        (b"POST ftp://%(authority)s/ HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n", 400),
        (b"POST %(url)s HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: x\r\n\r\n", 400),
    ], ids=["transfer-encoding", "ftp-target", "bad-content-length"])
    def test_refused_request_gets_no_interim_continue(
        self, service, keepalive_origin, request_head, status
    ):
        authority = b"%s:%d" % (keepalive_origin.server_address[0].encode(), keepalive_origin.server_address[1])
        request_head %= {b"url": b"http://" + authority + b"/form", b"authority": authority}
        with socket.create_connection(service.listen_address, timeout=2) as sock:
            sock.sendall(request_head)  # and hold the body back, as the client expects
            reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert b"100 Continue" not in reply
        assert keepalive_origin.accepted == 0

    def test_continue_comes_only_before_an_expected_body(self, service, keepalive_origin):
        url = b"http://%s:%d/form" % (keepalive_origin.server_address[0].encode(), keepalive_origin.server_address[1])
        with socket.create_connection(service.listen_address, timeout=2) as sock:
            sock.sendall(b"POST %s HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n" % url)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(b"a=1")
            # no body expected: no interim response
            sock.sendall(b"GET %s HTTP/1.1\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n" % url)
            reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert reply.count(b"HTTP/1.1 ") == 2
        assert b"100 Continue" not in reply
        assert keepalive_origin.posts == 1

    def test_empty_line_after_a_post_body_is_skipped(self, service, raw_origin):
        ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        origin = raw_origin((ok, False), (ok, False))
        url = origin.url("/form").encode()
        with socket.create_connection(service.listen_address, timeout=5) as sock:
            for request in (
                b"POST %s HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello\r\n" % url,  # an extra CRLF
                b"GET %s HTTP/1.1\r\n\r\n" % url,  # on the same connection
            ):
                sock.sendall(request)
                reply = b""
                while not reply.endswith(b"\r\n\r\nok"):
                    chunk = sock.recv(65536)
                    assert chunk, reply
                    reply += chunk
                assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert [request.split(b" ", 1)[0] for request in origin.requests] == [b"POST", b"GET"]
        assert origin.requests[0].endswith(b"\r\n\r\nhello")
        assert origin.accepted == 1

    def test_upstream_request_bytes(self, service, raw_origin):
        origin = raw_origin(
            (b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", False),
        )
        authority = b"127.0.0.1:%d" % origin.address[1]
        raw_exchange(
            service,
            b"GET http://%s/p?q=1 HTTP/1.1\r\nHost: ignored\r\nUser-Agent:  \tua/1 \r\n"
            b"Proxy-Connection: keep-alive\r\nX-A: 1\r\n\r\n"
            b"POST http://%s/form HTTP/1.1\r\nHost: ignored\r\nContent-Length: 0\r\n\r\n"
            b"POST http://%s/form HTTP/1.1\r\nAccept-Encoding: gzip\r\nContent-Length: 3\r\n"
            b"Connection: close\r\n\r\na=1" % (authority, authority, authority),
        )
        assert origin.requests == [
            b"GET /p?q=1 HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
            b"User-Agent: ua/1 \r\nX-A: 1\r\n\r\n" % authority,
            b"POST /form HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
            b"Content-Length: 0\r\n\r\n" % authority,
            b"POST /form HTTP/1.1\r\nHost: %s\r\nContent-Length: 3\r\n"
            b"Accept-Encoding: gzip\r\n\r\na=1" % authority,
        ]
        # the logged request headers keep names, order and values as sent,
        # less leading blanks and the hop-by-hop ones
        first = read_exchange_log(service.config.exchange_log_path)[0]
        assert first.request_headers == (("Host", "ignored"), ("User-Agent", "ua/1 "), ("X-A", "1"))

    def test_repeated_request_fields_are_forwarded_in_order(self, service, raw_origin):
        origin = raw_origin((b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", False))
        authority = b"127.0.0.1:%d" % origin.address[1]
        raw_exchange(
            service,
            b"GET http://%s/ HTTP/1.1\r\nX-A: 1\r\nHost: ignored\r\nX-B: b\r\nX-A: 2\r\n"
            b"x-a: 3\r\nConnection: close\r\n\r\n" % authority,
        )
        assert origin.requests == [
            b"GET / HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
            b"X-A: 1\r\nX-B: b\r\nX-A: 2\r\nx-a: 3\r\n\r\n" % authority
        ]
        logged = read_exchange_log(service.config.exchange_log_path)[0].request_headers
        assert [field for field in logged if field[0].lower() == "x-a"] == [
            ("X-A", "1"), ("X-A", "2"), ("x-a", "3")
        ]

    @pytest.mark.parametrize("request_line, header", [
        (b"GET %s HTTP/1.1", b"Connection: close\r\n"),
        (b"GET %s HTTP/1.0", b""),
        (b"GET %s HTTP/1.1", b"Connection: Close \r\n"),
        (b"GET %s HTTP/1.1", b"Connection: close, TE\r\n"),
        (b"GET %s HTTP/1.1", b"Connection: TE,close\r\n"),
        (b"GET %s HTTP/1.1", b"Connection: TE\r\nConnection: close\r\n"),
        (b"GET %s HTTP/1.0", b"Connection: keep-alive\r\n"),
    ], ids=["connection-close", "http10-client", "close-in-any-case", "close-first-of-two",
            "close-last-of-two", "close-in-second-field", "http10-keep-alive"])
    def test_client_connection_closes_after_response(self, service, origin, request_line, header):
        url = b"http://%s:%d/page" % (origin[0].encode(), origin[1])
        with socket.create_connection(service.listen_address, timeout=5) as sock:
            sock.sendall(request_line % url + b"\r\nHost: x\r\n" + header + b"\r\n")
            reply = read_until_closed(sock)  # a connection left open times out here
        status, headers, body = split_reply(reply)
        assert status == b"HTTP/1.1 200 OK"
        assert body == HTML_PAGE
        assert headers[b"content-length"] == b"%d" % len(HTML_PAGE)
        # the reply says the connection closes (RFC 7230 6.6); the log does not
        assert headers[b"connection"] == b"close"
        (exchange,) = read_exchange_log(service.config.exchange_log_path)
        assert all(name.lower() != "connection" for name, _ in exchange.response_headers)

    def test_oversized_request_head_is_refused(self, service, origin, capfd):
        url = b"http://%s:%d/page" % (origin[0].encode(), origin[1])
        request = b"GET " + url + b" HTTP/1.1\r\nHost: x\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n"
        with socket.create_connection(service.listen_address, timeout=5) as sock:
            sock.sendall(request)
            reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 431 ")
        assert b"Connection: close" in reply
        assert "Traceback" not in capfd.readouterr().err
        assert read_exchange_log(service.config.exchange_log_path) == []


# Upstream replies of CAP body bytes and of one more, in each framing.
CAP = 1000


def _framed(framing, size):
    body = b"b" * size
    if framing == "content-length":
        return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (size, body), False
    if framing == "chunked":
        return (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"%x\r\n%s\r\n1\r\n%s\r\n0\r\n\r\n" % (size - 1, body[1:], body[:1])
        ), False
    return b"HTTP/1.1 200 OK\r\n\r\n" + body, True  # delimited by the close


class TestUpstreamBodyCap:
    @pytest.mark.parametrize("framing", ["content-length", "chunked", "close-delimited"])
    def test_body_at_the_cap_is_relayed(self, service, raw_origin, monkeypatch, framing):
        monkeypatch.setattr(proxy, "MAX_UPSTREAM_BODY_BYTES", CAP)
        origin = raw_origin(_framed(framing, CAP))
        assert proxy_get(service, origin.address, "/at-cap") == (200, b"b" * CAP)
        assert os.path.getsize(service.config.error_log_path) == 0

    @pytest.mark.parametrize("framing", ["content-length", "chunked", "close-delimited"])
    def test_body_over_the_cap_gets_502_and_one_error_line(
        self, service, raw_origin, monkeypatch, capfd, framing
    ):
        monkeypatch.setattr(proxy, "MAX_UPSTREAM_BODY_BYTES", CAP)
        origin = raw_origin(_framed(framing, CAP + 1))
        status, body = proxy_get(service, origin.address, "/over-cap")
        assert status == 502
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert len(lines) == 1
        assert f"over {CAP} bytes" in lines[0]
        assert read_exchange_log(service.config.exchange_log_path) == []
        assert "Traceback" not in capfd.readouterr().err

    def test_oversized_content_length_is_refused_before_its_body(self, service, raw_origin, monkeypatch):
        monkeypatch.setattr(proxy, "MAX_UPSTREAM_BODY_BYTES", CAP)
        # the head promises more than the cap and no body follows; waiting
        # for it would time the client out
        origin = raw_origin(
            (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (CAP + 1), False)
        )
        url = origin.url("/never").encode()
        with socket.create_connection(service.listen_address, timeout=2) as sock:
            sock.sendall(b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % url)
            reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 502 ")

    def test_length_of_more_digits_than_int_converts_gets_502(self, service, raw_origin, capfd):
        # int() refuses the 5,000 digits; read as no length, the body would
        # run to the close and be relayed with a 200
        origin = raw_origin(
            (b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\nhello" % (b"9" * 5_000), True)
        )
        status, _ = proxy_get(service, origin.address, "/long-length")
        assert status == 502
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            (line,) = fh.readlines()
        assert f"is over {proxy.MAX_UPSTREAM_BODY_BYTES} bytes" in line
        assert read_exchange_log(service.config.exchange_log_path) == []
        assert "Traceback" not in capfd.readouterr().err

    def test_length_under_the_cap_after_5000_zeros_frames_the_body(self, service, trickle_origin):
        # the origin keeps the connection open: only the length ends the body
        origin = trickle_origin(
            (b"HTTP/1.1 200 OK\r\nContent-Length: %s5\r\n\r\nhello" % (b"0" * 5_000), False),
            pieces=(1 << 16,),
        )
        assert proxy_get(service, origin.address, "/padded-length") == (200, b"hello")
        assert os.path.getsize(service.config.error_log_path) == 0


class TestRequestBodyCap:
    def test_body_at_the_cap_is_relayed(self, service, raw_origin, monkeypatch):
        monkeypatch.setattr(proxy, "MAX_REQUEST_BODY_BYTES", CAP)
        origin = raw_origin((b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", False))
        conn = http.client.HTTPConnection(*service.listen_address, timeout=5)
        conn.request("POST", origin.url("/form"), body=b"p" * CAP)
        response = conn.getresponse()
        assert (response.status, response.read()) == (200, b"ok")
        conn.close()
        (request,) = origin.requests
        assert request.endswith(b"\r\n\r\n" + b"p" * CAP)
        assert os.path.getsize(service.config.error_log_path) == 0

    def test_length_under_the_cap_after_5000_zeros_is_relayed(self, service, raw_origin, monkeypatch):
        monkeypatch.setattr(proxy, "MAX_REQUEST_BODY_BYTES", CAP)
        origin = raw_origin((b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", True))
        head = b"POST %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: %s\r\n\r\n"
        with socket.create_connection(service.listen_address, timeout=2) as sock:
            sock.sendall(head % (origin.url("/form").encode(), b"0" * 5_000 + b"10") + b"p" * 10)
            status, _, body = split_reply(read_until_closed(sock))
        assert (status, body) == (b"HTTP/1.1 200 OK", b"ok")
        (request,) = origin.requests
        assert request.endswith(b"\r\nContent-Length: 10\r\n\r\n" + b"p" * 10)
        assert os.path.getsize(service.config.error_log_path) == 0

    # one byte over the cap, and more digits than int() converts
    @pytest.mark.parametrize(
        "length", [b"%d" % (CAP + 1), b"9" * 5_000], ids=["one-over", "5000-digits"]
    )
    def test_body_over_the_cap_gets_413_before_it_is_read(self, service, monkeypatch, length):
        monkeypatch.setattr(proxy, "MAX_REQUEST_BODY_BYTES", CAP)
        with socket.create_server(("127.0.0.1", 0)) as origin:
            url = b"http://127.0.0.1:%d/form" % origin.getsockname()[1]
            # the head alone: the refusal may not wait for the body, nor ask for it
            head = b"POST %s HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: %s\r\n\r\n"
            with socket.create_connection(service.listen_address, timeout=2) as sock:
                sock.sendall(head % (url, length))
                reply = read_until_closed(sock)
            origin.setblocking(False)
            with pytest.raises(BlockingIOError):
                origin.accept()  # the origin never saw a connection
        status, headers, _ = split_reply(reply)
        assert status.startswith(b"HTTP/1.1 413 ")
        assert headers[b"connection"] == b"close"
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            (line,) = fh.readlines()
        assert f"request body of {length.decode()} bytes is over {CAP} bytes" in line
        assert read_exchange_log(service.config.exchange_log_path) == []


class TestIncrementalFraming:
    """Heads and bodies framed from bytes that arrive a few at a time."""

    @pytest.mark.parametrize("reply, close", [
        (b"HTTP/1.1 103 Early Hints\r\nLink: </s.css>\r\n\r\n"
         b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 11\r\n\r\nhello world", False),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"5;ext=1\r\nhello\r\n06\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n", False),
        (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nhello world", True),
    ], ids=["content-length", "chunked", "close-delimited"])
    @pytest.mark.parametrize("pieces", [(1,), (3, 7, 2)], ids=["1-byte", "odd-sized"])
    def test_response_in_pieces(self, service, trickle_origin, reply, close, pieces):
        origin = trickle_origin((reply, close), pieces=pieces)
        assert proxy_get(service, origin.address, "/page") == (200, b"hello world")
        assert os.path.getsize(service.config.error_log_path) == 0
        (exchange,) = read_exchange_log(service.config.exchange_log_path)
        assert exchange.response_body == b"hello world"
        assert ("Content-Length", "11") in exchange.response_headers

    def test_request_head_byte_by_byte(self, service, origin):
        request = b"GET http://%s:%d/page HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" % (
            origin[0].encode(), origin[1]
        )
        with socket.create_connection(service.listen_address, timeout=2) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(request)):
                sock.sendall(request[i:i + 1])
                time.sleep(0.001)
            reply = read_until_closed(sock)
        status, _, body = split_reply(reply)
        assert (status, body) == (b"HTTP/1.1 200 OK", HTML_PAGE)

    def test_bare_lf_sent_byte_by_byte_is_refused_at_once(self, service, keepalive_origin):
        request = b"GET http://127.0.0.1:%d/ HTTP/1.1\r\nHost: x\n" % keepalive_origin.server_address[1]
        with socket.create_connection(service.listen_address, timeout=1) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(request)):
                sock.sendall(request[i:i + 1])
                time.sleep(0.001)
            reply = read_until_closed(sock)  # times out unless the proxy answers and closes
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert keepalive_origin.accepted == 0


class TestResponseHead:
    """A response head is framed under the request head's rules."""

    def test_bare_lf_response_head_gets_502_at_once(self, service, raw_origin, capfd):
        # no CRLF CRLF ever comes, and the origin keeps the connection open
        # for a second request
        origin = raw_origin((b"HTTP/1.1 200 OK\nContent-Length: 2\n\nok", False), (b"", False))
        url = origin.url("/lf").encode()
        with socket.create_connection(service.listen_address, timeout=2) as sock:
            sock.sendall(b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % url)
            started = time.monotonic()
            reply = read_until_closed(sock)  # times out unless the proxy answers and closes
            waited = time.monotonic() - started
        assert reply.startswith(b"HTTP/1.1 502 ")
        assert waited < 1
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            (line,) = fh.readlines()
        assert "bare LF in head" in line
        assert read_exchange_log(service.config.exchange_log_path) == []
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("extra, reply", [
        (0, (200, b"ok")), (1, (502, b"502 upstream unreachable\n"))
    ], ids=["at-the-cap", "one-over"])
    def test_head_is_capped_with_its_empty_line(self, service, raw_origin, monkeypatch, extra, reply):
        monkeypatch.setattr(proxy, "MAX_HEAD_BYTES", 256)
        head = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Pad: \r\n\r\n"
        head = head.replace(b"X-Pad: ", b"X-Pad: " + b"p" * (256 - len(head) + extra))
        assert len(head) == 256 + extra
        origin = raw_origin((head + b"ok", False))
        assert proxy_get(service, origin.address, "/capped") == reply
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == extra  # one error line for the 502


_CHUNKED_HEAD = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
# Chunked bodies off RFC 7230 4.1 by one rule: chunk-size = 1*HEXDIG, and
# each chunk, last-chunk and trailer line ends in CRLF.
_BAD_CHUNKS = {
    "hex-prefix": b"0x2\r\nok\r\n0\r\n\r\n",
    "signed-size": b"+2\r\nok\r\n0\r\n\r\n",
    "negative-size": b"-2\r\nok\r\n0\r\n\r\n",
    "blank-before-size": b" 2\r\nok\r\n0\r\n\r\n",
    "underscore-size": b"0_2\r\nok\r\n0\r\n\r\n",
    "no-size": b"\r\nok\r\n0\r\n\r\n",
    "bare-lf-chunk-line": b"2\nok\r\n0\r\n\r\n",
    "bare-lf-last-chunk": b"2\r\nok\r\n0\n\r\n",
    "bare-lf-trailer-field": b"2\r\nok\r\n0\r\nX-T: t\n\r\n",
    "bare-lf-end-of-trailer": b"2\r\nok\r\n0\r\n\n",
    "data-not-ended-by-crlf": b"2\r\nokXY0\r\n\r\n",
}


class TestSharedRules:
    """Requests and responses are read under one set of RFC 7230 rules."""

    @pytest.mark.parametrize("first, accepted", [
        (b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nok", 1),
        (b"HTTP/1.0 200 OK\r\nKeep-Alive: timeout=5\r\nContent-Length: 2\r\n\r\nok", 2),
        (b"HTTP/1.0 200 OK\r\nProxy-Connection: keep-alive\r\nContent-Length: 2\r\n\r\nok", 2),
        (b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", 2),
        (b"HTTP/1.1 200 OK\r\nConnection: x-unclosed\r\nContent-Length: 2\r\n\r\nok", 1),
    ], ids=["http10-keep-alive-option", "http10-keep-alive-field", "http10-proxy-connection",
            "close-in-second-field", "close-inside-a-token"])
    def test_upstream_connection_is_pooled_by_its_connection_options(
        self, service, raw_origin, first, accepted
    ):
        # the origin keeps every connection open; the proxy closes it or not
        origin = raw_origin((first, False), (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", False))
        assert proxy_get(service, origin.address, "/a") == (200, b"ok")
        assert proxy_get(service, origin.address, "/b") == (200, b"ok")
        assert origin.accepted == accepted
        assert os.path.getsize(service.config.error_log_path) == 0

    def test_fields_named_by_a_connection_option_are_dropped_both_ways(self, service, raw_origin):
        origin = raw_origin((
            b"HTTP/1.1 200 OK\r\nConnection: X-Resp\r\nX-Resp: r\r\nX-Kept: k\r\n"
            b"Content-Length: 2\r\n\r\nok", False
        ))
        reply = raw_exchange(
            service,
            b"GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\nConnection: x-secret\r\n"
            b"X-Secret: s\r\nX-A: 1\r\n\r\n" % origin.url("/").encode(),
        )
        assert origin.requests == [
            b"GET / HTTP/1.1\r\nHost: 127.0.0.1:%d\r\nAccept-Encoding: identity\r\n"
            b"X-A: 1\r\n\r\n" % origin.address[1]
        ]
        status, headers, body = split_reply(reply)
        assert (status, body) == (b"HTTP/1.1 200 OK", b"ok")
        assert headers == {b"x-kept": b"k", b"content-length": b"2", b"connection": b"close"}
        (exchange,) = read_exchange_log(service.config.exchange_log_path)
        assert exchange.request_headers == (("Host", "x"), ("X-A", "1"))
        assert exchange.response_headers == (("X-Kept", "k"), ("Content-Length", "2"))

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nX-A: 1\r\n folded\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\nok\r\n0\r\n\r\n",
        b"HTTP/1.1 2_00 OK\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.1 +200 OK\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.1x 200 OK\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.\xb9 200 OK\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/0.9 200 OK\r\nContent-Length: 2\r\n\r\nok",
        *(_CHUNKED_HEAD + chunks for chunks in _BAD_CHUNKS.values()),
    ], ids=["obs-fold", "signed-length", "letters-length", "two-lengths", "gzip",
            "gzip-then-chunked", "chunked-twice", "underscore-status", "signed-status",
            "version-suffix", "superscript-version", "http09", *_BAD_CHUNKS])
    def test_malformed_response_gets_502_and_one_error_line(self, service, raw_origin, capfd, reply):
        origin = raw_origin((reply, True))
        assert proxy_get(service, origin.address, "/bad") == (502, b"502 upstream unreachable\n")
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            (line,) = fh.readlines()
        assert "ValueError" in line
        assert read_exchange_log(service.config.exchange_log_path) == []
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: Chunked \r\n\r\n2\r\nok\r\n0\r\n\r\n",
        b"HTTP/1.1 200\r\nContent-Length: 2\r\n\r\nok",
    ], ids=["repeated-equal-lengths", "chunked-in-any-case", "no-reason-phrase"])
    def test_well_formed_response_is_relayed(self, service, raw_origin, reply):
        origin = raw_origin((reply, False))
        assert proxy_get(service, origin.address, "/good") == (200, b"ok")
        assert os.path.getsize(service.config.error_log_path) == 0


class TestCutShort:
    """Exchanges that a peer ends before their message is whole, or that an
    origin follows with bytes no request asked for."""

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok",
        _CHUNKED_HEAD + b"2\r\nok\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Len",
    ], ids=["content-length", "chunked", "head"])
    def test_origin_eof_mid_response_gets_502_and_one_error_line(self, service, raw_origin, capfd, reply):
        origin = raw_origin((reply, True))
        assert proxy_get(service, origin.address, "/cut") == (502, b"502 upstream unreachable\n")
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            (line,) = fh.readlines()
        assert "EOFError: remote end closed connection mid-response" in line
        assert read_exchange_log(service.config.exchange_log_path) == []
        assert "Traceback" not in capfd.readouterr().err

    def test_origin_reset_mid_exchange_gets_502_and_one_error_line(self, service, capfd):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5)
            url = b"http://127.0.0.1:%d/page" % listener.getsockname()[1]
            with socket.create_connection(service.listen_address, timeout=5) as sock:
                sock.sendall(b"GET " + url + b" HTTP/1.1\r\n\r\n")
                upstream, _ = listener.accept()
                upstream.settimeout(5)
                request = b""
                while not request.endswith(b"\r\n\r\n"):
                    request += upstream.recv(65536)
                upstream.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                upstream.close()  # a reset, not an EOF
                reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 502 upstream unreachable\r\n")
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            (line,) = fh.readlines()
        assert "ConnectionResetError" in line
        assert read_exchange_log(service.config.exchange_log_path) == []
        assert "Traceback" not in capfd.readouterr().err

    def test_bytes_no_request_asked_for_drop_the_pooled_connection(self, service, trickle_origin):
        ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        # the response, then, a moment later, the start of one nobody asked for
        origin = trickle_origin((ok + b"HTTP/1.1 200 OK\r\n", False), (ok, False), pieces=(len(ok), 64))
        assert proxy_get(service, origin.address, "/a") == (200, b"ok")
        deadline = time.monotonic() + 5
        while origin.conns[0].fileno() != -1 and time.monotonic() < deadline:
            time.sleep(0.01)  # until the proxy has closed the pooled connection
        assert origin.conns[0].fileno() == -1
        assert proxy_get(service, origin.address, "/b") == (200, b"ok")
        assert origin.accepted == 2
        assert os.path.getsize(service.config.error_log_path) == 0

    def test_origin_closed_as_soon_as_connected_fails_the_exchange(self):
        conn = proxy._Upstream()
        conn.connection_made(_FakeTransport())
        conn.transport.close()  # the origin's EOF came before the request
        client = _StubExchange()
        conn.exchange(client, b"GET / HTTP/1.1\r\n\r\n", "GET")
        assert [(type(end), str(end)) for end in client.ended] == [
            (ConnectionResetError, "remote end closed connection without response")
        ]
        assert conn.client is None

    def test_client_eof_mid_body_closes_with_nothing_relayed(self, service, raw_origin):
        origin = raw_origin((b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", False))
        with socket.create_connection(service.listen_address, timeout=5) as sock:
            sock.sendall(
                b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nabc" % origin.url("/form").encode()
            )
            sock.shutdown(socket.SHUT_WR)
            assert read_until_closed(sock) == b""
        assert (origin.accepted, origin.requests) == (0, [])
        assert read_exchange_log(service.config.exchange_log_path) == []
        assert os.path.getsize(service.config.error_log_path) == 0


class _FakeTransport:
    """A transport that drops what is written to it and records a close."""

    def __init__(self):
        self.closed = False

    def write(self, data):
        pass

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


class _StubService:
    """What a _Client asks of ProxyService and its upstream pool. Each
    request is relayed to one stub connection, which keeps the message and
    leaves the exchange pending until the test answers it."""

    def __init__(self):
        self._connections = 0
        self._loop = SimpleNamespace(
            time=lambda: 0.0, call_at=lambda when, callback: SimpleNamespace(cancel=lambda: None)
        )
        self._upstream = SimpleNamespace(take=lambda origin: self.conn)
        self.conn = SimpleNamespace(transport=_FakeTransport(), exchange=self._exchange)
        self.framed = []  # (method, target, header fields, message with body) per request
        self.pending = []

    def handle_request_socketless(self, request):
        length = proxy._content_length(request.headers)
        request.client.relay(("origin.test", 80), b"%s %s\r\n" % (
            request.method.encode(), request.target.encode()), length)

    def _exchange(self, client, message, method):
        request = client.request
        self.framed.append((request.method, request.target, request.headers.fields, message))
        self.pending.append(client)


class _StubExchange:
    """The _Client side of one upstream exchange: keeps how it ended."""

    def __init__(self):
        self.ended = []

    def response(self, conn, status, headers, body, close):
        self.ended.append((status, headers.fields, body, close))

    def upstream_failed(self, exc):
        self.ended.append(exc)


_CHUNKED_RESPONSE = (
    b"HTTP/1.1 103 Early Hints\r\nLink: </s.css>\r\n\r\n"
    b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"5;ext=1\r\nhello\r\n06\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n"
)
_PIPELINED_REQUESTS = (
    b"POST http://origin.test/form HTTP/1.1\r\nHost: origin.test\r\nContent-Length: 11\r\n\r\n"
    b"hello world"
    b"GET http://origin.test/page HTTP/1.1\r\nHost: origin.test\r\nX-A: 1\r\n\r\n"
)


# The same requests with empty lines before each request line (RFC 7230 3.5)
_AFTER_EMPTY_LINES = b"\r\n" + _PIPELINED_REQUESTS.replace(b"hello world", b"hello world\r\n\r\n")


def _pieces(data: bytes):
    """``data`` cut at arbitrary points."""
    return st.lists(st.integers(1, len(data) - 1), unique=True, max_size=len(data) - 1).map(
        lambda cuts: [data[i:j] for i, j in zip([0, *sorted(cuts)], [*sorted(cuts), len(data)])]
    )


def _frame_response(pieces):
    conn = proxy._Upstream()
    conn.connection_made(_FakeTransport())
    client = _StubExchange()
    conn.exchange(client, b"GET / HTTP/1.1\r\n\r\n", "GET")
    for piece in pieces:
        conn.data_received(piece)
    return client.ended, bytes(conn.buffer), conn.transport.closed


def _frame_requests(pieces):
    service = _StubService()
    client = proxy._Client(service)
    client.connection_made(_FakeTransport())
    for piece in pieces:
        client.data_received(piece)
        while service.pending:  # answer each exchange once it is sent
            service.pending.pop().finish(b"")
    return service.framed, bytes(client.buffer), client.transport.closed


class TestFramerOnSplitBytes:
    """Each side frames the same messages however its bytes are split,
    with no socket: _Upstream and _Client fed through data_received."""

    def test_unsplit_bytes_frame_the_expected_messages(self):
        ended, left, closed = _frame_response([_CHUNKED_RESPONSE])
        assert ended == [(200, [("Content-Type", "text/plain"), ("Transfer-Encoding", "chunked")],
                          b"hello world", False)]
        assert (left, closed) == (b"", False)
        framed, left, closed = _frame_requests([_PIPELINED_REQUESTS])
        assert framed == [
            ("POST", "http://origin.test/form", [("Host", "origin.test"), ("Content-Length", "11")],
             b"POST http://origin.test/form\r\nhello world"),
            ("GET", "http://origin.test/page", [("Host", "origin.test"), ("X-A", "1")],
             b"GET http://origin.test/page\r\n"),
        ]
        assert (left, closed) == (b"", False)

    @settings(max_examples=150, deadline=None)
    @given(_pieces(_CHUNKED_RESPONSE))
    def test_chunked_response_with_a_trailer(self, pieces):
        assert _frame_response(pieces) == _frame_response([_CHUNKED_RESPONSE])

    @settings(max_examples=150, deadline=None)
    @given(_pieces(_PIPELINED_REQUESTS))
    def test_two_pipelined_requests_one_with_a_body(self, pieces):
        assert _frame_requests(pieces) == _frame_requests([_PIPELINED_REQUESTS])

    @settings(max_examples=150, deadline=None)
    @given(_pieces(_AFTER_EMPTY_LINES))
    def test_empty_lines_before_a_request_line_are_skipped(self, pieces):
        assert _frame_requests(pieces) == _frame_requests([_PIPELINED_REQUESTS])

    def test_an_empty_line_before_a_status_line_fails_the_exchange(self):
        ended, _, closed = _frame_response([b"\r\n" + _CHUNKED_RESPONSE])
        assert [type(end) for end in ended] == [ValueError]
        assert closed


class TestResponseFraming:
    """Responses framed by _Upstream, socket-free: chunked bodies by RFC 7230
    4.1, and bytes that follow a response unasked."""

    @pytest.mark.parametrize("chunks", _BAD_CHUNKS.values(), ids=_BAD_CHUNKS.keys())
    def test_chunk_off_the_grammar_fails_the_exchange(self, chunks):
        ended, _, closed = _frame_response([_CHUNKED_HEAD + chunks])
        assert [type(end) for end in ended] == [ValueError]
        assert closed

    @pytest.mark.parametrize("line", [
        b"2;" + b"x" * proxy.MAX_HEAD_BYTES,
        b"2;" + b"x" * proxy.MAX_HEAD_BYTES + b"\r\nok\r\n0\r\n\r\n",
    ], ids=["unended", "ended"])
    def test_chunk_line_over_the_head_cap_fails_the_exchange(self, line):
        ended, _, closed = _frame_response([_CHUNKED_HEAD + line])
        assert [str(end) for end in ended] == ["chunk line too long"]
        assert closed

    @pytest.mark.parametrize("chunks", [
        b"2\r\nok\r\n0\r\n\r\n",
        b"02;name=value\r\nok\r\n000\r\n\r\n",
        b"2 \t;ext\r\nok\r\n0 ;ext\r\nX-T: t\r\n\r\n",
        b"1\r\no\r\nA\r\nk123456789\r\n0\r\n\r\n",
    ], ids=["plain", "leading-zeros-and-extension", "blanks-before-extension", "upper-hex"])
    def test_chunks_on_the_grammar_are_framed(self, chunks):
        ended, left, closed = _frame_response([_CHUNKED_HEAD + chunks])
        ((status, _, body, close),) = ended
        assert (status, body[:2], close, left, closed) == (200, b"ok", False, b"", False)

    def test_bytes_no_request_asked_for_close_the_connection(self):
        conn = proxy._Upstream()
        conn.connection_made(_FakeTransport())
        client = _StubExchange()
        conn.exchange(client, b"GET / HTTP/1.1\r\n\r\n", "GET")
        conn.data_received(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        assert not conn.transport.closed
        conn.data_received(b"HTTP/1.1 200 OK\r\n")
        assert conn.transport.closed
        assert [end[2] for end in client.ended] == [b"ok"]


class _RecordingTransport(_FakeTransport):
    """A _FakeTransport that records what is written and each flow-control call."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self.protocol = None

    def write(self, data):
        self.calls.append(("write", bytes(data)))

    def write_eof(self):
        self.calls.append(("write_eof",))

    def pause_reading(self):
        self.calls.append(("pause_reading",))

    def resume_reading(self):
        self.calls.append(("resume_reading",))

    def set_protocol(self, protocol):
        self.protocol = protocol


class _TunnelService(_StubService):
    """A _StubService that also opens a CONNECT's tunnel up to its connect,
    which the test then completes, and logs the exchange."""

    def __init__(self):
        super().__init__()
        self._loop.create_task = lambda coro: coro.close()
        self.logged = []

    def handle_connect(self, request):
        request.client.open_tunnel(("origin.test", 443))

    def _next_ids(self):
        return "x00000000", "fl00000000"

    def _log_exchange(self, exchange, tags):
        self.logged.append(exchange)
        return True


_GET = b"GET http://origin.test/%d HTTP/1.1\r\nHost: origin.test\r\n\r\n"


def _stub_client(service):
    client = proxy._Client(service)
    client.connection_made(_RecordingTransport())
    return client


_POST_HEAD = b"POST http://origin.test/form HTTP/1.1\r\nHost: origin.test\r\nContent-Length: 10\r\n\r\n"


class TestFlowControl:
    """Reading pauses while the connection cannot take more, with no socket."""

    def test_body_awaited_after_a_pipelined_request_resumes_reading(self):
        service = _StubService()
        client = _stub_client(service)
        client.data_received(_GET % 1)
        client.data_received(_POST_HEAD + b"abc")  # while the first is in flight
        service.pending.pop().finish(b"one")  # the POST is served next, and its body awaited
        assert client.transport.calls == [("pause_reading",), ("write", b"one"), ("resume_reading",)]
        client.data_received(b"defghij")
        assert service.framed[-1][3] == b"POST http://origin.test/form\r\nabcdefghij"

    def test_eof_after_part_of_a_pipelined_body_closes(self):
        service = _StubService()
        client = _stub_client(service)
        client.data_received(_GET % 1 + _POST_HEAD + b"abc")
        client.eof_received()  # while the first is in flight
        service.pending.pop().finish(b"one")  # the POST's body can never be whole
        assert [target for _, target, _, _ in service.framed] == ["http://origin.test/1"]
        assert client.transport.calls == [("write", b"one")]
        assert client.transport.closed

    def test_pipelined_request_pauses_reading_until_it_is_served(self):
        service = _StubService()
        client = _stub_client(service)
        client.data_received(_GET % 1)
        client.data_received(_GET % 2)  # while the first is in flight
        assert client.transport.calls == [("pause_reading",)]
        service.pending.pop().finish(b"one")  # the second is served next
        assert [target for _, target, _, _ in service.framed] == [
            "http://origin.test/1", "http://origin.test/2"
        ]
        assert client.transport.calls == [("pause_reading",), ("write", b"one")]
        service.pending.pop().finish(b"two")  # the buffer is served
        assert client.transport.calls == [
            ("pause_reading",), ("write", b"one"), ("write", b"two"), ("resume_reading",)
        ]

    def test_paused_writing_holds_the_next_request(self):
        service = _StubService()
        client = _stub_client(service)
        client.pause_writing()
        client.data_received(_GET % 1)
        assert service.framed == []
        assert client.transport.calls == [("pause_reading",)]
        client.resume_writing()
        assert [target for _, target, _, _ in service.framed] == ["http://origin.test/1"]
        service.pending.pop().finish(b"one")
        assert client.transport.calls == [("pause_reading",), ("write", b"one"), ("resume_reading",)]

    def test_pipe_pauses_and_resumes_the_other_end(self):
        ends = [proxy._Pipe(), proxy._Pipe()]
        for end in ends:
            end.connection_made(_RecordingTransport())
            end.transport.calls.clear()  # each end starts with its reading paused
        ends[0].peer, ends[1].peer = ends[1], ends[0]
        ends[0].pause_writing()
        ends[0].resume_writing()
        assert ends[0].transport.calls == []
        assert ends[1].transport.calls == [("pause_reading",), ("resume_reading",)]

    @pytest.mark.parametrize("eof", [False, True], ids=["open", "eof"])
    def test_bytes_sent_before_the_200_reach_the_origin(self, eof):
        service = _TunnelService()
        client = _stub_client(service)
        client.data_received(b"CONNECT origin.test:443 HTTP/1.1\r\n\r\n")
        client.data_received(b"early")  # before the tunnel is open
        if eof:
            client.eof_received()
        tunnel = _RecordingTransport()
        origin_end = proxy._Pipe()

        async def connected():
            # what the connect hands over once the origin's connection is open
            origin_end.connection_made(tunnel)
            client._tunnel_on(tunnel, origin_end)
            client_end = client.transport.protocol
            if client_end.deadline is not None:
                client_end.deadline.cancel()
            return client_end

        client_end = asyncio.run(connected())
        assert [exchange.url for exchange in service.logged] == ["https://origin.test:443"]
        assert client_end.peer is origin_end and origin_end.peer is client_end
        assert client.transport.calls == [
            ("pause_reading",), ("write", b"HTTP/1.1 200 Connection Established\r\n\r\n"),
        ] + ([] if eof else [("resume_reading",)])
        assert tunnel.calls == [
            ("pause_reading",), ("write", b"early"), ("resume_reading",),
        ] + ([("write_eof",)] if eof else [])


class TestClientDeadline:
    """A client that sends part of a request has UPSTREAM_TIMEOUT_S for the rest."""

    def _partial(self, service, monkeypatch, request: bytes) -> tuple[bytes, float]:
        monkeypatch.setattr(proxy, "UPSTREAM_TIMEOUT_S", 0.2)
        with socket.create_connection(service.listen_address, timeout=3) as sock:
            sock.sendall(request)
            started = time.monotonic()
            reply = read_until_closed(sock)  # times out unless the proxy answers and closes
            return reply, time.monotonic() - started

    def _error_line(self, service) -> str:
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            (line,) = fh.readlines()
        return line

    def test_partial_head_gets_408_and_a_close(self, service, monkeypatch):
        reply, waited = self._partial(service, monkeypatch, b"GET http://127.0.0.1:9/ HTTP/1.1\r\n")
        status, headers, _ = split_reply(reply)
        assert status == b"HTTP/1.1 408 Request Timeout"
        assert headers[b"connection"] == b"close"
        assert 0.15 < waited < 2
        assert "no whole request head within 0.2 s" in self._error_line(service)
        assert read_exchange_log(service.config.exchange_log_path) == []

    def test_partial_body_gets_408_and_a_close(self, service, raw_origin, monkeypatch):
        origin = raw_origin((b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", False))
        head = b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n" % origin.url("/form").encode()
        reply, waited = self._partial(service, monkeypatch, head + b"12345")
        status, headers, _ = split_reply(reply)
        assert status == b"HTTP/1.1 408 Request Timeout"
        assert headers[b"connection"] == b"close"
        assert 0.15 < waited < 2
        assert "no whole request body within 0.2 s" in self._error_line(service)
        assert origin.requests == []
        assert read_exchange_log(service.config.exchange_log_path) == []

    def test_idle_keep_alive_connection_gets_no_408(self, service, keepalive_origin, monkeypatch):
        monkeypatch.setattr(proxy, "UPSTREAM_TIMEOUT_S", 0.2)
        url = "http://%s:%d/page" % keepalive_origin.server_address
        conn = http.client.HTTPConnection(*service.listen_address, timeout=5)
        try:
            conn.request("GET", url)
            assert conn.getresponse().read() == PAGE_4K
            time.sleep(0.4)  # idle, with nothing buffered
            conn.request("GET", url)
            assert conn.getresponse().read() == PAGE_4K
        finally:
            conn.close()
        assert keepalive_origin.accepted == 1
        assert os.path.getsize(service.config.error_log_path) == 0


class TestUpstreamDeadline:
    def _error_lines(self, service):
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            return fh.readlines()

    def test_silent_origin_gets_502_and_one_error_line(self, service, trickle_origin, monkeypatch):
        monkeypatch.setattr(proxy, "UPSTREAM_TIMEOUT_S", 0.2)
        origin = trickle_origin()
        started = time.monotonic()
        assert proxy_get(service, origin.address, "/silent")[0] == 502
        assert time.monotonic() - started < 2
        (line,) = self._error_lines(service)
        assert "TimeoutError" in line
        assert origin.accepted == 1
        assert not service._upstream._idle
        assert read_exchange_log(service.config.exchange_log_path) == []

    def test_deadline_passing_while_connecting_gets_502(self, service, monkeypatch):
        monkeypatch.setattr(proxy, "UPSTREAM_TIMEOUT_S", 0.2)

        async def held(*_args, **_kwargs):
            await asyncio.sleep(60)  # a connect that the deadline cancels

        monkeypatch.setattr(service._loop, "create_connection", held)
        started = time.monotonic()
        assert proxy_get(service, ("127.0.0.1", 9), "/held")[0] == 502
        assert time.monotonic() - started < 2
        (line,) = self._error_lines(service)
        assert "TimeoutError: no answer within 0.2 s" in line

    def test_timeout_on_pooled_connection_is_not_retried(self, service, trickle_origin, monkeypatch):
        monkeypatch.setattr(proxy, "UPSTREAM_TIMEOUT_S", 0.2)
        origin = trickle_origin((b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", False), pieces=(64,))
        assert proxy_get(service, origin.address, "/first") == (200, b"ok")
        assert len(service._upstream._idle) == 1
        assert proxy_get(service, origin.address, "/second")[0] == 502
        (line,) = self._error_lines(service)
        assert "TimeoutError" in line
        assert origin.accepted == 1
        assert not service._upstream._idle


class TestStop:
    def test_open_connection_after_stop_is_refused(self, service, origin, capfd):
        url = b"http://%s:%d/page" % (origin[0].encode(), origin[1])
        request = b"GET " + url + b" HTTP/1.1\r\nHost: x\r\n\r\n"
        config = service.config
        logs = (config.exchange_log_path, config.tag_log_path, config.error_log_path)
        with socket.create_connection(service.listen_address, timeout=5) as sock:
            sock.sendall(request)
            reply = b""
            while not reply.endswith(HTML_PAGE):
                reply += sock.recv(65536)
            service.stop()
            sizes = [os.path.getsize(path) for path in logs]
            sock.sendall(request)  # same keep-alive connection, after stop()
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 503 ")
        assert b"Connection: close" in reply
        assert "Traceback" not in capfd.readouterr().err
        assert [os.path.getsize(path) for path in logs] == sizes
        assert len(read_exchange_log(config.exchange_log_path)) == 1

    def test_response_that_arrives_after_stop_gets_503(self, service, capfd):
        config = service.config
        logs = (config.exchange_log_path, config.tag_log_path, config.error_log_path)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5)
            url = b"http://127.0.0.1:%d/page" % listener.getsockname()[1]
            with socket.create_connection(service.listen_address, timeout=5) as sock:
                sock.sendall(b"GET " + url + b" HTTP/1.1\r\nHost: x\r\n\r\n")
                upstream, _ = listener.accept()
                with upstream:
                    upstream.settimeout(5)
                    request = b""
                    while not request.endswith(b"\r\n\r\n"):
                        chunk = upstream.recv(65536)
                        assert chunk, "the proxy closed the upstream connection mid-request"
                        request += chunk
                    service.stop()  # the request is relayed, its response not yet in
                    sizes = [os.path.getsize(path) for path in logs]
                    upstream.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    reply = read_until_closed(sock)
                    assert read_until_closed(upstream) == b""  # closed, not pooled
        assert reply.startswith(b"HTTP/1.1 503 proxy stopped\r\nConnection: close\r\n")
        assert "Traceback" not in capfd.readouterr().err
        assert [os.path.getsize(path) for path in logs] == sizes
        assert read_exchange_log(config.exchange_log_path) == []

    def test_connect_after_stop_is_refused(self, service, origin, capfd):
        url = b"http://%s:%d/page" % (origin[0].encode(), origin[1])
        config = service.config
        logs = (config.exchange_log_path, config.tag_log_path, config.error_log_path)
        with socket.create_connection(service.listen_address, timeout=5) as sock:
            sock.sendall(b"GET " + url + b" HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = b""
            while not reply.endswith(HTML_PAGE):
                reply += sock.recv(65536)
            service.stop()
            sizes = [os.path.getsize(path) for path in logs]
            # same keep-alive connection, after stop()
            sock.sendall(b"CONNECT %s:%d HTTP/1.1\r\n\r\n" % (origin[0].encode(), origin[1]))
            reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 503 proxy stopped\r\nConnection: close\r\n")
        assert "Traceback" not in capfd.readouterr().err
        assert [os.path.getsize(path) for path in logs] == sizes
        assert [e.method for e in read_exchange_log(config.exchange_log_path)] == ["GET"]

    def test_tunnel_that_opens_after_stop_gets_503(self):
        # socket-free: the CONNECT's origin connection opens once the
        # service has stopped, so logging the exchange is refused
        service = _TunnelService()
        service._log_exchange = lambda exchange, tags: False
        service._refuse = ProxyService._refuse
        client = _stub_client(service)
        client.data_received(b"CONNECT origin.test:443 HTTP/1.1\r\n\r\n")
        tunnel = _RecordingTransport()
        client._tunnel_on(tunnel, proxy._Pipe())
        assert tunnel.closed
        writes = [call[1] for call in client.transport.calls if call[0] == "write"]
        assert len(writes) == 1
        assert writes[0].startswith(b"HTTP/1.1 503 proxy stopped\r\nConnection: close\r\n")
        assert client.transport.closed

    def test_stop_without_start_closes_sockets_and_logs(self, tmp_path):
        svc = ProxyService(active_config(tmp_path))
        stopper = threading.Thread(target=svc.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        for address in (svc.listen_address, svc.control_address):
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5)
        for log in (svc.exchange_log, svc.tag_log, svc._error_log):
            with pytest.raises(ValueError):  # I/O operation on closed file
                log.tell()

    def test_start_after_stop_raises_and_leaves_nothing_open(self, tmp_path, monkeypatch):
        svc = ProxyService(active_config(tmp_path))
        svc.stop()
        before = set(threading.enumerate())
        failures = []
        with monkeypatch.context() as patched:
            patched.setattr(threading, "excepthook", failures.append)
            with pytest.raises(RuntimeError, match="event loop did not start"):
                svc.start()
        # refused before a loop thread starts: none fails on the closed sockets
        assert set(threading.enumerate()) == before
        assert failures == []
        for address in (svc.listen_address, svc.control_address):
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5)
        gc.collect()  # a socket, log or event loop left open warns when it is collected

    def test_snapshot_after_stop_is_an_error(self, service):
        service.stop()
        assert service.handle_control_line("SNAPSHOT") == "ERR proxy stopped"


def active_config(log_dir, seed=0):
    return ProxyConfig(
        exchange_log_path=str(log_dir / "exchanges.jsonl"),
        tag_log_path=str(log_dir / "tags.csv"),
        error_log_path=str(log_dir / "errors.log"),
        mode=ACTIVE,
        zone="tracker.test",
        static_label="pixel",
        payload_address="192.0.2.9",
        seed=seed,
    )


def serve_one_page(log_dir, origin):
    svc = ProxyService(active_config(log_dir))
    svc.start()
    try:
        assert proxy_get(svc, origin, "/page")[0] == 200
    finally:
        svc.stop()


class TestRestart:
    def test_restarted_proxy_appends_tags_under_one_header(self, tmp_path, origin):
        issued = []
        for seed in (1, 2):
            svc = ProxyService(active_config(tmp_path, seed))
            real_inject = svc.injector.inject

            def inject(*parts):
                headers, body, tags = real_inject(*parts)
                issued.extend(tags)
                return headers, body, tags

            svc.injector.inject = inject
            svc.start()
            try:
                assert proxy_get(svc, origin, "/page")[0] == 200
            finally:
                svc.stop()
        assert len(issued) == 4
        with open(tmp_path / "tags.csv", encoding="utf-8") as fh:
            assert fh.read().count("kind,subdomain") == 1
        assert read_tag_log(str(tmp_path / "tags.csv")) == issued
        assert len(read_exchange_log(str(tmp_path / "exchanges.jsonl"))) == 2

    def test_restart_with_same_seed_issues_new_labels(self, tmp_path, origin):
        for _ in range(2):
            serve_one_page(tmp_path, origin)
        tags = read_tag_log(str(tmp_path / "tags.csv"))
        dynamic = [tag.subdomain for tag in tags if tag.kind == DYNAMIC]
        assert len(dynamic) == 2 and len(set(dynamic)) == 2
        # one lookup per tagged page, from two different users
        write_query_log(
            [DnsQueryRecord(f"{label}.tracker.test", f"10.0.0.{n}", float(n))
             for n, label in enumerate(dynamic)],
            str(tmp_path / "dns_queries.csv"),
        )
        write_fetch_log([], str(tmp_path / "fetches.csv"))
        report = build_report_from_dir(
            str(tmp_path), calibrated_vuln_db(), static_label="pixel", zone="tracker.test"
        )
        assert report.accounting.dynamic_issued == 2
        assert report.accounting.reappearances == ()

    def test_restart_resumes_exchange_ids(self, tmp_path, origin):
        for _ in range(2):
            serve_one_page(tmp_path, origin)
        exchanges = read_exchange_log(str(tmp_path / "exchanges.jsonl"))
        ids = [exchange.exchange_id for exchange in exchanges]
        assert len(ids) == 2 and len(set(ids)) == 2
        assert len({exchange.flow_id for exchange in exchanges}) == 2
        tags = read_tag_log(str(tmp_path / "tags.csv"))
        assert len(tags) == 4
        assert all(ids.count(tag.exchange_id) == 1 for tag in tags)

    def test_malformed_tag_log_stops_a_restart(self, tmp_path):
        with open(tmp_path / "tags.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("kind,subdomain,url,exchange_id,injected_at\r\nstatic,pixel\r\n")
        with pytest.raises(LogFormatError, match="tags.csv:2:"):
            ProxyService(active_config(tmp_path))

    def test_unknown_tag_kind_stops_a_restart(self, tmp_path):
        with open(tmp_path / "tags.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("kind,subdomain,url,exchange_id,injected_at\r\n"
                     "STATIC,pixel,http://pixel.tracker.test/p.gif,x00000000,1.0\r\n")
        with pytest.raises(LogFormatError, match="tags.csv:2: unknown tag kind 'STATIC'"):
            ProxyService(active_config(tmp_path))

    @pytest.mark.parametrize("failure", ["tag_log", "listen_port", "control_port"])
    def test_failed_constructor_closes_what_it_opened(self, tmp_path, monkeypatch, failure):
        config = active_config(tmp_path)
        taken = socket.create_server(("127.0.0.1", 0))
        if failure == "tag_log":
            with open(config.tag_log_path, "w", encoding="utf-8", newline="") as fh:
                fh.write("kind,subdomain,url,exchange_id,injected_at\r\nstatic,pixel\r\n")
        else:
            setattr(config, failure, taken.getsockname()[1])
        closed, sockets = [], []
        close, create_server = proxy.LogAppender.close, socket.create_server

        def counting_close(log):
            closed.append(log.path)
            close(log)

        def kept_server(*args, **kwargs):
            sockets.append(create_server(*args, **kwargs))
            return sockets[-1]

        monkeypatch.setattr(proxy.LogAppender, "close", counting_close)
        monkeypatch.setattr(proxy.socket, "create_server", kept_server)
        try:
            with pytest.raises((LogFormatError, OSError)):
                ProxyService(config)
        finally:
            taken.close()
        assert sorted(closed) == sorted(
            [config.error_log_path, config.exchange_log_path, config.tag_log_path]
        )
        assert len(sockets) == (failure == "control_port")
        assert all(sock.fileno() == -1 for sock in sockets)

    @pytest.mark.parametrize("torn_log, torn", [
        ("tags.csv", "dynamic,d0000"),
        ("exchanges.jsonl", '{"exchange_id": "x0000'),
    ])
    def test_torn_last_line_is_cut_on_restart(self, tmp_path, origin, torn_log, torn):
        serve_one_page(tmp_path, origin)
        with open(tmp_path / torn_log, "a", encoding="utf-8") as fh:
            fh.write(torn)  # a crash mid-record
        serve_one_page(tmp_path, origin)
        assert len(read_exchange_log(str(tmp_path / "exchanges.jsonl"))) == 2
        assert len(read_tag_log(str(tmp_path / "tags.csv"))) == 4
        with open(tmp_path / "errors.log", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1
        dropped = f"{tmp_path / torn_log}: dropped {len(torn)} bytes of a torn last line"
        assert lines[0].endswith(dropped)


def _start_proxy(out_dir):
    """`beaconlab proxy` in active mode as a child process on ephemeral
    ports; (child, listen address)."""
    src = os.path.dirname(os.path.dirname(proxy.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.Popen(
        [sys.executable, "-u", "-m", "beaconlab.cli", "proxy", "--listen", "127.0.0.1:0",
         "--control", "127.0.0.1:0", "--mode", "active", "--zone", "tracker.test",
         "--payload", "192.0.2.9", "--out", str(out_dir)],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = child.stdout.readline()  # "proxy on HOST:PORT control HOST:PORT mode=active"
    assert line.startswith("proxy on "), line
    host, _, port = line.split()[2].rpartition(":")
    return child, (host, int(port))


class TestCrashSafeExchangeLog:
    def test_answered_exchanges_survive_sigkill_and_restart(self, tmp_path, origin):
        urls = []
        for stop, status in ((signal.SIGKILL, -signal.SIGKILL), (signal.SIGTERM, 0)):
            child, address = _start_proxy(tmp_path)
            with child:  # closes the child's stdout pipe
                try:
                    for _ in range(3):
                        path = f"/page{len(urls)}"
                        assert proxy_get(SimpleNamespace(listen_address=address), origin, path)[0] == 200
                        urls.append("http://%s:%d%s" % (*origin, path))
                finally:
                    child.send_signal(stop)
                    assert child.wait(timeout=10) == status
        exchanges = read_exchange_log(str(tmp_path / "exchanges.jsonl"))
        assert [exchange.url for exchange in exchanges] == urls  # one line per answered response
        ids = [exchange.exchange_id for exchange in exchanges]
        assert len(set(ids)) == len(ids)
        tags = read_tag_log(str(tmp_path / "tags.csv"))
        labels = [tag.subdomain for tag in tags if tag.kind == DYNAMIC]
        assert len(labels) == len(urls) == len(set(labels))
        assert {tag.exchange_id for tag in tags} <= set(ids)


def tunnel_through(service, echo, authority: str) -> list:
    """CONNECT to ``authority``, where ``echo`` listens, through the proxy;
    relay one payload and return the exchange log."""

    def serve_once():
        conn, _ = echo.accept()
        data = conn.recv(1024)
        conn.sendall(data[::-1])
        conn.close()

    thread = threading.Thread(target=serve_once, daemon=True)
    thread.start()
    with socket.create_connection(service.listen_address, timeout=5) as sock:
        sock.sendall(f"CONNECT {authority} HTTP/1.1\r\n\r\n".encode())
        reply = b""
        while b"\r\n\r\n" not in reply:
            reply += sock.recv(1024)
        assert b"200" in reply.split(b"\r\n", 1)[0]
        sock.sendall(b"opaque-payload")
        assert sock.recv(1024) == b"daolyap-euqapo"
    thread.join(timeout=5)
    echo.close()
    control(service, "SNAPSHOT")
    return read_exchange_log(service.config.exchange_log_path)


class TestConnectTunnel:
    def test_tunnel_relays_and_logs_encrypted(self, service):
        # plain TCP echo stands in for a TLS origin: the proxy must not care
        echo = socket.create_server(("127.0.0.1", 0))
        host, port = echo.getsockname()
        log = tunnel_through(service, echo, f"{host}:{port}")
        assert len(log) == 1
        assert log[0].is_encrypted and log[0].response_body == b""

    def test_half_close_passes_a_large_payload_both_ways(self, service):
        payload = os.urandom(4 * 1024 * 1024)
        echo = socket.create_server(("127.0.0.1", 0))

        def echo_after_eof():
            conn, _ = echo.accept()
            with conn:
                received = read_until_closed(conn)  # the client's EOF, passed on
                conn.sendall(received[::-1])

        thread = threading.Thread(target=echo_after_eof, daemon=True)
        thread.start()
        with socket.create_connection(service.listen_address, timeout=5) as sock:
            sock.sendall(b"CONNECT 127.0.0.1:%d HTTP/1.1\r\n\r\n" % echo.getsockname()[1])
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            reply = read_until_closed(sock)  # the origin's close, passed on
        thread.join(timeout=5)
        echo.close()
        assert not thread.is_alive()
        assert reply == b"HTTP/1.1 200 Connection Established\r\n\r\n" + payload[::-1]

    def test_client_gone_before_the_200_closes_the_origin_end(self, service, monkeypatch):
        connect = service._loop.create_connection
        connecting = threading.Event()

        async def once_the_client_is_gone(*args, **kwargs):
            connecting.set()
            while service._connections:  # until the client's connection is lost
                await asyncio.sleep(0.01)
            return await connect(*args, **kwargs)

        monkeypatch.setattr(service._loop, "create_connection", once_the_client_is_gone)
        with socket.create_server(("127.0.0.1", 0)) as echo:
            echo.settimeout(5)
            sock = socket.create_connection(service.listen_address, timeout=5)
            sock.sendall(b"CONNECT 127.0.0.1:%d HTTP/1.1\r\n\r\n" % echo.getsockname()[1])
            assert connecting.wait(5)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # a reset, before the 200
            conn, _ = echo.accept()
            with conn:
                conn.settimeout(5)
                assert conn.recv(1024) == b""  # the proxy closed the tunnel's origin end
        # a tunnel the proxy never answered is no exchange
        assert control(service, "STATUS") == "OK mode=PASSIVE exchanges=0 tags=0"
        assert read_exchange_log(service.config.exchange_log_path) == []

    def test_client_gone_before_the_response_is_neither_tagged_nor_logged(self, service):
        # the GET twin of the CONNECT case above: a page no browser got
        assert control(service, "MODE active") == "OK mode=ACTIVE"
        with socket.create_server(("127.0.0.1", 0)) as origin:
            origin.settimeout(5)
            sock = socket.create_connection(service.listen_address, timeout=5)
            sock.sendall(b"GET http://127.0.0.1:%d/page HTTP/1.1\r\n\r\n" % origin.getsockname()[1])
            conn, _ = origin.accept()
            with conn:
                conn.settimeout(5)
                request = b""
                while b"\r\n\r\n" not in request:
                    request += conn.recv(1024)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.close()  # a reset, before the response
                deadline = time.monotonic() + 5
                while service._connections and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not service._connections
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nConnection: close\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(HTML_PAGE), HTML_PAGE)
                )
                assert conn.recv(1024) == b""  # the proxy read the whole response
        assert control(service, "STATUS") == "OK mode=ACTIVE exchanges=0 tags=0"
        assert read_exchange_log(service.config.exchange_log_path) == []
        assert read_tag_log(service.config.tag_log_path) == []

    def test_bracketed_ipv6_literal_is_relayed(self, service):
        echo = socket.create_server(("::1", 0), family=socket.AF_INET6)
        port = echo.getsockname()[1]
        log = tunnel_through(service, echo, f"[::1]:{port}")
        assert [(e.method, e.url, e.is_encrypted) for e in log] == [
            ("CONNECT", f"https://[::1]:{port}", True)
        ]

    def test_tunnel_closes_when_only_the_origin_ends(self, service, monkeypatch):
        # the drain deadline runs from either end's EOF; this client never ends
        monkeypatch.setattr(proxy, "UPSTREAM_TIMEOUT_S", 0.2)
        echo = socket.create_server(("127.0.0.1", 0))
        with socket.create_connection(service.listen_address, timeout=2) as sock:
            sock.sendall(b"CONNECT 127.0.0.1:%d HTTP/1.1\r\n\r\n" % echo.getsockname()[1])
            conn, _ = echo.accept()
            with conn:
                conn.settimeout(2)
                conn.shutdown(socket.SHUT_WR)
                started = time.monotonic()
                assert conn.recv(1024) == b""  # times out unless the proxy closes the tunnel
                waited = time.monotonic() - started
            # the origin's EOF reached the client
            assert read_until_closed(sock) == b"HTTP/1.1 200 Connection Established\r\n\r\n"
        echo.close()
        assert 0.15 < waited < 1.5


def _hook_failed(*_args):
    raise RuntimeError("hook failed")


class TestInternalError:
    """An error that escapes serving a connection closes that connection
    and writes one internal error line, whichever step it escapes from."""

    @staticmethod
    def _internal_error_lines(service) -> list[str]:
        with open(service.config.error_log_path, encoding="utf-8") as fh:
            text = fh.read()
        assert "RuntimeError: hook failed" in text
        return [line for line in text.splitlines() if " internal error: " in line]

    @pytest.mark.parametrize("hook", ["handle_request_socketless", "_deliver"])
    def test_request(self, service, origin, monkeypatch, hook):
        # _serve runs handle_request_socketless; response runs _deliver
        monkeypatch.setattr(service, hook, _hook_failed)
        request = b"GET http://%s:%d/page HTTP/1.1\r\nHost: x\r\n\r\n" % (origin[0].encode(), origin[1])
        assert raw_exchange(service, request) == b""
        assert len(self._internal_error_lines(service)) == 1
        assert control(service, "STATUS").startswith("OK mode=PASSIVE")

    def test_upstream_failed(self, service, monkeypatch):
        monkeypatch.setattr(service, "_bad_gateway", _hook_failed)
        with socket.create_server(("127.0.0.1", 0)) as closed:
            port = closed.getsockname()[1]  # nothing listens there once closed
        request = b"GET http://127.0.0.1:%d/page HTTP/1.1\r\nHost: x\r\n\r\n" % port
        assert raw_exchange(service, request) == b""
        assert len(self._internal_error_lines(service)) == 1

    def test_connect(self, service, monkeypatch):
        # _connect hands the open origin connection to _tunnel_on, which logs
        monkeypatch.setattr(service, "_log_exchange", _hook_failed)
        with socket.create_server(("127.0.0.1", 0)) as echo:
            request = b"CONNECT 127.0.0.1:%d HTTP/1.1\r\n\r\n" % echo.getsockname()[1]
            assert raw_exchange(service, request) == b""
            conn, _ = echo.accept()
            with conn:
                conn.settimeout(5)
                assert conn.recv(1024) == b""  # the origin end is closed too
        assert len(self._internal_error_lines(service)) == 1
        assert read_exchange_log(service.config.exchange_log_path) == []


class TestConfig:
    def test_unknown_mode_is_refused(self, tmp_path):
        config = ProxyConfig(
            exchange_log_path=str(tmp_path / "e.jsonl"),
            tag_log_path=str(tmp_path / "t.csv"),
            error_log_path=str(tmp_path / "err.log"),
            mode="sideways",
        )
        with pytest.raises(ProxyConfigError, match="unknown mode: 'sideways'"):
            ProxyService(config)

    def test_active_mode_without_a_zone_is_refused_over_control(self, tmp_path):
        config = ProxyConfig(
            exchange_log_path=str(tmp_path / "e.jsonl"),
            tag_log_path=str(tmp_path / "t.csv"),
            error_log_path=str(tmp_path / "err.log"),
        )
        service = ProxyService(config)
        service.start()
        try:
            assert control(service, "MODE ACTIVE") == "ERR active mode requires an injector zone"
            assert control(service, "STATUS").startswith("OK mode=PASSIVE")
        finally:
            service.stop()

    def test_active_mode_requires_zone(self, tmp_path):
        config = ProxyConfig(
            exchange_log_path=str(tmp_path / "e.jsonl"),
            tag_log_path=str(tmp_path / "t.csv"),
            error_log_path=str(tmp_path / "err.log"),
            mode=ACTIVE,
        )
        with pytest.raises(ProxyConfigError):
            ProxyService(config)
