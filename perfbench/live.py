"""Live loopback relay part: origin, injecting proxy, DNS responder, clients.

The active proxy (``beaconlab.proxy.ProxyService``) runs in the process
that builds a ``Relay``. The wildcard DNS responder
(``beaconlab.dnssim.DnsResponder``) runs in a process of its own, as
``beaconlab dns`` and ``beaconlab proxy`` do, so the two never share an
interpreter lock. The benchmark's origin server and the load generator
are child processes too, all started from this file:

    python3 perfbench/live.py origin|dns|loadgen PARAMS_JSON

The load generator is one process with two closed-loop client
connections, as a browser waits for each response before the next
request on a connection: one keep-alive connection, and one that opens a
fresh connection per request. Paths follow the measured media-type mix,
drawn by a seeded RNG. After every HTML response the client resolves the
page's two beacon names over UDP, as a browser pulling the images would.
All traffic stays on the loopback interface.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from beaconlab import dnssim, proxy
from beaconlab.clientsim import MEASURED_MIME_MIX
from beaconlab.inject import strip_injected

from refclock import CpuMeter
from tracing import Tracer

ZONE = "tracker.test"
PAYLOAD = "127.0.0.1"
STATIC_LABEL = "pixel"
OBJECTS_PER_TYPE = 16
WARMUP_REQUESTS = 5
DIRECT_REQUESTS = 300
USER_AGENT = "AcmeBrowser/3.5 (DeskOS 1.0; renderkit 2.1)"
REQUEST_ID_HEADER = "X-Bench-Req"
# Per-window operation counts the load generator reports; run totals are their sums.
COUNTS = ("relayed", "html", "relay_errors", "relay_wrong", "dns_sent", "dns_failed")
_BEACON_HOST_RE = re.compile(rb'<img src="http://([a-z0-9.-]+)/')
HTML_BYTES = 4096
OTHER_BYTES = (16, 128)
_FILLER = "abcdefghij nopqrs"  # the simulator's HTML filler alphabet


def catalog(seed: int) -> dict[str, tuple[str, bytes]]:
    """Origin objects by path: (Content-Type, body); the same seed gives the same bytes.

    Every HTML page is HTML_BYTES long, the page size of ROADMAP.md's live
    proxy measurement. Every other object is random bytes of the length
    range the simulator gives such bodies (``clientsim._placeholder_body``).
    """
    rng = random.Random(seed)
    objects = {}
    for mime in MEASURED_MIME_MIX:
        for i in range(OBJECTS_PER_TYPE):
            if mime == "text/html":
                head = f"<html><head><title>page {i}</title></head><body><h1>page {i}</h1><p>"
                tail = "</p></body></html>"
                filler = "".join(rng.choices(_FILLER, k=HTML_BYTES - len(head) - len(tail)))
                objects[f"/html/{i}"] = ("text/html; charset=utf-8", (head + filler + tail).encode("ascii"))
            else:
                body = rng.randbytes(rng.randrange(*OTHER_BYTES))
                objects[f"/{mime.replace('/', '-')}/{i}"] = (mime, body)
    return objects


# --- origin (child process) ----------------------------------------------------


class _OriginHandler(BaseHTTPRequestHandler):
    """Serves the catalog. Status line, headers and body leave in one
    write on a TCP_NODELAY socket, so the origin adds no Nagle stall."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    replies: dict[str, bytes] = {}

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        reply = self.replies.get(self.path)
        if reply is None:
            reply = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"
        self.wfile.write(reply)


def origin_main(p: dict) -> None:
    """Serve until standard input closes; the first line printed is the port."""
    replies = {
        path: (
            f"HTTP/1.1 200 OK\r\nContent-Type: {ctype}\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
        for path, (ctype, body) in catalog(p["seed"]).items()
    }
    handler = type("OriginHandler", (_OriginHandler,), {"replies": replies})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def dns_main(p: dict) -> None:
    """Serve DNS until standard input closes. The first line printed is the
    port, the last a JSON summary. Between ``start`` and ``stop`` lines on
    standard input (each acknowledged) the process's CPU time is metered;
    with ``spans`` set, ``handle_packet`` is traced and the spans are
    written there."""
    responder = dnssim.DnsResponder(
        dnssim.ZoneConfig(zone=ZONE, payload_address=PAYLOAD, ttl_seconds=0)
    )
    tracer = Tracer() if p["spans"] else None
    if tracer is not None:
        tracer.patch(responder, "handle_packet", "dnssim.handle_packet")
    meter = CpuMeter()
    responder.start()
    print(responder.address[1], flush=True)
    for line in sys.stdin:
        if line.strip() == "start":
            meter.__enter__()
        else:
            meter.__exit__(None, None, None)
        print("ok", flush=True)
    responder.stop()
    summary = {"resolved": len(responder.resolver.log), "cpu_ref_s": meter.ref_s()}
    if tracer is not None:
        tracer.write(p["spans"])
        summary["handle_packet_us"] = tracer.median_us("dnssim.handle_packet")
    print(json.dumps(summary))


# --- load generator (child process) ----------------------------------------------


class _Client:
    """One closed-loop client connection through the proxy."""

    def __init__(self, kind: str, p: dict, objects: dict):
        self.kind = kind
        self.proxy = tuple(p["proxy"])
        self.dns = tuple(p["dns"])
        self.base = f"http://127.0.0.1:{p['origin_port']}"
        self.objects = objects
        self.rng = random.Random(f"{p['seed']}:{p['round']}:{kind}")
        self.rid_prefix = f"{p['round']}{kind[0]}"
        self.weights = list(MEASURED_MIME_MIX.values())
        self.paths = [
            [path for path, (ctype, _) in objects.items() if ctype.split(";")[0] == mime]
            for mime in MEASURED_MIME_MIX
        ]
        self.conn: http.client.HTTPConnection | None = None
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.settimeout(2.0)
        self.latency: list[tuple[str, int]] = []  # (request id, ns), measured window only
        self.dns_ns: list[int] = []
        self.relayed = self.html = self.relay_errors = self.relay_wrong = 0
        self.dns_sent = self.dns_failed = 0
        self.wrong: list[str] = []
        self._seq = 0

    def _fetch(self, path: str, rid: str) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(*self.proxy, timeout=10)
        self.conn.request(
            "GET", self.base + path, headers={"User-Agent": USER_AGENT, REQUEST_ID_HEADER: rid}
        )
        response = self.conn.getresponse()
        body = response.read()
        if self.kind == "fresh":
            self.conn.close()
            self.conn = None
        return response.status, body

    def _fail(self, what: str) -> None:
        if len(self.wrong) < 5:
            self.wrong.append(what)

    def request(self, record: bool) -> None:
        group = self.rng.choices(self.paths, weights=self.weights)[0]
        path = group[self.rng.randrange(len(group))]
        rid = f"{self.rid_prefix}{self._seq}"
        self._seq += 1
        started = time.perf_counter_ns()
        try:
            status, body = self._fetch(path, rid)
        except (OSError, http.client.HTTPException) as exc:
            if self.conn is not None:
                self.conn.close()
                self.conn = None
            self.relay_errors += 1
            self._fail(f"{rid} {path}: {exc!r}")
            return
        elapsed = time.perf_counter_ns() - started
        self.relayed += 1
        ctype, original = self.objects[path]
        if ctype.startswith("text/html"):
            self.html += 1
            names = [m.decode("ascii") for m in _BEACON_HOST_RE.findall(body)]
            ok = status == 200 and strip_injected(body) == original and len(names) == 2
        else:
            names = []
            ok = status == 200 and body == original
        if not ok:
            self.relay_wrong += 1
            self._fail(f"{rid} {path}: delivered body differs from origin")
        elif record:
            self.latency.append((rid, elapsed))
        for name in names:
            self.resolve(name, record)

    def resolve(self, name: str, record: bool) -> None:
        txid = self.dns_sent & 0xFFFF
        self.dns_sent += 1
        started = time.perf_counter_ns()
        try:
            self.sock.sendto(dnssim.encode_query(txid, name), self.dns)
            reply = self.sock.recv(4096)
        except OSError as exc:
            self.dns_failed += 1
            self._fail(f"dns {name}: {exc!r}")
            return
        elapsed = time.perf_counter_ns() - started
        if reply[:2] != txid.to_bytes(2, "big") or dnssim.parse_answer_address(reply) != PAYLOAD:
            self.dns_failed += 1
            self._fail(f"dns {name}: wrong answer")
        elif record:
            self.dns_ns.append(elapsed)

    def run(self, barrier: threading.Barrier, deadline: list) -> None:
        try:
            for _ in range(WARMUP_REQUESTS):
                self.request(record=False)
            barrier.wait()
            while time.perf_counter() < deadline[0]:
                self.request(record=True)
        finally:
            if self.conn is not None:
                self.conn.close()
            self.sock.close()


def _direct_origin_ns(p: dict, objects: dict) -> list[int]:
    """Latency of the origin fetched on one keep-alive connection, no proxy."""
    rng = random.Random(f"{p['seed']}:direct")
    paths = sorted(objects)
    conn = http.client.HTTPConnection("127.0.0.1", p["origin_port"], timeout=10)
    samples = []
    try:
        for _ in range(DIRECT_REQUESTS):
            path = rng.choice(paths)
            started = time.perf_counter_ns()
            conn.request("GET", path)
            body = conn.getresponse().read()
            samples.append(time.perf_counter_ns() - started)
            if body != objects[path][1]:
                raise RuntimeError(f"origin returned wrong bytes for {path}")
    finally:
        conn.close()
    return samples


def loadgen_main(p: dict) -> dict:
    """One measured window of both clients; the first round also times the origin alone."""
    objects = catalog(p["seed"])
    direct = _direct_origin_ns(p, objects) if p["round"] == 0 else []
    clients = [_Client("keepalive", p, objects), _Client("fresh", p, objects)]
    deadline = [0.0]

    def start_window():
        deadline[0] = time.perf_counter() + p["seconds"]

    barrier = threading.Barrier(len(clients), action=start_window)
    threads = [threading.Thread(target=c.run, args=(barrier, deadline)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result = {
        "latency": {c.kind: c.latency for c in clients},
        "dns_ns": [ns for c in clients for ns in c.dns_ns],
        "direct_ns": direct,
        "window_s": time.perf_counter() - (deadline[0] - p["seconds"]),
        "wrong": [w for c in clients for w in c.wrong],
    }
    result.update({key: sum(getattr(c, key) for c in clients) for key in COUNTS})
    return result


# --- server side (calling process) ---------------------------------------------


def percentile(values, q: int) -> float:
    """q-th percentile (0 < q < 100), interpolated between closest ranks."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_child(script: str, stage: str | None, params: dict, env: dict, timeout: float) -> dict:
    """Run one benchmark child stage and return the JSON object it printed last."""
    done = subprocess.run(
        [sys.executable, script, *([stage] if stage else []), json.dumps(params)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{os.path.basename(script)} {stage or ''} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _control(address, line: str) -> str:
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall((line + "\n").encode("ascii"))
        return sock.makefile("r", encoding="utf-8").readline().strip()


class _ServiceChild:
    """A child process that serves until its standard input closes; the
    first line it prints is its port, and what follows is returned by close."""

    def __init__(self, script: str, stage: str, params: dict, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, script, stage, json.dumps(params)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = int(self.proc.stdout.readline())
        except ValueError:
            self.close()
            raise RuntimeError(f"{stage} child did not start") from None

    def tell(self, line: str) -> None:
        """Send one line and wait for the child's acknowledgement."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ok":
            raise RuntimeError(f"child did not acknowledge {line!r}")

    def close(self) -> str:
        self.proc.stdin.close()
        try:
            return self.proc.stdout.read()
        finally:
            self.proc.stdout.close()
            self.proc.wait(timeout=30)


class Relay:
    """The origin and DNS children and the active proxy, up for one run.

    ``drive`` runs one measured window of the load generator and meters
    the CPU time of the proxy's process (``proxy_cpu``) and of the DNS
    child over it, at the host's reference speed; ``close``
    reads the proxy's STATUS and the resolver's log length, then stops
    everything, timing ``ProxyService.stop``. With a tracer, spans are
    recorded around the proxy's public methods, and the DNS child writes
    its own spans to ``dns_spans``.
    """

    def __init__(self, seed: int, work: str, env: dict, tracer=None, dns_spans: str | None = None):
        self.seed = seed
        self.env = env
        self.script = os.path.abspath(__file__)
        self.loads: list[dict] = []
        self.final: dict = {}
        self.proxy_cpu = CpuMeter()
        self.service = self.dns = None
        self.origin = _ServiceChild(self.script, "origin", {"seed": seed}, env)
        try:
            self.dns = _ServiceChild(self.script, "dns", {"spans": dns_spans}, env)
            self.service = proxy.ProxyService(
                proxy.ProxyConfig(
                    exchange_log_path=os.path.join(work, "exchanges.jsonl"),
                    tag_log_path=os.path.join(work, "tags.csv"),
                    error_log_path=os.path.join(work, "errors.log"),
                    mode=proxy.ACTIVE,
                    zone=ZONE,
                    static_label=STATIC_LABEL,
                    payload_address=PAYLOAD,
                    seed=seed,
                )
            )
            self.service.start()
        except BaseException:
            self._stop()
            raise
        if tracer is not None:
            tracer.patch(
                self.service,
                "handle_request_socketless",
                "proxy.handle_request_socketless",
                request_id_of=lambda handler: handler.headers.get(REQUEST_ID_HEADER),
            )
            tracer.patch(self.service, "process_response", "proxy.process_response")
            tracer.patch(self.service.injector, "inject", "inject.inject")
            tracer.patch(self.service.exchange_log, "append", "httplog.append")

    def drive(self, seconds: float) -> None:
        params = {
            "seed": self.seed,
            "round": len(self.loads),
            "seconds": seconds,
            "proxy": list(self.service.listen_address),
            "dns": ["127.0.0.1", self.dns.port],
            "origin_port": self.origin.port,
        }
        self.dns.tell("start")
        with self.proxy_cpu:
            self.loads.append(run_child(self.script, "loadgen", params, self.env, timeout=seconds + 120))
        self.dns.tell("stop")

    def _stop(self) -> None:
        try:
            if self.service is not None:
                started = time.perf_counter()
                self.service.stop()
                self.final["stop_s"] = time.perf_counter() - started
        finally:
            try:
                if self.dns is not None:
                    self.final["dns"] = json.loads(self.dns.close().strip().splitlines()[-1])
            finally:
                self.origin.close()

    def close(self) -> None:
        try:
            status = _control(self.service.control_address, "STATUS").split()[1:]
            self.final["status"] = dict(field.split("=", 1) for field in status)
        finally:
            self._stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _pooled(loads: list[dict]) -> dict:
    pooled = {
        "latency": {kind: [s for load in loads for s in load["latency"][kind]] for kind in ("keepalive", "fresh")},
        "dns_ns": [ns for load in loads for ns in load["dns_ns"]],
        "direct_ns": [ns for load in loads for ns in load["direct_ns"]],
        "wrong": [w for load in loads for w in load["wrong"]],
    }
    for key in ("window_s", *COUNTS):
        pooled[key] = sum(load[key] for load in loads)
    return pooled


def _layer_metrics(tracer, load: dict, handle_packet_us: float) -> dict:
    """Per-layer numbers of the live part from the proxy and DNS spans."""
    handle = {s[4]: s[2] - s[1] for s in tracer.named("proxy.handle_request_socketless")}
    covered = tracer.child_ns()
    lock_wait = [s[2] - s[1] - covered.get(id(s), 0) for s in tracer.named("proxy.process_response")]
    gap = {
        kind: [ns - handle[rid] for rid, ns in samples if rid in handle]
        for kind, samples in load["latency"].items()
    }
    return {
        "proxy.handle_us": statistics.median(handle.values()) / 1e3,
        "proxy.inject_lock_wait_us": statistics.median(lock_wait) / 1e3,
        "proxy.deliver_gap_us": statistics.median(gap["keepalive"] + gap["fresh"]) / 1e3,
        "proxy.deliver_gap_keepalive_us": statistics.median(gap["keepalive"]) / 1e3,
        "proxy.deliver_gap_fresh_us": statistics.median(gap["fresh"]) / 1e3,
        "inject.live_us_per_call": tracer.mean_us("inject.inject"),
        "httplog.append_us": tracer.median_us("httplog.append"),
        "dnssim.handle_packet_us": handle_packet_us,
        "dnssim.dispatch_overhead_us": percentile(load["dns_ns"], 50) / 1e3 - handle_packet_us,
    }


def relay_results(relay: Relay, tracer=None) -> dict:
    """Metrics, gate checks and operation counts over all of a relay's windows."""
    load = _pooled(relay.loads)
    status = relay.final["status"]
    exchanges, tags = int(status["exchanges"]), int(status["tags"])
    checks = {
        "status_mode_active": status["mode"] == "ACTIVE",
        "status_exchanges_equal_requests": exchanges == load["relayed"],
        "status_tags_twice_html": tags == 2 * load["html"],
        "resolver_log_equals_queries": relay.final["dns"]["resolved"] == load["dns_sent"],
    }
    keepalive = [ns for _, ns in load["latency"]["keepalive"]]
    fresh = [ns for _, ns in load["latency"]["fresh"]]
    dns = load["dns_ns"]
    metrics = {
        "relay_keepalive_p50_ms": percentile(keepalive, 50) / 1e6,
        "relay_cpu_us_per_req": relay.proxy_cpu.ref_s() / exchanges * 1e6,
        "dns_cpu_us_per_query": relay.final["dns"]["cpu_ref_s"] / relay.final["dns"]["resolved"] * 1e6,
        "relay.req_per_s": (len(keepalive) + len(fresh)) / load["window_s"],
        "relay.keepalive_p95_ms": percentile(keepalive, 95) / 1e6,
        "relay.fresh_p50_ms": percentile(fresh, 50) / 1e6,
        "relay.fresh_p95_ms": percentile(fresh, 95) / 1e6,
        "dnssim.rtt_p50_ms": percentile(dns, 50) / 1e6,
        "dnssim.rtt_p95_ms": percentile(dns, 95) / 1e6,
        "proxy.exchanges_handled": exchanges,
        "proxy.tags_injected": tags,
        "proxy.stop_s": relay.final["stop_s"],
        "origin.direct_p50_us": percentile(load["direct_ns"], 50) / 1e3,
    }
    if tracer is not None:
        metrics.update(_layer_metrics(tracer, load, relay.final["dns"]["handle_packet_us"]))
    return {
        "metrics": metrics,
        "checks": checks,
        "attempted": load["relayed"] + load["relay_errors"] + load["dns_sent"],
        "failed": load["relay_errors"] + load["relay_wrong"] + load["dns_failed"],
        "wrong": load["wrong"],
    }


if __name__ == "__main__":
    stage, params = sys.argv[1], json.loads(sys.argv[2])
    if stage == "origin":
        origin_main(params)
    elif stage == "dns":
        dns_main(params)
    else:
        print(json.dumps(loadgen_main(params)))
