"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime (visible under pytest -s / -v)."""

import json
import os
import random
import re
import socket
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from beaconlab import cli, dnssim
from beaconlab.clientsim import calibrated_config
from beaconlab.httplog import HttpExchange, read_exchange_log
from beaconlab.inject import MARKER_BEGIN, Injector, strip_injected
from beaconlab.proxy import PASSIVE, ProxyConfig, ProxyService
from beaconlab.ua import (
    UaRecord,
    Verdict,
    VulnDb,
    classify,
    ratio_series,
    vulnerability_ratio,
)
from tests.test_injector import inject_record


def _report_pass(name, started):
    print(f"PASS: {name} ({time.monotonic() - started:.2f}s)")


# --- criterion 1: vulnerability-ratio reproduction --------------------------

FIXTURE_DB = VulnDb.from_pairs([("vulnbrowser", "1.0", "1.9999")])


def synth_population():
    """4973 observations in the measured category proportions: 3106 matching
    the fixture db, 159 with no user-agent header, 65 versionless, and the
    remaining 1643 versioned but unknown to the db."""
    raws = (
        [f"VulnBrowser/1.{i} (TestOS; lib {i % 9}.1)" for i in range(3106)]
        + [""] * 159
        + [f"BareAgent{i}" for i in range(65)]
        + [f"SafeBrowser/7.{i}" for i in range(4973 - 3106 - 159 - 65)]
    )
    rng = random.Random(20090524)
    rng.shuffle(raws)
    span = 7200.0  # eight 15-minute windows
    return [
        UaRecord(raw, span * index / len(raws)) for index, raw in enumerate(raws)
    ]


def test_vulnerability_ratio_reproduction():
    started = time.monotonic()
    records = synth_population()
    verdicts = [classify(record.raw, FIXTURE_DB).verdict for record in records]
    vulnerable = sum(1 for verdict in verdicts if verdict is Verdict.VULNERABLE)
    overall = vulnerability_ratio(vulnerable, len(verdicts) - vulnerable)
    assert 0.61 <= overall <= 0.64
    series = ratio_series(records, FIXTURE_DB, window_seconds=900.0)
    assert len(series.points) >= 8
    for point in series.points:
        assert point.ratio is not None
        assert 0.58 <= point.ratio <= 0.68
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report_pass("vulnerability-ratio reproduction", started)


# --- criterion 2: injection property suite -----------------------------------

def _random_exchange(rng, index):
    kind = rng.randrange(5)
    if kind == 0:
        content_type, body = "image/jpeg", bytes(rng.randrange(256) for _ in range(40))
    elif kind == 1:
        content_type, body = "text/plain", b"plain text " * rng.randrange(1, 5)
    elif kind == 2:
        content_type = "text/html"
        body = b"<p>no body element here</p>"
    elif kind == 3:
        content_type = "text/html"
        filler = bytes(rng.choice(b"abcdefg <>&") for _ in range(rng.randrange(200)))
        body = b"<html><body onload='x()'>" + filler + b"</body></html>"
    else:
        content_type = "text/html"
        body = b"<body>" + b"unclosed " * rng.randrange(1, 8)
    return HttpExchange(
        exchange_id=f"x{index}",
        timestamp=float(index),
        flow_id=f"f{index}",
        method="GET",
        url="http://origin.example/p",
        request_headers=(),
        response_status=200,
        response_headers=(
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
        ),
        response_body=body,
    )


def test_injection_idempotence_and_passthrough():
    started = time.monotonic()
    rng = random.Random(688)
    injector = Injector(zone="tracker.test", static_label="pixel", seed=688)
    issued = []
    for index in range(1200):
        exchange = _random_exchange(rng, index)
        once, tags = inject_record(injector, exchange)
        issued.extend(tags)
        twice, tags_again = inject_record(injector, once)
        assert twice == once  # byte-for-byte idempotence
        assert tags_again == []
        is_html = exchange.header("content-type").startswith("text/html")
        if not is_html:
            assert once == exchange  # non-HTML byte identity
        if tags:
            assert once.header("content-length") == str(len(once.response_body))
            assert strip_injected(once.response_body) == exchange.response_body
    dynamic = [tag.subdomain for tag in issued if tag.kind == "dynamic"]
    assert len(set(dynamic)) == len(dynamic)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report_pass("injection idempotence and passthrough", started)


# --- criteria 3 and 4: simulate-then-analyze exactness ------------------------

@pytest.fixture(scope="module")
def exactness_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("exactness")
    config = calibrated_config(
        seed=101,
        client_count=200,
        duration_seconds=1800.0,
        visit_rate=0.01,
        non_fetching_share=0.1,
        restart_count=5,
    )
    config_path = str(base / "scenario.json")
    config.save(config_path)
    sim_dir = str(base / "sim")
    out_dir = str(base / "report")
    started = time.monotonic()
    assert cli.main(["simulate", "--config", config_path, "--out", sim_dir]) == 0
    assert cli.main(["analyze", "--logs", sim_dir, "--out", out_dir]) == 0
    elapsed = time.monotonic() - started
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(sim_dir, "ground_truth.json")) as fh:
        truth = json.load(fh)
    return sim_dir, report, truth, elapsed


def test_unique_user_exactness(exactness_run):
    started = time.monotonic()
    _, report, truth, elapsed = exactness_run
    assert elapsed < 60.0
    # zero tolerance on both headline quantities
    assert report["unique_users"] == truth["unique_user_lifetimes"]
    reappeared = sorted(item["subdomain"] for item in report["reappearances"])
    assert len(reappeared) == 5
    assert reappeared == truth["reappearance_subdomains"]
    _report_pass("unique-user and reappearance exactness", started)


def test_dynamic_tag_accounting(exactness_run):
    started = time.monotonic()
    sim_dir, report, truth, _ = exactness_run
    assert report["dynamic_tags_issued"] == truth["taggable_responses"]
    # independent recount: delivered responses carrying the injection marker
    delivered = read_exchange_log(os.path.join(sim_dir, "exchanges.jsonl"))
    marked = sum(1 for e in delivered if MARKER_BEGIN.encode() in e.response_body)
    assert report["dynamic_tags_issued"] == marked
    # every dynamic DNS hit lands on an issued label
    assert report["anomalies"] == []
    _report_pass("dynamic-tag accounting", started)


# --- criterion 5: mime-distribution recovery ---------------------------------

def test_mime_distribution_recovery(tmp_path):
    started = time.monotonic()
    config = calibrated_config(
        seed=202,
        client_count=100,
        duration_seconds=1000.0,
        visit_rate=0.1,
        non_fetching_share=0.0,
        restart_count=0,
    )
    config_path = str(tmp_path / "scenario.json")
    config.save(config_path)
    sim_dir = str(tmp_path / "sim")
    out_dir = str(tmp_path / "report")
    assert cli.main(["simulate", "--config", config_path, "--out", sim_dir]) == 0
    assert cli.main(["analyze", "--logs", sim_dir, "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    dist = report["mime_distribution"]
    assert dist["total"] >= 9000  # a ten-thousand-exchange scenario, minus HTTPS share
    for mime, share in config.mime_mix.items():
        percent = 100.0 * dist["counts"].get(mime, 0) / dist["total"]
        assert abs(percent - 100.0 * share) <= 2.0, mime
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report_pass("mime-distribution recovery", started)


# --- criterion 6: live loopback integration ----------------------------------

ORIGIN_PAGE = b"<html><head><title>o</title></head><body><p>origin</p></body></html>"


class _Origin(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(ORIGIN_PAGE)))
        self.end_headers()
        self.wfile.write(ORIGIN_PAGE)


def _control(address, line):
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall((line + "\n").encode())
        return sock.makefile("r").readline().strip()


def test_live_loopback_integration(tmp_path):
    started = time.monotonic()
    origin = ThreadingHTTPServer(("127.0.0.1", 0), _Origin)
    threading.Thread(target=origin.serve_forever, args=(0.05,), daemon=True).start()
    responder = dnssim.DnsResponder(
        dnssim.ZoneConfig(zone="tracker.test", payload_address="127.0.0.1", ttl_seconds=30),
        port=0,
    )
    responder.start()
    service = ProxyService(
        ProxyConfig(
            exchange_log_path=str(tmp_path / "exchanges.jsonl"),
            tag_log_path=str(tmp_path / "tags.csv"),
            error_log_path=str(tmp_path / "errors.log"),
            mode="active",
            zone="tracker.test",
            static_label="pixel",
            payload_address="127.0.0.1",
        )
    )
    service.start()
    try:
        proxy_url = f"http://{service.listen_address[0]}:{service.listen_address[1]}"
        opener = urllib.request.build_opener(
            urllib.request.ProxyHandler({"http": proxy_url})
        )
        origin_url = f"http://{origin.server_address[0]}:{origin.server_address[1]}/page"
        delivered = opener.open(origin_url, timeout=5).read()
        beacons = re.findall(rb'<img src="http://([a-z0-9.-]+)/', delivered)
        assert len(beacons) == 2  # both beacons present in the delivered page
        names = [host.decode() for host in beacons]
        assert "pixel.tracker.test" in names
        # scripted client: one real DNS lookup per beacon name
        for txid, name in enumerate(names, start=1):
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(5)
                sock.sendto(dnssim.encode_query(txid, name), responder.address)
                reply, _ = sock.recvfrom(4096)
            assert dnssim.parse_answer_address(reply) == "127.0.0.1"
        for name in names:
            assert sum(record.name == name for record in responder.resolver.log) == 1
        # passive mode restores transparency, byte for byte
        assert _control(service.control_address, "MODE PASSIVE") == "OK mode=PASSIVE"
        passive = opener.open(origin_url, timeout=5).read()
        assert passive == ORIGIN_PAGE
    finally:
        service.stop()
        responder.stop()
        origin.shutdown()
        origin.server_close()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report_pass("live loopback integration", started)
