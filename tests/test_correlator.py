import builtins
import csv
import dataclasses
import gc
import hashlib
import importlib.util
import io
import json
import os
import sys
import tracemalloc
import warnings
from unittest import mock

import pytest

from beaconlab import cli, clientsim, correlate, httplog
from beaconlab.clientsim import FetchRecord, calibrated_vuln_db, run_scenario
from beaconlab.correlate import (
    MissingLogError,
    build_report,
    build_report_from_dir,
    count_unique_users,
    detect_reappearances,
    tag_accounting,
    write_report,
)
from beaconlab.dnssim import DnsQueryRecord, read_query_log, write_query_log
from beaconlab.httplog import LogFormatError, exchange_views, read_exchange_log, write_exchange_log
from beaconlab.inject import Tag, read_tag_log, write_tag_log
from beaconlab.clientsim import read_fetch_log, write_fetch_log
from beaconlab.dnssim import DnsResponder, ZoneConfig, encode_query
from tests.test_clientsim import collections_started, collector, small_config  # noqa: F401
from tests.test_dnssim import _udp_ask
from tests.test_proxy import origin, proxy_get, service  # noqa: F401 (fixtures)

ZONE = "feedback.test"
DB = calibrated_vuln_db()


def dns(name, ts, source="s1"):
    return DnsQueryRecord(name=name, source=source, timestamp=ts)


def write_logs(result, log_dir):
    os.makedirs(log_dir, exist_ok=True)
    write_exchange_log(result.exchanges, os.path.join(log_dir, "exchanges.jsonl"))
    write_tag_log(result.tags, os.path.join(log_dir, "tags.csv"))
    write_query_log(result.dns_log, os.path.join(log_dir, "dns_queries.csv"))
    write_fetch_log(result.fetch_log, os.path.join(log_dir, "fetches.csv"))


def simulated_logs(config, log_dir):
    write_logs(run_scenario(config), log_dir)


def report_files(report, out_dir):
    write_report(report, out_dir)
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


# A default and a churn-shaped (many restarts, few visits) small scenario.
SCENARIOS = {
    "default": small_config(),
    "churn": small_config(client_count=60, visit_rate=0.002, restart_count=40),
}


class TestCountUniqueUsers:
    def test_empty_log(self):
        assert count_unique_users([], "pixel", ZONE) == 0

    def test_counts_every_static_hit(self):
        log = [
            dns(f"pixel.{ZONE}", 1.0, "a"),
            dns(f"pixel.{ZONE}", 2.0, "a"),  # same source, new lifetime
            dns(f"d1x.{ZONE}", 3.0, "a"),
        ]
        assert count_unique_users(log, "pixel", ZONE) == 3 - 1

    def test_against_simulated_ground_truth(self):
        result = run_scenario(small_config())
        expected = result.ground_truth["unique_user_lifetimes"]
        assert count_unique_users(result.dns_log, "pixel", result.config.zone) == expected


class TestDetectReappearances:
    def test_repeat_hit_detected(self):
        log = [dns(f"d1abc.{ZONE}", 1.0), dns(f"d1abc.{ZONE}", 50.0), dns(f"d2def.{ZONE}", 2.0)]
        reappearances, anomalies = detect_reappearances(log, ["d1abc", "d2def"], "pixel", ZONE)
        assert [(r.subdomain, r.hit_count) for r in reappearances] == [("d1abc", 2)]
        assert reappearances[0].timestamps == (1.0, 50.0)
        assert anomalies == []

    def test_no_restarts_empty(self):
        log = [dns(f"d{i}.{ZONE}", float(i)) for i in range(5)]
        reappearances, _ = detect_reappearances(log, [f"d{i}" for i in range(5)], "pixel", ZONE)
        assert reappearances == []

    def test_unissued_subdomain_is_an_anomaly(self):
        log = [dns(f"phantom.{ZONE}", 1.0), dns(f"pixel.{ZONE}", 2.0)]
        reappearances, anomalies = detect_reappearances(log, ["d1abc"], "pixel", ZONE)
        assert reappearances == []
        assert anomalies == ["phantom"]

    def test_scripted_restarts_exact(self):
        result = run_scenario(small_config())
        issued = [tag.subdomain for tag in result.tags if tag.kind == "dynamic"]
        reappearances, anomalies = detect_reappearances(
            result.dns_log, issued, "pixel", result.config.zone
        )
        assert sorted(r.subdomain for r in reappearances) == result.ground_truth[
            "reappearance_subdomains"
        ]
        assert anomalies == []


class TestTagAccounting:
    def test_hand_built_logs(self):
        tags = [Tag("static", "pixel", f"http://pixel.{ZONE}/p.gif", "x0", 0.0)] + [
            Tag("dynamic", f"d{i}", f"http://d{i}.{ZONE}/p.gif", f"x{i}", float(i))
            for i in range(10)
        ]
        dns_log = [dns(f"d{i}.{ZONE}", float(i)) for i in range(7)]
        fetch_log = [
            FetchRecord(float(i), "s", f"http://d{i}.{ZONE}/p.gif") for i in range(7)
        ]
        accounting = tag_accounting(tags, dns_log, fetch_log, "pixel", ZONE)
        assert accounting.dynamic_issued == 10
        assert accounting.dynamic_dns_hits == 7
        assert accounting.static_dns_hits == 0
        assert accounting.static_object_hits == 0  # the seven fetches are of dynamic labels

    def test_one_shot_logs_with_a_label_looked_up_three_times(self):
        tags = iter([
            Tag("dynamic", "d1", f"http://d1.{ZONE}/p.gif", "x1", 0.0),
            Tag("dynamic", "d2", f"http://d2.{ZONE}/p.gif", "x2", 0.0),
            Tag("dynamic", "d1", f"http://d1.{ZONE}/p.gif", "x3", 0.0),  # issued twice, counted once
        ])
        dns_log = iter([dns(f"d1.{ZONE}", 50.0), dns(f"d2.{ZONE}", 5.0), dns(f"d1.{ZONE}", 1.0),
                        dns(f"d1.{ZONE}", 20.0), dns(f"pixel.{ZONE}", 3.0)])
        accounting = tag_accounting(tags, dns_log, iter([]), "pixel", ZONE)
        assert accounting.dynamic_issued == 2
        assert accounting.dynamic_dns_hits == 4
        assert accounting.static_dns_hits == 1
        assert accounting.reappearances == (
            correlate.Reappearance(subdomain="d1", hit_count=3, timestamps=(1.0, 20.0, 50.0)),
        )

    def test_names_outside_the_zone_and_the_apex_count_nowhere(self):
        tags = [Tag("dynamic", "d1", f"http://d1.{ZONE}/p.gif", "x1", 0.0)]
        outside = [ZONE, "pixel.other.test", "d1.other.test", f"pixel.x{ZONE}", f"d1.x{ZONE}",
                   f"pixel.{ZONE}.other.test", "test"]
        dns_log = [dns(name, float(i)) for i, name in enumerate(outside)]
        fetch_log = [FetchRecord(float(i), "s", f"http://{name}/p.gif") for i, name in enumerate(outside)]
        accounting = tag_accounting(tags, dns_log, fetch_log, "pixel", ZONE)
        assert accounting == correlate.TagAccounting(
            dynamic_issued=1, static_dns_hits=0, dynamic_dns_hits=0, static_object_hits=0,
            reappearances=(), anomalies=(),
        )
        # the same logs with one in-zone name of each kind count each once
        inside = [f"pixel.{ZONE}", f"d1.{ZONE}", f"new.{ZONE}"]
        dns_log += [dns(name, 10.0) for name in inside]
        fetch_log += [FetchRecord(10.0, "s", f"http://{name}/p.gif") for name in inside]
        accounting = tag_accounting(tags, dns_log, fetch_log, "pixel", ZONE)
        assert (accounting.static_dns_hits, accounting.dynamic_dns_hits) == (1, 1)
        assert (accounting.static_object_hits, accounting.anomalies) == (1, ("new",))

    def test_zero_tag_run(self):
        accounting = tag_accounting([], [], [], "pixel", ZONE)
        assert accounting == dataclasses.replace(accounting)
        assert accounting.dynamic_issued == accounting.dynamic_dns_hits == 0

    def test_dynamic_issues_equal_taggable_count(self):
        result = run_scenario(small_config())
        accounting = tag_accounting(
            result.tags, result.dns_log, result.fetch_log, "pixel", result.config.zone
        )
        assert accounting.dynamic_issued == result.ground_truth["taggable_responses"]


class TestBuildReport:
    def test_matches_ground_truth_end_to_end(self):
        result = run_scenario(small_config())
        report = build_report(
            exchange_views(result.exchanges),
            result.tags,
            result.dns_log,
            result.fetch_log,
            DB,
            static_label="pixel",
            zone=result.config.zone,
        )
        truth = result.ground_truth
        assert report.accounting.static_dns_hits == truth["unique_user_lifetimes"]
        assert sorted(r.subdomain for r in report.accounting.reappearances) == truth[
            "reappearance_subdomains"
        ]
        assert report.accounting.dynamic_issued == truth["taggable_responses"]
        assert report.accounting.anomalies == ()

    def test_dynamic_hits_subset_of_issued(self):
        result = run_scenario(small_config())
        report = build_report(
            exchange_views(result.exchanges),
            result.tags,
            result.dns_log,
            result.fetch_log,
            DB,
            static_label="pixel",
            zone=result.config.zone,
        )
        assert report.accounting.dynamic_dns_hits <= sum(
            r.hit_count for r in report.accounting.reappearances
        ) + report.accounting.dynamic_issued

    def test_passive_only_logs(self):
        result = run_scenario(small_config())
        report = build_report(
            exchange_views(result.exchanges), [], [], [], DB, static_label="pixel", zone=result.config.zone
        )
        assert report.accounting.dynamic_issued == 0
        assert report.accounting.static_dns_hits == 0
        assert report.mime_distribution.total > 0
        assert report.ratio_series.points

    def test_pure_function_of_logs(self):
        result = run_scenario(small_config())
        args = (exchange_views(result.exchanges), result.tags, result.dns_log, result.fetch_log, DB)
        first = build_report(*args, static_label="pixel", zone=result.config.zone)
        second = build_report(*args, static_label="pixel", zone=result.config.zone)
        assert first.to_json() == second.to_json()


class TestFromDir:
    def test_round_trip_through_files(self, tmp_path):
        result = run_scenario(small_config())
        log_dir = str(tmp_path / "logs")
        write_logs(result, log_dir)
        report = build_report_from_dir(log_dir, DB, static_label="pixel", zone=result.config.zone)
        assert report.accounting.static_dns_hits == result.ground_truth["unique_user_lifetimes"]
        out_dir = str(tmp_path / "out")
        write_report(report, out_dir)
        for name in ("report.json", "ratio_series.csv", "mime_distribution.csv", "ua_growth.csv"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_missing_log_names_the_source(self, tmp_path):
        result = run_scenario(small_config())
        log_dir = str(tmp_path / "logs")
        write_logs(result, log_dir)
        os.remove(os.path.join(log_dir, "dns_queries.csv"))
        with pytest.raises(MissingLogError) as excinfo:
            build_report_from_dir(log_dir, DB, static_label="pixel", zone=result.config.zone)
        assert excinfo.value.source == "dns"


class TestCollectorPause:
    @pytest.fixture(scope="class")
    def log_dir(self, tmp_path_factory):
        log_dir = str(tmp_path_factory.mktemp("calibrated300"))
        simulated_logs(clientsim.calibrated_config(seed=3, client_count=300), log_dir)
        return log_dir

    def build(self, log_dir):
        return build_report_from_dir(log_dir, DB, static_label="pixel", zone=ZONE)

    def test_state_restored(self, collector, log_dir):
        self.build(log_dir)
        assert gc.isenabled() is collector

    def test_state_restored_when_it_raises(self, collector, tmp_path):
        with pytest.raises(MissingLogError):
            self.build(str(tmp_path))
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True], indirect=True)
    def test_no_collection_while_reading(self, collector, log_dir):
        with collections_started() as started:
            self.build(log_dir)
        assert started == []


class TestExchangeViewsGiveTheSameReport:
    @pytest.mark.parametrize("scenario", SCENARIOS.values(), ids=SCENARIOS.keys())
    def test_from_dir_equals_full_exchanges(self, tmp_path, scenario):
        log_dir = str(tmp_path / "logs")
        simulated_logs(scenario, log_dir)
        path = lambda name: os.path.join(log_dir, name)
        from_dir = build_report_from_dir(log_dir, DB, static_label="pixel", zone=scenario.zone)
        full = build_report(
            exchange_views(read_exchange_log(path("exchanges.jsonl"))),
            read_tag_log(path("tags.csv")),
            read_query_log(path("dns_queries.csv")),
            read_fetch_log(path("fetches.csv")),
            DB,
            static_label="pixel",
            zone=scenario.zone,
        )
        views = report_files(from_dir, str(tmp_path / "views"))
        assert set(views) == {"report.json", "ratio_series.csv", "mime_distribution.csv", "ua_growth.csv"}
        assert views == report_files(full, str(tmp_path / "full"))

    def test_report_bytes_pinned(self, tmp_path):
        # sha256 of report.json for this seeded scenario, the bytes that
        # analysis over full HttpExchange records writes.
        log_dir = str(tmp_path / "logs")
        simulated_logs(SCENARIOS["default"], log_dir)
        report = build_report_from_dir(log_dir, DB, static_label="pixel", zone=SCENARIOS["default"].zone)
        digest = hashlib.sha256(report_files(report, str(tmp_path / "out"))["report.json"]).hexdigest()
        assert digest == "12af4c27f98f23662f577693beac353f32365a84e3d7272358a621c8f15db9c7"

    def test_companion_bytes_pinned(self, tmp_path):
        log_dir = str(tmp_path / "logs")
        simulated_logs(SCENARIOS["default"], log_dir)
        report = build_report_from_dir(log_dir, DB, static_label="pixel", zone=SCENARIOS["default"].zone)
        files = report_files(report, str(tmp_path / "out"))
        assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == {
            "mime_distribution.csv": "785b23e8c132588b010d9d913107219ff502a9d09e0585b12437d2a298fabf0a",
            "ratio_series.csv": "a6e52ede6c37350b362fa75dc32d2777fbcc756e95d4287eee0164fff6298a51",
            "report.json": "12af4c27f98f23662f577693beac353f32365a84e3d7272358a621c8f15db9c7",
            "ua_growth.csv": "3df1503c977923ff78229e58945391acaaf689ca9dd1e50e789b0950c8dc4c41",
        }

    def test_media_type_with_a_comma_reads_back_as_one_row(self, tmp_path):
        exchanges = [
            httplog.HttpExchange(
                exchange_id=f"x{i}", timestamp=float(i), flow_id=f"f{i}", method="GET",
                url="http://example.test/", request_headers=(), response_status=200,
                response_headers=(("Content-Type", content_type),), response_body=b"",
            )
            for i, content_type in enumerate(["text/html, x", "text/html", "text/html"])
        ]
        report = build_report(
            exchange_views(exchanges), [], [], [], DB, static_label="pixel", zone="tracker.test"
        )
        text = report_files(report, str(tmp_path / "out"))["mime_distribution.csv"].decode("utf-8")
        assert text == 'mime_type,count,percent\ntext/html,2,66.67\n"text/html, x",1,33.33\n'
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[2] == ["text/html, x", "1", "33.33"]


class TestOneDnsPass:
    def test_build_report_iterates_dns_log_once(self):
        class CountingList(list):
            passes = 0

            def __iter__(self):
                self.passes += 1
                return super().__iter__()

        result = run_scenario(SCENARIOS["churn"])
        dns_log = CountingList(result.dns_log)
        build_report(exchange_views(result.exchanges), result.tags, dns_log, result.fetch_log, DB,
                     static_label="pixel", zone=result.config.zone)
        assert dns_log.passes == 1


class TestMemoryGrowsWithDistinctValues:
    PADDING = 20_000  # static-label rows added to the DNS and fetch logs

    @staticmethod
    def traced_build(log_dir, zone):
        """The report and the traced peak of building it, over what was traced before."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = build_report_from_dir(log_dir, DB, static_label="pixel", zone=zone)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return report, peak - before

    @pytest.mark.tracemalloc
    def test_static_rows_add_hits_but_no_memory(self, tmp_path):
        config = SCENARIOS["default"]
        log_dir = str(tmp_path / "logs")
        simulated_logs(config, log_dir)
        plain, plain_peak = self.traced_build(log_dir, config.zone)
        host = f"pixel.{config.zone}"
        for log, last_cell in (("dns_queries.csv", host), ("fetches.csv", f"http://{host}/p.gif")):
            with open(os.path.join(log_dir, log), "a", encoding="utf-8") as fh:
                fh.writelines(f"{n}.5,10.9.{n % 250}.1,{last_cell}\r\n" for n in range(self.PADDING))
        padded, padded_peak = self.traced_build(log_dir, config.zone)
        assert padded.accounting.static_dns_hits == plain.accounting.static_dns_hits + self.PADDING
        assert padded.accounting.static_object_hits == (
            plain.accounting.static_object_hits + self.PADDING
        )
        # Held as records, the padding would take about 250 bytes a row.
        assert padded_peak - plain_peak < 64 * 1024

    @pytest.mark.tracemalloc
    def test_peak_bytes_per_exchange(self, tmp_path):
        # Keeping a four-field view per exchange, encrypted ones included,
        # then a UaRecord per plaintext exchange beside it, with the tag
        # fold's label state on top, this log (3,686 exchanges) peaked at
        # 190 bytes per exchange; one three-field view per plaintext
        # exchange, read after the fold, at 109. Held as three columns, the
        # views peak at 47 (Python 3.11.7); the bound leaves about a fifth
        # over that.
        config = clientsim.calibrated_config(seed=3, client_count=100)
        log_dir = str(tmp_path / "logs")
        simulated_logs(config, log_dir)
        lines = httplog.count_lines(os.path.join(log_dir, "exchanges.jsonl"))
        _report, peak = self.traced_build(log_dir, config.zone)
        assert lines > 3000
        assert peak / lines <= 56

    def test_a_repeated_view_adds_its_column_entries(self, tmp_path):
        # A plaintext line whose User-Agent and Content-Type the log already
        # holds adds a time (8 bytes) and two indexes (4 each) to the
        # columns; the bound leaves room for the arrays' spare capacity.
        exchange = httplog.HttpExchange(
            "x1", 1.5, "f1", "GET", "http://a.test/", (("User-Agent", "ua/1"),), 200,
            (("Content-Type", "text/html"),), b"<p>page</p>",
        )
        peaks = []
        for lines in (10_000, 20_000):
            path = str(tmp_path / f"{lines}.jsonl")
            write_exchange_log([exchange] * lines, path)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                views = httplog.read_exchange_views(path)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert len(views) == lines
        assert (peaks[1] - peaks[0]) / 10_000 <= 20


def _connect_line(n: int) -> str:
    """The exchange-log line the proxy writes for a CONNECT tunnel."""
    return httplog.exchange_to_json(
        httplog.HttpExchange(
            exchange_id=f"c{n}", timestamp=float(n), flow_id=f"f{n}", method="CONNECT",
            url=f"https://secure{n}.test:443", request_headers=(), response_status=200,
            response_headers=(), response_body=b"", is_encrypted=True,
        )
    )


class TestEncryptedExchangesKeepNothing:
    @staticmethod
    def connect_only_logs(log_dir, lines):
        os.makedirs(log_dir)
        with open(os.path.join(log_dir, "exchanges.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        write_tag_log([], os.path.join(log_dir, "tags.csv"))
        write_query_log([], os.path.join(log_dir, "dns_queries.csv"))
        write_fetch_log([], os.path.join(log_dir, "fetches.csv"))

    def test_connect_only_log_gives_empty_media_types_ratios_and_ua_records(self, tmp_path):
        log_dir = str(tmp_path / "logs")
        self.connect_only_logs(log_dir, [_connect_line(n) for n in range(5)])
        kept = []
        real = correlate.ua_records_from_exchanges

        def keep(views):
            kept.append(real(views))
            return kept[-1]

        with mock.patch.object(correlate, "ua_records_from_exchanges", keep):
            report = build_report_from_dir(log_dir, DB, static_label="pixel", zone=ZONE)
        assert kept == [[]]
        assert (report.mime_distribution.counts, report.mime_distribution.total) == ({}, 0)
        assert report.ratio_series.points == ()
        assert report.ua_growth == ()

    @pytest.mark.parametrize("count", [0, 3], ids=["empty", "connect_only"])
    def test_no_plaintext_line_gives_empty_columns_and_a_report(self, tmp_path, count):
        log_dir = str(tmp_path / "logs")
        self.connect_only_logs(log_dir, [_connect_line(n) for n in range(count)])
        views = httplog.read_exchange_views(os.path.join(log_dir, "exchanges.jsonl"))
        assert (len(views.times), len(views.ua_ids), len(views.type_ids)) == (0, 0, 0)
        assert views == [] and list(views) == []
        dist = httplog.mime_distribution(views)
        assert (dist.counts, dist.total) == ({}, 0)
        assert dist.percentage("text/html") == 0.0
        out = str(tmp_path / "report")
        assert cli.main(["analyze", "--logs", log_dir, "--zone", ZONE, "--out", out]) == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["mime_distribution"] == {"counts": {}, "total": 0}
        assert report["ratio_series"]["points"] == [] and report["ua_growth"] == []
        with open(os.path.join(out, "mime_distribution.csv"), encoding="utf-8") as fh:
            assert fh.read() == "mime_type,count,percent\n"

    @pytest.mark.parametrize("bad", [
        {"response_body": "QUJD"},  # an encrypted exchange carries no body
        {"timestamp": None},
        {"request_headers": [["Host"]]},
    ], ids=["body", "timestamp", "header_pair"])
    def test_malformed_encrypted_line_fails_at_its_line(self, tmp_path, bad):
        log_dir = str(tmp_path / "logs")
        record = json.loads(_connect_line(2))
        record.update(bad)
        self.connect_only_logs(log_dir, [_connect_line(0), _connect_line(1), json.dumps(record)])
        with pytest.raises(LogFormatError) as excinfo:
            build_report_from_dir(log_dir, DB, static_label="pixel", zone=ZONE)
        assert (excinfo.value.path, excinfo.value.line_no) == (
            os.path.join(log_dir, "exchanges.jsonl"), 3
        )


# A malformed line for each log, in the order analyze reads the logs; it
# replaces line 4.
_BAD_LINES = {
    "tag": "static,pixel",
    "dns": "soon,10.0.0.1,pixel.x.test",
    "fetch": "1.0,10.0.0.1,http://[abc/p.gif",
    "exchange": "{not json",
}


class TestFoldOnMalformedLogs:
    @staticmethod
    def damage(log_dir, source):
        path = os.path.join(log_dir, correlate.LOG_FILENAMES[source])
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert len(lines) > 10  # the bad line is partway through
        lines[3] = _BAD_LINES[source].encode() + b"\r\n"
        with open(path, "wb") as fh:
            fh.writelines(lines)
        return path

    @pytest.mark.parametrize("first", list(_BAD_LINES))
    def test_first_bad_log_in_order_is_named_and_every_file_closed(self, tmp_path, first):
        config = SCENARIOS["default"]
        log_dir = str(tmp_path / "logs")
        simulated_logs(config, log_dir)
        order = list(_BAD_LINES)
        paths = [self.damage(log_dir, source) for source in order[order.index(first):]]
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        real_open = builtins.open
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with mock.patch("builtins.open", recording_open):
                with pytest.raises(LogFormatError) as excinfo:
                    build_report_from_dir(log_dir, DB, static_label="pixel", zone=config.zone)
            # checked while the traceback still holds every frame of the read
            assert (excinfo.value.path, excinfo.value.line_no) == (paths[0], 4)
            assert opened and all(fh.closed for fh in opened)
            del excinfo
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _perfbench_offline():
    """perfbench/offline.py, imported with perfbench/ on sys.path only meanwhile."""
    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_offline", os.path.join(here, "offline.py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, here)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(here)
    return module


_OFFLINE = _perfbench_offline()
# The names the benchmark's traced stage patches on correlate's module
# globals (it fails if one is missing) ...
BENCHMARK_HOOKS = tuple(attr for _owner, attr, _name in _OFFLINE.ANALYZE_SPANS)
# ... and what it patches to trace a simulation, as (owner, attribute). Its
# write_logs calls the four writers through their modules, as `beaconlab
# simulate` does.
SIMULATE_HOOKS = tuple((owner, attr) for owner, attr, _name in _OFFLINE.SIMULATE_SPANS)
# Patched on the live ProxyService: (part of the service or None, attribute).
PROXY_HOOKS = (
    (None, "handle_request_socketless"),
    (None, "process_response"),
    ("injector", "inject"),
    ("exchange_log", "append"),
)


def _counting(fn, calls: list):
    """``fn``, recording each call, as the benchmark's tracer wraps a hook."""

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


class TestBenchmarkHooks:
    @pytest.mark.parametrize("name", BENCHMARK_HOOKS)
    def test_correlate_exposes_hook(self, name):
        assert callable(getattr(correlate, name))

    @pytest.mark.parametrize(
        "name",
        [
            "read_exchange_log",
            "read_tag_log",
            "read_query_log",
            "read_fetch_log",
            "tag_accounting",
            "ua_records_from_exchanges",
            "mime_distribution",
            "ratio_series",
            "unique_ua_growth",
        ],
    )
    def test_build_report_from_dir_calls_through_module_globals(self, tmp_path, name):
        log_dir = str(tmp_path / "logs")
        config = SCENARIOS["default"]
        simulated_logs(config, log_dir)
        with mock.patch.object(correlate, name, wraps=getattr(correlate, name)) as spy:
            build_report_from_dir(log_dir, DB, static_label="pixel", zone=config.zone)
        spy.assert_called_once()

    def test_ua_records_are_sized_and_carry_raw(self, tmp_path):
        log_dir = str(tmp_path / "logs")
        config = SCENARIOS["default"]
        simulated_logs(config, log_dir)
        kept = []
        real = correlate.ua_records_from_exchanges

        def keep(exchanges):
            kept.append(real(exchanges))
            return kept[-1]

        with mock.patch.object(correlate, "ua_records_from_exchanges", keep):
            build_report_from_dir(log_dir, DB, static_label="pixel", zone=config.zone)
        (records,) = kept
        assert len(records) > 0
        assert all(isinstance(record.raw, str) for record in records)

    @pytest.mark.parametrize(
        "owner, attr", SIMULATE_HOOKS, ids=[attr for _, attr in SIMULATE_HOOKS]
    )
    def test_simulate_calls_through_hook(self, tmp_path, owner, attr):
        config_path = str(tmp_path / "scenario.json")
        SCENARIOS["default"].save(config_path)
        calls = []
        with mock.patch.object(owner, attr, _counting(getattr(owner, attr), calls)):
            assert cli.main(
                ["simulate", "--config", config_path, "--out", str(tmp_path / "logs")]
            ) == 0
        assert calls

    @pytest.mark.parametrize(
        "part, attr", PROXY_HOOKS, ids=[attr for _, attr in PROXY_HOOKS]
    )
    def test_proxy_calls_through_hook(self, service, origin, part, attr):  # noqa: F811
        owner = service if part is None else getattr(service, part)
        service.set_mode("active")
        calls = []
        with mock.patch.object(owner, attr, _counting(getattr(owner, attr), calls)):
            assert proxy_get(service, origin, "/page")[0] == 200
        assert calls

    def test_dns_responder_calls_through_hook(self):
        responder = DnsResponder(ZoneConfig(zone=ZONE, payload_address="192.0.2.10"))
        calls = []
        hook = _counting(responder.handle_packet, calls)
        with mock.patch.object(responder, "handle_packet", hook):
            responder.start()
            try:
                _udp_ask(responder.address, encode_query(7, "pixel." + ZONE))
            finally:
                responder.stop()
        assert len(calls) == 1
        assert len(responder.resolver.log) == 1


class TestSimulateInjectCalls:
    def test_inject_hook_is_called_once_per_plaintext_exchange(self):
        # what the benchmark's inject.calls counts: every plaintext response
        # goes through the injector once, and no CONNECT does
        owner, attr = next((o, a) for o, a in SIMULATE_HOOKS if a == "inject")
        calls = []
        with mock.patch.object(owner, attr, _counting(getattr(owner, attr), calls)):
            result = run_scenario(small_config())
        plain = [e for e in result.exchanges if not e.is_encrypted]
        assert len(plain) < len(result.exchanges)
        assert len(calls) == len(plain)
