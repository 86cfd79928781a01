"""Offline fusion of the three observation logs.

Takes the DNS query log, the beacon fetch (payload-server) log, and the
exchange log, plus the tag issue log, and recovers the headline
quantities: unique-user count from static-beacon lookups, reappearances
from repeat hits on unique dynamic subdomains, tag issue/hit accounting,
the media-type distribution, and the windowed vulnerability-ratio series.
Pure batch computation: rerunning over the same logs yields an identical
report, and ground-truth metadata in the logs is never consulted.
"""

from __future__ import annotations

import csv
import json
import os
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from beaconlab.clientsim import FetchRecord, read_fetch_log
from beaconlab.dnssim import DnsQueryRecord, normalize_name, read_query_log, url_host
from beaconlab.httplog import (
    ExchangeView,
    HttpExchange,
    MimeDistribution,
    collector_paused,
    mime_distribution,
    read_exchange_views,
)
from beaconlab.inject import DYNAMIC, STATIC, Tag, TagLabel, read_tag_labels
from beaconlab.ua import (
    DEFAULT_WINDOW_SECONDS,
    RatioSeries,
    UaRecord,
    VulnDb,
    check_window,
    parse_user_agent,
    ratio_series,
    unique_ua_growth,
)

# Analysis reads each exchange-log line only as far as its ExchangeView;
# build_report_from_dir reads the log through this name.
read_exchange_log = read_exchange_views


# Analysis reads tags.csv only as far as each row's kind and label;
# build_report_from_dir reads the log through this name.
read_tag_log = read_tag_labels


class MissingLogError(FileNotFoundError):
    """A required input log is absent; the message names which source."""

    def __init__(self, source: str, path: str):
        super().__init__(f"missing {source} log: {path}")
        self.source = source


@dataclass(frozen=True)
class Reappearance:
    subdomain: str
    hit_count: int
    timestamps: tuple[float, ...]


@dataclass(frozen=True)
class TagAccounting:
    static_issued: int
    dynamic_issued: int
    static_dns_hits: int
    dynamic_dns_hits: int
    static_object_hits: int
    dynamic_object_hits: int


@dataclass(frozen=True)
class CorrelationReport:
    unique_users: int
    reappearances: tuple[Reappearance, ...]
    static_dns_hits: int
    static_object_hits: int
    dynamic_tags_issued: int
    dynamic_dns_hits: int
    mime_distribution: MimeDistribution
    ratio_series: RatioSeries
    ua_growth: tuple[tuple[float, int], ...]
    anomalies: tuple[str, ...]  # in-zone hit labels never issued

    def to_json(self) -> dict:
        return {
            "unique_users": self.unique_users,
            "reappearances": [
                {
                    "subdomain": r.subdomain,
                    "hit_count": r.hit_count,
                    "timestamps": list(r.timestamps),
                }
                for r in self.reappearances
            ],
            "static_dns_hits": self.static_dns_hits,
            "static_object_hits": self.static_object_hits,
            "dynamic_tags_issued": self.dynamic_tags_issued,
            "dynamic_dns_hits": self.dynamic_dns_hits,
            "mime_distribution": {
                "counts": dict(sorted(self.mime_distribution.counts.items())),
                "total": self.mime_distribution.total,
            },
            "ratio_series": {
                "window_seconds": self.ratio_series.window_seconds,
                "points": [
                    [p.window_start, p.vulnerable, p.not_vulnerable, p.ratio]
                    for p in self.ratio_series.points
                ],
            },
            "ua_growth": [list(point) for point in self.ua_growth],
            "anomalies": list(self.anomalies),
        }


def _label_of(name: str, suffix: str) -> str | None:
    """The part of ``name`` before the zone suffix ("." + the normalized zone)."""
    if name.endswith(suffix):
        return name[: -len(suffix)]
    return None


class _DnsHits(NamedTuple):
    """What one pass over the DNS log finds, keyed by in-zone label."""

    static: int  # hits on the static beacon name
    dynamic: dict[str, list[float]]  # issued dynamic label -> hit timestamps
    anomalies: set[str]  # in-zone labels never issued (apex excluded)

    def reappearances(self) -> list[Reappearance]:
        return sorted(
            (
                Reappearance(subdomain=label, hit_count=len(stamps), timestamps=tuple(sorted(stamps)))
                for label, stamps in self.dynamic.items()
                if len(stamps) >= 2
            ),
            key=lambda r: r.subdomain,
        )


def _scan_dns(
    dns_log: Iterable[DnsQueryRecord], issued_dynamic: set[str], static_label: str, zone: str
) -> _DnsHits:
    static = 0
    dynamic: dict[str, list[float]] = defaultdict(list)
    anomalies: set[str] = set()
    suffix = "." + normalize_name(zone)
    for record in dns_log:
        label = _label_of(record.name, suffix)
        if label is None:
            continue
        if label == static_label:
            static += 1
        elif label in issued_dynamic:
            dynamic[label].append(record.timestamp)
        else:
            anomalies.add(label)
    return _DnsHits(static, dict(dynamic), anomalies)


def count_unique_users(
    dns_log: Iterable[DnsQueryRecord], static_label: str, zone: str
) -> int:
    """Number of static-beacon lookups = one per browser lifetime.

    Counts raw query hits on the static name rather than distinct sources,
    so resolver aggregation cannot undercount lifetimes.
    """
    return _scan_dns(dns_log, set(), static_label, zone).static


def detect_reappearances(
    dns_log: Iterable[DnsQueryRecord],
    issued_dynamic: Iterable[str],
    static_label: str,
    zone: str,
) -> tuple[list[Reappearance], list[str]]:
    """Issued dynamic subdomains with >= 2 hits, plus anomalous labels.

    A second hit on a unique subdomain means the same user came back after
    a cache-clearing event. In-zone hits on labels that were never issued
    (and are not the static label or the apex) are reported separately.
    """
    hits = _scan_dns(dns_log, set(issued_dynamic), static_label, zone)
    return hits.reappearances(), sorted(hits.anomalies)


def _issued_dynamic(tags: Iterable[Tag | TagLabel]) -> set[str]:
    return {tag.subdomain for tag in tags if tag.kind == DYNAMIC}


def _accounting(
    tags: Sequence[Tag | TagLabel],
    issued_dynamic: set[str],
    dns_hits: _DnsHits,
    fetch_log: Iterable[FetchRecord],
    static_label: str,
    zone: str,
) -> TagAccounting:
    static_obj = 0
    dynamic_obj = 0
    suffix = "." + normalize_name(zone)
    for record in fetch_log:
        label = _label_of(url_host(record.url), suffix)
        if label == static_label:
            static_obj += 1
        elif label in issued_dynamic:
            dynamic_obj += 1
    return TagAccounting(
        static_issued=sum(1 for tag in tags if tag.kind == STATIC),
        dynamic_issued=len(issued_dynamic),
        static_dns_hits=dns_hits.static,
        dynamic_dns_hits=sum(len(stamps) for stamps in dns_hits.dynamic.values()),
        static_object_hits=static_obj,
        dynamic_object_hits=dynamic_obj,
    )


def tag_accounting(
    tags: Sequence[Tag | TagLabel],
    dns_log: Iterable[DnsQueryRecord],
    fetch_log: Iterable[FetchRecord],
    static_label: str,
    zone: str,
) -> TagAccounting:
    """Issue and hit totals per tag kind, keyed by subdomain label."""
    issued_dynamic = _issued_dynamic(tags)
    dns_hits = _scan_dns(dns_log, issued_dynamic, static_label, zone)
    return _accounting(tags, issued_dynamic, dns_hits, fetch_log, static_label, zone)


def ua_records_from_exchanges(
    exchanges: Iterable[HttpExchange | ExchangeView],
) -> list[UaRecord]:
    """Observable user-agent stream: one record per non-encrypted exchange,
    empty raw when the request carried no user-agent header. Each distinct
    string is parsed once."""
    tokens: dict[str, tuple] = {}
    records = []
    for exchange in exchanges:
        if exchange.is_encrypted:
            continue
        raw = exchange.user_agent or ""
        parsed = tokens.get(raw)
        if parsed is None:
            parsed = tokens[raw] = parse_user_agent(raw)
        records.append(UaRecord(raw, exchange.timestamp, parsed))
    return records


def build_report(
    exchanges: Sequence[HttpExchange | ExchangeView],
    tags: Sequence[Tag | TagLabel],
    dns_log: Sequence[DnsQueryRecord],
    fetch_log: Sequence[FetchRecord],
    db: VulnDb,
    static_label: str,
    zone: str,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
) -> CorrelationReport:
    """Fuse all sources into one report. All logs must share one epoch.

    The exchanges may be HttpExchanges or their ExchangeViews; the report
    is the same. The DNS log is read in one pass.
    """
    issued_dynamic = _issued_dynamic(tags)
    dns_hits = _scan_dns(dns_log, issued_dynamic, static_label, zone)
    accounting = _accounting(tags, issued_dynamic, dns_hits, fetch_log, static_label, zone)
    ua_records = ua_records_from_exchanges(exchanges)
    return CorrelationReport(
        unique_users=dns_hits.static,
        reappearances=tuple(dns_hits.reappearances()),
        static_dns_hits=accounting.static_dns_hits,
        static_object_hits=accounting.static_object_hits,
        dynamic_tags_issued=accounting.dynamic_issued,
        dynamic_dns_hits=accounting.dynamic_dns_hits,
        mime_distribution=mime_distribution(exchanges),
        ratio_series=ratio_series(ua_records, db, window_seconds),
        ua_growth=tuple(unique_ua_growth(ua_records, window_seconds)),
        anomalies=tuple(sorted(dns_hits.anomalies)),
    )


LOG_FILENAMES = {
    "exchange": "exchanges.jsonl",
    "tag": "tags.csv",
    "dns": "dns_queries.csv",
    "fetch": "fetches.csv",
}


@collector_paused()
def build_report_from_dir(
    log_dir: str,
    db: VulnDb,
    static_label: str,
    zone: str,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
) -> CorrelationReport:
    """Read the standard log layout from a directory and build the report.

    A window check_window refuses raises ValueError before any log is read;
    a missing file raises MissingLogError naming which source is absent.
    Runs with the cyclic collector paused.
    """
    check_window(window_seconds)
    paths = {}
    for source, filename in LOG_FILENAMES.items():
        path = os.path.join(log_dir, filename)
        if not os.path.exists(path):
            raise MissingLogError(source, path)
        paths[source] = path
    return build_report(
        exchanges=read_exchange_log(paths["exchange"]),
        tags=read_tag_log(paths["tag"]),
        dns_log=read_query_log(paths["dns"]),
        fetch_log=read_fetch_log(paths["fetch"]),
        db=db,
        static_label=static_label,
        zone=zone,
        window_seconds=window_seconds,
    )


def write_report(report: CorrelationReport, out_dir: str) -> None:
    """report.json plus comma-separated companions for plotting."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "ratio_series.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # rows end in CRLF
        writer.writerow(["window_start", "vulnerable", "not_vulnerable", "ratio"])
        for point in report.ratio_series.points:
            ratio = "" if point.ratio is None else f"{point.ratio:.6f}"
            writer.writerow([point.window_start, point.vulnerable, point.not_vulnerable, ratio])
    with open(os.path.join(out_dir, "mime_distribution.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a media type only where needed
        writer.writerow(["mime_type", "count", "percent"])
        dist = report.mime_distribution
        for mime, count in sorted(dist.counts.items(), key=lambda kv: (-kv[1], kv[0])):
            writer.writerow([mime, count, f"{dist.percentage(mime):.2f}"])
    with open(os.path.join(out_dir, "ua_growth.csv"), "w", encoding="utf-8") as fh:
        fh.write("window_start,cumulative_unique\n")
        for start, count in report.ua_growth:
            fh.write(f"{start},{count}\n")
