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
import os
from dataclasses import dataclass
from typing import Iterable

from beaconlab.clientsim import FETCH_LOG, FetchRecord
from beaconlab.dnssim import QUERY_LOG, DnsQueryRecord, normalize_name, url_host
from beaconlab.httplog import (
    ExchangeView,
    MimeDistribution,
    collector_paused,
    mime_distribution,
    read_exchange_views,
    write_json,
)
from beaconlab.inject import DYNAMIC, TAG_LOG, Tag
from beaconlab.ua import (
    DEFAULT_WINDOW_SECONDS,
    RatioSeries,
    VulnDb,
    check_window,
    ratio_series,
    unique_ua_growth,
)

# Analysis keeps of each exchange-log line only its ExchangeView, and
# nothing of an encrypted one; build_report_from_dir reads the log through
# this name.
read_exchange_log = read_exchange_views


# build_report_from_dir reads the three CSV logs through these names, one
# record at a time, so tag_accounting folds each row as it is read.
read_tag_log = TAG_LOG.stream
read_query_log = QUERY_LOG.stream
read_fetch_log = FETCH_LOG.stream


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
    """Everything the tag, DNS and fetch logs say, keyed by subdomain label."""

    dynamic_issued: int
    static_dns_hits: int  # one per browser lifetime: the unique-user count
    dynamic_dns_hits: int
    static_object_hits: int
    reappearances: tuple[Reappearance, ...]  # sorted by label
    anomalies: tuple[str, ...]  # in-zone hit labels never issued, sorted


@dataclass(frozen=True)
class CorrelationReport:
    accounting: TagAccounting
    mime_distribution: MimeDistribution
    ratio_series: RatioSeries
    ua_growth: tuple[tuple[float, int], ...]

    def to_json(self) -> dict:
        accounting = self.accounting
        return {
            "unique_users": accounting.static_dns_hits,
            "reappearances": [
                {
                    "subdomain": r.subdomain,
                    "hit_count": r.hit_count,
                    "timestamps": list(r.timestamps),
                }
                for r in accounting.reappearances
            ],
            "static_dns_hits": accounting.static_dns_hits,
            "static_object_hits": accounting.static_object_hits,
            "dynamic_tags_issued": accounting.dynamic_issued,
            "dynamic_dns_hits": accounting.dynamic_dns_hits,
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
            "anomalies": list(accounting.anomalies),
        }


def tag_accounting(
    tags: Iterable[Tag],
    dns_log: Iterable[DnsQueryRecord],
    fetch_log: Iterable[FetchRecord],
    static_label: str,
    zone: str,
) -> TagAccounting:
    """Dynamic tags issued, hit totals, reappearances and anomalies, from
    one pass over each log, in the order tags, DNS, fetches. Each record is
    used as it comes and the state kept grows with the distinct labels, so
    the logs may be streams read as the fold goes.

    A static-name lookup counts once per browser lifetime (raw hits, not
    distinct sources, so resolver aggregation cannot undercount). A second
    lookup of an issued dynamic subdomain means the same user came back
    after a cache-clearing event. In-zone lookups of labels never issued
    (other than the static label; the apex is not in-zone) are anomalies.
    """
    # each issued dynamic label: None until it is looked up, then the time
    # of its first lookup; a list of times only for a label looked up again
    first_lookup: dict[str, float | None] = {}
    for tag in tags:
        if tag.kind == DYNAMIC:
            first_lookup[tag.subdomain] = None
    # a name in the zone ends in "." + the zone; its label is what comes before
    suffix = "." + normalize_name(zone)
    cut = -len(suffix)
    static_dns = dynamic_dns = 0
    repeated: dict[str, list[float]] = {}
    anomalies: set[str] = set()
    for record in dns_log:
        name = record.name
        if not name.endswith(suffix):
            continue
        label = name[:cut]
        if label == static_label:
            static_dns += 1
        elif label in first_lookup:
            dynamic_dns += 1
            first = first_lookup[label]
            if first is None:
                first_lookup[label] = record.timestamp
            elif label in repeated:
                repeated[label].append(record.timestamp)
            else:
                repeated[label] = [first, record.timestamp]
        else:
            anomalies.add(label)
    static_obj = 0
    for record in fetch_log:
        host = url_host(record.url)
        if host.endswith(suffix) and host[:cut] == static_label:
            static_obj += 1
    return TagAccounting(
        dynamic_issued=len(first_lookup),
        static_dns_hits=static_dns,
        dynamic_dns_hits=dynamic_dns,
        static_object_hits=static_obj,
        reappearances=tuple(
            Reappearance(subdomain=label, hit_count=len(stamps), timestamps=tuple(sorted(stamps)))
            for label, stamps in sorted(repeated.items())
        ),
        anomalies=tuple(sorted(anomalies)),
    )


def count_unique_users(
    dns_log: Iterable[DnsQueryRecord], static_label: str, zone: str
) -> int:
    """Number of static-beacon lookups = one per browser lifetime."""
    return tag_accounting((), dns_log, (), static_label, zone).static_dns_hits


def detect_reappearances(
    dns_log: Iterable[DnsQueryRecord],
    issued_dynamic: Iterable[str],
    static_label: str,
    zone: str,
) -> tuple[list[Reappearance], list[str]]:
    """Issued dynamic subdomains with >= 2 hits, plus anomalous labels."""
    tags = [Tag(DYNAMIC, label, "", "", 0.0) for label in issued_dynamic]
    accounting = tag_accounting(tags, dns_log, (), static_label, zone)
    return list(accounting.reappearances), list(accounting.anomalies)


def ua_records_from_exchanges(views: list[ExchangeView]) -> list[ExchangeView]:
    """Observable user-agent stream: one record per plaintext exchange,
    empty raw when the request carried no user-agent header. Each view
    begins with its exchange's UaRecord, so the views are that stream and
    nothing is built; the report still takes the stream through this name,
    one of the layer calls perfbench traces."""
    return views


def _report(
    accounting: TagAccounting, views: list[ExchangeView], db: VulnDb, window_seconds: float
) -> CorrelationReport:
    ua_records = ua_records_from_exchanges(views)
    return CorrelationReport(
        accounting=accounting,
        mime_distribution=mime_distribution(views),
        ratio_series=ratio_series(ua_records, db, window_seconds),
        ua_growth=tuple(unique_ua_growth(ua_records, window_seconds)),
    )


def build_report(
    views: list[ExchangeView],
    tags: Iterable[Tag],
    dns_log: Iterable[DnsQueryRecord],
    fetch_log: Iterable[FetchRecord],
    db: VulnDb,
    static_label: str,
    zone: str,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
) -> CorrelationReport:
    """Fuse all sources into one report. All logs must share one epoch.

    ``views`` are the exchanges' ExchangeViews, as read_exchange_views
    reads them or httplog.exchange_views makes them; they are iterated more
    than once. The tag, DNS and fetch logs may be any iterables, streams
    included: each is iterated once, by tag_accounting, tags first.
    """
    accounting = tag_accounting(tags, dns_log, fetch_log, static_label, zone)
    return _report(accounting, views, db, window_seconds)


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
    The tag, DNS and fetch logs are folded first, as they are read, so the
    fold's per-label state is gone before the exchange log is read whole,
    as views. So a malformed line raises LogFormatError from the first bad
    log in the order tags, DNS, fetches, exchanges, with every file closed.
    Runs with the cyclic collector paused.
    """
    check_window(window_seconds)
    paths = {}
    for source, filename in LOG_FILENAMES.items():
        path = os.path.join(log_dir, filename)
        if not os.path.exists(path):
            raise MissingLogError(source, path)
        paths[source] = path
    accounting = tag_accounting(
        read_tag_log(paths["tag"]),
        read_query_log(paths["dns"]),
        read_fetch_log(paths["fetch"]),
        static_label,
        zone,
    )
    return _report(accounting, read_exchange_log(paths["exchange"]), db, window_seconds)


def write_report(report: CorrelationReport, out_dir: str) -> None:
    """report.json plus comma-separated companions for plotting."""
    os.makedirs(out_dir, exist_ok=True)
    write_json(report.to_json(), os.path.join(out_dir, "report.json"))
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
