"""Desk-scale beacon-injection measurement lab.

An inert testbed for studying feedback channels in intercepted HTTP
traffic: a content-rewriting injector that plants 1x1 tracking images,
a wildcard DNS oracle that logs every beacon lookup, a deterministic
client-population simulator, and an offline correlator that recovers
unique-user counts, reappearances, and traffic statistics from the logs.
"""

__version__ = "0.3.0"

from beaconlab.httplog import (
    HttpExchange,
    MimeDistribution,
    mime_distribution,
    mime_type,
    read_exchange_log,
    write_exchange_log,
)
from beaconlab.inject import Injector, Tag
from beaconlab.dnssim import DnsQueryRecord, WildcardResolver, ZoneConfig
from beaconlab.ua import (
    RatioSeries,
    UaClassification,
    UaRecord,
    VulnDb,
    classify,
    parse_user_agent,
    ratio_series,
    unique_ua_growth,
    vulnerability_ratio,
)

__all__ = [
    "HttpExchange",
    "MimeDistribution",
    "mime_distribution",
    "mime_type",
    "read_exchange_log",
    "write_exchange_log",
    "Injector",
    "Tag",
    "DnsQueryRecord",
    "WildcardResolver",
    "ZoneConfig",
    "RatioSeries",
    "UaClassification",
    "UaRecord",
    "VulnDb",
    "classify",
    "parse_user_agent",
    "ratio_series",
    "unique_ua_growth",
    "vulnerability_ratio",
]
