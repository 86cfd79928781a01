"""User-agent string analysis.

Token extraction from the wild, unstandardized user-agent grammar, lookup
against a local product/version-range vulnerability database, and the
vulnerability ratio b = V / (V + V_bar) with its windowed time series.
"""

from __future__ import annotations

import math
import os
import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from beaconlab.httplog import CsvLog, ExchangeViews, LogFormatError, finite_time

DEFAULT_WINDOW_SECONDS = 900.0
# Most windows one series may span (a day of 1 s windows is 86,400; each
# window costs about 0.5 kB); a longer series is refused before it is built.
MAX_WINDOWS = 100_000
_NO_UAS: frozenset[int] = frozenset()  # the UA indexes of every window no record falls in

# Name/Version product tokens, e.g. "AcmeBrowser/3.2.1"
_SLASH_TOKEN_RE = re.compile(r"^([A-Za-z][\w.+-]*)/(\d[\w.+-]*)$")
# Bare product names without a version, e.g. "SoloBrowser"
_BARE_TOKEN_RE = re.compile(r"^[A-Za-z][\w.+-]*$")
# The trailing version of a parenthesized fragment, e.g. "libfoo 1.2",
# matched on the reversed fragment ("2.1 oofbil") so the scan is linear
_REVERSED_VERSION_TAIL_RE = re.compile(r"([\d.]*\d)v?[\s/]+")
_LETTER_RE = re.compile(r"[A-Za-z]")
# A version component's numeric prefix and the rest, e.g. "10rc1"
_VERSION_COMPONENT_RE = re.compile(r"(\d*)(.*)")
_PAREN_RE = re.compile(r"\(([^)]*)\)")

ProductToken = tuple[str, str | None]


class Verdict(str, Enum):
    VULNERABLE = "vulnerable"
    NOT_VULNERABLE = "not_vulnerable"


class Reason(str, Enum):
    MATCHED_ENTRY = "matched_entry"
    MISSING_AGENT = "missing_agent"
    NO_VERSION = "no_version"
    NO_DB_MATCH = "no_db_match"


@dataclass(frozen=True)
class UaClassification:
    verdict: Verdict
    reason: Reason


class UaRecord(NamedTuple):
    """One observed user-agent string. raw is empty iff the header was absent."""

    raw: str
    first_seen: float


def _split_parens(raw: str) -> tuple[list[str], str]:
    """_PAREN_RE's findall and sub(" ") of a string, run only up to its last
    ")": every "(" there has a ")" after it, so the scan is linear."""
    head_end = raw.rfind(")") + 1
    head = raw[:head_end]
    return _PAREN_RE.findall(head), _PAREN_RE.sub(" ", head) + raw[head_end:]


def parse_user_agent(raw: str) -> tuple[ProductToken, ...]:
    """Extract ordered (name, version) product tokens from a user-agent string.

    Recognized shapes: Name/Version tokens and bare names anywhere in the
    string, plus parenthesized component lists split on ";" where a
    fragment carries a trailing dotted numeric version. Names are
    lowercased; fragments matching neither shape are dropped.
    """
    if not raw:
        return ()
    tokens: list[ProductToken] = []
    paren_groups, outside = _split_parens(raw)
    for piece in outside.split():
        slash = _SLASH_TOKEN_RE.match(piece)
        if slash:
            tokens.append((slash.group(1).lower(), slash.group(2)))
        elif _BARE_TOKEN_RE.match(piece):
            tokens.append((piece.lower(), None))
    for group in paren_groups:
        for fragment in group.split(";"):
            fragment = fragment.strip()
            if not fragment:
                continue
            tail = _REVERSED_VERSION_TAIL_RE.match(fragment[::-1])
            if tail is None:
                continue
            name = fragment[: len(fragment) - tail.end()]
            if "\n" not in name and _LETTER_RE.search(name):
                tokens.append((" ".join(name.lower().split()), tail.group(1)[::-1]))
    return tuple(tokens)


def _version_component(component: str) -> tuple[int, str, str]:
    """(digit count, digits, rest) for a component's numeric prefix, in
    ASCII without leading zeros, and its remainder: ordered as (int(prefix),
    rest) would be, with no limit on the prefix's length."""
    digits, rest = _VERSION_COMPONENT_RE.match(component).groups()
    if not digits.isascii():
        digits = "".join(str(unicodedata.decimal(digit)) for digit in digits)
    digits = digits.lstrip("0")
    return (len(digits), digits, rest)


def compare_versions(a: str, b: str) -> int:
    """Dotted version comparison: -1, 0, or 1.

    Component-wise; missing components count as 0; within a component the
    numeric prefix compares numerically and any remainder lexicographically.
    """
    parts_a = a.split(".")
    parts_b = b.split(".")
    for i in range(max(len(parts_a), len(parts_b))):
        ca = _version_component(parts_a[i] if i < len(parts_a) else "")
        cb = _version_component(parts_b[i] if i < len(parts_b) else "")
        if ca != cb:
            return -1 if ca < cb else 1
    return 0


@dataclass(frozen=True)
class VersionRange:
    """Closed interval over dotted versions; None means an open end."""

    min_version: str | None
    max_version: str | None

    def __post_init__(self):
        if self.min_version is not None and self.max_version is not None:
            if compare_versions(self.min_version, self.max_version) > 0:
                raise ValueError(
                    f"range min {self.min_version} exceeds max {self.max_version}"
                )

    def contains(self, version: str) -> bool:
        if self.min_version is not None and compare_versions(version, self.min_version) < 0:
            return False
        if self.max_version is not None and compare_versions(version, self.max_version) > 0:
            return False
        return True


@dataclass(frozen=True)
class VulnDb:
    """Local stand-in for a disclosed-vulnerability list: product name ranges."""

    entries: tuple[tuple[str, VersionRange], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str | None, str | None]]) -> "VulnDb":
        entries = tuple(
            (product.lower(), VersionRange(lo, hi)) for product, lo, hi in pairs
        )
        return cls(entries=entries)

    def ranges_for(self, product: str) -> list[VersionRange]:
        lowered = product.lower()
        return [rng for name, rng in self.entries if name == lowered]

    @classmethod
    def load(cls, path: str) -> "VulnDb":
        """Read a database CSV; a zero-byte file or a bad row raises LogFormatError."""
        if os.path.getsize(path) == 0:
            raise LogFormatError(path, 1, "empty vulnerability database")
        return cls(entries=tuple(VULN_DB_LOG.read(path)))

    def save(self, path: str) -> None:
        VULN_DB_LOG.write(self.entries, path)


def _db_entry(row: list[str]) -> tuple[str, VersionRange]:
    product, lo, hi = (cell.strip() for cell in row)
    if not product:
        raise ValueError("empty product")
    return product.lower(), VersionRange(lo or None, hi or None)


# A vulnerability database: one (product, version range) entry per row; an
# empty bound is an open end.
VULN_DB_LOG = CsvLog(
    ("product", "min_version", "max_version"),
    _db_entry,
    lambda entry: (entry[0], entry[1].min_version or "", entry[1].max_version or ""),
)


def classify(raw: str, db: VulnDb) -> UaClassification:
    """Verdict for one user-agent string, parsed here.

    Missing header and versionless strings are assumed not vulnerable;
    otherwise any product token inside a database range makes the whole
    string vulnerable (attacker-optimistic: one match suffices).
    """
    if not raw:
        return UaClassification(Verdict.NOT_VULNERABLE, Reason.MISSING_AGENT)
    versioned = [(name, ver) for name, ver in parse_user_agent(raw) if ver is not None]
    if not versioned:
        return UaClassification(Verdict.NOT_VULNERABLE, Reason.NO_VERSION)
    for name, version in versioned:
        for rng in db.ranges_for(name):
            if rng.contains(version):
                return UaClassification(Verdict.VULNERABLE, Reason.MATCHED_ENTRY)
    return UaClassification(Verdict.NOT_VULNERABLE, Reason.NO_DB_MATCH)


class UndefinedRatioError(ZeroDivisionError):
    """Raised when the vulnerability ratio is requested over an empty population."""


def vulnerability_ratio(vulnerable: int, not_vulnerable: int) -> float:
    """b = V / (V + V_bar). Undefined (error) when the population is empty."""
    denominator = vulnerable + not_vulnerable
    if denominator <= 0:
        raise UndefinedRatioError("vulnerability ratio undefined for empty population")
    return vulnerable / denominator


@dataclass(frozen=True)
class RatioPoint:
    window_start: float
    vulnerable: int
    not_vulnerable: int
    ratio: float | None


@dataclass(frozen=True)
class RatioSeries:
    """Contiguous non-overlapping windows of per-window unique-UA counts."""

    window_seconds: float
    points: tuple[RatioPoint, ...]


def check_window(window_seconds: float) -> None:
    """ValueError naming the window unless it is positive and finite."""
    if not 0 < window_seconds < math.inf:
        raise ValueError(f"window {window_seconds!r} s: must be positive and finite")


def _windows(
    records: Iterable[UaRecord], window_seconds: float
) -> tuple[tuple[str, ...], list[tuple[float, set[int] | frozenset[int]]]]:
    """The distinct raw strings of the records, and (k * window_seconds, the
    indexes into them of the raw strings seen in window k) for every window
    k from the first record's to the last's; a record at time t is in
    window t // window_seconds.

    The records are read as columns: records that are not an ExchangeViews
    are put into one first.
    """
    check_window(window_seconds)
    if not isinstance(records, ExchangeViews):
        records = ExchangeViews((record.raw, record.first_seen, None) for record in records)
    by_window: dict[int, set[int]] = defaultdict(set)
    try:
        for first_seen, ua_id in zip(records.times, records.ua_ids):
            by_window[int(first_seen // window_seconds)].add(ua_id)
    except OverflowError:  # t // window is infinite
        raise ValueError(f"window {window_seconds!r} s: too small to index the records") from None
    if not by_window:
        return records.user_agents, []
    first, last = min(by_window), max(by_window)
    if last - first + 1 > MAX_WINDOWS:
        raise ValueError(f"window {window_seconds!r} s: spans more than {MAX_WINDOWS} windows")
    return records.user_agents, [
        (k * window_seconds, by_window.get(k, _NO_UAS)) for k in range(first, last + 1)
    ]


def ratio_series(
    records: Iterable[UaRecord],
    db: VulnDb,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
) -> RatioSeries:
    """Per-window vulnerable / not-vulnerable counts over unique raw strings.

    A raw string is counted once per window it is observed in; classification
    happens once per distinct string. Empty input yields an empty series.
    """
    raws, windows = _windows(records, window_seconds)
    vulnerable = {
        ua_id for ua_id, raw in enumerate(raws) if classify(raw, db).verdict is Verdict.VULNERABLE
    }
    points = []
    for start, ua_ids in windows:
        hits = len(ua_ids & vulnerable)
        ratio = hits / len(ua_ids) if ua_ids else None
        points.append(RatioPoint(start, hits, len(ua_ids) - hits, ratio))
    return RatioSeries(window_seconds=window_seconds, points=tuple(points))


def unique_ua_growth(
    records: Iterable[UaRecord], window_seconds: float = DEFAULT_WINDOW_SECONDS
) -> list[tuple[float, int]]:
    """Cumulative distinct raw-string count at the end of each window."""
    seen: set[int] = set()
    growth = []
    for start, ua_ids in _windows(records, window_seconds)[1]:
        seen |= ua_ids
        growth.append((start, len(seen)))
    return growth


UA_LOG = CsvLog(
    ("timestamp", "user_agent"),
    lambda row: UaRecord(raw=row[1], first_seen=finite_time(row[0])),
    lambda record: (record.first_seen, record.raw),
)
read_ua_log = UA_LOG.read
write_ua_log = UA_LOG.write

