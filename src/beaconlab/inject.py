"""Beacon-tag injection into HTML response bodies.

Rewrites eligible text/html responses to carry two invisible 1x1 image
elements: one at a fixed well-known subdomain (counts distinct users via
client-side DNS caching) and one at a freshly generated unique subdomain
(forces one DNS lookup per tagged page; repeat hits reveal reappearance).
The whole insertion is bracketed by sentinel comments so rewritten pages
are never re-tagged and the original body can be restored exactly.
"""

from __future__ import annotations

import hashlib
import re
from typing import NamedTuple

from beaconlab.dnssim import is_valid_name, normalize_name
from beaconlab.httplog import (
    CsvLog, Headers, HttpExchange, finite_time, mime_type, read_exchange_log, write_exchange_log
)

MARKER_BEGIN = "<!--bx:begin-->"
MARKER_END = "<!--bx:end-->"
DEFAULT_STATIC_LABEL = "pixel"
OBJECT_NAME = "p.gif"

_BODY_OPEN_RE = re.compile(rb"<body[\s>]", re.IGNORECASE)
_BODY_CLOSE_RE = re.compile(rb"</body\s*>", re.IGNORECASE)
_STRIP_RE = re.compile(
    re.escape(MARKER_BEGIN.encode()) + rb".*?" + re.escape(MARKER_END.encode()),
    re.DOTALL,
)
_LABEL_RE = re.compile(r"[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?")

STATIC = "static"
DYNAMIC = "dynamic"


class Tag(NamedTuple):
    """One issued beacon: its kind, DNS label, full URL, and provenance."""

    kind: str
    subdomain: str
    url: str
    exchange_id: str
    injected_at: float


class Injector:
    """Stateful tag issuer bound to one attacker zone.

    Dynamic labels are a deterministic function of (seed, counter), so a
    given injector lineage never repeats a label and reruns with the same
    seed reproduce the same labels. Not thread-safe; confine one instance
    to one task or guard with a lock.
    """

    def __init__(self, zone: str, static_label: str = DEFAULT_STATIC_LABEL, seed: int = 0):
        if not _LABEL_RE.fullmatch(static_label):
            raise ValueError(f"invalid static label: {static_label!r}")
        self.zone = normalize_name(zone)
        if not is_valid_name(self.zone):
            raise ValueError(f"invalid zone: {zone!r}")
        self.static_label = static_label
        self.static_url = self.beacon_url(static_label)  # one string shared by every static tag
        self.seed = seed
        self.counter = 0

    def beacon_url(self, label: str) -> str:
        return f"http://{label}.{self.zone}/{OBJECT_NAME}"

    def generate_subdomain(self) -> str:
        """Next unique dynamic label: lowercase alphanumeric, <= 32 chars."""
        digest = hashlib.sha256(f"{self.seed}:{self.counter}".encode()).hexdigest()[:12]
        label = f"d{self.counter:06x}{digest}"
        self.counter += 1
        return label

    def is_taggable(self, exchange: HttpExchange) -> bool:
        """HTML with a body element, not yet tagged, not opaque or encoded."""
        if exchange.is_encrypted:
            return False
        if mime_type(exchange) != "text/html":
            return False
        encoding = exchange.header("content-encoding")
        if encoding is not None and encoding.strip().lower() not in ("", "identity"):
            return False
        body = exchange.response_body
        if MARKER_BEGIN.encode() in body:
            return False
        return _BODY_OPEN_RE.search(body) is not None

    def _image_element(self, url: str) -> str:
        return (
            f'<img src="{url}" width="1" height="1" '
            f'style="position:absolute;visibility:hidden" alt="">'
        )

    def inject(self, exchange: HttpExchange) -> tuple[HttpExchange, list[Tag]]:
        """Insert the static and one fresh dynamic beacon before </body>.

        Non-taggable exchanges pass through byte-identical with no tags.
        Content-Length is updated to the rewritten body length.
        """
        if not self.is_taggable(exchange):
            return exchange, []
        dynamic_label = self.generate_subdomain()
        static_url = self.static_url
        dynamic_url = self.beacon_url(dynamic_label)
        block = (
            MARKER_BEGIN
            + self._image_element(static_url)
            + self._image_element(dynamic_url)
            + MARKER_END
        ).encode("ascii")
        body = exchange.response_body
        closes = list(_BODY_CLOSE_RE.finditer(body))
        if closes:
            # Before the last closing body tag; malformed pages get the
            # block appended after the final byte instead.
            at = closes[-1].start()
            new_body = body[:at] + block + body[at:]
        else:
            new_body = body + block
        rewritten = HttpExchange(
            exchange_id=exchange.exchange_id,
            timestamp=exchange.timestamp,
            flow_id=exchange.flow_id,
            method=exchange.method,
            url=exchange.url,
            request_headers=exchange.request_headers,
            response_status=exchange.response_status,
            response_headers=_set_content_length(exchange.response_headers, len(new_body)),
            response_body=new_body,
            is_encrypted=exchange.is_encrypted,
            ground_truth_client=exchange.ground_truth_client,
            extra=exchange.extra,
        )
        tags = [
            Tag(STATIC, self.static_label, static_url, exchange.exchange_id, exchange.timestamp),
            Tag(DYNAMIC, dynamic_label, dynamic_url, exchange.exchange_id, exchange.timestamp),
        ]
        return rewritten, tags


def _set_content_length(headers: Headers, length: int) -> Headers:
    out = []
    replaced = False
    for pair in headers:
        if pair[0].lower() == "content-length":
            if not replaced:
                out.append((pair[0], str(length)))
                replaced = True
            # duplicate Content-Length headers are dropped
        else:
            out.append(pair)  # the same object, so a pair the caller shares stays shared
    if not replaced:
        out.append(("Content-Length", str(length)))
    return tuple(out)


def strip_injected(body: bytes) -> bytes:
    """Remove every injected beacon block, restoring the original bytes."""
    return _STRIP_RE.sub(b"", body)


# tags.csv: every beacon issued, one row per Tag.
TAG_LOG = CsvLog(
    ("kind", "subdomain", "url", "exchange_id", "injected_at"),
    lambda row: Tag(row[0], row[1], row[2], row[3], finite_time(row[4])),
)
write_tag_log = TAG_LOG.write
read_tag_log = TAG_LOG.read


class TagLabel(NamedTuple):
    """The part of a tags.csv row that analysis and a restarted proxy read."""

    kind: str
    subdomain: str


def _tag_label(row: list[str]) -> TagLabel:
    finite_time(row[4])  # rejected as TAG_LOG rejects it
    return TagLabel(row[0], row[1])


# tags.csv with TAG_LOG's header and checks, keeping only each row's kind
# and label.
TAG_LABEL_LOG = CsvLog(TAG_LOG.header, _tag_label)
read_tag_labels = TAG_LABEL_LOG.read


def rewrite_log(
    in_path: str, out_path: str, tag_path: str, injector: Injector
) -> tuple[int, int]:
    """Offline file-to-file rewrite: returns (exchanges, tags issued)."""
    rewritten = []
    all_tags: list[Tag] = []
    for exchange in read_exchange_log(in_path):
        out, tags = injector.inject(exchange)
        rewritten.append(out)
        all_tags.extend(tags)
    write_exchange_log(rewritten, out_path)
    write_tag_log(all_tags, tag_path)
    return len(rewritten), len(all_tags)
