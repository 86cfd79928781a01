"""Beacon-tag injection into HTML response bodies.

Rewrites eligible text/html responses to carry two invisible 1x1 image
elements: one at a fixed well-known subdomain (counts distinct users via
client-side DNS caching) and one at a freshly generated unique subdomain
(forces one DNS lookup per tagged page; repeat hits reveal reappearance).
The whole insertion is bracketed by sentinel comments so rewritten pages
are never re-tagged and the original body can be restored exactly.
The injector works on a response's head and body, as a proxy holds them
before it logs anything; rewrite_log applies it to the records of a log.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace
from typing import NamedTuple

from beaconlab.dnssim import is_valid_name, normalize_name
from beaconlab.httplog import (
    CsvLog, Headers, _media_type, finite_time, read_exchange_log, write_exchange_log
)

MARKER_BEGIN = "<!--bx:begin-->"
MARKER_END = "<!--bx:end-->"
DEFAULT_STATIC_LABEL = "pixel"
OBJECT_NAME = "p.gif"

_BODY_OPEN_RE = re.compile(rb"<body[\s>]", re.IGNORECASE)
# A closing body tag in a lowercased body.
_BODY_CLOSE_RE = re.compile(rb"</body\s*>")
_MARKER_BEGIN_BYTES = MARKER_BEGIN.encode("ascii")
_STRIP_RE = re.compile(
    re.escape(_MARKER_BEGIN_BYTES) + rb".*?" + re.escape(MARKER_END.encode()),
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


# Tag(*fields) without the generated __new__'s Python-level call.
_new_tag = tuple.__new__


def _image_element(url: str) -> str:
    return (
        f'<img src="{url}" width="1" height="1" '
        f'style="position:absolute;visibility:hidden" alt="">'
    )


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
        self._url_after_label = f".{self.zone}/{OBJECT_NAME}"
        self.static_label = static_label
        self.static_url = self.beacon_url(static_label)  # one string shared by every static tag
        self.seed = seed
        self.counter = 0
        # Each Content-Length pair rewritten, by (field name, length), so
        # that responses of one length share it (_with_content_length).
        self._length_pairs: dict[tuple[str, int], tuple[str, str]] = {}
        # The beacon block is both image elements between the sentinel
        # comments. Every block differs only in its dynamic URL, so the
        # ASCII bytes around that URL are built once ("\n" is in no URL here).
        block = MARKER_BEGIN + _image_element(self.static_url) + _image_element("\n") + MARKER_END
        before, _, after = block.partition("\n")
        self._block_before = before.encode("ascii")
        self._block_after = after.encode("ascii")

    def beacon_url(self, label: str) -> str:
        return "http://" + label + self._url_after_label

    def generate_subdomain(self) -> str:
        """Next unique dynamic label: lowercase alphanumeric, <= 32 chars."""
        digest = hashlib.sha256(f"{self.seed}:{self.counter}".encode()).hexdigest()[:12]
        label = f"d{self.counter:06x}{digest}"
        self.counter += 1
        return label

    def inject(
        self, headers: Headers, body: bytes, exchange_id: str, timestamp: float
    ) -> tuple[Headers, bytes, list[Tag]]:
        """Insert the static and one fresh dynamic beacon before </body>.

        Takes a response's head and body, and the id and time its tags
        carry. A response that is not taggable comes back as the same
        objects with no tags; Content-Length is set to the rewritten length.
        """
        length_fields = _length_fields_if_taggable(headers, body)
        if length_fields is None:
            return headers, body, []
        dynamic_label = self.generate_subdomain()
        dynamic_url = self.beacon_url(dynamic_label)
        # Before the last closing body tag; malformed pages get the block
        # appended after the final byte instead.
        at = _last_body_close(body)
        if at < 0:
            at = len(body)
        new_body = b"".join((
            body[:at], self._block_before, dynamic_url.encode("ascii"), self._block_after, body[at:]
        ))
        headers = _with_content_length(headers, length_fields, len(new_body), self._length_pairs)
        tags = [
            _new_tag(Tag, (STATIC, self.static_label, self.static_url, exchange_id, timestamp)),
            _new_tag(Tag, (DYNAMIC, dynamic_label, dynamic_url, exchange_id, timestamp)),
        ]
        return headers, new_body, tags


def _length_fields_if_taggable(headers: Headers, body: bytes) -> list[int] | None:
    """The positions of the Content-Length fields of a taggable response,
    None for one that is not: it must be plain HTML (the media type
    mime_type gives, no Content-Encoding but identity) with a body element
    and no beacon block yet. An encrypted exchange has no body, so it never
    qualifies. The first walk stops at the first Content-Type, and only
    HTML gets the second."""
    for name, value in headers:
        if name.lower() == "content-type":
            if _media_type(value) != "text/html":
                return None
            break
    else:
        return None
    encoding = None
    length_fields = []
    for i, (name, value) in enumerate(headers):
        lowered = name.lower()
        if lowered == "content-length":
            length_fields.append(i)
        elif lowered == "content-encoding" and encoding is None:
            encoding = value
    if encoding is not None and encoding.strip().lower() not in ("", "identity"):
        return None
    if _MARKER_BEGIN_BYTES in body or _BODY_OPEN_RE.search(body) is None:
        return None
    return length_fields


def _last_body_close(body: bytes) -> int:
    """Where the last closing body tag (any case) starts, -1 if there is none.

    Usually the last "</body" is the tag; only when it is not are the
    bytes before it searched, all in one scan."""
    lowered = body.lower()
    at = lowered.rfind(b"</body")
    if at >= 0 and _BODY_CLOSE_RE.match(lowered, at) is None:
        closes = list(_BODY_CLOSE_RE.finditer(lowered, 0, at))
        at = closes[-1].start() if closes else -1
    return at


# The most Content-Length pairs one Injector keeps: a page's length takes
# a few hundred values. The table is emptied when full, so it never grows
# with the traffic.
_LENGTH_PAIRS_SIZE = 4096


def _with_content_length(
    headers: Headers,
    length_fields: list[int],
    length: int,
    pairs: dict[tuple[str, int], tuple[str, str]],
) -> Headers:
    """``headers`` with the first of the Content-Length fields at
    ``length_fields`` set to ``length`` and the others dropped, or with one
    appended if there is none. Every other pair is the same object, so a
    pair the caller shares stays shared; the Content-Length pair is taken
    from ``pairs`` by (field name, length), and kept there when it is new."""
    name = headers[length_fields[0]][0] if length_fields else "Content-Length"
    pair = pairs.get((name, length))
    if pair is None:
        if len(pairs) >= _LENGTH_PAIRS_SIZE:
            pairs.clear()
        pair = pairs[name, length] = (name, str(length))
    if not length_fields:
        return headers + (pair,)
    first, *duplicates = length_fields
    out = list(headers)
    out[first] = pair
    for i in reversed(duplicates):
        del out[i]
    return tuple(out)


def strip_injected(body: bytes) -> bytes:
    """Remove every injected beacon block, restoring the original bytes."""
    return _STRIP_RE.sub(b"", body)


def _tag_kind(cell: str) -> str:
    """A tags.csv kind cell; ValueError for any text but the two kinds."""
    if cell != STATIC and cell != DYNAMIC:
        raise ValueError(f"unknown tag kind {cell!r}")
    return cell


# tags.csv: every beacon issued, one row per Tag.
TAG_LOG = CsvLog(
    ("kind", "subdomain", "url", "exchange_id", "injected_at"),
    lambda row: _new_tag(Tag, (_tag_kind(row[0]), row[1], row[2], row[3], finite_time(row[4]))),
)
write_tag_log = TAG_LOG.write
read_tag_log = TAG_LOG.read


def rewrite_log(
    in_path: str, out_path: str, tag_path: str, injector: Injector
) -> tuple[int, int]:
    """Offline file-to-file rewrite: returns (exchanges, tags issued)."""
    rewritten = read_exchange_log(in_path)
    all_tags: list[Tag] = []
    for i, exchange in enumerate(rewritten):
        headers, body, tags = injector.inject(
            exchange.response_headers, exchange.response_body, exchange.exchange_id, exchange.timestamp
        )
        if tags:
            rewritten[i] = replace(exchange, response_headers=headers, response_body=body)
            all_tags.extend(tags)
    write_exchange_log(rewritten, out_path)
    write_tag_log(all_tags, tag_path)
    return len(rewritten), len(all_tags)
