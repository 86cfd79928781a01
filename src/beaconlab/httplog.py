"""HTTP exchange data model and line-delimited exchange logs.

Every pipeline stage exchanges traffic through this one record type, so
simulator output, live-proxy output, and correlator input are all
file-compatible. One JSON object per line, UTF-8, bodies base64-encoded.
The CSV logs of the other stages are each declared once as a CsvLog here,
which reads, writes and appends them, so every log names a malformed line
the same way (LogFormatError). LogAppender is the one live appender.
collector_paused pauses the cyclic garbage collector while the offline
builders (simulate, analyze) make their records.
"""

from __future__ import annotations

import binascii
import csv
import gc
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import IO, Callable, Generic, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

T = TypeVar("T")

Headers = tuple[tuple[str, str], ...]

# Serialization order is fixed so that writer output is canonical.
_FIELDS = (
    "exchange_id",
    "timestamp",
    "flow_id",
    "ground_truth_client",
    "method",
    "url",
    "request_headers",
    "response_status",
    "response_headers",
    "response_body",
    "is_encrypted",
)
_REQUIRED = frozenset(_FIELDS) - {"ground_truth_client"}

# The extra of every exchange without unknown keys: one read-only mapping,
# equal to {}, instead of an empty dict per record.
_NO_EXTRA: Mapping[str, object] = MappingProxyType({})


class LogFormatError(ValueError):
    """A malformed line in a log file. Carries the 1-based line number."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True, slots=True, init=False)
class HttpExchange:
    """One request/response pair as seen at the interception point.

    ``ground_truth_client`` is simulator-only oracle metadata; analysis
    code must never consult it (tests enforce this by comparing reports
    with and without it present). ``flow_id`` is the anonymized view.
    ``extra`` holds a log line's unknown keys; without any it is one shared
    read-only empty mapping. Slotted, as a simulation keeps every exchange.

    The constructor is written by hand: the generated one of a frozen
    class fills each field through object.__setattr__, and a simulation
    builds about 100k records. This one fills the slots through their
    member descriptors, at about half the cost; its parameters are the
    fields, in order, with their defaults.
    """

    exchange_id: str
    timestamp: float
    flow_id: str
    method: str
    url: str
    request_headers: Headers
    response_status: int
    response_headers: Headers
    response_body: bytes
    is_encrypted: bool = False
    ground_truth_client: str | None = None
    extra: Mapping[str, object] = field(default_factory=lambda: _NO_EXTRA)

    def __init__(
        self,
        exchange_id: str,
        timestamp: float,
        flow_id: str,
        method: str,
        url: str,
        request_headers: Headers,
        response_status: int,
        response_headers: Headers,
        response_body: bytes,
        is_encrypted: bool = False,
        ground_truth_client: str | None = None,
        extra: Mapping[str, object] = _NO_EXTRA,
    ):
        if is_encrypted and response_body:
            raise ValueError("encrypted exchanges carry no body")
        _set_exchange_id(self, exchange_id)
        _set_timestamp(self, timestamp)
        _set_flow_id(self, flow_id)
        _set_method(self, method)
        _set_url(self, url)
        _set_request_headers(self, request_headers)
        _set_response_status(self, response_status)
        _set_response_headers(self, response_headers)
        _set_response_body(self, response_body)
        _set_is_encrypted(self, is_encrypted)
        _set_ground_truth_client(self, ground_truth_client)
        _set_extra(self, extra)

    def header(self, name: str) -> str | None:
        """First response header value matching ``name`` case-insensitively."""
        return _first_header(self.response_headers, name.lower())


# The slot setters of HttpExchange.__init__, in field order.
(
    _set_exchange_id, _set_timestamp, _set_flow_id, _set_method, _set_url,
    _set_request_headers, _set_response_status, _set_response_headers,
    _set_response_body, _set_is_encrypted, _set_ground_truth_client, _set_extra,
) = (getattr(HttpExchange, f.name).__set__ for f in fields(HttpExchange))


class ExchangeView(NamedTuple):
    """What analysis keeps of one plaintext exchange; an encrypted one is
    opaque and has no view.

    Its first two fields are the exchange's ua.UaRecord, so a list of views
    is the user-agent stream itself: ``raw`` is the first request
    User-Agent header, "" when it is absent or empty, and ``first_seen``
    the exchange's time. ``content_type`` is the first response
    Content-Type header, None when it is absent.
    """

    raw: str
    first_seen: float
    content_type: str | None


# ExchangeView(*fields) without the generated __new__'s Python-level call.
_new_view = tuple.__new__


def _view(user_agent: str | None, timestamp: float, content_type: str | None) -> ExchangeView:
    """The view of a plaintext exchange with these headers and time. Header
    values are interned: a log repeats a few hundred of them."""
    return _new_view(
        ExchangeView,
        (
            sys.intern(user_agent) if user_agent else "",
            timestamp,
            None if content_type is None else sys.intern(content_type),
        ),
    )


def exchange_views(exchanges: Iterable[HttpExchange]) -> list[ExchangeView]:
    """The views read_exchange_views reads from a log of these exchanges:
    one per plaintext exchange, in order."""
    return [
        _view(
            _first_header(exchange.request_headers, "user-agent"),
            exchange.timestamp,
            _first_header(exchange.response_headers, "content-type"),
        )
        for exchange in exchanges
        if not exchange.is_encrypted
    ]


def _first_header(headers, lowered: str) -> str | None:
    for key, value in headers:
        if key.lower() == lowered:
            return value
    return None


@dataclass(frozen=True)
class MimeDistribution:
    """Counts of response media types over the plaintext exchanges."""

    counts: dict
    total: int

    def percentage(self, mime: str) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.counts.get(mime, 0) / self.total


def _media_type(content_type: str | None) -> str:
    """The media type of a Content-Type value: parameters cut at the first
    ";", stripped, lowercased; "unknown" when that is empty or the header
    is absent."""
    if content_type is None:
        return "unknown"
    return content_type.split(";", 1)[0].strip().lower() or "unknown"


def mime_type(exchange: HttpExchange) -> str:
    """Media type of the response, or "unknown".

    Derived only from the Content-Type response header: first header wins,
    parameters stripped at the first ";", lowercased. Encrypted exchanges
    are opaque and always "unknown".
    """
    if exchange.is_encrypted:
        return "unknown"
    return _media_type(exchange.header("content-type"))


def mime_distribution(views: Iterable[ExchangeView]) -> MimeDistribution:
    """Count every view, one per plaintext exchange, once under its media type.

    The raw Content-Type values are counted first, and each distinct value
    is mapped to its media type once, as mime_type maps it.
    """
    raw = Counter(view.content_type for view in views)
    counts: dict[str, int] = {}
    for content_type, count in raw.items():
        media = _media_type(content_type)
        counts[media] = counts.get(media, 0) + count
    return MimeDistribution(counts=counts, total=sum(raw.values()))


def _headers_from_json(raw: list) -> Headers:
    return tuple((str(name), str(value)) for name, value in raw)


def _walk_headers(raw, what: str, lowered: str) -> str | None:
    """Check a JSON header list and return its first value named ``lowered``
    (compared case-insensitively), as HttpExchange.header finds it.

    One pass does both. The lookup cannot raise, so the first malformed
    pair is reported wherever the wanted header stands.
    """
    if isinstance(raw, list):
        found = None
        for pair in raw:
            if not isinstance(pair, list) or len(pair) != 2:
                break
            if found is None and str(pair[0]).lower() == lowered:
                found = str(pair[1])
        else:
            return found
    raise ValueError(f"{what} must be a list of [name, value] pairs")


def finite_time(value) -> float:
    """A log record's time as a float; ValueError unless it is a finite number."""
    try:
        seconds = float(value)
    except OverflowError:  # an integer beyond the float range
        seconds = math.inf
    if not math.isfinite(seconds):
        raise ValueError(f"time is not a finite number: {value!r}")
    return seconds


# The characters of base64 text, besides the "=" padding at its end.
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _base64_checked(value) -> bytes | str:
    """What the gate needs of a2b_base64(value) without decoding, where
    that can be told from the text: canonical base64, an ASCII str whose
    length is a multiple of 4, made of the 64 base64 characters with at
    most two "=" at its end. a2b_base64 accepts every such text, and its
    bytes are empty exactly when the text is, so the text itself stands
    for them. Any other value is decoded, and a2b_base64 accepts or
    refuses it with its own error.
    """
    if type(value) is str and not len(value) % 4 and value.isascii():
        text = value.encode("ascii")
        padding = text.translate(None, _BASE64_ALPHABET)
        if padding in (b"", b"=", b"==") and text.endswith(padding):
            return value
    return binascii.a2b_base64(value)


def _validate_record(
    obj, body_of: Callable[[object], bytes | str]
) -> tuple[int, bytes | str, str | None, str | None]:
    """Check one decoded log record; return its status, its body as
    ``body_of`` gives it from the base64 text, its first User-Agent request
    header and its first Content-Type response header. Each header list is
    walked once, to check it and to find the header.

    The one gate every exchange-log reader applies, so all of them reject
    the same lines. ``body_of`` is its only variable step: a2b_base64 for a
    reader that keeps the bytes, _base64_checked for one that only needs
    them checked. Raises ValueError (or TypeError for a value of the wrong
    JSON type) naming the first defect.
    """
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    try:
        timestamp = obj["timestamp"]
        request_headers = obj["request_headers"]
        status = obj["response_status"]
        response_headers = obj["response_headers"]
        body = obj["response_body"]
        encrypted = obj["is_encrypted"]
        # the other required fields, which only exchange_from_json reads
        if not ("exchange_id" in obj and "flow_id" in obj and "method" in obj and "url" in obj):
            raise KeyError
    except KeyError:
        missing = [f for f in _FIELDS if f in _REQUIRED and f not in obj]
        raise ValueError(f"missing fields: {', '.join(missing)}") from None
    kind = type(timestamp)
    if kind is float:
        if not -math.inf < timestamp < math.inf:  # false for an infinity and for NaN
            raise ValueError(f"time is not a finite number: {timestamp!r}")
    elif kind is int:  # bool is not a time
        finite_time(timestamp)  # an int beyond the float range is refused
    else:
        raise ValueError("timestamp is not a number")
    user_agent = _walk_headers(request_headers, "request_headers", "user-agent")
    status = int(status)
    content_type = _walk_headers(response_headers, "response_headers", "content-type")
    body = body_of(body)
    if encrypted and body:
        raise ValueError("encrypted exchanges carry no body")
    return status, body, user_agent, content_type


# json.dumps(value, separators=(",", ":"), ensure_ascii=False) for a value
# exchange_to_json does not encode itself.
_dumps = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
# What that encoder writes for a str (the C function when there is one).
_encode_str = json.encoder.encode_basestring
_FIELD_NAMES = frozenset(_FIELDS)


def _json_value(value) -> str:
    """``value`` as the compact encoder writes it: a str, an int and a finite
    float as the encoder's C loop writes them, anything else through it."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return _dumps(value)


# The most header pairs whose JSON text one exchange-log write keeps: a log
# repeats a few thousand Host, User-Agent, Content-Type and Content-Length
# pairs. The table is emptied when full, so it never grows with the log.
_PAIR_JSON_SIZE = 4096


def _new_pair_json(pair, pair_json: dict[tuple[str, str], str]) -> str:
    name, value = pair
    text = f"[{_json_value(name)},{_json_value(value)}]"
    # only exact strs: an equal pair of other types may encode otherwise (1 == 1.0)
    if type(name) is str and type(value) is str:
        if len(pair_json) >= _PAIR_JSON_SIZE:
            pair_json.clear()
        pair_json[name, value] = text
    return text


def _headers_json(headers: Headers, pair_json: dict[tuple[str, str], str]) -> str:
    """The JSON list of ``headers``, each pair's text taken from ``pair_json``
    when it holds the pair, and kept there when it is new."""
    texts = []
    for pair in headers:
        try:
            text = pair_json.get(pair)
        except TypeError:  # an unhashable pair
            text = None
        texts.append(text or _new_pair_json(pair, pair_json))
    return "[" + ",".join(texts) + "]"


def exchange_to_json(exchange: HttpExchange) -> str:
    """One log line, compact JSON in _FIELDS order, then the extra keys:
    the line json.dumps(..., separators=(",", ":"), ensure_ascii=False)
    writes for the record as a dict, built field by field.

    The body's base64 text is written as it is; base64 has no character
    JSON escapes.
    """
    return _exchange_line(exchange, {})


def _exchange_line(exchange: HttpExchange, pair_json: dict[tuple[str, str], str]) -> str:
    """exchange_to_json's line, with the header pairs encoded in ``pair_json``
    reused: one table serves a whole write."""
    body = exchange.response_body
    body_text = binascii.b2a_base64(body, newline=False).decode("ascii") if body else ""
    line = (
        f'{{"exchange_id":{_json_value(exchange.exchange_id)}'
        f',"timestamp":{_json_value(exchange.timestamp)}'
        f',"flow_id":{_json_value(exchange.flow_id)}'
        f',"ground_truth_client":{_json_value(exchange.ground_truth_client)}'
        f',"method":{_json_value(exchange.method)}'
        f',"url":{_json_value(exchange.url)}'
        f',"request_headers":{_headers_json(exchange.request_headers, pair_json)}'
        f',"response_status":{_json_value(exchange.response_status)}'
        f',"response_headers":{_headers_json(exchange.response_headers, pair_json)}'
        f',"response_body":"{body_text}"'
        f',"is_encrypted":{_json_value(exchange.is_encrypted)}'
    )
    if exchange.extra:
        extra = {key: value for key, value in exchange.extra.items() if key not in _FIELD_NAMES}
        if extra:
            return line + "," + _dumps(extra)[1:]
    return line + "}"


def exchange_from_json(obj: dict) -> HttpExchange:
    status, body, _, _ = _validate_record(obj, binascii.a2b_base64)
    extra = {k: v for k, v in obj.items() if k not in _FIELD_NAMES} or _NO_EXTRA
    return HttpExchange(
        exchange_id=str(obj["exchange_id"]),
        timestamp=obj["timestamp"],
        flow_id=str(obj["flow_id"]),
        ground_truth_client=obj.get("ground_truth_client"),
        method=str(obj["method"]),
        url=str(obj["url"]),
        request_headers=_headers_from_json(obj["request_headers"]),
        response_status=status,
        response_headers=_headers_from_json(obj["response_headers"]),
        response_body=body,
        is_encrypted=bool(obj["is_encrypted"]),
        extra=extra,
    )


def view_from_json(obj: dict) -> ExchangeView | None:
    """The ExchangeView of a record, None for an encrypted one, accepting
    exactly what exchange_from_json accepts; a canonical base64 body is
    checked without being decoded."""
    _, _, user_agent, content_type = _validate_record(obj, _base64_checked)
    if obj["is_encrypted"]:
        return None
    return _view(user_agent, obj["timestamp"], content_type)


# The scanner json.loads runs. Called on a stripped line, it accepts
# exactly what json.loads accepts if it ends at the end of the line.
_scan_once = json.JSONDecoder().scan_once


def _read_lines(
    path: str, newline: str | None, parse: Callable[[Iterable[str]], Iterator[T]]
) -> Iterator[T]:
    """``parse`` over the lines of a UTF-8 text file, opened with ``newline``.

    A text file decodes ahead of the line it hands out, so its decode error
    names no line. On that error the lines are read again, each decoded on
    its own, and ``parse`` runs over them until it raises the file's first
    defect at its line. The file is closed however the read ends.
    """
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield from parse(fh)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for _ in parse(_lines_decoded_one_by_one(path, fh)):
                pass
        raise  # only if the file changed between the two reads


def _lines_decoded_one_by_one(path: str, fh: IO[bytes]) -> Iterator[str]:
    """The lines of a binary file split as a text file splits them (at
    \\r, \\n and \\r\\n, kept), each decoded as UTF-8 on its own; invalid
    UTF-8 raises LogFormatError naming its line."""
    line_no = 0
    for chunk in fh:  # each chunk ends at a \n, so no \r\n pair is cut in two
        for raw in chunk.splitlines(keepends=True):
            line_no += 1
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LogFormatError(path, line_no, str(exc)) from exc
            yield line


def _iter_log(path: str, convert: Callable[[object], T]) -> Iterator[T]:
    return _read_lines(path, None, lambda lines: _convert_lines(path, lines, convert))


def _convert_lines(path: str, lines: Iterable[str], convert: Callable[[object], T]) -> Iterator[T]:
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            try:
                obj, end = _scan_once(stripped, 0)
            except StopIteration:
                end = -1
            if end != len(stripped):
                obj = json.loads(stripped)  # raises the error json.loads gives
            yield convert(obj)
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            # OverflowError: an infinite status; RecursionError: nesting too deep
            raise LogFormatError(path, line_no, str(exc)) from exc


def read_exchange_log(path: str) -> list[HttpExchange]:
    """Read a whole log; a malformed line raises LogFormatError, no partial result."""
    return list(_iter_log(path, exchange_from_json))


def read_exchange_views(path: str) -> list[ExchangeView]:
    """Read a whole log as ExchangeViews: every line is validated as
    read_exchange_log validates it, but no HttpExchange is built, no body
    is kept and an encrypted exchange keeps nothing, so memory grows with
    the plaintext line count only."""
    return [view for view in _iter_log(path, view_from_json) if view is not None]


# Lines joined into one write: each write call on a text file costs more
# than the join.
_LINES_PER_WRITE = 256


def _write_exchanges(
    fh: IO[str], exchanges: Iterable[HttpExchange], pair_json: dict[tuple[str, str], str]
) -> None:
    """One line per exchange, the header pairs encoded through ``pair_json``."""
    lines = []
    for exchange in exchanges:
        lines.append(_exchange_line(exchange, pair_json))
        if len(lines) == _LINES_PER_WRITE:
            lines.append("")  # so the last line ends in a newline too
            fh.write("\n".join(lines))
            lines = []
    if lines:
        lines.append("")
        fh.write("\n".join(lines))


def write_exchange_log(exchanges: Iterable[HttpExchange], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_exchanges(fh, exchanges, {})


def write_json(obj, path: str) -> None:
    """Write one JSON document, indented by two spaces, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# Block size of the backward scan for a torn file's last newline.
_TAIL_SCAN_BYTES = 1 << 16


def cut_torn_tail(path: str) -> int:
    """Cut a non-empty file that does not end in a newline back to its
    last newline, or to nothing if it has none; returns the bytes cut."""
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return 0
    with fh:
        size = end = fh.seek(0, os.SEEK_END)
        while end > 0:
            start = max(end - _TAIL_SCAN_BYTES, 0)
            fh.seek(start)
            at = fh.read(end - start).rfind(b"\n")
            if at >= 0:
                end = start + at + 1
                break
            end = start
        if end < size:
            fh.truncate(end)
        return size - end


def count_lines(path: str) -> int:
    """Number of newline-terminated lines in a file."""
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


class LogAppender(Generic[T]):
    """Append-mode log writer for live capture. Single writer.

    On open, a last line torn by a crash (a non-empty file that does not
    end in a newline) is cut off, so new records never land on it;
    ``dropped`` holds the bytes cut. Writes ``header`` into an empty file;
    each append call writes its records and flushes once.
    """

    def __init__(
        self, path: str, write_rows: Callable[[IO[str], Iterable[T]], None], header: str = ""
    ):
        self.path = path
        self.dropped = cut_torn_tail(path)
        self._write_rows = write_rows
        self._fh: IO[str] = open(path, "a", encoding="utf-8", newline="")
        if header and self._fh.tell() == 0:
            self._fh.write(header)
            self._fh.flush()

    def append(self, *records: T) -> None:
        self._write_rows(self._fh, records)
        self._fh.flush()

    def tell(self) -> int:
        return self._fh.tell()

    def close(self) -> None:
        self._fh.close()


def exchange_log_appender(path: str) -> LogAppender[HttpExchange]:
    """An appender of exchange lines that keeps one header-pair table for
    its life, as a live log appends one exchange per call."""
    return LogAppender(path, partial(_write_exchanges, pair_json={}))


class CsvLog(Generic[T]):
    """One CSV log's layout: its header and how a record maps to a row and
    back; ``to_row`` defaults to the record's attributes the header names.

    On read, a zero-byte file is an empty log. A first row other than the
    header, a row with another field count than the header, one
    ``from_row`` rejects with ValueError, or a line that is not UTF-8
    raises LogFormatError naming its line; blank rows after the header are
    skipped. ``stream`` reads one record at a time; ``read`` is the list
    of what it yields.
    """

    def __init__(
        self,
        header: Sequence[str],
        from_row: Callable[[list[str]], T],
        to_row: Callable[[T], Sequence] | None = None,
    ):
        self.header = tuple(header)
        self.from_row = from_row
        self.to_row = to_row or attrgetter(*self.header)
        self._header_line = ",".join(self.header) + "\r\n"

    def _write_rows(self, fh: IO[str], records: Iterable[T]) -> None:
        csv.writer(fh).writerows(map(self.to_row, records))

    def write(self, records: Iterable[T], path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self._header_line)
            self._write_rows(fh, records)

    def appender(self, path: str) -> LogAppender[T]:
        return LogAppender(path, self._write_rows, self._header_line)

    def stream(self, path: str) -> Iterator[T]:
        """The records of the file, one at a time, checked as ``read`` checks
        them; the file is opened at the first record and closed at the end,
        at an error, or when the generator is closed."""
        return _read_lines(path, "", lambda lines: self._records(path, lines))

    def read(self, path: str) -> list[T]:
        return list(self.stream(path))

    def _records(self, path: str, lines: Iterable[str]) -> Iterator[T]:
        columns = len(self.header)
        from_row = self.from_row
        reader = csv.reader(lines)
        try:
            first = next(reader, None)
            if first is not None and first != list(self.header):
                raise LogFormatError(path, 1, f"expected the header {','.join(self.header)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != columns:
                    raise LogFormatError(
                        path, reader.line_num, f"expected {columns} fields, got {len(row)}"
                    )
                try:
                    record = from_row(row)
                except ValueError as exc:
                    raise LogFormatError(path, reader.line_num, str(exc)) from exc
                yield record
        except csv.Error as exc:
            raise LogFormatError(path, reader.line_num, str(exc)) from exc


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector disabled.

    The offline builders make 100k-190k long-lived records that hold no
    reference cycles; reference counting frees them, and every generational
    collection the growing heap would trigger rescans them and frees
    nothing. A cycle made under the pause is collected by a later full
    collection.

    The pause is process-wide: another thread allocating meanwhile is not
    collected either, so a concurrent caller can only lose speed, never
    correctness. On exit, also when the body raises, ``gc.freeze()`` then
    ``gc.unfreeze()`` moves every tracked object into the oldest generation
    in O(1) before the collector is enabled again. The gain needs that step:
    with a bare disable/enable the records stay in generation 0, and in a
    prototype the young collections after the pause took 0.50-0.56 s after
    a calibrated simulate, which was then no faster. The step also moves
    whatever the caller had frozen back into the oldest generation. When the
    caller had already disabled the collector, this changes nothing.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.freeze()
        gc.unfreeze()
        gc.enable()
