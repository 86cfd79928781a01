"""HTTP exchange data model and line-delimited exchange logs.

Simulator output, live-proxy output and correlator input all go through
this one record type, so they are file-compatible; the injector, which
needs only a response's head and body, takes no record. One JSON object
per line, UTF-8, bodies base64-encoded. The writer formats rows, a
record's values in field order: a record's own attributes, or the rows a
sequence gives through its rows() method, so the simulator's exchanges
are written from their columns with no record built.
read_exchange_views reads a line in the writer's exact shape from its
text, and any other line through exchange_from_json, the one record gate;
it holds what analysis keeps of the log as columns (ExchangeViews).
The CSV logs of the other stages are each declared once as a CsvLog here,
which reads, writes and appends them, so every log names a malformed line
the same way (LogFormatError).
LogAppender is the one live appender.
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
import re
from array import array
from collections import Counter
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import attrgetter, eq
from types import MappingProxyType
from typing import IO, Callable, Generic, Iterable, Iterator, Mapping, NamedTuple, TypeVar

T = TypeVar("T")

Headers = tuple[tuple[str, str], ...]

# Serialization order is fixed so that writer output is canonical.
_FIELDS = (
    "exchange_id",
    "timestamp",
    "flow_id",
    "method",
    "url",
    "request_headers",
    "response_status",
    "response_headers",
    "response_body",
    "is_encrypted",
)

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


@dataclass(frozen=True, slots=True)
class HttpExchange:
    """One request/response pair as seen at the interception point.

    It holds only what the interception point sees: no field names the
    client behind an exchange, so analysis cannot read the simulator's
    oracle from a capture. ``flow_id`` is the anonymized view.
    ``extra`` holds a log line's unknown keys; without any it is one shared
    read-only empty mapping. Slotted, as read_exchange_log keeps every
    exchange of a log. An encrypted exchange with a body is refused
    (ValueError).
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
    extra: Mapping[str, object] = field(default_factory=lambda: _NO_EXTRA)

    def __post_init__(self):
        if self.is_encrypted and self.response_body:
            raise ValueError("encrypted exchanges carry no body")

    def header(self, name: str) -> str | None:
        """First response header value matching ``name`` case-insensitively."""
        return _first_header(self.response_headers, name.lower())


class ExchangeView(NamedTuple):
    """What analysis keeps of one plaintext exchange; an encrypted one is
    opaque and has no view.

    Its first two fields are the exchange's ua.UaRecord, so a sequence of
    views is the user-agent stream itself: ``raw`` is the first request
    User-Agent header, "" when it is absent or empty, and ``first_seen``
    the exchange's time. ``content_type`` is the first response
    Content-Type header, None when it is absent.
    """

    raw: str
    first_seen: float
    content_type: str | None


# ExchangeView(*fields) without the generated __new__'s Python-level call.
_new_view = tuple.__new__


class ExchangeViews(Sequence[ExchangeView]):
    """The views of a log's plaintext exchanges, in order, held as three
    columns: ``times``, and for each view the index of its User-Agent value
    in ``user_agents`` (``ua_ids``) and of its Content-Type value in
    ``content_types`` (``type_ids``). A log repeats a few hundred header
    values, so each view costs 16 bytes of columns.

    ``times`` is an array of C doubles while every time is a float; at the
    first time of another type (a JSON integer) it becomes a list, so every
    time keeps its value and its type.

    A read-only sequence of ExchangeView, built from any iterable of them
    (or of (raw, first_seen, content_type) tuples); it equals any sequence
    of equal views.
    """

    __slots__ = ("times", "ua_ids", "type_ids", "user_agents", "content_types")

    def __init__(self, views: Iterable[tuple[str, float, str | None]] = ()):
        times: array[float] | list[float] = array("d")
        ua_ids, type_ids = array("I"), array("I")
        user_agents: dict[str, int] = {}
        content_types: dict[str | None, int] = {}
        for raw, first_seen, content_type in views:
            if type(first_seen) is not float and type(times) is array:
                times = list(times)
            times.append(first_seen)
            ua_ids.append(user_agents.setdefault(raw, len(user_agents)))
            type_ids.append(content_types.setdefault(content_type, len(content_types)))
        self.times = times
        self.ua_ids = ua_ids
        self.type_ids = type_ids
        self.user_agents: tuple[str, ...] = tuple(user_agents)
        self.content_types: tuple[str | None, ...] = tuple(content_types)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index: int) -> ExchangeView:
        return _new_view(
            ExchangeView,
            (
                self.user_agents[self.ua_ids[index]],
                self.times[index],
                self.content_types[self.type_ids[index]],
            ),
        )

    def __iter__(self) -> Iterator[ExchangeView]:
        return map(
            _new_view,
            repeat(ExchangeView),
            zip(
                map(self.user_agents.__getitem__, self.ua_ids),
                self.times,
                map(self.content_types.__getitem__, self.type_ids),
            ),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def _view(user_agent: str | None, timestamp: float, content_type: str | None) -> ExchangeView:
    """The view of a plaintext exchange with these headers and time."""
    return _new_view(ExchangeView, (user_agent or "", timestamp, content_type))


def _view_of(exchange: HttpExchange) -> ExchangeView:
    """The view of a plaintext exchange."""
    return _view(
        _first_header(exchange.request_headers, "user-agent"),
        exchange.timestamp,
        _first_header(exchange.response_headers, "content-type"),
    )


def exchange_views(exchanges: Iterable[HttpExchange]) -> ExchangeViews:
    """The views read_exchange_views reads from a log of these exchanges:
    one per plaintext exchange, in order."""
    return ExchangeViews(_view_of(exchange) for exchange in exchanges if not exchange.is_encrypted)


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

    The views' Content-Type indexes are counted, and each distinct value is
    mapped to its media type once, as mime_type maps it. Views that are not
    an ExchangeViews are put into one first.
    """
    if not isinstance(views, ExchangeViews):
        views = ExchangeViews(views)
    counts: dict[str, int] = {}
    for type_id, count in Counter(views.type_ids).items():
        media = _media_type(views.content_types[type_id])
        counts[media] = counts.get(media, 0) + count
    return MimeDistribution(counts=counts, total=len(views))


def finite_time(value) -> float:
    """A log record's time as a float; ValueError unless it is a finite number."""
    try:
        seconds = float(value)
    except OverflowError:  # an integer beyond the float range
        seconds = math.inf
    if not math.isfinite(seconds):
        raise ValueError(f"time is not a finite number: {value!r}")
    return seconds


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


# A record's row: its values in _FIELDS order, then its extra.
_exchange_row = attrgetter(*_FIELDS, "extra")


def exchange_to_json(exchange: HttpExchange) -> str:
    """One log line, compact JSON in _FIELDS order, then the extra keys:
    the line json.dumps(..., separators=(",", ":"), ensure_ascii=False)
    writes for the record as a dict, built field by field.

    The body's base64 text is written as it is; base64 has no character
    JSON escapes.
    """
    return _exchange_line(_exchange_row(exchange), {})


def _exchange_line(row: tuple, pair_json: dict[tuple[str, str], str]) -> str:
    """exchange_to_json's line for a record's row, with the header pairs
    encoded in ``pair_json`` reused: one table serves a whole write."""
    (exchange_id, timestamp, flow_id, method, url, request_headers, status,
     response_headers, body, is_encrypted, extra) = row
    body_text = binascii.b2a_base64(body, newline=False).decode("ascii") if body else ""
    line = (
        f'{{"exchange_id":{_json_value(exchange_id)}'
        f',"timestamp":{_json_value(timestamp)}'
        f',"flow_id":{_json_value(flow_id)}'
        f',"method":{_json_value(method)}'
        f',"url":{_json_value(url)}'
        f',"request_headers":{_headers_json(request_headers, pair_json)}'
        f',"response_status":{_json_value(status)}'
        f',"response_headers":{_headers_json(response_headers, pair_json)}'
        f',"response_body":"{body_text}"'
        f',"is_encrypted":{_json_value(is_encrypted)}'
    )
    if extra:
        extra = {key: value for key, value in extra.items() if key not in _FIELD_NAMES}
        if extra:
            return line + "," + _dumps(extra)[1:]
    return line + "}"


def _headers_from_json(raw, what: str) -> Headers:
    """A JSON header list as Headers; ValueError unless it is a list of
    [name, value] pairs."""
    if isinstance(raw, list) and all(isinstance(pair, list) and len(pair) == 2 for pair in raw):
        return tuple((str(name), str(value)) for name, value in raw)
    raise ValueError(f"{what} must be a list of [name, value] pairs")


def exchange_from_json(obj: dict) -> HttpExchange:
    """The exchange of one decoded log record.

    The one gate of every exchange-log reader, so all of them refuse the
    same lines. It checks, in this order: an object, the required keys, a
    timestamp that is a JSON number and finite, the request header pairs,
    ``int(status)``, the response header pairs, a base64 body, and no body
    if encrypted. Raises ValueError (or TypeError for a value of the wrong
    JSON type) naming the first defect.
    """
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    if not _FIELD_NAMES <= obj.keys():
        missing = [f for f in _FIELDS if f not in obj]
        raise ValueError(f"missing fields: {', '.join(missing)}")
    timestamp = obj["timestamp"]
    if type(timestamp) not in (int, float):  # bool is not a time
        raise ValueError("timestamp is not a number")
    finite_time(timestamp)
    request_headers = _headers_from_json(obj["request_headers"], "request_headers")
    status = int(obj["response_status"])
    response_headers = _headers_from_json(obj["response_headers"], "response_headers")
    body = binascii.a2b_base64(obj["response_body"])
    if obj["is_encrypted"] and body:
        raise ValueError("encrypted exchanges carry no body")
    return HttpExchange(
        exchange_id=str(obj["exchange_id"]),
        timestamp=timestamp,
        flow_id=str(obj["flow_id"]),
        method=str(obj["method"]),
        url=str(obj["url"]),
        request_headers=request_headers,
        response_status=status,
        response_headers=response_headers,
        response_body=body,
        is_encrypted=bool(obj["is_encrypted"]),
        extra={k: v for k, v in obj.items() if k not in _FIELD_NAMES} or _NO_EXTRA,
    )


# A JSON string with no escape: no '"', "\" or control character. Each run
# of characters is possessive (*+): what follows it cannot be in the run,
# so backtracking into it could never match, and the engine keeps no state.
_STRING = r'"[^"\\\x00-\x1f]*+"'
# Such a string in ASCII, whose str.lower keeps its length.
_ASCII_STRING = r'"[ !#-\[\]-\x7f]*+"'
_PAIR = rf"\[{_ASCII_STRING},{_ASCII_STRING}\]"
_HEADER_LIST = rf"\[(?:{_PAIR}(?:,{_PAIR})*)?\]"
# A JSON integer of at most 300 digits: int() converts it (it refuses over
# 4,300) and it is finite as a float (under 10**308).
_INTEGER = r"-?(?:0|[1-9][0-9]{0,299})"
# The line _exchange_line writes for an exchange with no extra key, whose
# strings need no escape, whose status is such an integer and whose header
# lists are pairs of ASCII strings. The groups are the time (a JSON number
# with a fraction or an exponent, else an integer), both header lists, the
# body (base64 characters, then at most two "=") and "true" for an
# encrypted one.
_CANONICAL_LINE = re.compile(
    rf'\{{"exchange_id":{_STRING}'
    rf',"timestamp":(?:(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))|({_INTEGER}))'
    rf',"flow_id":{_STRING}'
    rf',"method":{_STRING}'
    rf',"url":{_STRING}'
    rf',"request_headers":({_HEADER_LIST})'
    rf',"response_status":{_INTEGER}'
    rf',"response_headers":({_HEADER_LIST})'
    rf',"response_body":"([A-Za-z0-9+/]*+={{0,2}})"'
    rf',"is_encrypted":(?:(true)|false)\}}'
)


def _first_value(headers: str, opening: str) -> str | None:
    """The first value of a header list's text that _CANONICAL_LINE matched,
    whose name lowercased is the one in ``opening``, '["name","'; None when
    there is none. No string in the text holds a '"', so a '["' opens a
    pair wherever it stands, and the text is ASCII, so its lowercase has
    its characters at the same places."""
    at = headers.lower().find(opening)
    if at < 0:
        return None
    at += len(opening)
    return headers[at:headers.index('"', at)]


def _line_view(line: str) -> ExchangeView | None:
    """The view of the record on a stripped line, None for an encrypted one.

    A line the writer emits (_CANONICAL_LINE) whose body is canonical base64
    and whose time is finite is read from its text, with no JSON object
    built: exchange_from_json accepts every such line, unless it is
    encrypted with a body. Any other line is read as read_exchange_log
    reads it, so the gate alone refuses a line.
    """
    match = _CANONICAL_LINE.fullmatch(line)
    if match is not None:
        float_text, int_text, request_headers, response_headers, encrypted = match.group(1, 2, 3, 4, 6)
        body_start, body_end = match.span(5)
        timestamp = int(int_text) if float_text is None else float(float_text)
        if -math.inf < timestamp < math.inf and not (body_end - body_start) % 4:
            if encrypted is None:
                return _view(
                    _first_value(request_headers, '["user-agent","'),
                    timestamp,
                    _first_value(response_headers, '["content-type","'),
                )
            if body_start == body_end:
                return None
    exchange = _line_exchange(line)
    return None if exchange.is_encrypted else _view_of(exchange)


def _line_exchange(line: str) -> HttpExchange:
    """exchange_from_json of the record on a stripped line."""
    return exchange_from_json(json.loads(line))


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


def _iter_log(path: str, convert: Callable[[str], T]) -> Iterator[T]:
    return _read_lines(path, None, lambda lines: _convert_lines(path, lines, convert))


def _convert_lines(path: str, lines: Iterable[str], convert: Callable[[str], T]) -> Iterator[T]:
    """``convert`` of each non-blank line, stripped; a line it refuses
    raises LogFormatError naming that line."""
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield convert(stripped)
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            # OverflowError: an infinite status; RecursionError: nesting too deep
            raise LogFormatError(path, line_no, str(exc)) from exc


def read_exchange_log(path: str) -> list[HttpExchange]:
    """Read a whole log; a malformed line raises LogFormatError, no partial result."""
    return list(_iter_log(path, _line_exchange))


def read_exchange_views(path: str) -> ExchangeViews:
    """Read a whole log as ExchangeViews: every line is validated as
    read_exchange_log validates it, but no HttpExchange is built, no body
    is kept and an encrypted exchange keeps nothing, so memory grows with
    the plaintext line count only, by a view's three column entries. A line
    the writer emits is read from its text without being decoded
    (_line_view)."""
    return ExchangeViews(filter(None, _iter_log(path, _line_view)))


# Lines joined into one write: each write call on a text file costs more
# than the join.
_LINES_PER_WRITE = 256


def _write_exchanges(
    fh: IO[str], exchanges: Iterable[HttpExchange], pair_json: dict[tuple[str, str], str]
) -> None:
    """One line per exchange, the header pairs encoded through ``pair_json``.

    Lines are formatted from rows: those of ``exchanges.rows()`` when it has
    that method (clientsim.SimulatedExchanges, which then builds no record),
    else each record's attributes."""
    rows = getattr(exchanges, "rows", None)
    lines = []
    for row in map(_exchange_row, exchanges) if rows is None else rows():
        lines.append(_exchange_line(row, pair_json))
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


# Field types whose str is what csv.writer writes for them (not a float
# subclass, whose repr may differ, nor None, which it writes as "").
_PLAIN_FIELD_TYPES = frozenset((str, int, float, bool))


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
        """The rows csv.writer writes for ``records``, ending in CRLF.

        A row of str, int and float fields (str of a float is its repr, as
        csv.writer writes it) is joined by commas, and written as it is
        unless the text is ambiguous: a field holding a comma (more commas
        than fields less one), a '"', CR or LF, or an empty line. Only such
        a row, or one with a field of another type, goes through
        csv.writer, which quotes it."""
        quoting = csv.writer(fh)
        lines: list[str] = []
        for row in map(self.to_row, records):
            line = ",".join(map(str, row))
            if (
                line.count(",") != len(row) - 1
                or not line
                or '"' in line
                or "\r" in line
                or "\n" in line
                or not _PLAIN_FIELD_TYPES.issuperset(map(type, row))
            ):
                if lines:
                    lines.append("")
                    fh.write("\r\n".join(lines))
                    lines = []
                quoting.writerow(row)
                continue
            lines.append(line)
            if len(lines) == _LINES_PER_WRITE:
                lines.append("")  # so the last row ends in CRLF too
                fh.write("\r\n".join(lines))
                lines = []
        if lines:
            lines.append("")
            fh.write("\r\n".join(lines))

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

    The offline builders make tens of thousands of long-lived records that
    hold no reference cycles: a calibrated simulation of 2,000 clients
    keeps 45,690 DNS and fetch records (its 73,869 exchanges and 46,574
    tags are held as columns). Reference counting frees them, and every
    generational collection the growing heap would trigger rescans them and
    frees nothing. A cycle made under the pause is collected by a later
    full collection.

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
