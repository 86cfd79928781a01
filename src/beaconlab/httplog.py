"""HTTP exchange data model and line-delimited exchange logs.

Every pipeline stage exchanges traffic through this one record type, so
simulator output, live-proxy output, and correlator input are all
file-compatible. One JSON object per line, UTF-8, bodies base64-encoded.
"""

from __future__ import annotations

import base64
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

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


class LogFormatError(ValueError):
    """A malformed line in an exchange log. Carries the 1-based line number."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True)
class HttpExchange:
    """One request/response pair as seen at the interception point.

    ``ground_truth_client`` is simulator-only oracle metadata; analysis
    code must never consult it (tests enforce this by comparing reports
    with and without it present). ``flow_id`` is the anonymized view.
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
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.is_encrypted and self.response_body:
            raise ValueError("encrypted exchanges carry no body")

    def header(self, name: str, which: str = "response") -> str | None:
        """First header value matching ``name`` case-insensitively."""
        headers = self.request_headers if which == "request" else self.response_headers
        lowered = name.lower()
        for key, value in headers:
            if key.lower() == lowered:
                return value
        return None


@dataclass(frozen=True)
class MimeDistribution:
    """Counts of response media types over the non-encrypted exchanges."""

    counts: dict
    total: int

    def percentage(self, mime: str) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.counts.get(mime, 0) / self.total


def mime_type(exchange: HttpExchange) -> str:
    """Media type of the response, or "unknown".

    Derived only from the Content-Type response header: first header wins,
    parameters stripped at the first ";", lowercased. Encrypted exchanges
    are opaque and always "unknown".
    """
    if exchange.is_encrypted:
        return "unknown"
    value = exchange.header("content-type")
    if value is None:
        return "unknown"
    media = value.split(";", 1)[0].strip().lower()
    return media or "unknown"


def mime_distribution(exchanges: Iterable[HttpExchange]) -> MimeDistribution:
    """Count every non-encrypted exchange once under its media type."""
    counts: Counter = Counter()
    total = 0
    for exchange in exchanges:
        if exchange.is_encrypted:
            continue
        counts[mime_type(exchange)] += 1
        total += 1
    return MimeDistribution(counts=dict(counts), total=total)


def _headers_to_json(headers: Headers) -> list:
    return [[name, value] for name, value in headers]


def _headers_from_json(raw, what: str) -> Headers:
    if not isinstance(raw, list):
        raise ValueError(f"{what} must be a list of [name, value] pairs")
    out = []
    for pair in raw:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{what} must be a list of [name, value] pairs")
        out.append((str(pair[0]), str(pair[1])))
    return tuple(out)


def exchange_to_json(exchange: HttpExchange) -> str:
    obj = {
        "exchange_id": exchange.exchange_id,
        "timestamp": exchange.timestamp,
        "flow_id": exchange.flow_id,
        "ground_truth_client": exchange.ground_truth_client,
        "method": exchange.method,
        "url": exchange.url,
        "request_headers": _headers_to_json(exchange.request_headers),
        "response_status": exchange.response_status,
        "response_headers": _headers_to_json(exchange.response_headers),
        "response_body": base64.b64encode(exchange.response_body).decode("ascii"),
        "is_encrypted": exchange.is_encrypted,
    }
    for key, value in exchange.extra.items():
        if key not in obj:
            obj[key] = value
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def exchange_from_json(obj: dict) -> HttpExchange:
    missing = [f for f in _FIELDS if f != "ground_truth_client" and f not in obj]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    extra = {k: v for k, v in obj.items() if k not in _FIELDS}
    return HttpExchange(
        exchange_id=str(obj["exchange_id"]),
        timestamp=obj["timestamp"],
        flow_id=str(obj["flow_id"]),
        ground_truth_client=obj.get("ground_truth_client"),
        method=str(obj["method"]),
        url=str(obj["url"]),
        request_headers=_headers_from_json(obj["request_headers"], "request_headers"),
        response_status=int(obj["response_status"]),
        response_headers=_headers_from_json(obj["response_headers"], "response_headers"),
        response_body=base64.b64decode(obj["response_body"]),
        is_encrypted=bool(obj["is_encrypted"]),
        extra=extra,
    )


def iter_exchange_log(path: str) -> Iterator[HttpExchange]:
    """Yield exchanges from a log file; fail on the first malformed line.

    Raises LogFormatError naming the 1-based line number. Callers that
    need all-or-nothing semantics should use read_exchange_log.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
                if not isinstance(obj, dict):
                    raise ValueError("record is not an object")
                yield exchange_from_json(obj)
            except (ValueError, KeyError) as exc:
                raise LogFormatError(path, line_no, str(exc)) from exc


def read_exchange_log(path: str) -> list[HttpExchange]:
    """Read a whole log; a malformed line fails the read, no partial result."""
    return list(iter_exchange_log(path))


def write_exchange_log(exchanges: Iterable[HttpExchange], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for exchange in exchanges:
            fh.write(exchange_to_json(exchange))
            fh.write("\n")


class ExchangeLogWriter:
    """Append-mode writer for live capture. Single writer, flush per record."""

    def __init__(self, path: str):
        self.path = path
        self._fh: IO[str] = open(path, "a", encoding="utf-8", newline="\n")
        self.count = 0

    def append(self, exchange: HttpExchange) -> None:
        self._fh.write(exchange_to_json(exchange))
        self._fh.write("\n")
        self._fh.flush()
        self.count += 1

    def tell(self) -> int:
        return self._fh.tell()

    def close(self) -> None:
        self._fh.close()
