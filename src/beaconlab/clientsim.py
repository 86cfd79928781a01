"""Deterministic seeded simulator of a browser population.

Generates the traffic crossing the interception point: per-client page
visits with a configurable media-type mix and HTTPS share, beacon fetches
with client-side DNS and object caching, and scripted restarts that clear
caches and reload the cached start page (which is how a previously issued
unique subdomain gets a second lookup). Everything is reproducible from
(config, seed), and the ground-truth file records what the correlator is
later expected to recover. A simulation's exchanges and tags are held as
columns (SimulatedExchanges, SimulatedTags), its DNS and fetch logs as
their records' fields (SimulatedLog), and they are handed to the log
writers as rows, so the simulation keeps no record and writing its logs
builds none. Its
bodies are held in one buffer, each tagged page as the injector received
it, and spliced again when it is read.
"""

from __future__ import annotations

import json
import math
import random
import re
from array import array
from bisect import bisect, bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from itertools import accumulate, chain, islice, repeat, starmap, tee
from operator import add, call, eq
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from beaconlab.dnssim import (
    DnsQueryRecord, WildcardResolver, ZoneConfig, normalize_name, url_host
)
from beaconlab.httplog import (
    _NO_EXTRA, CsvLog, Headers, HttpExchange, collector_paused, finite_time, write_json
)
from beaconlab.inject import DEFAULT_STATIC_LABEL, DYNAMIC, STATIC, Injector, Tag

T = TypeVar("T")

HOME_HOST = "home.example"
HOME_PAGE_URL = f"http://{HOME_HOST}/start"
HTML_CONTENT_TYPE = "text/html; charset=utf-8"

# Media-type mix measured on real intercepted traffic; the residual
# "others" bucket is folded into application/octet-stream so the mix sums
# to exactly 1.
MEASURED_MIME_MIX = {
    "text/html": 0.33,
    "image/jpeg": 0.24,
    "image/gif": 0.16,
    "image/png": 0.06,
    "text/plain": 0.05,
    "application/x-javascript": 0.04,
    "text/css": 0.03,
    "text/javascript": 0.03,
    "text/xml": 0.02,
    "application/octet-stream": 0.04,
}

# An image source in a page: group 1 is the URL, up to the closing quote.
# Group 2 is its host where url_host would slice it from the URL itself:
# an ASCII run of the characters dnssim._PLAIN_HTTP_HOST takes, ended by
# "/", "?", "#" or the end of the URL. It is empty for any other URL.
_IMG_SRC_RE = re.compile(
    rb'<img src="(http://(?=[^"])(?:([^"/?#@:\[\]\\\t\r\n\x80-\xff]+)(?=[/?#"])[^"]*|[^"]+))"'
)


class ConfigError(ValueError):
    """Invalid scenario configuration, rejected before any generation."""


@dataclass(frozen=True)
class UaSpec:
    """One population entry: the raw string, draw weight, ground-truth flag."""

    user_agent: str
    weight: float = 1.0
    vulnerable: bool = False


_NUMBER = (int, float)
# The JSON type a scenario file holds for a field of each annotation.
_JSON_TYPES = {"int": int, "float": _NUMBER, "bool": bool, "str": str, "dict": dict, "list": list}


def _field_types(cls) -> dict:
    """The JSON type of each field of a scenario-file dataclass, by name."""
    return {f.name: _JSON_TYPES[f.type] for f in fields(cls)}


def _typed(obj, types: dict, where: str = "") -> dict:
    """``obj`` if it is a JSON object whose every key is in ``types`` with a
    value of that type (a bool is no number); else ConfigError, its
    message prefixed with ``where``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}not a JSON object")
    for key, value in obj.items():
        if key not in types:
            raise ConfigError(f"{where}unknown key {key!r}")
        kind = types[key]
        if not isinstance(value, kind) or (type(value) is bool and kind is not bool):
            raise ConfigError(f"{where}{key} has the wrong JSON type ({type(value).__name__})")
    return obj


@dataclass
class ScenarioConfig:
    seed: int = 1
    client_count: int = 50
    duration_seconds: float = 3600.0
    visit_rate: float = 0.01  # visits per second per client, beyond the start visit
    mime_mix: dict = field(default_factory=lambda: dict(MEASURED_MIME_MIX))
    http_share: float = 0.96
    ua_population: list = field(default_factory=list)
    non_fetching_share: float = 0.0
    restart_count: int = 0
    zone: str = "feedback.test"
    payload_address: str = "192.0.2.10"
    static_label: str = DEFAULT_STATIC_LABEL

    def validate(self) -> None:
        if self.client_count < 0:
            raise ConfigError("client_count must be >= 0")
        # NaN or infinity would keep _client_visits drawing visits forever
        if not 0 <= self.duration_seconds < math.inf:
            raise ConfigError("duration_seconds must be a finite number >= 0")
        if not 0 <= self.visit_rate < math.inf:
            raise ConfigError("visit_rate must be a finite number >= 0")
        if not 0.0 <= self.http_share <= 1.0:
            raise ConfigError("http_share must lie in [0, 1]")
        if not 0.0 <= self.non_fetching_share <= 1.0:
            raise ConfigError("non_fetching_share must lie in [0, 1]")
        if self.restart_count < 0:
            raise ConfigError("restart_count must be >= 0")
        # run_scenario draws with finite weights >= 0; a NaN fails every
        # comparison, so each weight must be shown to lie in that range
        if not all(0 <= w < math.inf for w in self.mime_mix.values()):
            raise ConfigError("mime_mix weights must be finite numbers >= 0")
        if abs(sum(self.mime_mix.values()) - 1.0) > 1e-6:
            raise ConfigError("mime_mix must sum to 1")
        try:
            self.zone_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        weights = [spec.weight for spec in self.ua_population]
        if not all(0 <= w < math.inf for w in weights):
            raise ConfigError("ua_population weights must be finite numbers >= 0")
        if self.client_count > 0 and not 0 < sum(weights) < math.inf:
            raise ConfigError("ua_population must have a positive, finite total weight")

    def zone_config(self) -> ZoneConfig:
        """The zone run_scenario's resolver answers for."""
        return ZoneConfig(zone=self.zone, payload_address=self.payload_address)

    @classmethod
    def from_json(cls, obj) -> "ScenarioConfig":
        """The config a decoded scenario file describes; ConfigError unless it
        is an object of known keys whose values have the right JSON types."""
        data = dict(_typed(obj, _field_types(cls)))
        mime_mix = data.get("mime_mix", {})
        _typed(mime_mix, dict.fromkeys(mime_mix, _NUMBER), "mime_mix: ")
        population = []
        spec_types = _field_types(UaSpec)
        for i, spec in enumerate(data.get("ua_population", [])):
            where = f"ua_population[{i}]: "
            if "user_agent" not in _typed(spec, spec_types, where):
                raise ConfigError(f"{where}no user_agent")
            population.append(UaSpec(**spec))
        data["ua_population"] = population
        return cls(**data)

    def save(self, path: str) -> None:
        # asdict would deep-copy every UaSpec; a shallow view writes the same JSON
        document = {f.name: getattr(self, f.name) for f in fields(self)}
        document["ua_population"] = [vars(spec) for spec in self.ua_population]
        write_json(document, path)

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        """A saved scenario; ConfigError naming the file if it is malformed."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_json(json.load(fh))
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise ConfigError(f"{path}: {exc}") from None


class FetchRecord(NamedTuple):
    """One beacon object hit at the payload server."""

    timestamp: float
    source: str
    url: str


# FetchRecord(*fields) without the generated __new__'s Python-level call.
_new_fetch = tuple.__new__


def _fetch_from_row(row: list[str]) -> FetchRecord:
    timestamp = finite_time(row[0])
    url_host(row[2])  # a URL urlsplit rejects fails the read at its line
    return _new_fetch(FetchRecord, (timestamp, row[1], row[2]))


# fetches.csv: beacon-object hits at the payload server.
FETCH_LOG = CsvLog(("timestamp", "source", "url"), _fetch_from_row)
write_fetch_log = FETCH_LOG.write
read_fetch_log = FETCH_LOG.read


@dataclass(slots=True)
class _ClientState:
    """One simulated browser. Caches are cleared at restart; the cached
    start page survives, and a restart reloads it: ``home_position`` is its
    exchange's position. After the browser's last event its caches are
    dropped (None)."""

    client_id: str
    source: str
    user_agent: str
    fetches_objects: bool
    restart_schedule: tuple[float, ...]
    dns_cache: set[str] | None = field(default_factory=set)
    object_cache: set[str] | None = field(default_factory=set)
    home_position: int | None = None
    home_dynamic_subdomain: str | None = None
    tagged_pages: int = 0  # plain-HTTP HTML pages delivered: each one tagged
    lifetimes: int = 1
    events_left: int = 0

    def restart(self) -> None:
        self.dns_cache.clear()
        self.object_cache.clear()
        self.lifetimes += 1


@lru_cache(maxsize=8)
def _zone_suffix(zone: str) -> str:
    return "." + normalize_name(zone)


def _beacons(body: bytes, zone: str) -> list[tuple[str, str]]:
    """(url, normalized host) of each attacker-zone image in an HTML body, in order."""
    suffix = _zone_suffix(zone)
    beacons = []
    for url, host in _IMG_SRC_RE.findall(body):
        url = url.decode("ascii", errors="replace")
        host = normalize_name(host.decode("ascii")) if host else url_host(url)
        if host.endswith(suffix):
            beacons.append((url, host))
    return beacons


def client_process_response(
    state: _ClientState,
    body: bytes,
    now: float,
    resolver: WildcardResolver,
    fetch_log: list[FetchRecord] | SimulatedLog[FetchRecord],
    zone: str,
) -> None:
    """Resolve and fetch the beacon objects a browser would pull from a page.

    A name already in the client's DNS cache is not queried again; an URL
    already in the object cache is not fetched again. Queries land in the
    resolver's log, fetches in fetch_log. Clients configured to not
    download external objects never reach this point.
    """
    dns_cache = state.dns_cache
    object_cache = state.object_cache
    source = state.source
    for url, host in _beacons(body, zone):
        if host not in dns_cache:
            resolver.resolve(host, source, now)
            dns_cache.add(host)
        if url not in object_cache:
            fetch_log.append(_new_fetch(FetchRecord, (now, source, url)))
            object_cache.add(url)


# HttpExchange.method by the "encrypted" byte.
_METHODS = ("GET", "CONNECT")
# f"x{i:08d}" and f"fl{i:08d}" for an int i >= 0, as C-level calls
_exchange_id = "x%08d".__mod__
_flow_id = "fl%08d".__mod__


class _Columns(Sequence[T]):
    """A read-only sequence of records held as columns: record ``i`` is
    built from row ``i`` of the subclass's ``rows(start, stop)`` when it is
    read, so a read returns a fresh, equal object. It equals any sequence
    of equal records."""

    __slots__ = ()

    # The records of an iterable of rows, as a C-level map.
    _records: Callable[[Iterable[tuple]], Iterator[T]]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        index = range(len(self))[index]  # IndexError out of range
        return next(self._records(self.rows(index, index + 1)))

    def __iter__(self) -> Iterator[T]:
        return self._records(self.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def _cut(columns: tuple, start: int, stop: int | None) -> Sequence:
    """Each column's slice [start:stop]; the columns themselves when that
    is all of them, so that a whole read copies none."""
    return columns if start == 0 and stop is None else [column[start:stop] for column in columns]


@dataclass(eq=False, repr=False, slots=True)
class SimulatedExchanges(_Columns[HttpExchange]):
    """The exchanges of one simulation, in order, held as columns.

    The simulator numbers exchanges by position, so exchange ``i`` is
    ``HttpExchange(f"x{i:08d}", times[i], f"fl{i:08d}", method, urls[i],
    host_heads[hosts[i]] + ua_parts[i], 200, response_headers[i], body,
    encrypted)``, where ``encrypted[i]`` is 1 for a CONNECT and 0 for a GET.
    ``times`` is an array of C doubles. ``hosts`` holds a byte per
    exchange, an index into ``host_heads``: each host's ``(("Host",
    host),)``, and ``()`` for a CONNECT. ``ua_parts[i]`` is the client's
    shared ``(("User-Agent", ua),)``, or ``()`` for a CONNECT or a client
    without one. The URL and head columns hold references, which the
    simulation shares between exchanges. Every body is held in the one
    buffer ``bodies``: exchange ``i``'s is ``bodies[body_offsets[i]:
    body_offsets[i + 1]]``, and for a page ``tags`` lists, the page as the
    injector received it, spliced again with its dynamic label
    (Injector.spliced) when it is read. The simulation builds no record.
    ``rows()`` gives the rows themselves, which the exchange-log writer
    formats, so writing the log builds no record.
    """

    times: array[float]
    encrypted: bytearray
    urls: list[str]
    hosts: bytearray
    host_heads: Sequence[Headers]
    ua_parts: list[Headers]
    response_headers: list[Headers]
    bodies: bytearray
    body_offsets: array[int]
    tags: SimulatedTags
    _records = staticmethod(partial(starmap, HttpExchange))

    def __len__(self) -> int:
        return len(self.times)

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """Each exchange's row, in order: its HttpExchange fields, extra last;
        those of exchanges ``start`` to ``stop``. One map over the columns,
        with a Python frame for a tagged page's body only."""
        times, encrypted, urls, hosts, ua_parts, response_headers = _cut((
            self.times, self.encrypted, self.urls, self.hosts, self.ua_parts,
            self.response_headers,
        ), start, stop)
        positions = range(len(self.times))[start:stop]
        return zip(
            map(_exchange_id, positions), times, map(_flow_id, positions),
            map(_METHODS.__getitem__, encrypted), urls,
            map(add, map(self.host_heads.__getitem__, hosts), ua_parts), repeat(200),
            response_headers, self._bodies(positions.start, positions.stop),
            map(bool, encrypted), repeat(_NO_EXTRA),
        )

    def _bodies(self, start: int, stop: int) -> Iterator[bytes]:
        """The bodies of exchanges ``start`` to ``stop``, with a Python frame
        for a tagged page only. ``stored()`` gives the next body as it is
        held: bytes of a memoryview slice of the buffer, through one
        C-level map. A flag per exchange picks what gives its body:
        ``stored`` itself, or for a tagged page the map that takes the next
        stored body and splices it with the page's label."""
        stop = max(start, stop)
        tags = self.tags
        first, last = bisect_left(tags.positions, start), bisect_left(tags.positions, stop)
        tagged = bytearray(stop - start)  # 1 at each tagged page
        for position in tags.positions[first:last]:
            tagged[position - start] = 1
        view, offsets = memoryview(self.bodies), self.body_offsets
        slices = map(slice, offsets[start:stop], offsets[start + 1:stop + 1])
        stored = map(bytes, map(view.__getitem__, slices)).__next__
        # iter(stored, None) never stops: no body is None
        pages = map(tags.injector.spliced, iter(stored, None), tags.labels[first:last])
        return map(call, map((stored, pages.__next__).__getitem__, tagged))

    def body(self, i: int) -> bytes:
        """The body of exchange ``i`` (an int >= 0) as it was delivered. It
        reads no memoryview, so the buffer may still grow."""
        offsets = self.body_offsets
        body = self.bodies[offsets[i]:offsets[i + 1]]
        positions = self.tags.positions
        k = bisect_left(positions, i)
        if k < len(positions) and positions[k] == i:
            return self.tags.injector.spliced(body, self.tags.labels[k])
        return bytes(body)


@dataclass(eq=False, repr=False, slots=True)
class SimulatedTags(_Columns[Tag]):
    """The tags of one simulation, in order, held as columns.

    Injector.inject gives each page it tags two tags, which carry the
    page's exchange id and time: the static tag, then the dynamic one.
    Tagged page ``k`` is exchange ``p = positions[k]`` with dynamic label
    ``labels[k]``, so tag ``2k`` is ``Tag("static", injector.static_label,
    injector.static_url, f"x{p:08d}", times[p])`` and tag ``2k + 1`` is
    ``Tag("dynamic", labels[k], injector.beacon_url(labels[k]),
    f"x{p:08d}", times[p])``; ``times`` is the exchanges' time column.
    Each tag is built when it is read, as SimulatedExchanges builds its
    records. A row holds a Tag's ``fields``, in order.
    """

    positions: array[int]
    labels: list[str]
    times: array[float]
    injector: Injector
    fields = Tag._fields
    _records = staticmethod(partial(map, partial(tuple.__new__, Tag)))

    def __len__(self) -> int:
        return 2 * len(self.positions)

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """Each tag's fields, in order; those of tags ``start`` to ``stop``."""
        first = start // 2  # the first page that has one of the tags
        positions, labels = _cut(
            (self.positions, self.labels), first, None if stop is None else (stop + 1) // 2
        )
        injector = self.injector
        dynamic_url = injector.beacon_url("%s").__mod__  # a valid zone holds no "%"
        # each page's id and time, once for each of its two tags
        ids, at = tee(map(_exchange_id, positions)), tee(map(self.times.__getitem__, positions))
        static = zip(
            repeat(STATIC), repeat(injector.static_label), repeat(injector.static_url), ids[0], at[0]
        )
        dynamic = zip(repeat(DYNAMIC), labels, map(dynamic_url, labels), ids[1], at[1])
        return islice(
            chain.from_iterable(zip(static, dynamic)),
            start - 2 * first, None if stop is None else stop - 2 * first,
        )


class SimulatedLog(_Columns[T]):
    """A log of one NamedTuple type, held as its records' fields: ``values``
    holds each record's ``fields`` in turn, so record ``i`` is made of
    ``values[i * w:(i + 1) * w]`` for ``w = len(fields)``. ``append(record)``
    is the sink WildcardResolver and client_process_response append to; it
    keeps the fields and no record, and each record is built when it is
    read."""

    __slots__ = ("fields", "values", "_records")

    def __init__(self, record_type: type[T]):
        self.fields = record_type._fields
        self.values: list = []
        self._records = partial(map, partial(tuple.__new__, record_type))

    def append(self, record: T) -> None:
        self.values.extend(record)

    def __len__(self) -> int:
        return len(self.values) // len(self.fields)

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """Each record's fields, in order; those of records ``start`` to ``stop``."""
        width = len(self.fields)
        values = self.values
        if start or stop is not None:
            values = values[start * width:None if stop is None else stop * width]
        return zip(*[iter(values)] * width)  # the values ``width`` at a time


@dataclass
class SimulationResult:
    exchanges: Sequence[HttpExchange]
    tags: Sequence[Tag]
    dns_log: Sequence[DnsQueryRecord]
    fetch_log: Sequence[FetchRecord]
    ground_truth: dict
    config: ScenarioConfig


def _one_of(population: Sequence[T], weights: Iterable[float]) -> Callable[[random.Random], T]:
    """A draw of one item as ``rng.choices(population, weights)[0]`` draws it:
    the same one random() call, bisected into weights accumulated once.

    Raises choices' ValueError for a total that is not positive and finite.
    """
    cum_weights = list(accumulate(weights))
    total = cum_weights[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not math.isfinite(total):
        raise ValueError("Total of weights must be finite")
    hi = len(cum_weights) - 1
    return lambda rng: population[bisect(cum_weights, rng.random() * total, 0, hi)]


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """What ``rng.randrange(n)`` draws for an int n > 0, given
    ``rng.getrandbits``: as CPython's randrange draws it, n.bit_length()
    random bits, drawn again until they are below n; without randrange's
    argument checks, which cost more than the draw."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# Event codes: a client's start page, a restart, and a CONNECT; code
# _FIRST_MIME + n is a plain-HTTP visit of the scenario's n-th media type.
_HOME, _RESTART, _CONNECT, _FIRST_MIME = 0, 1, 2, 3


def _client_visits(
    rng: random.Random, config: ScenarioConfig, draw_code: Callable[[random.Random], int], html: int
) -> tuple[list[float], list[int]]:
    """Visit plan for one client: each visit's time and event code, _CONNECT
    for an encrypted visit, else a media type's code drawn by ``draw_code``.
    ``html`` is the code of text/html.

    The first visit (the start page, _HOME) must be plain-HTTP HTML for
    the feedback model to apply, so codes are swapped with a later visit
    rather than redrawn, keeping the overall marginals at the configured
    mix.
    """
    times = [0.0]
    if config.visit_rate > 0:
        t = 0.0
        while True:
            t += rng.expovariate(config.visit_rate)
            if t >= config.duration_seconds:
                break
            times.append(t)
    encrypted = [rng.random() >= config.http_share for _ in times]
    codes = [_CONNECT if enc else draw_code(rng) for enc in encrypted]
    if codes[0] == _CONNECT:
        for j in range(1, len(times)):
            if codes[j] != _CONNECT:
                codes[0], codes[j] = codes[j], codes[0]
                break
        else:
            codes[0] = draw_code(rng)
    if codes[0] != html:
        for j in range(1, len(times)):
            if codes[j] == html:
                codes[j] = codes[0]
                break
    codes[0] = _HOME
    return times, codes


_FILLER = b"abcdefghij nopqrs"
# byte b -> _FILLER[b % 17]: "a" gets 16 of the 256 byte values, the others 15
_TO_FILLER = (_FILLER * 16)[:256]


def _html_body(rng: random.Random) -> bytes:
    """A small page whose 40-399 filler characters come from _FILLER."""
    filler = rng.randbytes(40 + _below(rng.getrandbits, 360)).translate(_TO_FILLER)
    return (
        b"<html><head><title>page</title></head><body><h1>doc</h1><p>"
        + filler
        + b"</p></body></html>"
    )


def _placeholder_body(rng: random.Random) -> bytes:
    """16-127 random bytes standing in for a non-HTML body."""
    return rng.randbytes(16 + _below(rng.getrandbits, 112))


@collector_paused()
def run_scenario(config: ScenarioConfig) -> SimulationResult:
    """Run one scenario end to end through an active injector.

    Deterministic for a fixed config: identical runs produce identical
    logs. The oracle (which client saw what) goes only into ground_truth;
    no exchange names its client. Each plaintext response goes through
    Injector.inject once, as its head and body. The exchanges and tags are
    kept as columns and the DNS and fetch logs as their records' fields,
    so no record is kept; a tagged page is kept as the injector received
    it, with its dynamic label. Runs with the cyclic collector paused.
    """
    config.validate()
    rng = random.Random(config.seed)
    injector = Injector(zone=config.zone, static_label=config.static_label, seed=config.seed)
    resolver = WildcardResolver(config.zone_config(), SimulatedLog(DnsQueryRecord))
    fetch_log = SimulatedLog(FetchRecord)

    # mimes[code]: the media type of a plain-HTTP visit's event code
    mimes = ["text/html", None, None, *config.mime_mix]
    html = mimes.index("text/html", _FIRST_MIME) if "text/html" in config.mime_mix else -1
    if config.client_count:  # validate() leaves a total weight of 0 only without clients
        draw_spec = _one_of(config.ua_population, [spec.weight for spec in config.ua_population])
        draw_code = _one_of(range(_FIRST_MIME, len(mimes)), config.mime_mix.values())
    non_fetching = round(config.client_count * config.non_fetching_share)
    non_fetching_ids = set(rng.sample(range(config.client_count), non_fetching))
    fetching_ids = [i for i in range(config.client_count) if i not in non_fetching_ids]
    # one restart per client, clamped so degenerate populations still run
    restarted = rng.sample(fetching_ids, min(config.restart_count, len(fetching_ids)))
    restart_times = {
        i: (rng.uniform(0.3, 0.9) * config.duration_seconds,) for i in restarted
    }

    clients: list[_ClientState] = []
    # The event schedule as columns: each event's time, client and code,
    # appended client by client, each client's visits in order and its
    # restart last.
    event_times: array[float] = array("d")
    event_clients: array[int] = array("I")
    event_codes: array[int] = array("I")
    for i in range(config.client_count):
        spec = draw_spec(rng)
        state = _ClientState(
            client_id=f"c{i:05d}",
            source=f"10.{(i >> 8) & 0xFF}.{i & 0xFF}.1",
            user_agent=spec.user_agent,
            fetches_objects=i not in non_fetching_ids,
            restart_schedule=restart_times.get(i, ()),
        )
        clients.append(state)
        visit_rng = random.Random(rng.randrange(2**62))
        visit_times, codes = _client_visits(visit_rng, config, draw_code, html)
        event_times.extend(visit_times)
        event_times.extend(state.restart_schedule)
        event_codes.extend(codes)
        event_codes.extend(repeat(_RESTART, len(state.restart_schedule)))
        state.events_left = len(visit_times) + len(state.restart_schedule)
        event_clients.extend(repeat(i, state.events_left))

    body_rng = random.Random(config.seed ^ 0x5EED)
    draw_bits = body_rng.getrandbits
    sites = [f"site{n}.example" for n in range(40)]
    tunnel_urls = [f"https://{site}:443" for site in sites]
    # page_urls[site][page]: each page's URL, built at its first visit
    page_urls: list[list[str | None]] = [[None] * 500 for _ in sites]
    # Each distinct header pair, and each (Content-Type, Content-Length)
    # head, is built once and shared by every exchange that carries it.
    # host_heads[h]: the request head of host h, the home host first, then
    # each site's; the last, empty, is a CONNECT's.
    host_heads = (*((("Host", host),) for host in (HOME_HOST, *sites)), ())
    no_host = len(host_heads) - 1
    ua_parts_of = {spec.user_agent: (("User-Agent", spec.user_agent),) for spec in config.ua_population}
    ua_parts_of[""] = ()  # a client without one sends no User-Agent
    type_pairs = {mime: ("Content-Type", mime) for mime in (*config.mime_mix, HTML_CONTENT_TYPE)}
    length_pairs: dict[int, tuple[str, str]] = {}
    response_heads: dict[tuple[str, int], Headers] = {}
    # The columns of SimulatedExchanges: an exchange's position is its number.
    times: array[float] = array("d")
    encrypted = bytearray()
    urls: list[str] = []
    hosts = bytearray()
    ua_parts: list[Headers] = []
    response_columns: list[Headers] = []
    bodies = bytearray()
    body_offsets: array[int] = array("Q", (0,))
    # The columns of SimulatedTags: each tagged page's position and dynamic label.
    tag_positions: array[int] = array("I")
    tag_labels: list[str] = []
    tags = SimulatedTags(tag_positions, tag_labels, times, injector)
    exchanges = SimulatedExchanges(
        times, encrypted, urls, hosts, host_heads, ua_parts, response_columns, bodies, body_offsets,
        tags,
    )
    # Events in (time, client, visit order) order: the sort is stable, and
    # they were appended in client and visit order. The order is held as an
    # array, so that no int object per event is kept through the loop.
    for k in array("I", sorted(range(len(event_times)), key=event_times.__getitem__)):
        t = event_times[k]
        state = clients[event_clients[k]]
        code = event_codes[k]
        if code == _RESTART:
            state.restart()
            if state.fetches_objects and state.home_position is not None:
                client_process_response(
                    state, exchanges.body(state.home_position), t, resolver, fetch_log, config.zone
                )
        elif code == _CONNECT:  # one tunnel, with no headers or body
            times.append(t)
            encrypted.append(1)
            urls.append(tunnel_urls[_below(draw_bits, 40)])
            hosts.append(no_host)
            ua_parts.append(())
            response_columns.append(())
            body_offsets.append(len(bodies))
        else:
            if code == _HOME:
                host, url = 0, HOME_PAGE_URL
            else:
                site = _below(draw_bits, 40)
                host = site + 1
                page = _below(draw_bits, 500)
                url = page_urls[site][page]
                if url is None:
                    url = page_urls[site][page] = f"http://{sites[site]}/p{page}"
            mime = mimes[code]
            if mime == "text/html":
                state.tagged_pages += 1
                body = _html_body(body_rng)
                content_type = HTML_CONTENT_TYPE
            else:
                body = _placeholder_body(body_rng)
                content_type = mime
            size = len(body)
            response_headers = response_heads.get((content_type, size))
            if response_headers is None:
                length_pair = length_pairs.setdefault(size, ("Content-Length", str(size)))
                response_headers = response_heads[content_type, size] = (
                    type_pairs[content_type], length_pair
                )
            bodies += body  # a tagged page as the injector receives it
            body_offsets.append(len(bodies))
            # through the injector as the live proxy hands it a response
            response_headers, body, issued = injector.inject(
                response_headers, body, _exchange_id(len(times)), t
            )
            if issued:
                # the tagged head is the type pair and the new length's: an
                # equal head may be in the table already
                response_headers = response_heads.setdefault((content_type, len(body)), response_headers)
                _static, dynamic = issued
                tag_positions.append(len(times))
                tag_labels.append(dynamic.subdomain)
                if code == _HOME:
                    state.home_dynamic_subdomain = dynamic.subdomain
            times.append(t)
            encrypted.append(0)
            urls.append(url)
            hosts.append(host)
            ua_parts.append(ua_parts_of[state.user_agent])
            response_columns.append(response_headers)
            if code == _HOME:
                state.home_position = len(times) - 1
            # beacons are written only by the injector, into the pages it tags
            if issued and state.fetches_objects:
                client_process_response(state, body, t, resolver, fetch_log, config.zone)
        state.events_left -= 1
        if not state.events_left:  # no event reads the caches again
            state.dns_cache = state.object_cache = None

    ground_truth = {
        "unique_user_lifetimes": sum(c.lifetimes for c in clients if c.fetches_objects),
        "reappearance_subdomains": sorted(
            clients[i].home_dynamic_subdomain
            for i in restarted
            if clients[i].home_dynamic_subdomain is not None
        ),
        "taggable_responses": sum(c.tagged_pages for c in clients),
        "total_exchanges": len(times),
        "clients": [
            {
                "client_id": c.client_id,
                "source": c.source,
                "user_agent": c.user_agent,
                "fetches_objects": c.fetches_objects,
                "restart_times": list(c.restart_schedule),
                "home_dynamic_subdomain": c.home_dynamic_subdomain,
                "tagged_pages": c.tagged_pages,
            }
            for c in clients
        ],
    }
    return SimulationResult(
        exchanges=exchanges,
        tags=tags,
        dns_log=resolver.log,
        fetch_log=fetch_log,
        ground_truth=ground_truth,
        config=config,
    )


def calibrated_vuln_db():
    """Fixture vulnerability database matching the calibrated population."""
    from beaconlab.ua import VulnDb

    return VulnDb.from_pairs(
        [
            ("acmebrowser", "3.0", "3.9999"),
            ("legacyview", "1.0", "2.5"),
            ("oldengine", "500.0", "540.5"),
        ]
    )


def calibrated_ua_population(count: int) -> list[UaSpec]:
    """Population with the measured category proportions: roughly 62.5%
    matching the fixture database, 3.2% missing agent, 1.3% versionless,
    remainder versioned but unknown to the database."""
    n_missing = round(0.032 * count)
    n_noversion = round(0.013 * count)
    n_vuln = round(0.625 * count)
    n_nomatch = max(count - n_missing - n_noversion - n_vuln, 0)
    population = []
    for i in range(n_vuln):
        population.append(
            UaSpec(
                f"AcmeBrowser/3.{i % 900} (DeskOS {i % 7}.{i % 10}; renderkit {1 + i % 4}.{i % 9})",
                vulnerable=True,
            )
        )
    for i in range(n_nomatch):
        population.append(UaSpec(f"FreshBrowser/9.{i} (DeskOS; netlib 2.{i % 20})"))
    for i in range(n_noversion):
        population.append(UaSpec(f"PlainFetch{i}"))
    for _ in range(n_missing):
        population.append(UaSpec(""))
    return population


def calibrated_config(
    seed: int = 1,
    client_count: int = 200,
    duration_seconds: float = 3600.0,
    visit_rate: float = 0.01,
    non_fetching_share: float = 0.1,
    restart_count: int = 5,
) -> ScenarioConfig:
    """Scenario calibrated to the measured traffic mix and UA categories."""
    return ScenarioConfig(
        seed=seed,
        client_count=client_count,
        duration_seconds=duration_seconds,
        visit_rate=visit_rate,
        ua_population=calibrated_ua_population(max(client_count, 40)),
        non_fetching_share=non_fetching_share,
        restart_count=restart_count,
    )
