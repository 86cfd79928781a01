"""Deterministic seeded simulator of a browser population.

Generates the traffic crossing the interception point: per-client page
visits with a configurable media-type mix and HTTPS share, beacon fetches
with client-side DNS and object caching, and scripted restarts that clear
caches and reload the cached start page (which is how a previously issued
unique subdomain gets a second lookup). Everything is reproducible from
(config, seed), and the ground-truth file records what the correlator is
later expected to recover. A simulation's exchanges are held as columns
(SimulatedExchanges) and handed to the log writer as rows of those
columns, so neither the simulation nor the write builds a record.
"""

from __future__ import annotations

import json
import math
import random
import re
from array import array
from bisect import bisect
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import accumulate, repeat, starmap
from operator import eq
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from beaconlab.dnssim import (
    DnsQueryRecord, WildcardResolver, ZoneConfig, normalize_name, url_host
)
from beaconlab.httplog import (
    _NO_EXTRA, CsvLog, Headers, HttpExchange, collector_paused, finite_time, write_json
)
from beaconlab.inject import DEFAULT_STATIC_LABEL, DYNAMIC, Injector, Tag

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
    """One simulated browser. Caches are cleared at restart, the cached
    copy of the start page survives (it is what gets reloaded). After the
    browser's last event its caches are dropped (None)."""

    client_id: str
    source: str
    user_agent: str
    fetches_objects: bool
    restart_schedule: tuple[float, ...]
    dns_cache: set[str] | None = field(default_factory=set)
    object_cache: set[str] | None = field(default_factory=set)
    cached_home_body: bytes | None = None
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
    fetch_log: list[FetchRecord],
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


def _rows(positions, times, encrypted, urls, request_headers, response_headers, bodies):
    """The rows (HttpExchange's fields in order) of the exchanges at
    ``positions``, given their column values: one map over the columns,
    with no generator frame per row."""
    return zip(
        map(_exchange_id, positions), times, map(_flow_id, positions),
        map(_METHODS.__getitem__, encrypted), urls, request_headers, repeat(200),
        response_headers, bodies, map(bool, encrypted), repeat(_NO_EXTRA),
    )


class SimulatedExchanges(Sequence[HttpExchange]):
    """The exchanges of one simulation, in order, held as columns.

    The simulator numbers exchanges by position, so exchange ``i`` is
    ``HttpExchange(f"x{i:08d}", times[i], f"fl{i:08d}", method, urls[i],
    request_headers[i], 200, response_headers[i], bodies[i], encrypted)``,
    where ``encrypted[i]`` is 1 for a CONNECT and 0 for a GET. ``times`` is
    an array of C doubles; the other columns hold references to the URL,
    header tuples and body each record would hold, which the simulation
    shares between exchanges. The simulation builds no record: each is
    built from its row when it is read, so a read returns a fresh, equal
    object. ``rows()`` gives the rows themselves, which the exchange-log
    writer formats, so writing the log builds no record.

    A read-only sequence; it equals any sequence of equal exchanges.
    """

    __slots__ = ("times", "encrypted", "urls", "request_headers", "response_headers", "bodies")

    def __init__(
        self,
        times: array[float],
        encrypted: bytearray,
        urls: list[str],
        request_headers: list[Headers],
        response_headers: list[Headers],
        bodies: list[bytes],
    ):
        self.times = times
        self.encrypted = encrypted
        self.urls = urls
        self.request_headers = request_headers
        self.response_headers = response_headers
        self.bodies = bodies

    def __len__(self) -> int:
        return len(self.times)

    def rows(self) -> Iterator[tuple]:
        """Each exchange's row, in order: its HttpExchange fields, extra last."""
        return _rows(
            range(len(self.times)), self.times, self.encrypted, self.urls,
            self.request_headers, self.response_headers, self.bodies,
        )

    def __getitem__(self, index: int) -> HttpExchange:
        index = range(len(self.times))[index]  # IndexError out of range
        at = slice(index, index + 1)
        (row,) = _rows(
            range(index, index + 1), self.times[at], self.encrypted[at], self.urls[at],
            self.request_headers[at], self.response_headers[at], self.bodies[at],
        )
        return HttpExchange(*row)

    def __iter__(self) -> Iterator[HttpExchange]:
        return starmap(HttpExchange, self.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


@dataclass
class SimulationResult:
    exchanges: Sequence[HttpExchange]
    tags: list[Tag]
    dns_log: list[DnsQueryRecord]
    fetch_log: list[FetchRecord]
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


def _client_visits(
    rng: random.Random, config: ScenarioConfig, draw_mime: Callable[[random.Random], str]
) -> list[tuple[float, bool, str | None]]:
    """Visit plan for one client: (time, encrypted, mime or None).

    The first visit (the start page) must be plain-HTTP HTML for the
    feedback model to apply, so flags are swapped with a later visit
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
    chosen = [draw_mime(rng) if not enc else None for enc in encrypted]
    if encrypted[0]:
        for j in range(1, len(times)):
            if not encrypted[j]:
                encrypted[0], encrypted[j] = encrypted[j], encrypted[0]
                chosen[0], chosen[j] = chosen[j], chosen[0]
                break
        else:
            encrypted[0] = False
            chosen[0] = draw_mime(rng)
    if chosen[0] != "text/html":
        for j in range(1, len(times)):
            if chosen[j] == "text/html":
                chosen[0], chosen[j] = chosen[j], chosen[0]
                break
        else:
            chosen[0] = "text/html"
    return list(zip(times, encrypted, chosen))


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
    Injector.inject once, as its head and body; the exchanges are kept as
    columns, and no HttpExchange is built. Runs with the cyclic collector
    paused.
    """
    config.validate()
    rng = random.Random(config.seed)
    injector = Injector(zone=config.zone, static_label=config.static_label, seed=config.seed)
    resolver = WildcardResolver(config.zone_config())
    fetch_log: list[FetchRecord] = []
    tags: list[Tag] = []

    if config.client_count:  # validate() leaves a total weight of 0 only without clients
        draw_spec = _one_of(config.ua_population, [spec.weight for spec in config.ua_population])
        draw_mime = _one_of(list(config.mime_mix), config.mime_mix.values())
    non_fetching = round(config.client_count * config.non_fetching_share)
    non_fetching_ids = set(rng.sample(range(config.client_count), non_fetching))
    fetching_ids = [i for i in range(config.client_count) if i not in non_fetching_ids]
    # one restart per client, clamped so degenerate populations still run
    restarted = rng.sample(fetching_ids, min(config.restart_count, len(fetching_ids)))
    restart_times = {
        i: (rng.uniform(0.3, 0.9) * config.duration_seconds,) for i in restarted
    }

    clients: list[_ClientState] = []
    events: list[tuple[float, int, int, str, object]] = []
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
        visits = _client_visits(visit_rng, config, draw_mime)
        for seq, (t, enc, mime) in enumerate(visits):
            events.append((t, i, seq, "visit", (enc, mime)))
        for t in state.restart_schedule:
            events.append((t, i, 10**9, "restart", None))
        state.events_left = len(visits) + len(state.restart_schedule)
    # (time, client, seq) is unique, so the rest is never compared. Popped
    # from the end, in time order, so each event is released once handled.
    events.sort(reverse=True)

    body_rng = random.Random(config.seed ^ 0x5EED)
    draw_bits = body_rng.getrandbits
    sites = [f"site{n}.example" for n in range(40)]
    tunnel_urls = [f"https://{site}:443" for site in sites]
    # page_urls[site][page]: each page's URL, built at its first visit
    page_urls: list[list[str | None]] = [[None] * 500 for _ in sites]
    # Each distinct header pair, and each (Content-Type, Content-Length)
    # head, is built once and shared by every exchange that carries it.
    host_pairs = {host: ("Host", host) for host in (HOME_HOST, *sites)}
    ua_pairs = {spec.user_agent: ("User-Agent", spec.user_agent) for spec in config.ua_population}
    type_pairs = {mime: ("Content-Type", mime) for mime in (*config.mime_mix, HTML_CONTENT_TYPE)}
    length_pairs: dict[int, tuple[str, str]] = {}
    response_heads: dict[tuple[str, int], Headers] = {}
    # The columns of SimulatedExchanges: an exchange's position is its number.
    times: array[float] = array("d")
    encrypted = bytearray()
    urls: list[str] = []
    request_columns: list[Headers] = []
    response_columns: list[Headers] = []
    bodies: list[bytes] = []
    while events:
        t, i, _seq, kind, payload = events.pop()
        state = clients[i]
        if kind == "restart":
            state.restart()
            if state.fetches_objects and state.cached_home_body is not None:
                client_process_response(
                    state, state.cached_home_body, t, resolver, fetch_log, config.zone
                )
        elif payload[0]:  # encrypted: one CONNECT tunnel, with no headers or body
            times.append(t)
            encrypted.append(1)
            urls.append(tunnel_urls[_below(draw_bits, 40)])
            request_columns.append(())
            response_columns.append(())
            bodies.append(b"")
        else:
            mime = payload[1]
            is_home = _seq == 0
            if is_home:
                host, url = HOME_HOST, HOME_PAGE_URL
            else:
                site = _below(draw_bits, 40)
                host = sites[site]
                page = _below(draw_bits, 500)
                url = page_urls[site][page]
                if url is None:
                    url = page_urls[site][page] = f"http://{host}/p{page}"
            if mime == "text/html":
                state.tagged_pages += 1
                body = _html_body(body_rng)
                content_type = HTML_CONTENT_TYPE
            else:
                body = _placeholder_body(body_rng)
                content_type = mime
            host_pair = host_pairs[host]
            request_headers = (host_pair, ua_pairs[state.user_agent]) if state.user_agent else (host_pair,)
            size = len(body)
            response_headers = response_heads.get((content_type, size))
            if response_headers is None:
                length_pair = length_pairs.setdefault(size, ("Content-Length", str(size)))
                response_headers = response_heads[content_type, size] = (
                    type_pairs[content_type], length_pair
                )
            # through the injector as the live proxy hands it a response
            response_headers, body, issued = injector.inject(
                response_headers, body, _exchange_id(len(times)), t
            )
            times.append(t)
            encrypted.append(0)
            urls.append(url)
            request_columns.append(request_headers)
            response_columns.append(response_headers)
            bodies.append(body)
            tags.extend(issued)
            if is_home and state.cached_home_body is None:
                state.cached_home_body = body
                for tag in issued:
                    if tag.kind == DYNAMIC:
                        state.home_dynamic_subdomain = tag.subdomain
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
        exchanges=SimulatedExchanges(
            times, encrypted, urls, request_columns, response_columns, bodies
        ),
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
