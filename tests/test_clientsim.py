import gc
import math
import random
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, replace
from itertools import accumulate

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconlab.clientsim import (
    ConfigError,
    ScenarioConfig,
    UaSpec,
    _ClientState,
    _beacons,
    _below,
    _html_body,
    _one_of,
    _placeholder_body,
    calibrated_config,
    calibrated_vuln_db,
    client_process_response,
    run_scenario,
    write_fetch_log,
    read_fetch_log,
)
from beaconlab.correlate import build_report, write_report
from beaconlab.dnssim import WildcardResolver, ZoneConfig, normalize_name, url_host
from beaconlab.httplog import (
    HttpExchange, exchange_views, mime_distribution, read_exchange_log, write_exchange_log
)
from beaconlab.inject import Injector, Tag

ZONE = "feedback.test"


def _cfg(base):
    return calibrated_config(
        seed=base["seed"],
        client_count=base["client_count"],
        duration_seconds=base["duration_seconds"],
        visit_rate=base["visit_rate"],
        non_fetching_share=base["non_fetching_share"],
        restart_count=base["restart_count"],
    )


def small_config(**overrides):
    base = dict(
        seed=11,
        client_count=20,
        duration_seconds=600.0,
        visit_rate=0.02,
        non_fetching_share=0.2,
        restart_count=2,
    )
    base.update(overrides)
    return _cfg(base)


def report_of(result):
    """The report analysis builds from a simulation's logs."""
    config = result.config
    return build_report(
        exchange_views(result.exchanges), result.tags, result.dns_log, result.fetch_log,
        calibrated_vuln_db(), config.static_label, config.zone,
    )


@pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
def collector(request):
    """Start the test with the cyclic collector enabled or disabled; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@contextmanager
def collections_started():
    """The generation of each collection that starts inside the block."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield started
    finally:
        gc.callbacks.remove(hook)


class TestCollectorPause:
    def test_state_restored(self, collector):
        run_scenario(small_config())
        assert gc.isenabled() is collector

    def test_state_restored_when_it_raises(self, collector):
        config = small_config()
        config.mime_mix = {"text/html": 0.5}
        with pytest.raises(ConfigError):
            run_scenario(config)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True], indirect=True)
    def test_no_collection_while_building(self, collector):
        # without the pause this scenario starts about 180 collections
        with collections_started() as started:
            run_scenario(calibrated_config(seed=3, client_count=300))
        assert started == []

    @pytest.mark.parametrize("collector", [True], indirect=True)
    def test_records_land_in_the_oldest_generation(self, collector):
        # a bare disable/enable leaves them young, for the next collections to rescan
        result = run_scenario(small_config())
        first = result.dns_log[0]  # a record the result holds; its tags are built on read
        assert any(obj is first for obj in gc.get_objects(generation=2))


class TestConfig:
    def test_mime_mix_must_sum_to_one(self):
        config = calibrated_config()
        config.mime_mix = {"text/html": 0.5}
        with pytest.raises(ConfigError):
            config.validate()

    def test_http_share_bounds(self):
        config = calibrated_config()
        config.http_share = 1.5
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize(
        "field, value, problem",
        [("zone", "bad zone!.", "invalid zone"), ("payload_address", "nope", "invalid payload")],
    )
    def test_zone_rule_is_the_resolvers(self, field, value, problem):
        config = calibrated_config()
        setattr(config, field, value)
        with pytest.raises(ConfigError, match=problem):
            config.validate()

    @pytest.mark.parametrize("field, value", [
        ("non_fetching_share", 1.5), ("non_fetching_share", math.nan), ("restart_count", -1),
    ])
    def test_share_or_count_out_of_range_is_refused_by_name(self, field, value):
        config = calibrated_config()
        setattr(config, field, value)
        with pytest.raises(ConfigError, match=f"^{field} must"):
            config.validate()

    def test_negative_counts(self):
        config = calibrated_config()
        config.client_count = -1
        with pytest.raises(ConfigError):
            run_scenario(config)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "scenario.json")
        config = calibrated_config(client_count=5)
        config.save(path)
        loaded = ScenarioConfig.load(path)
        assert loaded == config
        assert isinstance(loaded.ua_population[0], UaSpec)


class TestDeterminism:
    def test_same_seed_identical_streams(self):
        a = run_scenario(small_config())
        b = run_scenario(small_config())
        assert a.exchanges == b.exchanges
        assert a.tags == b.tags
        assert a.dns_log == b.dns_log
        assert a.fetch_log == b.fetch_log
        assert a.ground_truth == b.ground_truth

    def test_different_seed_differs(self):
        a = run_scenario(small_config())
        b = run_scenario(_cfg(dict(seed=12, client_count=20, duration_seconds=600.0,
                                   visit_rate=0.02, non_fetching_share=0.2, restart_count=2)))
        assert a.exchanges != b.exchanges

    def test_body_shapes(self):
        rng = random.Random(4)
        for _ in range(200):
            page = _html_body(rng)
            head, _, rest = page.partition(b"<body><h1>doc</h1><p>")
            filler, _, tail = rest.partition(b"</p>")
            assert head == b"<html><head><title>page</title></head>"
            assert tail == b"</body></html>"
            assert 40 <= len(filler) < 400
            assert set(filler) <= set(b"abcdefghij nopqrs")
            assert 16 <= len(_placeholder_body(rng)) < 128

    def test_bodies_reach_no_measurement(self, tmp_path, monkeypatch):
        # Page bodies are drawn only to be carried: other bodies, drawn
        # with other counts of draws, leave every log but the exchange
        # log and every analysis output as they were.
        def measure(name):
            result = run_scenario(small_config())
            out = tmp_path / name
            write_report(report_of(result), str(out))
            return result, {p.name: p.read_bytes() for p in out.iterdir()}

        shipped, shipped_outputs = measure("shipped")
        monkeypatch.setattr(
            "beaconlab.clientsim._html_body",
            lambda rng: b"<html><body>" + rng.randbytes(3).hex().encode() + b"</body></html>",
        )
        monkeypatch.setattr("beaconlab.clientsim._placeholder_body", lambda rng: b"\0" * 5)
        other, other_outputs = measure("other")
        assert other.exchanges != shipped.exchanges
        assert other.tags == shipped.tags
        assert other.dns_log == shipped.dns_log
        assert other.fetch_log == shipped.fetch_log
        assert other.ground_truth == shipped.ground_truth
        assert "report.json" in shipped_outputs
        assert other_outputs == shipped_outputs

    def test_one_of_draws_what_choices_draws(self):
        rng = random.Random(9)
        population = list(range(500))
        weights = [rng.choice((0.0, 0.25, 1.0, 7.0)) for _ in population]
        draw = _one_of(population, weights)
        ref, new = random.Random(10), random.Random(10)
        for _ in range(5_000):
            assert draw(new) == ref.choices(population, weights)[0]
        assert new.random() == ref.random()
        for bad in ([0.0, 0.0], [1.0, math.inf], [1.0, math.nan]):
            with pytest.raises(ValueError) as mine:
                _one_of("ab", bad)
            with pytest.raises(ValueError) as theirs:
                random.Random(1).choices("ab", bad)
            assert str(mine.value) == str(theirs.value)

    def test_below_draws_what_randrange_draws(self):
        # every bound the simulator draws below, powers of two and their
        # neighbours, and bounds far wider than one 32-bit word
        bounds = [40, 112, 360, 500, *range(1, 70), *(2**k + d for k in (8, 31, 32, 62) for d in (-1, 0, 1))]
        ref, new = random.Random(12), random.Random(12)
        for _ in range(50):
            for n in bounds:
                assert _below(new.getrandbits, n) == ref.randrange(n)
        assert new.random() == ref.random()

    def test_cum_weight_draws_equal_weight_draws(self):
        rng = random.Random(7)
        population = list(range(10_000))
        weights = [rng.choice((0.0, 0.5, 1.0, 3.0)) for _ in population]
        cum_weights = list(accumulate(weights))
        ref, new = random.Random(8), random.Random(8)
        for _ in range(2_000):
            assert (new.choices(population, cum_weights=cum_weights)
                    == ref.choices(population, weights=weights))
        assert new.random() == ref.random()


class TestCachingModel:
    def _fetching_client(self):
        return _ClientState(
            client_id="c1",
            source="10.0.0.1",
            user_agent="AcmeBrowser/3.1",
            fetches_objects=True,
            restart_schedule=(),
        )

    def _page(self, labels):
        imgs = "".join(
            f'<img src="http://{label}.{ZONE}/p.gif" width="1" height="1">' for label in labels
        )
        return f"<html><body>x{imgs}</body></html>".encode()

    def test_static_resolved_once_fetched_once(self):
        resolver = WildcardResolver(ZoneConfig(zone=ZONE, payload_address="192.0.2.1"))
        state = self._fetching_client()
        fetch_log = []
        client_process_response(state, self._page(["pixel"]), 1.0, resolver, fetch_log, ZONE)
        assert [r.name for r in resolver.log] == [f"pixel.{ZONE}"]
        client_process_response(state, self._page(["pixel"]), 2.0, resolver, fetch_log, ZONE)
        assert len(fetch_log) == 1  # second attempt served from the object cache
        assert len(resolver.log) == 1

    def test_restart_clears_caches(self):
        resolver = WildcardResolver(ZoneConfig(zone=ZONE, payload_address="192.0.2.1"))
        state = self._fetching_client()
        fetch_log = []
        client_process_response(state, self._page(["pixel"]), 1.0, resolver, fetch_log, ZONE)
        state.restart()
        client_process_response(state, self._page(["pixel"]), 2.0, resolver, fetch_log, ZONE)
        assert len(resolver.log) == 2

    def test_dynamic_name_queried_exactly_once(self):
        resolver = WildcardResolver(ZoneConfig(zone=ZONE, payload_address="192.0.2.1"))
        state = self._fetching_client()
        fetch_log = []
        client_process_response(
            state, self._page(["pixel", "d0001unique"]), 1.0, resolver, fetch_log, ZONE
        )
        assert [r.name for r in resolver.log] == [f"pixel.{ZONE}", f"d0001unique.{ZONE}"]
        assert [r.url for r in fetch_log] == [
            f"http://pixel.{ZONE}/p.gif", f"http://d0001unique.{ZONE}/p.gif"
        ]
        assert len([r for r in resolver.log if r.name.startswith("d0001unique")]) == 1

    def test_beacon_urls_only_attacker_zone(self):
        body = (
            b'<img src="http://cdn.example/x.png">'
            b'<img src="http://abc.feedback.test/p.gif">'
        )
        assert _beacons(body, ZONE) == [("http://abc.feedback.test/p.gif", "abc.feedback.test")]


# _beacons as it was before the image pattern sliced plain hosts itself:
# every URL through url_host.
_REF_IMG_SRC_RE = re.compile(rb'<img src="(http://[^"]+)"')


def _reference_beacons(body, zone):
    suffix = "." + normalize_name(zone)
    beacons = []
    for match in _REF_IMG_SRC_RE.finditer(body):
        url = match.group(1).decode("ascii", errors="replace")
        host = url_host(url)
        if host.endswith(suffix):
            beacons.append((url, host))
    return beacons


_SRC_PIECES = [
    b"http://", b"a", b"B", b".", b"feedback.test", b"FEEDBACK.TEST.", b"/p.gif", b"?", b"#", b"@",
    b":80", b"[", b"]", b"\\", b"\t", b"\n", b"%41", b" ", b"\xc3\xa9", b"\xff", b"\"", b">",
]
_src_st = st.lists(st.sampled_from(_SRC_PIECES), max_size=8).map(b"".join)
_page_st = st.lists(
    st.builds(lambda src: b'<img src="' + src + b'">', _src_st)
    | st.sampled_from([b"<img src=", b'<img src="http://', b"<p>", b'"'])
    | st.binary(max_size=6),
    max_size=6,
).map(b"".join)


def _outcome(beacons, body, zone):
    """What ``beacons`` returns, or the type of error it raises (urlsplit
    refuses some URLs)."""
    try:
        return beacons(body, zone)
    except ValueError as exc:
        return type(exc)


class TestBeaconsAgreeWithUrlHost:
    @settings(max_examples=400)
    @given(_page_st, st.sampled_from([ZONE, "Feedback.Test.", "test"]))
    def test_same_urls_and_hosts_as_the_reference(self, body, zone):
        assert _outcome(_beacons, body, zone) == _outcome(_reference_beacons, body, zone)

    @pytest.mark.parametrize("src", [
        b"http://A.Feedback.Test./p.gif", b"http://a.feedback.test", b"http://a.feedback.test?x",
        b"http://u@a.feedback.test/", b"http://a.feedback.test:80/", b"http://[::1]/",
        b"http://\xc3\xa9.feedback.test/", b"http://a.feedback.test/\xff", b"http:///p.gif",
        b"http://a.feedback.test\\x/", b"http://a.feedback.test\t/",
    ])
    def test_named_sources(self, src):
        body = b'<img src="' + src + b'">'
        assert _outcome(_beacons, body, ZONE) == _outcome(_reference_beacons, body, ZONE)


class TestScenario:
    def test_non_fetching_clients_silent(self):
        result = run_scenario(small_config())
        non_fetching = {
            c["source"] for c in result.ground_truth["clients"] if not c["fetches_objects"]
        }
        assert non_fetching
        assert all(record.source not in non_fetching for record in result.dns_log)
        assert all(record.source not in non_fetching for record in result.fetch_log)

    def test_all_non_fetching_means_no_feedback(self):
        config = _cfg(dict(seed=5, client_count=10, duration_seconds=300.0, visit_rate=0.02,
                           non_fetching_share=1.0, restart_count=0))
        result = run_scenario(config)
        assert result.dns_log == []
        assert result.fetch_log == []
        assert result.tags  # tags are still issued into delivered pages

    def test_static_query_bound_per_lifetime(self):
        result = run_scenario(small_config())
        static_name = f"pixel.{result.config.zone}"
        by_client = {c["source"]: c for c in result.ground_truth["clients"]}
        counts = {}
        for record in result.dns_log:
            if record.name == static_name:
                counts[record.source] = counts.get(record.source, 0) + 1
        for source, count in counts.items():
            lifetimes = 1 + len(by_client[source]["restart_times"])
            assert count <= lifetimes

    def test_dynamic_query_exactness_for_fetching_clients(self):
        # Attributed from the DNS log's sources and the oracle file alone:
        # each dynamic label is looked up from one source, twice only when
        # it reappeared, and a fetching client looks up one label per page
        # tagged for it.
        result = run_scenario(small_config())
        truth = result.ground_truth
        issued = {tag.subdomain for tag in result.tags if tag.kind == "dynamic"}
        sources: dict[str, list[str]] = {}  # dynamic label -> source of each lookup
        for record in result.dns_log:
            label = record.name.split(".")[0]
            if label != result.config.static_label:
                sources.setdefault(label, []).append(record.source)
        assert set(sources) <= issued
        reappeared = set(truth["reappearance_subdomains"])
        assert reappeared and reappeared <= set(sources)
        for label, looked_up_from in sources.items():
            assert len(set(looked_up_from)) == 1, label
            assert len(looked_up_from) == (2 if label in reappeared else 1), label
        labels_by_source = Counter(looked_up_from[0] for looked_up_from in sources.values())
        for client in truth["clients"]:
            expected = client["tagged_pages"] if client["fetches_objects"] else 0
            assert labels_by_source[client["source"]] == expected, client["client_id"]
        assert sum(c["tagged_pages"] for c in truth["clients"]) == truth["taggable_responses"]
        assert any(c["tagged_pages"] and not c["fetches_objects"] for c in truth["clients"])

    def test_mime_mix_recovered_within_two_percent(self):
        config = _cfg(dict(seed=9, client_count=50, duration_seconds=1000.0, visit_rate=0.2,
                           non_fetching_share=0.0, restart_count=0))
        result = run_scenario(config)
        dist = mime_distribution(exchange_views(result.exchanges))
        assert dist.total > 5000
        for mime, share in config.mime_mix.items():
            assert dist.percentage(mime) == pytest.approx(100 * share, abs=2.0)

    def test_http_share_respected(self):
        result = run_scenario(small_config())
        encrypted = sum(1 for e in result.exchanges if e.is_encrypted)
        assert encrypted / len(result.exchanges) == pytest.approx(0.04, abs=0.04)

    def test_taggable_count_catches_a_declining_injector(self, monkeypatch):
        # taggable_responses comes from the visit plan, not from the tags,
        # so an injector that skips pages no longer agrees with it.
        class Declining(Injector):
            seen = 0

            def inject(self, headers, body, exchange_id, timestamp):
                result = super().inject(headers, body, exchange_id, timestamp)
                if result[2]:
                    self.seen += 1
                    if self.seen % 2 == 0:
                        return headers, body, []
                return result

        shipped = run_scenario(small_config())
        taggable = shipped.ground_truth["taggable_responses"]
        assert report_of(shipped).accounting.dynamic_issued == taggable > 0
        monkeypatch.setattr("beaconlab.clientsim.Injector", Declining)
        declined = run_scenario(small_config())
        assert declined.ground_truth["taggable_responses"] == taggable
        assert report_of(declined).accounting.dynamic_issued == (taggable + 1) // 2

    def test_restart_count_reappearances(self):
        result = run_scenario(small_config())
        assert len(result.ground_truth["reappearance_subdomains"]) == 2

    def test_zero_clients(self):
        config = _cfg(dict(seed=1, client_count=0, duration_seconds=100.0, visit_rate=0.01,
                           non_fetching_share=0.0, restart_count=0))
        config.ua_population = []
        result = run_scenario(config)
        assert result.exchanges == [] and result.tags == []


class TestLeanRecords:
    """What run_scenario keeps per exchange: columns that share every
    repeated header pair and page URL instead of building one per
    exchange."""

    def test_exchanges_to_one_host_share_their_header_pairs(self):
        result = run_scenario(small_config())
        first: dict = {}
        plain = [e for e in result.exchanges if not e.is_encrypted]
        for exchange in plain:
            # Host, User-Agent, Content-Type and Content-Length, the
            # injector's on a tagged page; and the page URL
            for value in exchange.request_headers + exchange.response_headers + (exchange.url,):
                assert first.setdefault(value, value) is value
            # and each response head, a tagged page's too
            head = exchange.response_headers
            assert first.setdefault(head, head) is head
        for values in ([e.request_headers[0] for e in plain], [e.url for e in plain]):
            assert len(values) > len(set(values)) > 1
        tagged = {tag.exchange_id for tag in result.tags}
        lengths = [e.response_headers[1] for e in plain if e.exchange_id in tagged]
        assert len(lengths) > len(set(lengths)) > 1

    @pytest.mark.tracemalloc
    def test_bytes_per_exchange(self):
        # With a __dict__ and an empty extra dict per exchange, fresh header
        # pairs and the event list kept to the end, this scenario (7,420
        # exchanges) retained 1,445 bytes per exchange and peaked at 1,622.
        # Lean records with the event list kept still peak at 1,194. With a
        # URL string per page visit, a Content-Length pair per tagged page, a
        # copy of each looked-up name and every browser's caches kept to the
        # end, it retained 986 and peaked at 1,068 (Python 3.11.7). With one
        # HttpExchange kept per exchange it retained 938 and peaked at 985;
        # with the exchanges held as columns (SimulatedExchanges), 737 and 787.
        # With the tags, request heads and event schedule held as columns
        # too, and tagged pages' response heads shared, 549 and 621.
        config = calibrated_config(seed=3, client_count=200)
        tracemalloc.start()
        try:
            result = run_scenario(config)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        count = len(result.exchanges)
        assert retained / count <= 585
        assert peak / count <= 660


# test_cli's churn-shaped pinned scenario: 3,000 clients, 300 restarts.
CHURN_SHAPED = calibrated_config(
    seed=5, client_count=3000, duration_seconds=600, visit_rate=0.0005, restart_count=300
)


class TestSimulatedExchanges:
    """result.exchanges holds columns and builds each record when read."""

    def test_ids_come_from_position(self):
        exchanges = run_scenario(small_config()).exchanges
        assert [(e.exchange_id, e.flow_id) for e in exchanges] == [
            (f"x{i:08d}", f"fl{i:08d}") for i in range(len(exchanges))
        ]
        last = len(exchanges) - 1
        assert exchanges[last].exchange_id == f"x{last:08d}"

    def test_records_by_index_are_the_records_iterated(self):
        exchanges = run_scenario(small_config()).exchanges
        records = list(exchanges)
        assert [exchanges[i] for i in range(len(exchanges))] == records
        encrypted = [e for e in records if e.is_encrypted]
        assert encrypted and all(
            (e.method, e.request_headers, e.response_headers, e.response_body) == ("CONNECT", (), (), b"")
            for e in encrypted
        )
        assert all(e.method == "GET" and e.response_status == 200 for e in records if not e.is_encrypted)

    def test_no_record_is_built_until_one_is_read(self, monkeypatch):
        built = [0]
        real = HttpExchange.__post_init__

        def counting(exchange):
            built[0] += 1
            real(exchange)

        monkeypatch.setattr(HttpExchange, "__post_init__", counting)
        result = run_scenario(small_config())
        assert built[0] == 0
        records = list(result.exchanges)
        assert built[0] == len(records) == len(result.exchanges) > 0

    def test_writing_the_log_builds_no_record(self, tmp_path, monkeypatch):
        result = run_scenario(small_config())
        built = [0]
        real = HttpExchange.__post_init__

        def counting(exchange):
            built[0] += 1
            real(exchange)

        monkeypatch.setattr(HttpExchange, "__post_init__", counting)
        path = str(tmp_path / "exchanges.jsonl")
        write_exchange_log(result.exchanges, path)
        assert built[0] == 0
        # the count works: reading the log back builds one record per line
        assert len(read_exchange_log(path)) == built[0] > 0

    @pytest.mark.parametrize("config", [small_config(), CHURN_SHAPED], ids=["small", "churn"])
    def test_rows_write_the_bytes_the_records_write(self, tmp_path, config):
        exchanges = run_scenario(config).exchanges
        from_rows, from_records = tmp_path / "rows.jsonl", tmp_path / "records.jsonl"
        write_exchange_log(exchanges, str(from_rows))
        write_exchange_log(list(exchanges), str(from_records))
        assert from_rows.read_bytes() == from_records.read_bytes()
        assert list(exchanges.rows()) == [
            tuple(getattr(exchange, f.name) for f in fields(exchange)) for exchange in exchanges
        ]

    def test_negative_index_and_index_error(self):
        exchanges = run_scenario(small_config()).exchanges
        count = len(exchanges)
        assert exchanges[-1] == exchanges[count - 1]
        assert exchanges[-1].exchange_id == f"x{count - 1:08d}"
        assert exchanges[-count] == exchanges[0]
        for index in (count, -count - 1):
            with pytest.raises(IndexError):
                exchanges[index]

    def test_equality(self):
        a = run_scenario(small_config()).exchanges
        b = run_scenario(small_config()).exchanges
        assert a == b
        assert a == list(b) and list(b) == a
        assert a == tuple(b)
        records = list(a)
        assert a != records[:-1]
        records[3] = replace(records[3], url="http://other.example/")
        assert a != records and records != a
        assert a != 5

    @pytest.mark.parametrize("config", [small_config(), CHURN_SHAPED], ids=["small", "churn"])
    def test_log_round_trip(self, tmp_path, config):
        result = run_scenario(config)
        path = str(tmp_path / "exchanges.jsonl")
        write_exchange_log(result.exchanges, path)
        assert read_exchange_log(path) == list(result.exchanges)


class TestSimulatedTags:
    """result.tags holds each tagged page's position and dynamic label, and
    builds its two tags when read."""

    @pytest.mark.parametrize("config", [small_config(), CHURN_SHAPED], ids=["small", "churn"])
    def test_the_tags_the_injector_returned(self, monkeypatch, config):
        returned = []

        class Recording(Injector):
            def inject(self, headers, body, exchange_id, timestamp):
                result = super().inject(headers, body, exchange_id, timestamp)
                returned.extend(result[2])
                return result

        monkeypatch.setattr("beaconlab.clientsim.Injector", Recording)
        tags = run_scenario(config).tags
        assert returned and list(tags) == returned
        assert all(type(tag) is Tag for tag in tags)

    def test_reads_by_index_and_slice_are_the_tags_iterated(self):
        tags = run_scenario(small_config()).tags
        records = list(tags)
        count = len(records)
        assert len(tags) == count > 4
        assert [tags[i] for i in range(count)] == records
        assert [tags[i] for i in range(-count, 0)] == records
        for index in (
            slice(None), slice(1, None), slice(3, 8), slice(2, 9), slice(-5, -1),
            slice(None, None, 3), slice(None, None, -1), slice(5, 2), slice(count + 4, None),
        ):
            assert tags[index] == records[index]
        for start, stop in ((0, None), (1, 4), (3, 8), (2, 2), (count - 1, count)):
            assert list(tags.rows(start, stop)) == [tuple(tag) for tag in records[start:stop]]
        for index in (count, -count - 1):
            with pytest.raises(IndexError):
                tags[index]

    def test_equality(self):
        a = run_scenario(small_config()).tags
        assert a == run_scenario(small_config()).tags
        records = list(a)
        assert a == records and records == a
        assert a == tuple(records)
        assert a != records[:-1]
        records[3] = records[3]._replace(subdomain="other")
        assert a != records and records != a
        assert a != 5
        with pytest.raises(TypeError):
            a[0] = records[0]


class TestFetchLog:
    def test_round_trip(self, tmp_path):
        result = run_scenario(small_config())
        path = str(tmp_path / "fetches.csv")
        write_fetch_log(result.fetch_log, path)
        assert read_fetch_log(path) == result.fetch_log
