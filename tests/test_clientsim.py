import gc
import math
import random
import tracemalloc
from contextlib import contextmanager
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
from beaconlab.httplog import exchange_views, mime_distribution
from beaconlab.inject import Injector

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
        first = result.exchanges[0]
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
        result = run_scenario(small_config())
        fetching = {
            c["client_id"] for c in result.ground_truth["clients"] if c["fetches_objects"]
        }
        delivered_to_fetching = {
            e.exchange_id for e in result.exchanges if e.ground_truth_client in fetching
        }
        dynamic_to_fetching = {
            tag.subdomain
            for tag in result.tags
            if tag.kind == "dynamic" and tag.exchange_id in delivered_to_fetching
        }
        reappeared = set(result.ground_truth["reappearance_subdomains"])
        counts = {}
        for record in result.dns_log:
            label = record.name.split(".")[0]
            if label in dynamic_to_fetching:
                counts[label] = counts.get(label, 0) + 1
        assert set(counts) == dynamic_to_fetching
        for label, count in counts.items():
            assert count == (2 if label in reappeared else 1)

    def test_ground_truth_on_every_exchange(self):
        result = run_scenario(small_config())
        assert all(e.ground_truth_client is not None for e in result.exchanges)

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

            def inject(self, exchange):
                if self.is_taggable(exchange):
                    self.seen += 1
                    if self.seen % 2 == 0:
                        return exchange, []
                return super().inject(exchange)

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
    """What run_scenario keeps per exchange: slotted records that share
    every repeated header pair and page URL instead of building one per
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
        for values in ([e.request_headers[0] for e in plain], [e.url for e in plain]):
            assert len(values) > len(set(values)) > 1
        tagged = {tag.exchange_id for tag in result.tags}
        lengths = [e.response_headers[1] for e in plain if e.exchange_id in tagged]
        assert len(lengths) > len(set(lengths)) > 1

    def test_bytes_per_exchange(self):
        # With a __dict__ and an empty extra dict per exchange, fresh header
        # pairs and the event list kept to the end, this scenario (7,420
        # exchanges) retained 1,445 bytes per exchange and peaked at 1,622.
        # Lean records with the event list kept still peak at 1,194. With a
        # URL string per page visit, a Content-Length pair per tagged page, a
        # copy of each looked-up name and every browser's caches kept to the
        # end, it retained 986 and peaked at 1,068 (Python 3.11.7).
        config = calibrated_config(seed=3, client_count=200)
        tracemalloc.start()
        try:
            result = run_scenario(config)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        count = len(result.exchanges)
        assert retained / count <= 950
        assert peak / count <= 1000


class TestFetchLog:
    def test_round_trip(self, tmp_path):
        result = run_scenario(small_config())
        path = str(tmp_path / "fetches.csv")
        write_fetch_log(result.fetch_log, path)
        assert read_fetch_log(path) == result.fetch_log
