import math
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconlab.httplog import LogFormatError
from beaconlab.ua import (
    MAX_WINDOWS,
    Reason,
    UaRecord,
    UndefinedRatioError,
    Verdict,
    VersionRange,
    VulnDb,
    _split_parens,
    classify,
    compare_versions,
    parse_user_agent,
    ratio_series,
    read_ua_log,
    unique_ua_growth,
    vulnerability_ratio,
    write_ua_log,
)

FIXTURE_DB = VulnDb.from_pairs([("examplebrowser", "1.0", "2.0")])

# The paren-fragment pattern parse_user_agent matched with before its scan
# was made linear; its lazy prefix backtracks quadratically.
OLD_PAREN_FRAGMENT_RE = re.compile(r"^(.*?[A-Za-z].*?)[\s/]+v?(\d[\d.]*)$")
# The group pattern it ran over the whole string, quadratic on unclosed "(".
OLD_PAREN_RE = re.compile(r"\(([^)]*)\)")


def int_compare_versions(a, b):
    """compare_versions as it was written with int(), for short versions."""

    def component(part):
        digits, rest = re.match(r"(\d*)(.*)", part).groups()
        return (int(digits) if digits else 0, rest)

    parts_a, parts_b = a.split("."), b.split(".")
    for i in range(max(len(parts_a), len(parts_b))):
        ca = component(parts_a[i]) if i < len(parts_a) else (0, "")
        cb = component(parts_b[i]) if i < len(parts_b) else (0, "")
        if ca != cb:
            return -1 if ca < cb else 1
    return 0


class TestParseUserAgent:
    def test_empty(self):
        assert parse_user_agent("") == ()

    def test_slash_token_and_paren_components(self):
        # hand-traced: slash token outside parens, versioned fragment inside,
        # versionless paren fragment dropped
        tokens = parse_user_agent("ExampleBrowser/2.0 (CoolOS; libfoo 1.2)")
        assert tokens == (("examplebrowser", "2.0"), ("libfoo", "1.2"))

    def test_versionless_bare_token(self):
        assert parse_user_agent("SoloBrowser") == (("solobrowser", None),)

    def test_multiple_slash_tokens(self):
        tokens = parse_user_agent("Alpha/1.0 Beta/2.3.4")
        assert tokens == (("alpha", "1.0"), ("beta", "2.3.4"))

    def test_multiword_paren_name(self):
        tokens = parse_user_agent("Thing/5 (Desk OS 6.1; rv 1.9)")
        assert ("desk os", "6.1") in tokens
        assert ("rv", "1.9") in tokens

    def test_deterministic(self):
        raw = "Mixed/3.1 (a; b 2.0) Tail"
        assert parse_user_agent(raw) == parse_user_agent(raw)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="aZv/ \t\n.019\u0663x", max_size=14))
    def test_paren_fragment_as_the_backtracking_regex(self, fragment):
        fragment = fragment.strip()
        match = OLD_PAREN_FRAGMENT_RE.match(fragment)
        expected = () if not match else ((" ".join(match.group(1).lower().split()), match.group(2)),)
        assert parse_user_agent(f"({fragment})") == expected

    def test_long_paren_fragment_parses_in_linear_time(self):
        raw = "X/1 (a" + " v1" * 20_000 + ")"  # 60 kB in one fragment
        started = time.perf_counter()
        tokens = parse_user_agent(raw)
        assert time.perf_counter() - started < 0.5
        assert tokens == (("x", "1"), ("a" + " v1" * 19_999, "1"))


    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="(); a/1", max_size=24))
    def test_paren_split_as_the_whole_string_regex(self, raw):
        assert _split_parens(raw) == (OLD_PAREN_RE.findall(raw), OLD_PAREN_RE.sub(" ", raw))

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("(" * 60_000, ()),
            ("X/1 (a) " + "(" * 60_000, (("x", "1"),)),
            ("(" * 30_000 + ")" + "(" * 30_000, ()),
        ],
        ids=["unclosed", "after_a_group", "around_a_close"],
    )
    def test_unclosed_parens_parse_in_linear_time(self, raw, expected):
        started = time.perf_counter()
        tokens = parse_user_agent(raw)
        assert time.perf_counter() - started < 0.5
        assert tokens == expected


class TestCompareVersions:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("1.0", "2.0", -1),
            ("2.0", "2.0", 0),
            ("2.0", "2.0.0", 0),  # missing components are zero
            ("2.10", "2.9", 1),  # numeric, not lexicographic
            ("1.0a", "1.0b", -1),  # suffix falls back to lexicographic
            ("1.0", "1.0a", -1),
            ("10", "9", 1),
        ],
    )
    def test_pairs(self, a, b, expected):
        assert compare_versions(a, b) == expected
        assert compare_versions(b, a) == -expected

    @settings(max_examples=500, deadline=None)
    @given(
        st.text(alphabet="0129.ab\u0663\u0660\n", max_size=8),
        st.text(alphabet="0129.ab\u0663\u0660\n", max_size=8),
    )
    def test_orders_as_int_of_the_numeric_prefix(self, a, b):
        assert compare_versions(a, b) == int_compare_versions(a, b)

    def test_versions_longer_than_int_accepts(self):
        huge = "1" * 5_000
        assert compare_versions(huge, "2") == 1
        assert compare_versions("0" + huge + "rc", huge + "rc") == 0
        assert compare_versions(huge, huge + ".1") == -1
        assert classify(f"ExampleBrowser/{huge}", FIXTURE_DB).reason is Reason.NO_DB_MATCH

    def test_range_rejects_inverted(self):
        with pytest.raises(ValueError):
            VersionRange("2.0", "1.0")

    def test_open_ends(self):
        assert VersionRange(None, "2.0").contains("0.1")
        assert VersionRange("1.0", None).contains("99")
        assert not VersionRange("1.0", "2.0").contains("2.1")

    @pytest.mark.parametrize(
        "version,above_min,below_max",
        [
            ("0.9", False, True), ("0.9.9", False, True),  # just below 1.0
            ("1.0", True, True), ("1.0.0", True, True),  # at 1.0
            ("1.0.1", True, True), ("1.9.9", True, True),  # just above 1.0, below 2.0
            ("2.0", True, True), ("2.0.0", True, True),  # at 2.0
            ("2.0.1", True, False), ("2.1", True, False),  # just above 2.0
        ],
    )
    def test_both_bounds_are_closed(self, version, above_min, below_max):
        assert VersionRange("1.0", None).contains(version) is above_min
        assert VersionRange(None, "2.0").contains(version) is below_max
        assert VersionRange("1.0", "2.0").contains(version) is (above_min and below_max)


class TestClassify:
    def test_missing_agent(self):
        record = UaRecord("", 0.0)
        result = classify(record.raw, FIXTURE_DB)
        assert result.verdict is Verdict.NOT_VULNERABLE
        assert result.reason is Reason.MISSING_AGENT

    def test_match_inside_range(self):
        record = UaRecord("ExampleBrowser/1.5", 0.0)
        result = classify(record.raw, FIXTURE_DB)
        assert result.verdict is Verdict.VULNERABLE
        assert result.reason is Reason.MATCHED_ENTRY

    def test_versioned_no_db_entry(self):
        record = UaRecord("OtherThing/9.9", 0.0)
        result = classify(record.raw, FIXTURE_DB)
        assert result.verdict is Verdict.NOT_VULNERABLE
        assert result.reason is Reason.NO_DB_MATCH

    def test_versionless_tokens(self):
        record = UaRecord("SoloBrowser", 0.0)
        result = classify(record.raw, FIXTURE_DB)
        assert result.verdict is Verdict.NOT_VULNERABLE
        assert result.reason is Reason.NO_VERSION

    def test_any_match_suffices(self):
        record = UaRecord("Unknown/9.9 ExampleBrowser/1.2", 0.0)
        assert classify(record.raw, FIXTURE_DB).verdict is Verdict.VULNERABLE

    def test_pure_function(self):
        record = UaRecord("ExampleBrowser/1.5", 0.0)
        assert classify(record.raw, FIXTURE_DB) == classify(record.raw, FIXTURE_DB)


class TestVulnerabilityRatio:
    def test_all_vulnerable(self):
        assert vulnerability_ratio(10, 0) == 1.0

    def test_none_vulnerable(self):
        assert vulnerability_ratio(0, 10) == 0.0

    def test_reported_population(self):
        assert vulnerability_ratio(3106, 4973 - 3106) == pytest.approx(0.6246, abs=5e-4)

    def test_zero_denominator_is_an_error(self):
        with pytest.raises(UndefinedRatioError):
            vulnerability_ratio(0, 0)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_complement_sums_to_one(self, v, v_bar):
        if v + v_bar == 0:
            return
        assert vulnerability_ratio(v, v_bar) + vulnerability_ratio(v_bar, v) == pytest.approx(1.0)
        assert 0.0 <= vulnerability_ratio(v, v_bar) <= 1.0


def brute_force_series(records, db, window_seconds):
    """Independent oracle: group by window, classify per unique raw, count."""
    if not records:
        return []
    first = min(r.first_seen for r in records)
    last = max(r.first_seen for r in records)
    start = (first // window_seconds) * window_seconds
    points = []
    while start <= last:
        raws = {r.raw for r in records if start <= r.first_seen < start + window_seconds}
        v = sum(
            1
            for raw in raws
            if classify(raw, db).verdict is Verdict.VULNERABLE
        )
        points.append((start, v, len(raws) - v))
        start += window_seconds
    return points


class TestRatioSeries:
    def test_empty_input(self):
        assert ratio_series([], FIXTURE_DB, 900).points == ()

    def test_single_window_one_vulnerable(self):
        records = [UaRecord("ExampleBrowser/1.5", 10.0)]
        series = ratio_series(records, FIXTURE_DB, 900)
        assert len(series.points) == 1
        assert series.points[0].ratio == 1.0

    def test_two_window_hand_fixture(self):
        # window [0, 100): vuln {eb/1.5}, not {solo}; window [100, 200): not {other/3}
        records = [
            UaRecord("ExampleBrowser/1.5", 10.0),
            UaRecord("ExampleBrowser/1.5", 20.0),  # duplicate, same window
            UaRecord("SoloBrowser", 50.0),
            UaRecord("Other/3", 150.0),
        ]
        series = ratio_series(records, FIXTURE_DB, 100)
        assert [(p.vulnerable, p.not_vulnerable) for p in series.points] == [(1, 1), (0, 1)]
        assert series.points[0].ratio == pytest.approx(0.5)

    def test_windows_contiguous(self):
        records = [UaRecord("A/1", 0.0), UaRecord("B/1", 2500.0)]
        series = ratio_series(records, FIXTURE_DB, 900)
        starts = [p.window_start for p in series.points]
        assert starts == [0.0, 900.0, 1800.0]

    def test_matches_brute_force_on_large_random_input(self):
        rng = random.Random(42)
        raws = (
            [f"ExampleBrowser/1.{i}" for i in range(50)]
            + [f"Other/{i}.0" for i in range(40)]
            + ["SoloBrowser", ""]
        )
        records = [
            UaRecord(rng.choice(raws), rng.uniform(0, 9000)) for _ in range(10_000)
        ]
        series = ratio_series(records, FIXTURE_DB, 900)
        expected = brute_force_series(records, FIXTURE_DB, 900)
        assert [(p.window_start, p.vulnerable, p.not_vulnerable) for p in series.points] == expected


def brute_force_windows(records, window_seconds):
    """Independent oracle: window k holds the records with int(t // w) == k."""
    indices = [int(r.first_seen // window_seconds) for r in records]
    return [
        (k, {r.raw for r, i in zip(records, indices) if i == k})
        for k in range(min(indices), max(indices) + 1)
    ]


class TestFractionalWindows:
    @pytest.fixture(params=[0.1, 0.7, 7.3])
    def window(self, request):
        return request.param

    @pytest.fixture()
    def records(self, window):
        rng = random.Random(7)
        raws = ["ExampleBrowser/1.5", "ExampleBrowser/3.0", "Other/2.0", "SoloBrowser", ""]
        stamps = [rng.uniform(1.0, 60.0) for _ in range(400)]
        stamps += [k * window for k in range(3, 40, 4)]  # on window boundaries
        return [UaRecord(rng.choice(raws), t) for t in stamps]

    def test_ratio_series_matches_brute_force(self, records, window):
        series = ratio_series(records, FIXTURE_DB, window)
        expected = []
        for k, raws in brute_force_windows(records, window):
            v = sum(
                1
                for raw in raws
                if classify(raw, FIXTURE_DB).verdict is Verdict.VULNERABLE
            )
            expected.append((k * window, v, len(raws) - v))
        assert [(p.window_start, p.vulnerable, p.not_vulnerable) for p in series.points] == expected

    def test_growth_matches_brute_force(self, records, window):
        seen = set()
        expected = []
        for k, raws in brute_force_windows(records, window):
            seen |= raws
            expected.append((k * window, len(seen)))
        growth = unique_ua_growth(records, window)
        assert growth == expected
        assert growth[-1][1] == len({r.raw for r in records})

    # inf and nan index nothing; 1e-300 spans 1e300 windows; 1.0 // 5e-324 overflows
    @pytest.mark.parametrize("window", [0.0, -1.0, math.inf, math.nan, 1e-300, 5e-324])
    def test_non_positive_window_rejected(self, window):
        records = [UaRecord("A/1", 1.0), UaRecord("A/1", 2.0)]
        with pytest.raises(ValueError, match="window"):
            ratio_series(records, FIXTURE_DB, window)
        with pytest.raises(ValueError, match="window"):
            unique_ua_growth(records, window)

    def test_window_count_cap(self):
        first = UaRecord("A/1", 0.5)
        at_cap = unique_ua_growth([first, UaRecord("A/1", MAX_WINDOWS - 0.5)], 1.0)
        assert len(at_cap) == MAX_WINDOWS
        with pytest.raises(ValueError, match=f"more than {MAX_WINDOWS} windows"):
            unique_ua_growth([first, UaRecord("A/1", MAX_WINDOWS + 0.5)], 1.0)


class TestUniqueUaGrowth:
    def test_hand_fixture(self):
        records = [
            UaRecord("a", 0.0),
            UaRecord("b", 10.0),
            UaRecord("a", 120.0),
            UaRecord("c", 150.0),
        ]
        growth = unique_ua_growth(records, 100)
        assert [count for _, count in growth] == [2, 3]

    def test_empty(self):
        assert unique_ua_growth([], 100) == []

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.floats(0, 5000, allow_nan=False)),
            max_size=60,
        )
    )
    def test_monotone_nondecreasing(self, pairs):
        records = [UaRecord(raw, ts) for raw, ts in pairs]
        growth = unique_ua_growth(records, 500)
        counts = [count for _, count in growth]
        assert counts == sorted(counts)


class TestFileFormats:
    def test_db_round_trip(self, tmp_path):
        path = str(tmp_path / "db.csv")
        db = VulnDb.from_pairs(
            [("examplebrowser", "1.0", "2.0"), ("openlow", None, "3.0"), ("openhigh", "4.0", None)]
        )
        db.save(path)
        assert VulnDb.load(path) == db

    def test_ua_log_round_trip(self, tmp_path):
        path = str(tmp_path / "ua.csv")
        records = [
            UaRecord("ExampleBrowser/1.5 (a; b 2.0)", 1.5),
            UaRecord("with,comma/1.0", 2.0),
            UaRecord("", 3.0),
        ]
        write_ua_log(records, path)
        assert read_ua_log(path) == records

    # (database body, line of the bad row)
    BAD_DBS = {
        "too_few_columns": ("product,min_version,max_version\nacme,1.0\n", 2),
        "too_many_columns": ("product,min_version,max_version\nacme,1,2\nb,1,2,3\n", 3),
        "min_above_max": ("product,min_version,max_version\nacme,3.0,2.0\n", 2),
        "empty_product": ("product,min_version,max_version\n\nok,1,2\n ,1.0,2.0\n", 4),
        "swapped_header": ("min_version,product,max_version\n1.0,acme,2.0\n", 1),
    }

    @pytest.mark.parametrize("name", BAD_DBS)
    def test_bad_db_row_names_its_line(self, tmp_path, name):
        text, line = self.BAD_DBS[name]
        path = str(tmp_path / "db.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(LogFormatError) as excinfo:
            VulnDb.load(path)
        assert excinfo.value.line_no == line
        assert str(excinfo.value).startswith(f"{path}:{line}: ")

    def test_zero_byte_db_names_the_file(self, tmp_path):
        path = str(tmp_path / "db.csv")
        open(path, "w").close()
        with pytest.raises(LogFormatError) as excinfo:
            VulnDb.load(path)
        assert path in str(excinfo.value)

    def test_header_only_db_is_empty(self, tmp_path):
        path = str(tmp_path / "db.csv")
        VulnDb(entries=()).save(path)
        assert VulnDb.load(path) == VulnDb(entries=())
