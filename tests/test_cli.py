import csv
import dataclasses
import hashlib
import json
import os
import socket

import pytest

from beaconlab import cli
from beaconlab.clientsim import calibrated_config, calibrated_vuln_db, run_scenario, write_fetch_log
from beaconlab.dnssim import write_query_log
from beaconlab.httplog import read_exchange_log, write_exchange_log, write_json
from beaconlab.inject import write_tag_log
from tests.test_clientsim import small_config
from tests.test_injector import HTML, make_exchange


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def scenario_file(tmp_path):
    path = str(tmp_path / "scenario.json")
    small_config().save(path)
    return path


@pytest.fixture()
def sim_dir(tmp_path, scenario_file):
    out = str(tmp_path / "sim")
    assert run("simulate", "--config", scenario_file, "--out", out) == 0
    return out


def _dir_digest(path, skip=("manifest.json",)):
    digest = {}
    for name in sorted(os.listdir(path)):
        if name in skip:
            continue
        with open(os.path.join(path, name), "rb") as fh:
            digest[name] = fh.read()
    return digest


class TestSimulate:
    def test_outputs_present(self, sim_dir):
        expected = {
            "exchanges.jsonl",
            "tags.csv",
            "dns_queries.csv",
            "fetches.csv",
            "ground_truth.json",
            "scenario_config.json",
            "manifest.json",
        }
        assert expected <= set(os.listdir(sim_dir))

    def test_deterministic_across_runs(self, tmp_path, scenario_file):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run("simulate", "--config", scenario_file, "--out", out_a) == 0
        assert run("simulate", "--config", scenario_file, "--out", out_b) == 0
        assert _dir_digest(out_a) == _dir_digest(out_b)

    def test_zero_clients_succeeds_with_empty_logs(self, tmp_path, scenario_file):
        out = str(tmp_path / "empty")
        assert run(
            "simulate", "--config", scenario_file, "--client-count", "0", "--out", out
        ) == 0
        assert read_exchange_log(os.path.join(out, "exchanges.jsonl")) == []

    def test_invalid_config_is_a_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        config = calibrated_config()
        config.http_share = 42.0
        config.save(str(bad))
        assert run("simulate", "--config", str(bad), "--out", str(tmp_path / "x")) == 2

    # sha256 of each log simulate writes for small_config(); a change to any
    # log's layout or to the simulator's output shows here.
    PINNED_LOGS = {
        "exchanges.jsonl": "acf52cb82abf6a73c0ad08ff7efcb614ff765a47c72beb0a966788a5fa7a5491",
        "tags.csv": "63a292ce67c386c8bcb91f292d145e0075d99a311c04f530a60652e6d787d5ea",
        "dns_queries.csv": "86541bc5901935232ff00b962648144c07cbdcf3cee98458c408a09a04ab7741",
        "fetches.csv": "b1a54f86c51792d52f2a8aa2e62537c2c6398127b43e6d30ece1f8a59623ba7d",
        "ground_truth.json": "35a45d37c3ef37264d0822e9ceb5bf61d970e6be7820bb69a581c7818761f0c7",
        "scenario_config.json": "666396bf5b1417ab78f118890b592826c6f365b2a08eced8aa0c2170b86914ce",
    }

    def test_logs_are_byte_stable(self, sim_dir):
        for name, digest in self.PINNED_LOGS.items():
            with open(os.path.join(sim_dir, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name

    # The same for a churn-shaped scenario: 3,000 clients drawn from a
    # 3,000-entry weighted UA population, 300 restarts.
    PINNED_CHURN_LOGS = {
        "exchanges.jsonl": "83d257c47326d15e2127614cc65c65b418b69e784a7fdaa6dc576fc4f5382a64",
        "tags.csv": "a055a2c2ca593c9ba807c39d025de7ff47f1588542886f71eca1246b8f4528bc",
        "dns_queries.csv": "15f70f31479aee7942615636f24d95b0fb79354d3489bd1574684dd1840b0c34",
        "fetches.csv": "8a30384ccf1931ba078b4e3b6423cc7710ff499884959ab6a95cd43bbefe9c66",
        "ground_truth.json": "a89f4d139055603f7dd8d26f0461fb14437d0914ce10982e595dec4261f5561f",
        "scenario_config.json": "4e0d9fc5536634273faed7487e7c97b7288832540a7ff745eef849c0dbbe5541",
    }

    def test_churn_logs_are_byte_stable(self, tmp_path):
        config_path = str(tmp_path / "churn.json")
        calibrated_config(
            seed=5, client_count=3000, duration_seconds=600, visit_rate=0.0005, restart_count=300
        ).save(config_path)
        out = str(tmp_path / "churn")
        assert run("simulate", "--config", config_path, "--out", out) == 0
        for name, digest in self.PINNED_CHURN_LOGS.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name

    def test_manifest_counts_and_stage_seconds(self, sim_dir):
        with open(os.path.join(sim_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(sim_dir, "dns_queries.csv"), encoding="utf-8") as fh:
            assert manifest["dns_queries"] == len(fh.read().splitlines()) - 1
        with open(os.path.join(sim_dir, "fetches.csv"), encoding="utf-8") as fh:
            assert manifest["fetches"] == len(fh.read().splitlines()) - 1
        assert manifest["fetches"] > 0
        stages = manifest["stage_seconds"]
        assert set(stages) == {"run_scenario", "write_logs"}
        assert all(isinstance(s, float) and s >= 0 for s in stages.values())

    def test_flags_without_config_build_the_calibrated_scenario(self, tmp_path):
        out = str(tmp_path / "cli")
        assert run(
            "simulate", "--seed", "9", "--client-count", "60", "--duration", "300", "--out", out
        ) == 0
        config = calibrated_config(seed=9, client_count=60, duration_seconds=300.0)
        result = run_scenario(config)
        ref = tmp_path / "ref"
        ref.mkdir()
        write_exchange_log(result.exchanges, str(ref / "exchanges.jsonl"))
        write_tag_log(result.tags, str(ref / "tags.csv"))
        write_query_log(result.dns_log, str(ref / "dns_queries.csv"))
        write_fetch_log(result.fetch_log, str(ref / "fetches.csv"))
        write_json(result.ground_truth, str(ref / "ground_truth.json"))
        config.save(str(ref / "scenario_config.json"))
        assert _dir_digest(out) == _dir_digest(str(ref))

    def test_seed_flag_overrides(self, tmp_path, scenario_file):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run("simulate", "--config", scenario_file, "--seed", "7", "--out", out_a)
        run("simulate", "--config", scenario_file, "--seed", "8", "--out", out_b)
        assert _dir_digest(out_a) != _dir_digest(out_b)


# Malformed scenario files, each refused with the file named and exit 2.
MALFORMED_SCENARIOS = {
    "nested_too_deep": "[" * 100_000 + "]" * 100_000,
    "unknown_key": json.dumps({"seed": 1, "clients": 5}),
    "top_level_list": json.dumps([{"seed": 1}]),
    "ua_entry_not_an_object": json.dumps({"ua_population": ["AcmeBrowser/3.1"]}),
    "client_count_string": json.dumps({"client_count": "5"}),
}


class TestMalformedScenario:
    @pytest.mark.parametrize("text", MALFORMED_SCENARIOS.values(), ids=MALFORMED_SCENARIOS.keys())
    def test_simulate_names_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["duration_seconds", "visit_rate"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_time_is_refused(self, tmp_path, capsys, field, value):
        path = tmp_path / "scenario.json"
        path.write_text(f'{{"client_count": 2, "{field}": {value}}}', encoding="utf-8")
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert f"{field} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("mime_mix", '{"text/html": NaN}'),
        ("mime_mix", '{"text/html": 1.0, "image/png": NaN}'),
        ("mime_mix", '{"text/html": Infinity, "image/png": NaN}'),
        ("ua_population", '[{"user_agent": "A/1", "weight": NaN}]'),
        ("ua_population", '[{"user_agent": "A/1", "weight": Infinity}]'),
        ("ua_population", '[{"user_agent": "A/1", "weight": 0}, {"user_agent": "B/2", "weight": 0}]'),
        ("ua_population", '[{"user_agent": "A/1", "weight": 1e308}, {"user_agent": "B/2", "weight": 1e308}]'),
    ], ids=["mime_nan", "mime_nan_beside_one", "mime_nan_and_infinity", "ua_nan", "ua_infinity",
            "ua_all_zero", "ua_total_overflows"])
    def test_weights_that_cannot_be_drawn_are_refused(self, tmp_path, capsys, field, value):
        path = tmp_path / "scenario.json"
        path.write_text(f'{{"client_count": 2, "{field}": {value}}}', encoding="utf-8")
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: {path}: {field} ")
        assert "Traceback" not in err

    def test_flag_set_over_the_file_is_refused_naming_the_file(self, tmp_path, capsys, scenario_file):
        out = str(tmp_path / "out")
        assert run("simulate", "--config", scenario_file, "--duration", "nan", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == (
            f"invalid configuration: {scenario_file}: duration_seconds must be a finite number >= 0\n"
        )
        assert not os.path.exists(out)

    @pytest.mark.parametrize("text", MALFORMED_SCENARIOS.values(), ids=MALFORMED_SCENARIOS.keys())
    def test_analyze_names_the_file(self, tmp_path, sim_dir, capsys, text):
        path = os.path.join(sim_dir, "scenario_config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert run("analyze", "--logs", sim_dir, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err
        assert "Traceback" not in err


class TestAnalyze:
    def test_round_trip_matches_ground_truth(self, tmp_path, sim_dir):
        out = str(tmp_path / "report")
        assert run("analyze", "--logs", sim_dir, "--out", out) == 0
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(sim_dir, "ground_truth.json")) as fh:
            truth = json.load(fh)
        assert report["unique_users"] == truth["unique_user_lifetimes"]
        assert sorted(r["subdomain"] for r in report["reappearances"]) == truth[
            "reappearance_subdomains"
        ]
        assert report["dynamic_tags_issued"] == truth["taggable_responses"]

    def test_user_agent_version_longer_than_int_accepts(self, tmp_path, sim_dir):
        path = os.path.join(sim_dir, "exchanges.jsonl")
        exchanges = read_exchange_log(path)
        huge = dataclasses.replace(
            exchanges[-1], request_headers=(("User-Agent", "AcmeBrowser/" + "3" * 5_000),)
        )
        write_exchange_log(exchanges + [huge], path)
        assert run("analyze", "--logs", sim_dir, "--out", str(tmp_path / "report")) == 0

    def test_never_reads_ground_truth(self, tmp_path, sim_dir):
        out_with = str(tmp_path / "with")
        assert run("analyze", "--logs", sim_dir, "--out", out_with) == 0
        # strip oracle metadata from the logs and remove the oracle file
        exchanges = read_exchange_log(os.path.join(sim_dir, "exchanges.jsonl"))
        import dataclasses

        stripped = [dataclasses.replace(e, ground_truth_client=None) for e in exchanges]
        write_exchange_log(stripped, os.path.join(sim_dir, "exchanges.jsonl"))
        os.remove(os.path.join(sim_dir, "ground_truth.json"))
        out_without = str(tmp_path / "without")
        assert run("analyze", "--logs", sim_dir, "--out", out_without) == 0
        with open(os.path.join(out_with, "report.json")) as fh_a, open(
            os.path.join(out_without, "report.json")
        ) as fh_b:
            assert json.load(fh_a) == json.load(fh_b)

    def test_missing_log_is_named(self, tmp_path, sim_dir, capsys):
        os.remove(os.path.join(sim_dir, "tags.csv"))
        assert run("analyze", "--logs", sim_dir, "--out", str(tmp_path / "r")) == 2
        assert "tag" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "log, damage",
        [
            ("dns_queries.csv", lambda row: row.rsplit(",", 1)[0]),  # truncated: 2 of 3 fields
            ("fetches.csv", lambda row: "soon" + row[row.index(","):]),  # timestamp not a number
            ("tags.csv", lambda row: row + ",extra"),  # 6 of 5 fields
            ("dns_queries.csv", lambda row: "nan" + row[row.index(","):]),  # time not finite
            ("fetches.csv", lambda row: row.rsplit(",", 1)[0] + ",http://[abc/p.gif"),  # bad URL
        ],
        ids=["dns_queries", "fetches", "tags", "dns_queries_nan", "fetches_url"],
    )
    def test_malformed_csv_row_is_named(self, tmp_path, sim_dir, capsys, log, damage):
        path = os.path.join(sim_dir, log)
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\r\n")
        lines[2] = damage(lines[2])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\r\n".join(lines))
        assert run("analyze", "--logs", sim_dir, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["bogus", "STATIC", "DYNAMIC"])
    def test_unknown_tag_kind_is_named(self, tmp_path, sim_dir, capsys, kind):
        path = os.path.join(sim_dir, "tags.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\r\n")
        lines[2] = kind + lines[2][lines[2].index(","):]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\r\n".join(lines))
        assert run("analyze", "--logs", sim_dir, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: unknown tag kind {kind!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("log", ["tags.csv", "dns_queries.csv", "fetches.csv"])
    def test_header_in_another_column_order_is_named(self, tmp_path, sim_dir, capsys, log):
        # the last two columns swapped in the header and in every row, as a
        # fetches.csv of timestamp,url,source would be
        path = os.path.join(sim_dir, log)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header = ",".join(rows[0])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(row[:-2] + row[:-3:-1] for row in rows)
        assert run("analyze", "--logs", sim_dir, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: expected the header {header}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "timestamp", ["soon", None, float("nan")], ids=["string", "null", "nan"]
    )
    def test_exchange_time_that_is_not_a_number_is_named(
        self, tmp_path, sim_dir, capsys, timestamp
    ):
        path = os.path.join(sim_dir, "exchanges.jsonl")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        record = json.loads(lines[1])
        record["timestamp"] = timestamp
        lines[1] = json.dumps(record)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert run("analyze", "--logs", sim_dir, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"{path}:2: " in err
        assert "Traceback" not in err

    def test_tag_log_is_named_before_the_exchange_log(self, tmp_path, sim_dir, capsys):
        # the tag, DNS and fetch logs are folded before the exchange log is read
        for name, bad_line in (("exchanges.jsonl", "{not json"), ("tags.csv", "static,pixel")):
            path = os.path.join(sim_dir, name)
            with open(path, encoding="utf-8", newline="") as fh:
                lines = fh.read().splitlines()
            lines[1] = bad_line
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("\r\n".join(lines) + "\r\n")
        assert run("analyze", "--logs", sim_dir, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {os.path.join(sim_dir, 'tags.csv')}:2: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "log", ["exchanges.jsonl", "tags.csv", "dns_queries.csv", "fetches.csv"]
    )
    def test_invalid_utf8_is_named_at_its_line(self, tmp_path, sim_dir, capsys, log):
        path = os.path.join(sim_dir, log)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        # the first line past a text file's 8 KiB read-ahead, or the last line
        line_no = next(
            (n for n in range(1, len(lines)) if len(b"".join(lines[:n])) > 8192), len(lines)
        )
        lines[line_no - 1] = b"\xff" + lines[line_no - 1]
        with open(path, "wb") as fh:
            fh.writelines(lines)
        assert run("analyze", "--logs", sim_dir, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"{path}:{line_no}: 'utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("window", ["7.3", "0.1"])
    def test_fractional_window(self, tmp_path, sim_dir, window):
        out = str(tmp_path / "r")
        assert run("analyze", "--logs", sim_dir, "--out", out, "--window", window) == 0
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        w = float(window)
        starts = [point[0] for point in report["ratio_series"]["points"]]
        first = round(starts[0] / w)
        assert starts == [k * w for k in range(first, first + len(starts))]
        assert [start for start, _ in report["ua_growth"]] == starts

    @pytest.mark.parametrize("window", ["inf", "nan", "1e-300", "0"])
    def test_unindexable_window_exits_two(self, tmp_path, sim_dir, capsys, window):
        out = str(tmp_path / "r")
        assert run("analyze", "--logs", sim_dir, "--out", out, "--window", window) == 2
        err = capsys.readouterr().err
        assert f"error: window {float(window)!r} s: " in err
        assert not os.path.exists(os.path.join(out, "report.json"))

    @pytest.mark.parametrize("window", ["inf", "nan", "0"])
    def test_bad_window_is_refused_before_any_log_is_read(self, tmp_path, capsys, window):
        logs = tmp_path / "empty"
        logs.mkdir()
        argv = ["analyze", "--logs", str(logs), "--zone", "feedback.test", "--window", window]
        assert run(*argv, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert err == f"error: window {float(window)!r} s: must be positive and finite\n"

    @pytest.mark.parametrize(
        "row, line",
        [("acme,1.0", 3), ("acme,3.0,2.0", 3), (",1.0,2.0", 3)],
        ids=["columns", "min_above_max", "empty_product"],
    )
    def test_bad_db_row_is_named(self, tmp_path, sim_dir, capsys, row, line):
        db_path = str(tmp_path / "db.csv")
        with open(db_path, "w", encoding="utf-8") as fh:
            fh.write(f"product,min_version,max_version\nok,1.0,2.0\n{row}\n")
        assert run("analyze", "--logs", sim_dir, "--db", db_path, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"{db_path}:{line}: " in err
        assert "Traceback" not in err

    def test_zero_byte_db_is_named(self, tmp_path, sim_dir, capsys):
        db_path = str(tmp_path / "db.csv")
        open(db_path, "w").close()
        assert run("analyze", "--logs", sim_dir, "--db", db_path, "--out", str(tmp_path / "r")) == 2
        assert db_path in capsys.readouterr().err

    def test_passive_only_logs_zero_tags(self, tmp_path, sim_dir):
        for name, header in (
            ("tags.csv", "kind,subdomain,url,exchange_id,injected_at"),
            ("dns_queries.csv", "timestamp,source,name"),
            ("fetches.csv", "timestamp,source,url"),
        ):
            with open(os.path.join(sim_dir, name), "w") as fh:
                fh.write(header + "\n")
        out = str(tmp_path / "passive")
        assert run("analyze", "--logs", sim_dir, "--out", out) == 0
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["dynamic_tags_issued"] == 0
        assert report["mime_distribution"]["total"] > 0
        assert report["ratio_series"]["points"]


class TestInjectCommand:
    def test_file_to_file(self, tmp_path):
        in_path = str(tmp_path / "in.jsonl")
        write_exchange_log([make_exchange(HTML)], in_path)
        out_path = str(tmp_path / "out.jsonl")
        tag_path = str(tmp_path / "tags.csv")
        assert run(
            "inject", "--in", in_path, "--out", out_path, "--tags", tag_path,
            "--zone", "tracker.test",
        ) == 0
        assert b"<img " in read_exchange_log(out_path)[0].response_body

    def test_invalid_zone_is_two(self, tmp_path, capsys):
        in_path = str(tmp_path / "in.jsonl")
        write_exchange_log([make_exchange(HTML)], in_path)
        out_path = str(tmp_path / "out.jsonl")
        assert run(
            "inject", "--in", in_path, "--out", out_path, "--tags", str(tmp_path / "tags.csv"),
            "--zone", "bad zone!.",
        ) == 2
        assert "invalid zone" in capsys.readouterr().err
        assert not os.path.exists(out_path)


class TestClassifyUa:
    def test_single_string(self, tmp_path, capsys):
        db_path = str(tmp_path / "db.csv")
        calibrated_vuln_db().save(db_path)
        assert run("classify-ua", "--db", db_path, "--ua", "AcmeBrowser/3.5") == 0
        out = capsys.readouterr().out
        assert out.startswith("vulnerable\tmatched_entry")

    def test_version_longer_than_int_accepts(self, capsys):
        assert run("classify-ua", "--ua", "AcmeBrowser/" + "3" * 5_000) == 0
        assert capsys.readouterr().out.startswith("not_vulnerable\tno_db_match")

    def test_missing_agent(self, capsys):
        assert run("classify-ua", "--ua", "") == 0
        assert "missing_agent" in capsys.readouterr().out


class TestReportCommand:
    def test_pretty_print(self, tmp_path, sim_dir, capsys):
        out = str(tmp_path / "report")
        run("analyze", "--logs", sim_dir, "--out", out)
        capsys.readouterr()
        assert run("report", "--report", os.path.join(out, "report.json")) == 0
        text = capsys.readouterr().out
        assert "unique users" in text
        assert "mime distribution" in text

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"unique_users": 3}', "static_dns_hits is missing"),
            ("null", "top level is not an object"),
            ("[1, 2", "Expecting"),
        ],
        ids=["missing_key", "null", "not_json"],
    )
    def test_bad_report_exits_two_before_printing(self, tmp_path, capsys, text, problem):
        path = str(tmp_path / "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert run("report", "--report", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {problem}")

    @pytest.mark.parametrize(
        "key, value, name",
        [
            ("dynamic_dns_hits", "7", "dynamic_dns_hits"),
            ("unique_users", True, "unique_users"),
            ("reappearances", [{"subdomain": "d1"}], "reappearances[0].hit_count"),
            ("anomalies", [3], "anomalies"),
            ("mime_distribution", {"counts": {"text/html": 1.5}, "total": 2},
             "mime_distribution.counts.text/html"),
            ("ratio_series", {"points": [[0.0, 1, 1]]}, "ratio_series.points[0]"),
        ],
    )
    def test_wrong_field_is_named(self, tmp_path, sim_dir, capsys, key, value, name):
        out = str(tmp_path / "report")
        run("analyze", "--logs", sim_dir, "--out", out)
        path = os.path.join(out, "report.json")
        with open(path) as fh:
            report = json.load(fh)
        report[key] = value
        with open(path, "w") as fh:
            json.dump(report, fh)
        capsys.readouterr()
        assert run("report", "--report", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {name} ")


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run("simulate") == 1  # --out missing
        assert run("frobnicate") == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ("proxy", "--listen", "127.0.0.1:99999"),
            ("proxy", "--listen", "127.0.0.1:0", "--control", "127.0.0.1:99999"),
            ("proxy", "--listen", "-1"),
            ("dns", "--listen", "127.0.0.1:99999", "--zone", "z.test", "--payload", "127.0.0.1"),
        ],
        ids=["proxy_listen", "proxy_control", "proxy_negative", "dns_listen"],
    )
    def test_port_out_of_range_is_two(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_run_until_signal", lambda stop, ready: stop())  # never serve
        out = str(tmp_path / "out")
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert "outside 0-65535" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (("dns", "--zone", "z.test", "--payload", "127.0.0.1", "--ttl", "4294967296"),
             "ttl_seconds"),
            (("dns", "--zone", "z.test", "--payload", "nope"), "invalid payload address"),
            (("proxy", "--mode", "active", "--zone", "bad zone!.", "--payload", "127.0.0.1"),
             "invalid zone"),
        ],
        ids=["dns_ttl", "dns_payload", "proxy_zone"],
    )
    def test_bad_zone_setting_is_two_before_binding(
        self, tmp_path, capsys, monkeypatch, argv, problem
    ):
        def bind(*_args, **_kwargs):
            raise AssertionError("a socket was bound")

        monkeypatch.setattr(socket, "create_server", bind)
        monkeypatch.setattr(socket.socket, "bind", bind)
        monkeypatch.setattr(cli, "_run_until_signal", lambda stop, ready: stop())  # never serve
        assert run(*argv, "--listen", "127.0.0.1:0", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert problem in err
        assert "Traceback" not in err

    def test_runtime_error_is_two(self, tmp_path):
        assert run("analyze", "--logs", str(tmp_path / "nope"), "--out", str(tmp_path / "r"),
                   "--zone", "z.test") == 2
