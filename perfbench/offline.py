"""Offline pipeline stages, each run in its own child process by run.py.

    python3 perfbench/offline.py STAGE PARAMS_JSON

STAGE is ``simulate``, ``analyze`` or ``traced``. The last line printed is
one JSON object. The stages call the beaconlab functions that the
``simulate`` and ``analyze`` subcommands call, without argument parsing
or manifests, so they measure the command-line pipeline itself.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
from unittest import mock

from beaconlab import clientsim, correlate, dnssim, httplog, inject, ua

from refclock import CpuMeter
from tracing import Tracer

LOGS = correlate.LOG_FILENAMES


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_logs(result: clientsim.SimulationResult, out: str) -> None:
    """The files ``beaconlab simulate`` writes, except its manifest."""
    os.makedirs(out, exist_ok=True)
    httplog.write_exchange_log(result.exchanges, os.path.join(out, LOGS["exchange"]))
    inject.write_tag_log(result.tags, os.path.join(out, LOGS["tag"]))
    dnssim.write_query_log(result.dns_log, os.path.join(out, LOGS["dns"]))
    clientsim.write_fetch_log(result.fetch_log, os.path.join(out, LOGS["fetch"]))
    with open(os.path.join(out, "ground_truth.json"), "w", encoding="utf-8") as fh:
        json.dump(result.ground_truth, fh, indent=2)
        fh.write("\n")
    result.config.save(os.path.join(out, "scenario_config.json"))


def recovered_checks(report: dict, truth: dict) -> dict[str, bool]:
    """Each recovered value in ``report.json`` against the simulator's ground truth."""
    return {
        "unique_users": report["unique_users"] == truth["unique_user_lifetimes"],
        "reappearances": sorted(r["subdomain"] for r in report["reappearances"])
        == sorted(truth["reappearance_subdomains"]),
        "dynamic_tags_issued": report["dynamic_tags_issued"] == truth["taggable_responses"],
    }


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _gate(logs: str, report_dir: str) -> dict[str, bool]:
    return recovered_checks(
        _load_json(os.path.join(report_dir, "report.json")),
        _load_json(os.path.join(logs, "ground_truth.json")),
    )


def simulate(p: dict) -> dict:
    config = clientsim.calibrated_config(**p["scenario"])
    with CpuMeter() as clock:
        result = clientsim.run_scenario(config)
        write_logs(result, p["logs"])
    return {"simulate_ref_s": clock.ref_s(), "peak_rss_mb": peak_rss_mb()}


def _analyze(logs: str, out: str, config, db) -> CpuMeter:
    """``beaconlab analyze``: ``build_report_from_dir`` plus ``write_report``, timed."""
    with CpuMeter() as clock:
        report = correlate.build_report_from_dir(logs, db, static_label=config.static_label, zone=config.zone)
        correlate.write_report(report, out)
    return clock


def analyze(p: dict) -> dict:
    config = clientsim.ScenarioConfig.load(os.path.join(p["logs"], "scenario_config.json"))
    clock = _analyze(p["logs"], p["report"], config, clientsim.calibrated_vuln_db())
    return {
        "analyze_ref_s": clock.ref_s(),
        "peak_rss_mb": peak_rss_mb(),
        "checks": _gate(p["logs"], p["report"]),
    }


class _PassCounter(list):
    """A list that counts how many times it is iterated over."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


# Spans of the simulate stage: (owner, attribute, span name). The log
# writers are looked up on their modules when write_logs runs.
SIMULATE_SPANS = (
    (inject.Injector, "inject", "inject.inject"),
    (dnssim.WildcardResolver, "resolve", "dnssim.resolve"),
    (clientsim, "client_process_response", "clientsim.client_process_response"),
    (httplog, "write_exchange_log", "httplog.write_exchange_log"),
    (inject, "write_tag_log", "inject.write_tag_log"),
    (dnssim, "write_query_log", "dnssim.write_query_log"),
    (clientsim, "write_fetch_log", "clientsim.write_fetch_log"),
)
# Spans of the analyze stage: every layer call build_report_from_dir and
# build_report make goes through a name in correlate's module globals.
ANALYZE_SPANS = tuple(
    (correlate, attr, name)
    for attr, name in (
        ("read_exchange_log", "httplog.read_exchange_log"),
        ("read_tag_log", "inject.read_tag_log"),
        ("read_query_log", "dnssim.read_query_log"),
        ("read_fetch_log", "clientsim.read_fetch_log"),
        ("tag_accounting", "correlate.tag_accounting"),
        ("detect_reappearances", "correlate.detect_reappearances"),
        ("ua_records_from_exchanges", "ua.ua_records"),
        ("count_unique_users", "correlate.count_unique_users"),
        ("mime_distribution", "httplog.mime_distribution"),
        ("ratio_series", "ua.ratio_series"),
        ("unique_ua_growth", "ua.unique_ua_growth"),
        ("write_report", "correlate.write_report"),
    )
)


def _patch(patches: contextlib.ExitStack, owner, attr: str, new) -> None:
    patches.enter_context(mock.patch.object(owner, attr, new))


def _keeping(fn, kept: dict, key: str, convert=lambda value: value):
    """``fn``, keeping each call's result, converted, as ``kept[key]``."""

    def keep(*args, **kwargs):
        kept[key] = convert(fn(*args, **kwargs))
        return kept[key]

    return keep


def traced(p: dict) -> dict:
    """Simulate once with spans on every layer call, then analyze three
    times over its logs: untraced, traced, untraced. The traced analysis
    is ``build_report_from_dir`` plus ``write_report`` themselves, with
    spans around the calls they make, and its report is the one gated.
    Its time over the mean of the two untraced ones is the tracing overhead
    of analysis, with the order effect of running first or last cancelled."""
    tracer = Tracer()
    config = clientsim.calibrated_config(**p["scenario"])
    db = clientsim.calibrated_vuln_db()
    logs, traced_dir, plain_dir = p["logs"], p["report"], p["report"] + "-plain"

    with contextlib.ExitStack() as patches:
        for owner, attr, name in SIMULATE_SPANS:
            _patch(patches, owner, attr, tracer.wrap(getattr(owner, attr), name))
        with CpuMeter() as simulate_clock:
            with tracer.span("clientsim.run_scenario"):
                result = clientsim.run_scenario(config)
            write_logs(result, logs)
    restarts = sum(len(c["restart_times"]) for c in result.ground_truth["clients"])
    events = len(result.exchanges) + restarts
    tagged = len(result.tags) // 2
    del result

    plain_s = [_analyze(logs, plain_dir, config, db)]
    kept: dict = {}
    with contextlib.ExitStack() as patches:
        # The DNS log is handed on as a list that counts the passes over it,
        # and the UA records are kept for their counts; spans wrap both.
        _patch(patches, correlate, "read_query_log",
               _keeping(correlate.read_query_log, kept, "dns_log", _PassCounter))
        _patch(patches, correlate, "ua_records_from_exchanges",
               _keeping(correlate.ua_records_from_exchanges, kept, "ua_records"))
        for owner, attr, name in ANALYZE_SPANS:
            _patch(patches, owner, attr, tracer.wrap(getattr(owner, attr), name))
        traced_clock = _analyze(logs, traced_dir, config, db)
    dns_passes = kept["dns_log"].passes
    ua_records = len(kept["ua_records"])
    ua_distinct = len({record.raw for record in kept["ua_records"]})
    del kept  # so the last untraced analysis runs with no more live objects than the first
    plain_s.append(_analyze(logs, plain_dir, config, db))

    checks = _gate(logs, traced_dir)
    tracer.write(p["spans"])

    log_bytes = os.path.getsize(os.path.join(logs, LOGS["exchange"]))
    inject_calls = len(tracer.named("inject.inject"))
    write_s = tracer.total_s("httplog.write_exchange_log")
    read_s = tracer.total_s("httplog.read_exchange_log")
    metrics = {
        "clientsim.self_s": tracer.self_s("clientsim.run_scenario"),
        "clientsim.events": events,
        "clientsim.client_process_response_s": tracer.total_s("clientsim.client_process_response"),
        "inject.calls": inject_calls,
        "inject.tagged": tagged,
        "inject.useful_ratio": tagged / inject_calls if inject_calls else 0.0,
        "inject.us_per_call": tracer.mean_us("inject.inject"),
        "dnssim.resolve_calls": len(tracer.named("dnssim.resolve")),
        "dnssim.resolve_us": tracer.mean_us("dnssim.resolve"),
        "dnssim.write_query_log_s": tracer.total_s("dnssim.write_query_log"),
        "dnssim.read_query_log_s": tracer.total_s("dnssim.read_query_log"),
        "httplog.write_exchange_log_s": write_s,
        "httplog.encode_mb_per_s": log_bytes / 1e6 / write_s,
        "httplog.read_exchange_log_s": read_s,
        "httplog.decode_mb_per_s": log_bytes / 1e6 / read_s,
        "httplog.exchange_log_bytes": log_bytes,
        "httplog.mime_distribution_s": tracer.total_s("httplog.mime_distribution"),
        "ua.records": ua_records,
        "ua.distinct_raw": ua_distinct,
        "ua.records_per_distinct": ua_records / ua_distinct if ua_distinct else 0.0,
        "ua.ua_records_s": tracer.total_s("ua.ua_records"),
        "ua.ratio_series_s": tracer.total_s("ua.ratio_series"),
        "ua.unique_ua_growth_s": tracer.total_s("ua.unique_ua_growth"),
        "correlate.tag_accounting_s": tracer.total_s("correlate.tag_accounting"),
        "correlate.detect_reappearances_s": tracer.total_s("correlate.detect_reappearances"),
        "correlate.count_unique_users_s": tracer.total_s("correlate.count_unique_users"),
        "correlate.dns_log_passes": dns_passes,
        "correlate.read_csv_logs_s": sum(
            tracer.total_s(name)
            for name in ("inject.read_tag_log", "dnssim.read_query_log", "clientsim.read_fetch_log")
        ),
        "correlate.write_report_s": tracer.total_s("correlate.write_report"),
        "traced.simulate_ref_s": simulate_clock.ref_s(),
        "traced.analyze_ref_s": traced_clock.ref_s(),
        "traced.analyze_overhead_ratio": traced_clock.ref_s() / statistics.mean(c.ref_s() for c in plain_s),
    }
    return {"metrics": metrics, "checks": checks}


STAGES = {"simulate": simulate, "analyze": analyze, "traced": traced}

if __name__ == "__main__":
    stage, params = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(STAGES[stage](params)))
