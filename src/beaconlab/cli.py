"""Command-line entry point.

Subcommands: simulate, analyze, inject, classify-ua, proxy, dns, report.
Exit status: 0 success, 1 usage error, 2 runtime error. Every run that
produces an output directory drops a manifest.json beside the outputs so
the directory is self-describing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
import time

import beaconlab
from beaconlab import clientsim, correlate, dnssim, httplog, inject, proxy, ua

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_manifest(out_dir: str, subcommand: str, **fields) -> None:
    manifest = {
        "subcommand": subcommand,
        "version": beaconlab.__version__,
        "created_at": time.time(),
    }
    manifest.update(fields)
    httplog.write_json(manifest, os.path.join(out_dir, "manifest.json"))


def _load_scenario(args) -> clientsim.ScenarioConfig:
    """The calibrated scenario the flags given describe, or the --config file
    with those flags set over it, validated; a refusal of the file's
    scenario names the file, as a parse error does."""
    flags = (("seed", args.seed), ("client_count", args.client_count),
             ("duration_seconds", args.duration))
    given = {name: value for name, value in flags if value is not None}
    if not args.config:
        return clientsim.calibrated_config(**given)
    config = clientsim.ScenarioConfig.load(args.config)
    for name, value in given.items():
        setattr(config, name, value)
    try:
        config.validate()
    except clientsim.ConfigError as exc:
        raise clientsim.ConfigError(f"{args.config}: {exc}") from None
    return config


def cmd_simulate(args) -> int:
    config = _load_scenario(args)
    started = time.perf_counter()
    result = clientsim.run_scenario(config)
    simulated = time.perf_counter()
    out = args.out
    os.makedirs(out, exist_ok=True)
    logs = {source: os.path.join(out, name) for source, name in correlate.LOG_FILENAMES.items()}
    httplog.write_exchange_log(result.exchanges, logs["exchange"])
    inject.write_tag_log(result.tags, logs["tag"])
    dnssim.write_query_log(result.dns_log, logs["dns"])
    clientsim.write_fetch_log(result.fetch_log, logs["fetch"])
    written = time.perf_counter()
    httplog.write_json(result.ground_truth, os.path.join(out, "ground_truth.json"))
    config.save(os.path.join(out, "scenario_config.json"))
    _write_manifest(
        out,
        "simulate",
        seed=config.seed,
        config_path=args.config,
        zone=config.zone,
        static_label=config.static_label,
        exchanges=len(result.exchanges),
        tags=len(result.tags),
        dns_queries=len(result.dns_log),
        fetches=len(result.fetch_log),
        stage_seconds={
            "run_scenario": round(simulated - started, 6),
            "write_logs": round(written - simulated, 6),
        },
    )
    print(
        f"simulated {len(result.exchanges)} exchanges, {len(result.tags)} tags, "
        f"{len(result.dns_log)} dns queries -> {out}"
    )
    return 0


def _zone_and_label(args) -> tuple[str, str]:
    zone = args.zone
    label = args.static_label
    scenario_path = os.path.join(args.logs, "scenario_config.json")
    if (zone is None or label is None) and os.path.exists(scenario_path):
        config = clientsim.ScenarioConfig.load(scenario_path)
        zone = zone or config.zone
        label = label or config.static_label
    if zone is None:
        raise ValueError("zone unknown: pass --zone or keep scenario_config.json beside the logs")
    return zone, label or inject.DEFAULT_STATIC_LABEL


def cmd_analyze(args) -> int:
    db = ua.VulnDb.load(args.db) if args.db else clientsim.calibrated_vuln_db()
    zone, static_label = _zone_and_label(args)
    report = correlate.build_report_from_dir(
        args.logs, db, static_label=static_label, zone=zone, window_seconds=args.window
    )
    correlate.write_report(report, args.out)
    _write_manifest(
        args.out,
        "analyze",
        logs=args.logs,
        db=args.db,
        zone=zone,
        static_label=static_label,
        window_seconds=args.window,
    )
    accounting = report.accounting
    print(
        f"unique_users={accounting.static_dns_hits} "
        f"dynamic_tags_issued={accounting.dynamic_issued} "
        f"dynamic_dns_hits={accounting.dynamic_dns_hits} "
        f"reappearances={len(accounting.reappearances)} -> {args.out}"
    )
    return 0


def cmd_inject(args) -> int:
    injector = inject.Injector(
        zone=args.zone, static_label=args.static_label, seed=args.seed or 0
    )
    exchanges, tags = inject.rewrite_log(args.infile, args.outfile, args.tags, injector)
    print(f"rewrote {exchanges} exchanges, issued {tags} tags")
    return 0


def cmd_classify_ua(args) -> int:
    db = ua.VulnDb.load(args.db) if args.db else clientsim.calibrated_vuln_db()
    raws = [record.raw for record in ua.read_ua_log(args.infile)] if args.infile else args.ua
    lines = []
    for raw in raws:
        result = ua.classify(raw, db)
        lines.append(f"{result.verdict.value}\t{result.reason.value}\t{raw}")
    output = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


def _split_hostport(value: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    number = int(port)
    if not 0 <= number <= 65535:
        raise ValueError(f"port {number} in {value!r} is outside 0-65535")
    return host or default_host, number


def _wait_for_signal(ready: str) -> None:
    """Print ``ready`` once SIGINT and SIGTERM are handled, so a caller that
    signals after reading it never kills the service; return at either."""
    signalled = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda _signum, _frame: signalled.set())
    print(ready)
    signalled.wait()


def _serve(out: str, subcommand: str, open_service) -> int:
    """Run one service in ``out`` until SIGINT or SIGTERM.

    ``open_service(opened)`` opens the service, pushing onto the ExitStack
    ``opened`` how to close each thing it opens, and returns the ready line
    and the manifest's fields. What was opened is closed, last first, at
    the signal or when a step fails.
    """
    os.makedirs(out, exist_ok=True)
    with contextlib.ExitStack() as opened:
        ready, fields = open_service(opened)
        _write_manifest(out, subcommand, **fields)
        _wait_for_signal(ready)
    return 0


def cmd_proxy(args) -> int:
    host, port = _split_hostport(args.listen)
    control_host, control_port = _split_hostport(args.control)
    config = proxy.ProxyConfig(
        exchange_log_path=os.path.join(args.out, correlate.LOG_FILENAMES["exchange"]),
        tag_log_path=os.path.join(args.out, correlate.LOG_FILENAMES["tag"]),
        error_log_path=os.path.join(args.out, "errors.log"),
        listen_host=host,
        listen_port=port,
        control_host=control_host,
        control_port=control_port,
        mode=args.mode,
        zone=args.zone or "",
        static_label=args.static_label,
        payload_address=args.payload or "",
        seed=args.seed or 0,
    )

    def open_proxy(opened):
        service = proxy.ProxyService(config)
        opened.callback(service.stop)
        service.start()
        listen, control = service.listen_address, service.control_address
        ready = f"proxy on {listen[0]}:{listen[1]} control {control[0]}:{control[1]} mode={args.mode}"
        return ready, dict(mode=args.mode, zone=args.zone, static_label=args.static_label,
                           listen=list(listen), control=list(control))

    return _serve(args.out, "proxy", open_proxy)


def cmd_dns(args) -> int:
    host, port = _split_hostport(args.listen)
    config = dnssim.ZoneConfig(zone=args.zone, payload_address=args.payload, ttl_seconds=args.ttl)

    def open_dns(opened):
        query_log = dnssim.QUERY_LOG.appender(os.path.join(args.out, correlate.LOG_FILENAMES["dns"]))
        opened.callback(query_log.close)
        responder = dnssim.DnsResponder(config, host=host, port=port, log=query_log)
        opened.callback(responder.stop)
        responder.start()
        listen = responder.address
        ready = f"dns responder on {listen[0]}:{listen[1]} zone={args.zone}"
        return ready, dict(zone=args.zone, payload=args.payload, listen=list(listen))

    return _serve(args.out, "dns", open_dns)


_REPORT_COUNTS = (
    "unique_users",
    "static_dns_hits",
    "static_object_hits",
    "dynamic_tags_issued",
    "dynamic_dns_hits",
)


def _load_report(path: str) -> dict:
    """A saved report.json, with every key and type cmd_report reads checked
    first, so a bad file fails with ValueError naming it before any output."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, or nested too deep
            raise ValueError(f"{path}: {exc}") from None

    def fail(name: str, problem: str):
        raise ValueError(f"{path}: {name} {problem}")

    def typed(value, kind) -> bool:
        return isinstance(value, kind) and not isinstance(value, bool)

    def need(obj, where: str, key: str, kind):
        if not isinstance(obj, dict):
            fail(where or "top level", "is not an object")
        name = f"{where}.{key}" if where else key
        if key not in obj:
            fail(name, "is missing")
        if not typed(obj[key], kind):
            fail(name, "has the wrong type")
        return obj[key]

    for key in _REPORT_COUNTS:
        need(report, "", key, int)
    for i, item in enumerate(need(report, "", "reappearances", list)):
        need(item, f"reappearances[{i}]", "subdomain", str)
        need(item, f"reappearances[{i}]", "hit_count", int)
    if not all(typed(label, str) for label in need(report, "", "anomalies", list)):
        fail("anomalies", "has the wrong type")
    dist = need(report, "", "mime_distribution", dict)
    need(dist, "mime_distribution", "total", int)
    counts = need(dist, "mime_distribution", "counts", dict)
    for mime in counts:
        need(counts, "mime_distribution.counts", mime, int)
    points = need(need(report, "", "ratio_series", dict), "ratio_series", "points", list)
    for i, point in enumerate(points):
        if not (
            isinstance(point, list) and len(point) == 4
            and typed(point[3], (int, float, type(None)))
        ):
            fail(f"ratio_series.points[{i}]", "is not [start, vulnerable, not_vulnerable, ratio]")
    return report


def cmd_report(args) -> int:
    report = _load_report(args.report)
    print(f"unique users:        {report['unique_users']}")
    print(f"static dns hits:     {report['static_dns_hits']}")
    print(f"static object hits:  {report['static_object_hits']}")
    print(f"dynamic tags issued: {report['dynamic_tags_issued']}")
    print(f"dynamic dns hits:    {report['dynamic_dns_hits']}")
    print(f"reappearances:       {len(report['reappearances'])}")
    for item in report["reappearances"]:
        print(f"  {item['subdomain']}: {item['hit_count']} hits")
    if report["anomalies"]:
        print(f"anomalous labels:    {', '.join(report['anomalies'])}")
    dist = report["mime_distribution"]
    total = dist["total"] or 1
    print("mime distribution:")
    for mime, count in sorted(dist["counts"].items(), key=lambda kv: -kv[1]):
        print(f"  {mime:<28} {100.0 * count / total:5.1f}%  ({count})")
    ratios = [p[3] for p in report["ratio_series"]["points"] if p[3] is not None]
    if ratios:
        print(f"vulnerability ratio: {sum(ratios) / len(ratios):.3f} mean over "
              f"{len(ratios)} windows")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="beaconlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a seeded client-population scenario")
    p.add_argument("--config", help="scenario config JSON (default: calibrated scenario)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--client-count", dest="client_count", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="correlate logs into a report")
    p.add_argument("--logs", required=True, help="directory holding the simulate/proxy logs")
    p.add_argument("--db", help="vulnerability database CSV (default: calibrated fixture)")
    p.add_argument("--out", required=True)
    p.add_argument("--zone", default=None)
    p.add_argument("--static-label", dest="static_label", default=None)
    p.add_argument("--window", type=float, default=ua.DEFAULT_WINDOW_SECONDS)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("inject", help="file-to-file rewrite of an exchange log")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--tags", required=True, help="tag issue log to write")
    p.add_argument("--zone", required=True)
    p.add_argument("--static-label", dest="static_label", default=inject.DEFAULT_STATIC_LABEL)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("classify-ua", help="classify user-agent strings")
    p.add_argument("--db", help="vulnerability database CSV")
    p.add_argument("--ua", action="append", default=[], help="one string (repeatable)")
    p.add_argument("--in", dest="infile", help="UA observation log CSV")
    p.add_argument("--out", help="write results here instead of stdout")
    p.set_defaults(func=cmd_classify_ua)

    p = sub.add_parser("proxy", help="run the intercepting proxy")
    p.add_argument("--listen", default="127.0.0.1:8080")
    p.add_argument("--control", default="127.0.0.1:8081")
    p.add_argument("--mode", choices=[proxy.PASSIVE, proxy.ACTIVE], default=proxy.PASSIVE)
    p.add_argument("--zone", default=None)
    p.add_argument("--static-label", dest="static_label", default=inject.DEFAULT_STATIC_LABEL)
    p.add_argument("--payload", default=None, help="payload server address for beacon URLs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_proxy)

    p = sub.add_parser("dns", help="run the wildcard DNS responder")
    p.add_argument("--zone", required=True)
    p.add_argument("--payload", required=True)
    p.add_argument("--listen", default="127.0.0.1:5353")
    p.add_argument("--ttl", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dns)

    p = sub.add_parser("report", help="pretty-print a saved report.json")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (clientsim.ConfigError, proxy.ProxyConfigError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
