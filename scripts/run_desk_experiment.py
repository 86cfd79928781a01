#!/usr/bin/env python3
"""Run the calibrated desk-scale experiment end to end.

Simulates a seeded client population through the active injector, then
correlates the logs and prints the headline measurements. Outputs land in
the chosen directory (default ./out/desk_experiment).
"""

import argparse
import json
import os
import sys

from beaconlab import cli
from beaconlab.clientsim import calibrated_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--clients", type=int, default=200)
    parser.add_argument("--duration", type=float, default=1800.0)
    parser.add_argument("--out", default="out/desk_experiment")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    config = calibrated_config(
        seed=args.seed,
        client_count=args.clients,
        duration_seconds=args.duration,
        visit_rate=0.01,
        non_fetching_share=0.1,
        restart_count=5,
    )
    config_path = os.path.join(args.out, "scenario.json")
    config.save(config_path)
    sim_dir = os.path.join(args.out, "sim")
    report_dir = os.path.join(args.out, "report")
    if cli.main(["simulate", "--config", config_path, "--out", sim_dir]) != 0:
        return 2
    if cli.main(["analyze", "--logs", sim_dir, "--out", report_dir]) != 0:
        return 2

    with open(os.path.join(report_dir, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(sim_dir, "ground_truth.json")) as fh:
        truth = json.load(fh)
    print()
    print("=== desk experiment summary ===")
    print(f"unique users (recovered / truth): "
          f"{report['unique_users']} / {truth['unique_user_lifetimes']}")
    print(f"reappearances (recovered / truth): "
          f"{len(report['reappearances'])} / {len(truth['reappearance_subdomains'])}")
    print(f"dynamic tags issued (recovered / truth): "
          f"{report['dynamic_tags_issued']} / {truth['taggable_responses']}")
    ratios = [p[3] for p in report["ratio_series"]["points"] if p[3] is not None]
    if ratios:
        print(f"vulnerability ratio: min {min(ratios):.3f} / "
              f"mean {sum(ratios) / len(ratios):.3f} / max {max(ratios):.3f}")
    print(f"full report: {os.path.join(report_dir, 'report.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
