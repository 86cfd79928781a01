#!/usr/bin/env python3
"""Run the calibrated desk-scale experiment end to end.

Simulates the calibrated client population (``beaconlab simulate`` with
--seed, --client-count and --duration) through the active injector, then
correlates the logs and prints the headline measurements. Outputs land in
the chosen directory (default ./out/desk_experiment): the logs in sim/,
the report in report/.
"""

import argparse
import json
import os
import sys

from beaconlab import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--clients", type=int, default=200)
    parser.add_argument("--duration", type=float, default=1800.0)
    parser.add_argument("--out", default="out/desk_experiment")
    args = parser.parse_args()

    sim_dir = os.path.join(args.out, "sim")
    report_dir = os.path.join(args.out, "report")
    simulate = ["simulate", "--seed", str(args.seed), "--client-count", str(args.clients),
                "--duration", str(args.duration), "--out", sim_dir]
    if cli.main(simulate) != 0:
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
