"""Every workload, untraced and then traced, in one command.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

Prints each run's table (end-to-end metrics, then the per-layer table)
and optionally writes all records, machine included, to one JSON file.
Exits 0 only when every output of every run was correct.
"""

import argparse
import json
import sys

import run
from harness import program_present
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", help="write every record to this JSON file")
    args = parser.parse_args()
    if not program_present():
        print("report: no primeperm sources to run", file=sys.stderr)
        return 2
    records = []
    for workload in WORKLOADS:
        for trace in (False, True):
            record = run.measure(workload, args.seed, args.seconds, trace)
            print(run.report(record), end="\n\n", flush=True)
            records.append(record)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"machine": run.machine(), "runs": records}, f, indent=1)
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
