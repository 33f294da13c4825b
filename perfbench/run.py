"""primeperm benchmark.

    python3 perfbench/run.py --workload witness|count|enumerate \
        --seed N --seconds S --trace 0|1 [--out FILE]

--trace 0 runs the CLI as separate processes, one invocation after the
other, and reports the end-to-end metrics. --trace 1 replays the
workloads in this process with spans around each layer and reports the
per-layer metrics. Both check every output. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only when every output was correct.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
from time import perf_counter

from harness import (
    ROOT,
    Launcher,
    PassSample,
    Tally,
    program_present,
    run_pass,
    summarize,
)
from workloads import SETUP, WORKLOADS

MIN_PASSES = 3
SETUP_PER_PASS = 5


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}


def end_to_end(workload: str, seed: int, seconds: float,
               tally: Tally) -> tuple[dict, list[PassSample]]:
    """Calibrated process-level passes until `seconds` would be exceeded
    (at least MIN_PASSES). Returns each metric's summary and the passes.

    Every time is multiplied, and every rate divided, by its pass's
    calibration factor (see launch.reference); raw medians are kept too.
    """
    work = WORKLOADS[workload](seed)
    durations: list[float] = []
    passes: list[PassSample] = []
    with Launcher() as launcher:
        launcher.run(SETUP.steps[0].args)  # warm the page cache and bytecode cache
        start = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() + max(durations) <= start + seconds:
            t0 = perf_counter()
            passes.append(run_pass(work, launcher.run, tally, SETUP, SETUP_PER_PASS,
                                   launcher.reference))
            durations.append(perf_counter() - t0)

    item_units = [u.name for u in work.units if u.items]
    items = sum(u.items for u in work.units)

    def per_pass(fn) -> dict:
        """Summary of fn(pass) scaled by each pass's calibration factor."""
        raw = [fn(p) for p in passes]
        return summarize([v * p.scale for v, p in zip(raw, passes)], raw)

    def item_time(p: PassSample) -> float:
        return sum(p.walls.get(u, math.inf) for u in item_units)

    rates = [items / item_time(p) for p in passes]
    metrics = {
        "setup_s": summarize([w * p.scale for p in passes for w in p.setups],
                             [w for p in passes for w in p.setups]),
        "wall_s": per_pass(lambda p: sum(p.walls.values())),
        "first_line_s": per_pass(lambda p: sum(p.first_lines.values())),
        "items_per_s": summarize([r / p.scale for r, p in zip(rates, passes)], rates),
        "peak_rss_mb": summarize([p.rss_mb for p in passes]),
    }
    return metrics, passes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one mode on one workload; the full record of the run."""
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine()}
    tally = Tally()
    spec = _spec()
    if trace:
        import layers

        samples = layers.measure(workload, seed, seconds, tally)
        metrics = {name: summarize(values) for name, values in samples.items()}
        declared = spec["per_layer"]
    else:
        metrics, passes = end_to_end(workload, seed, seconds, tally)
        record["passes"] = [dataclasses.asdict(p) for p in passes]
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    record["metrics"] = {name: {"unit": unit, **metrics[name]} for name, unit in units.items()}
    # Recorded but not gated: extra spans of the traced run, e.g. cli.main_count_s.
    record["extra"] = {name: v for name, v in metrics.items() if name not in units}
    record.update(attempted=tally.attempted, failed=tally.failed,
                  error_rate=tally.failed / max(tally.attempted, 1),
                  failures=tally.failures[:20])
    return record


def report(record: dict) -> str:
    """The record as a table: name, unit, median (the gated value), tail
    percentile, sample count, median before calibration."""
    m = record["machine"]
    lines = [
        f"workload={record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']}"
        + (f" passes={len(record['passes'])}" if "passes" in record else ""),
        f"machine: git={m['git_sha']} python={m['python']} nproc={m['nproc']} "
        f"loadavg_1m={m['loadavg_1m']:.2f}",
        f"{'metric':<34} {'unit':<6} {'median':>12} {'tail':>18} {'samples':>7} {'raw median':>12}",
    ]
    rows = [(k, v["unit"], v) for k, v in record["metrics"].items()]
    rows += [(k, "", v) for k, v in record["extra"].items()]
    for name, unit, v in rows:
        tail = f"p{v['tail']['p']} {v['tail']['value']:.6g}" if v["tail"] else "-"
        lines.append(f"{name:<34} {unit:<6} {v['value']:>12.6g} {tail:>18} "
                     f"{v['samples']:>7} {v['raw_median']:>12.6g}")
    lines.append(f"{'error_rate':<34} {'ratio':<6} {record['error_rate']:>12.6g} "
                 f"{'-':>18} {record['attempted']:>7}")
    lines += [f"FAILED {f}" for f in record["failures"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    if not program_present():
        print(f"benchmark: no primeperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(record))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
