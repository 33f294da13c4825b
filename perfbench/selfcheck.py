"""Self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Runs small passes through the same runner and checks as run.py, some with
a fault injected: a wrong expected count, a truncated enumerate stream and
a wrong expected exit code. Each faulty case must show up as
error_rate > 0 and each clean case as 0. Exits 0 when all of them do.
"""

import random
import sys

from harness import Launcher, Tally, program_present, run_pass
from workloads import (
    EXPECTED_COUNTS,
    Step,
    Unit,
    Workload,
    count_value,
    enumerate_all,
    verify_json,
)

WRONG_COUNTS = {**EXPECTED_COUNTS, 15: EXPECTED_COUNTS[15] + 1}
VERIFY = ["verify", "--perm", "1,5,4,3,2", "--format", "json"]

# (case, step, whether the case must fail)
CASES = [
    ("count as recorded", Step(["count", "--n", "15"], count_value(15)), False),
    ("wrong expected count", Step(["count", "--n", "15"], count_value(15, WRONG_COUNTS)), True),
    ("full enumerate stream", Step(["enumerate", "--n", "15"], enumerate_all(15)), False),
    ("truncated enumerate stream",
     Step(["enumerate", "--n", "15", "--limit", "36000"], enumerate_all(15)), True),
    ("verify exit 0 as expected", Step(VERIFY, verify_json(5)), False),
    ("verify exit 0 where 2 is expected", Step(VERIFY, verify_json(5), expect=2), True),
]


def main() -> int:
    if not program_present():
        print("selfcheck: no primeperm sources to run", file=sys.stderr)
        return 2
    ok = True
    with Launcher() as launcher:
        for name, step, must_fail in CASES:
            tally = Tally()
            work = Workload(name, [Unit(name, [step])], random.Random(0))
            run_pass(work, launcher.run, tally)
            error_rate = tally.failed / tally.attempted
            good = (error_rate > 0) == must_fail
            ok &= good
            print(f"{'ok ' if good else 'BAD'} {name:<36} error_rate={error_rate:g} "
                  f"{tally.failures[0] if tally.failures else ''}")
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
