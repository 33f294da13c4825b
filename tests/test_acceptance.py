"""Acceptance suite. Each test checks one exit criterion end to end and
prints a single PASS/FAIL line (visible without -s), so a run of

    pytest tests/test_acceptance.py -v

doubles as the sign-off checklist. Criteria with runtime budgets assert
them with time.perf_counter().
"""

import io
import time

import pytest

from primeperm import (
    build_sieve,
    construct_prime_sum_permutation,
    count_solutions_dp,
    count_solutions_ryser,
    decompose_blocks,
    enumerate_solutions,
)
from primeperm.cli import main

from oracles import solutions_by_backtracking

EXPECTED_COUNTS = [1, 1, 1, 4, 1, 9, 4, 36, 36, 676]
EXPECTED_PRIMES = [0, 2, 3, 4, 4, 5, 6, 6, 7, 8]


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _table_rows(out):
    rows = []
    for line in out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            rows.append((int(cells[0]), int(cells[1]), int(cells[2])))
    return rows


@pytest.fixture(scope="module")
def sieve_2m():
    return build_sieve(2_000_000)


def test_criterion_1_table_counts(capsys):
    start = time.perf_counter()
    code = main(["table", "--max", "10", "--method", "dp"])
    elapsed = time.perf_counter() - start
    counts = [r[1] for r in _table_rows(capsys.readouterr().out)]
    ok = code == 0 and counts == EXPECTED_COUNTS and elapsed < 1.0
    _report(
        capsys,
        1,
        ok,
        f"table --max 10 counts {counts} in {elapsed:.3f}s (exact match, < 1s)",
    )


def test_criterion_2_table_prime_column(capsys):
    code = main(["table", "--max", "10", "--method", "dp"])
    primes = [r[2] for r in _table_rows(capsys.readouterr().out)]
    ok = code == 0 and primes == EXPECTED_PRIMES
    _report(capsys, 2, ok, f"primes-below-2n column {primes} (exact match)")


def test_criterion_3_unique_solution_at_5(capsys):
    code = main(["enumerate", "--n", "5"])
    lines = capsys.readouterr().out.splitlines()
    ok = code == 0 and lines == ["1,5,4,3,2"]
    _report(capsys, 3, ok, f"enumerate --n 5 yields exactly {lines}")


def test_criterion_4_published_exhibits(capsys):
    results = []
    for perm in ("2,1", "1,3,2", "2,1,4,3", "1,5,4,3,2"):
        code = main(["verify", "--perm", perm])
        capsys.readouterr()
        results.append((perm, code))
    code = main(["verify", "--perm", "3,2,1,5,4"])
    out = capsys.readouterr().out
    composite_lines = [
        line for line in out.splitlines() if line.endswith("composite")
    ]
    ok = (
        all(c == 0 for _, c in results)
        and code == 2
        and len(composite_lines) == 5
    )
    _report(
        capsys,
        4,
        ok,
        "four known solutions exit 0; 3,2,1,5,4 exits 2 with all five sums "
        "flagged composite",
    )


def test_criterion_5_construct_verify_at_scale(capsys, monkeypatch):
    start = time.perf_counter()
    checked = 0
    for n in list(range(1, 2001)) + [10_000, 100_000, 1_000_000]:
        code = main(["construct", "--n", str(n), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0, n
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code = main(["verify", "--format", "json"])
        capsys.readouterr()
        assert code == 0, n
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 2003 and elapsed < 60.0
    _report(
        capsys,
        5,
        ok,
        f"construct|verify round trip for n = 1..2000 and spot values up to "
        f"10^6 ({checked} cases) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_6_triple_method_agreement(capsys):
    sieve = build_sieve(40)
    start = time.perf_counter()
    triple_ok = all(
        len(solutions_by_backtracking(n))
        == count_solutions_dp(n, sieve)
        == count_solutions_ryser(n, sieve)
        for n in range(1, 10)
    )
    pair_ok = all(
        count_solutions_dp(n, sieve) == count_solutions_ryser(n, sieve)
        for n in range(1, 21)
    )
    elapsed = time.perf_counter() - start
    ok = triple_ok and pair_ok and elapsed < 300.0
    _report(
        capsys,
        6,
        ok,
        f"oracle=dp=ryser for n<=9, dp=ryser for n<=20, in {elapsed:.1f}s (< 300s)",
    )


def test_criterion_7_enumerator_matches_counter(capsys):
    sieve = build_sieve(24)
    ok = all(
        sum(1 for _ in enumerate_solutions(n, sieve)) == count_solutions_dp(n, sieve)
        for n in range(1, 13)
    )
    _report(capsys, 7, ok, "streamed solution count equals dp count for n <= 12")


def test_criterion_8_involution_and_block_sums(capsys):
    sieve = build_sieve(4000)
    ok = True
    for n in range(1, 2001):
        image = construct_prime_sum_permutation(n, sieve).image
        if not all(image[image[k - 1] - 1] == k for k in range(1, n + 1)):
            ok = False
            break
        for b in decompose_blocks(n, sieve):
            if any(i + image[i - 1] != b.prime for i in range(b.lo, b.hi + 1)):
                ok = False
                break
        if not ok:
            break
    _report(
        capsys,
        8,
        ok,
        "all witnesses for n <= 2000 are involutions with constant block sums",
    )


def test_criterion_9_bertrand_spot_check(capsys, sieve_2m):
    top = 1_000_000
    # independent oracle: next-prime array built by one backward walk
    nxt = [0] * (top + 1)
    following = 0
    for m in range(2 * top, 1, -1):
        if m <= top:
            nxt[m] = following
        if sieve_2m.is_prime(m):
            following = m
    gap_ok = all(nxt[k] < 2 * k for k in range(2, top + 1))
    sampled_ok = all(
        sieve_2m.least_prime_greater_than(k) == nxt[k]
        for k in range(2, top + 1, 997)
    )
    ok = gap_ok and sampled_ok
    _report(
        capsys,
        9,
        ok,
        "least prime above k stays below 2k for all 1 < k <= 10^6 "
        "(full oracle sweep + sampled operation calls)",
    )
