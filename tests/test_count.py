import itertools
import re
from functools import reduce
from math import isqrt
from operator import or_
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import primeperm.count as count_module
import primeperm.walk as walk_module
from primeperm import (
    MethodCapError,
    PrimeAdjacency,
    PrimeSieve,
    SieveRangeError,
    build_adjacency,
    build_sieve,
    construct_prime_sum_permutation,
    count_solutions,
    count_solutions_dp,
    count_solutions_ryser,
    enumerate_solutions,
    is_valid_solution,
    sequence_table,
)
from primeperm.count import METHODS, STEP_BUDGET, _steps
from primeperm.primes import DEFAULT_LIMIT_CAP
from primeperm.walk import _keyed, _order, _walk

from oracles import (
    count_by_full_iteration,
    count_by_layered_dp,
    det_gf2,
    half_matrix_rows,
    interleaved_product,
    is_prime_trial,
    leaves_by_backtracking,
    perfect_matching,
    pinned_matrix_rows,
    solutions_by_backtracking,
    solutions_by_matching_pairs,
)
from peak_rss import run_cli

# Counts for n = 1..10 as published; verified here against full iteration
# and backtracking oracles as well.
KNOWN_COUNTS = [1, 1, 1, 4, 1, 9, 4, 36, 36, 676]
KNOWN_PRIMES_BELOW_2N = [0, 2, 3, 4, 4, 5, 6, 6, 7, 8]
# Frozen from the backtracking oracle (solutions_by_backtracking).
COUNT_N11 = 400
COUNT_N12 = 9216
ROOT = Path(__file__).resolve().parent.parent


# --- adjacency ------------------------------------------------------------


def test_adjacency_small_rows(sieve_small):
    # A's rows are the odd positions that take even values
    assert build_adjacency(0, sieve_small).rows == ()
    assert build_adjacency(1, sieve_small).rows == ()  # 1 -> 1 is forced
    assert build_adjacency(2, sieve_small).rows == (0b1,)  # 1+2=3 prime
    assert build_adjacency(3, sieve_small).rows == (0b1,)  # only 3+2=5
    adj = build_adjacency(6, sieve_small)
    assert adj.n == 6 and adj.rows[2] == 0b101  # 5+2=7 and 5+6=11; 5+4=9 not


def _allows(adj, i, j):
    """Bit j-1 of row i: row i of A may take its column j (both 1-indexed)."""
    return adj.rows[i - 1] >> (j - 1) & 1


def test_adjacency_allows(sieve_small):
    adj = build_adjacency(5, sieve_small)  # rows 3, 5 by columns 2, 4
    assert _allows(adj, 1, 2) and _allows(adj, 2, 1)  # 3+4=7 and 5+2=7
    assert not _allows(adj, 2, 2)  # 5+4=9


def test_adjacency_matches_primality(sieve_small):
    for n in (1, 2, 7, 23, 60):
        adj = build_adjacency(n, sieve_small)
        m = n // 2
        assert len(adj.rows) == m
        for i in range(1, m + 1):
            position = 2 * i + 1 if n % 2 else 2 * i - 1  # odd, past 1 at odd n
            columns = range(1, m + 1)
            images = {j for j in columns if _allows(adj, i, j)}
            assert images == {j for j in columns if is_prime_trial(position + 2 * j)}


def test_adjacency_symmetric(sieve_small):
    for n in (2, 9, 31, 64, 65):
        adj = build_adjacency(n, sieve_small)
        for i in range(1, n // 2 + 1):
            for j in range(1, n // 2 + 1):
                assert _allows(adj, i, j) == _allows(adj, j, i)


def test_adjacency_preconditions(sieve_small):
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        build_adjacency(-1, sieve_small)
    with pytest.raises(SieveRangeError):
        build_adjacency(12, build_sieve(21))


def _reference_half_rows(n, sieve):
    """Per entry, from is_prime: bit c of row i iff i + 2(c + 1) is prime,
    for odd i in 1..n and c < n // 2; other indices are dummy rows."""
    prime = [sieve.is_prime(m) for m in range(2 * n + 1)]
    return [
        sum(1 << c for c in range(n // 2) if prime[i + 2 * c + 2]) if i % 2 else 0
        for i in range(n + 1)
    ]


def test_rows_are_sieve_windows(sieve_big):
    # A at n keeps the first n // 2 columns of the rows of the same indices
    # at 2000, so one per-entry reference at 2000 serves every n
    half = _reference_half_rows(2000, sieve_big)
    for n in [*range(0, 301), 1000, 2000]:
        mask = (1 << n // 2) - 1
        expected = tuple(half[i] & mask for i in range(3 if n % 2 else 1, n + 1, 2))
        assert build_adjacency(n, sieve_big).rows == expected


def _trial_half_rows(n, prime):
    """A by its definition, on primality by trial division: one row per odd
    position that takes an even value (1, 3, ... for even n; 3, 5, ... for
    odd n, where 1 -> 1 is forced), and bit c of row i iff i + 2(c + 1) is
    prime, for the even values 2, 4, ..., 2 * (n // 2)."""
    rows = range(3 if n % 2 else 1, n + 1, 2)
    cols = range(2, n + 1, 2)
    return tuple(sum(1 << c for c, j in enumerate(cols) if prime[i + j]) for i in rows)


def test_half_rows_match_trial_division(sieve_small):
    prime = [is_prime_trial(m) for m in range(401)]
    for n in range(0, 201):
        assert build_adjacency(n, sieve_small).rows == _trial_half_rows(n, prime), n


def test_rows_read_only_covered_sums():
    # every entry read is range-checked, no more: the largest sum is 2n - 1
    # in A (row n - 1 and column n for even n, row n and column n - 1 for
    # odd n)
    for n in (10, 11):
        rows = build_adjacency(n, build_sieve(600)).rows
        assert build_adjacency(n, build_sieve(2 * n - 1)).rows == rows
        with pytest.raises(SieveRangeError):
            build_adjacency(n, build_sieve(2 * n - 2))


# --- the two counting kernels ---------------------------------------------


def test_naive_matches_full_iteration_oracle(sieve_small):
    # the naive route, the literal test of all n! permutations, lives in
    # the oracles, outside the package: both kernels against it
    for n in range(1, 9):
        expected = count_by_full_iteration(n)
        assert count_solutions_dp(n, sieve_small) == expected, n
        assert count_solutions_ryser(n, sieve_small) == expected, n


def test_known_counts_dp(sieve_small):
    for n, expected in enumerate(KNOWN_COUNTS, start=1):
        assert count_solutions_dp(n, sieve_small) == expected


def test_known_counts_ryser(sieve_small):
    for n, expected in enumerate(KNOWN_COUNTS, start=1):
        assert count_solutions_ryser(n, sieve_small) == expected


def test_extended_counts_match_backtracking_oracle(sieve_small):
    assert len(solutions_by_backtracking(11)) == COUNT_N11
    assert len(solutions_by_backtracking(12)) == COUNT_N12
    for kernel in (count_solutions_dp, count_solutions_ryser):
        assert kernel(11, sieve_small) == COUNT_N11
        assert kernel(12, sieve_small) == COUNT_N12


def test_counts_match_the_layered_dp_oracle():
    # beyond the backtracking oracle's n = 12: every method, each admitted
    # by the step budget, against a route that shares no code with the
    # package (n = 20 would add 2 s to the suite)
    for n in range(0, 20):
        expected = count_by_layered_dp(n)
        assert _steps(n) <= STEP_BUDGET
        for method in METHODS:
            assert count_solutions(n, method=method) == expected, (n, method)


def test_dp_equals_ryser_midrange(sieve_small):
    for n in range(1, 35):
        count = count_solutions_dp(n, sieve_small)
        assert count == count_solutions_ryser(n, sieve_small)
        assert isqrt(count) ** 2 == count


@pytest.mark.parametrize(
    "kernel, top", [(count_solutions_ryser, 43), (count_solutions_dp, 34)]
)
def test_count_parity_is_the_gf2_determinant(sieve_small, kernel, top):
    # per(A) = det(A) over GF(2), since -1 = 1 there: an elimination that
    # shares no code with either kernel decides isqrt(count) mod 2 at every
    # n the budget admits for ryser (dp to 34, where it takes 0.4 s), and
    # both parities occur
    parities = []
    for n in range(top + 1):
        parity = det_gf2(half_matrix_rows(n))
        assert isqrt(kernel(n, sieve_small)) % 2 == parity, n
        parities.append(parity)
    assert set(parities) == {0, 1}


def test_count_parity_is_the_gf2_determinant_past_the_budget(sieve_small, monkeypatch):
    # the counts past the cross-check, with the budget lifted here only:
    # ryser at n = 45 and 47 (about 5 s), one per(A) even and one odd
    monkeypatch.setattr(count_module, "STEP_BUDGET", 10**9)
    parities = []
    for n in (45, 47):
        parity = det_gf2(half_matrix_rows(n))
        assert isqrt(count_solutions_ryser(n, sieve_small)) % 2 == parity, n
        parities.append(parity)
    assert sorted(parities) == [0, 1]


def test_solutions_are_the_pairs_of_matchings_of_the_half_matrix(sieve_small):
    # the odd and the even positions each take a perfect matching of the one
    # matrix A, so the solutions are exactly the interleaved pairs
    for n in range(1, 12):
        pairs = solutions_by_matching_pairs(n)
        assert pairs == [p.image for p in enumerate_solutions(n, sieve_small)], n
        assert pairs == solutions_by_backtracking(n), n


def test_half_kernels_match_oracle_and_are_squares(sieve_small):
    # dp and ryser count on the odd x even half matrix; the oracle walks
    # the full one
    for n in range(0, 13):
        count = count_solutions_dp(n, sieve_small)
        assert count == count_solutions_ryser(n, sieve_small)
        assert count == len(solutions_by_backtracking(n))
        assert isqrt(count) ** 2 == count


def brute_per(rows):
    """The permanent of 0/1 bitset rows as a sum over all permutations."""
    cols = range(len(rows))
    return sum(
        all(row >> c & 1 for row, c in zip(rows, perm))
        for perm in itertools.permutations(cols)
    )


def _square_matrices(m):
    full = (1 << m) - 1  # zero and all-ones rows, drawn often
    row = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    return st.lists(row, min_size=m, max_size=m).map(tuple)


@given(st.integers(0, 7).flatmap(_square_matrices))
def test_half_kernels_on_any_matrix(sieve_small, rows):
    # the half kernels see A only through build_adjacency, so any 0/1
    # matrix can stand in for the prime-sum block
    m = len(rows)
    adjacency = lambda n, sieve: PrimeAdjacency(n, rows)  # noqa: E731
    with mock.patch.object(count_module, "build_adjacency", adjacency):
        ryser = count_solutions_ryser(2 * m, sieve_small)
        dp = count_solutions_dp(2 * m, sieve_small)
    assert ryser == dp == brute_per(rows) ** 2


def test_ryser_n40_pin(sieve_small):
    # a regression pin, not a cross-check: the value is dp's per(A), and dp
    # shares build_adjacency with ryser
    assert count_solutions_ryser(40, sieve_small) == 3335164762941**2


def test_counts_are_positive(sieve_small):
    for n in range(0, 13):
        assert count_solutions_dp(n, sieve_small) >= 1


def test_n_zero_counts_one(sieve_small):
    assert count_solutions_dp(0, sieve_small) == 1
    assert count_solutions_ryser(0, sieve_small) == 1


# The first n over the step budget, per method.
OVER_BUDGET = [
    (count_solutions_dp, 44),
    (count_solutions_ryser, 44),
]


def test_method_caps(sieve_small):
    for count, n in OVER_BUDGET:
        with pytest.raises(MethodCapError):
            count(n, sieve_small)


def test_budget_refuses_before_any_work(sieve_small, monkeypatch):
    def no_work(*args):
        raise AssertionError("counting work started before the budget check")

    monkeypatch.setattr(count_module, "build_adjacency", no_work)
    monkeypatch.setattr(PrimeSieve, "prime_bits", no_work)
    for count, n in OVER_BUDGET:
        with pytest.raises(MethodCapError):
            count(n, sieve_small)
    with pytest.raises(MethodCapError):
        sequence_table(40)


def _readme_methods_table():
    """(method, largest n, peak MB there) for each row of the table under
    "### Counting methods": | `ryser` | `m * 2^m` | 43 | 1.2 s, 15 MB |"""
    section = (ROOT / "README.md").read_text()
    section = section.split("\n### Counting methods\n")[1].split("\n#")[0]
    row = r"^\| `(\w+)`[^|]*\|[^|]*\| (\d+) \| [^|]*?([\d.]+) MB \|$"
    rows = [(m, int(n), float(mb)) for m, n, mb in re.findall(row, section, re.M)]
    assert {method for method, _, _ in rows} == {"dp", "ryser"}
    return rows


def test_readme_methods_table_matches_budget():
    for method, largest, _ in _readme_methods_table():
        steps = {n: _steps(n) for n in range(1, 100)}
        assert largest == max(n for n in steps if steps[n] <= STEP_BUDGET)


def test_readme_methods_table_peak_rss():
    # bytes, not only steps: the largest n the budget admits stays within
    # the memory the README states for it
    for method, largest, mb in _readme_methods_table():
        code, _, rss_mb = run_cli(["count", "--n", str(largest), "--method", method])
        assert code == 0, (method, largest)
        assert rss_mb <= 1.25 * mb, (method, largest, rss_mb, mb)


@pytest.mark.parametrize("max_n", [5, 10**6])
def test_sequence_table_checks_method_first(monkeypatch, max_n):
    # the same error at any size, before the budget and before any sieve
    def no_sieve(limit):
        raise AssertionError("sieve built before the method check")

    monkeypatch.setattr(count_module, "build_sieve", no_sieve)
    with pytest.raises(ValueError, match="^unknown counting method 'magic'") as info:
        sequence_table(max_n, "magic")
    assert type(info.value) is ValueError  # not its subclass MethodCapError


@pytest.mark.parametrize(
    "count",
    [count_solutions, count_solutions_dp, count_solutions_ryser],
)
def test_counting_refuses_a_negative_n(sieve_small, count):
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$") as info:
        count(-1, sieve_small)
    assert type(info.value) is ValueError  # not its subclass MethodCapError


def test_dispatcher(sieve_small):
    assert count_solutions(6, sieve_small) == 9
    assert count_solutions(10, sieve_small) == 676  # auto routes to dp
    assert count_solutions(10, sieve_small, "ryser") == 676
    with pytest.raises(ValueError):
        count_solutions(5, sieve_small, "magic")
    with pytest.raises(MethodCapError):
        count_solutions(44, sieve_small, "auto")


# --- enumeration -----------------------------------------------------------


def test_enumerate_unique_solutions(sieve_small):
    assert [p.image for p in enumerate_solutions(5, sieve_small)] == [(1, 5, 4, 3, 2)]
    assert [p.image for p in enumerate_solutions(3, sieve_small)] == [(1, 3, 2)]


def test_enumerate_n4_full_list(sieve_small):
    # frozen from the backtracking oracle
    assert [p.image for p in enumerate_solutions(4, sieve_small)] == [
        (2, 1, 4, 3),
        (2, 3, 4, 1),
        (4, 1, 2, 3),
        (4, 3, 2, 1),
    ]


def test_enumerate_matches_oracle_listing(sieve_small):
    for n in range(1, 10):
        ours = [p.image for p in enumerate_solutions(n, sieve_small)]
        assert ours == solutions_by_backtracking(n)


def test_pinned_rows_split_by_parity():
    # the oracle's pinned rows, the unpruned walk's reference, give even and
    # odd depths disjoint values: 1 -> 1 is pinned or cut, and at odd n no
    # other position keeps 1
    for n in range(1, 301):
        rows = pinned_matrix_rows(n)
        assert 0 not in rows, n
        assert reduce(or_, rows[0::2], 0) & reduce(or_, rows[1::2], 0) == 0, n


def _leaves(blocks):
    """The leaf images of _walk's blocks (prefix, firsts, seconds, order),
    in order, by the oracle's own product and sort of their entries, once
    each block's order has been found to list them so."""
    for prefix, (firsts, *_), (seconds, *_), (fi, sj) in blocks:
        leaves = interleaved_product(prefix, firsts, seconds)
        pairs = zip(fi, sj)
        ordered = [interleaved_product(prefix, [firsts[i]], [seconds[j]]) for i, j in pairs]
        assert sum(ordered, []) == leaves
        yield from leaves


@st.composite
def _sorted_lists(draw):
    """n, and sorted lists of firsts and of seconds over 1..n, as _keyed
    takes them: each list the distinct orders of one tuple, so of one set
    of values, n often among them, and a first as long as a second or one
    longer."""
    n = draw(st.one_of(st.integers(1, 6), st.integers(1, 16384)))
    values = st.one_of(st.just(n), st.integers(1, n))
    shorter = draw(st.integers(0, 5))
    lists = []
    for size in (shorter + draw(st.integers(0, 1)), shorter):
        base = draw(st.lists(values, min_size=size, max_size=size))
        orders = st.lists(st.permutations(base).map(tuple), min_size=1, max_size=8)
        lists.append(sorted(set(draw(orders))))
    return n, *lists


@given(_sorted_lists())
def test_tail_keys_sort_as_the_interleaved_tails(case):
    # a tail's key is its first's plus its second's: digits in base n + 1
    n, firsts, seconds = case
    length = len(firsts[0]) + len(seconds[0])
    values = range(n + 1)  # each value written as itself
    keyed = _keyed(firsts, values, 0, length), _keyed(seconds, values, 1, length)
    assert keyed[0][1] is not None and keyed[1][1] is not None
    fi, sj = _order(*keyed)
    tails = [interleaved_product((), [firsts[i]], [seconds[j]]) for i, j in zip(fi, sj)]
    assert sum(tails, []) == interleaved_product((), firsts, seconds)


@pytest.mark.parametrize(
    "entries",
    [
        [(3, 1), (1, 3)],  # sound: keyed
        [(0, 1), (1, 0)],  # 0 is below 1..n
        [(5, 1), (1, 5)],  # 5 is past 1..n, n = 4
        [(True, 3), (3, 1)],  # a bool
        [(1.0, 3), (3, 1)],  # a float
        [(1, 3), (3,)],  # two lengths
        [(1, 3), (3, 2)],  # two sets of values
        [(1, 3, 2)],  # longer than its offsets
    ],
    ids=["sound", "zero", "past-n", "bool", "float", "lengths", "sets", "length"],
)
def test_keyed_refuses_what_its_keys_cannot_sort(entries):
    # firsts of a tail of length 3 at n = 4: keys and cells only for ints
    # in 1..4 of one length and one set of values, two of them; anything
    # else is a broken walk, and raises
    if entries[0] != (3, 1):
        with pytest.raises(RuntimeError, match="completion list"):
            _keyed(entries, range(5), 0, 3)
        return
    entries, keys, cells = _keyed(entries, range(5), 0, 3)
    assert keys == [3 * 25 + 1, 1 * 25 + 3] and cells == [",3,%s,1", ",1,%s,3"]


def test_enumerate_equals_the_unpruned_walk(sieve_small):
    # the matching's repairs only skip dead subtrees: the stream is the
    # oracle's unpruned backtracking over the full rows, pinned by parity
    for n in range(1, 15):
        ours = [p.image for p in enumerate_solutions(n, sieve_small)]
        assert ours == list(leaves_by_backtracking(pinned_matrix_rows(n))), n
    for n in (15, 16):
        ours = [p.image for p in enumerate_solutions(n, sieve_small, limit=50_000)]
        leaves = leaves_by_backtracking(pinned_matrix_rows(n))
        assert ours == list(itertools.islice(leaves, 50_000)), n


# no deadline: the unpruned backtracking takes 0.7 s to its 20th leaf at
# n = 111
@settings(deadline=None)
@given(n=st.integers(1, 150), limit=st.integers(1, 20))
def test_enumerate_is_a_prefix_of_the_unpruned_walk(sieve_small, n, limit):
    ours = [p.image for p in enumerate_solutions(n, sieve_small, limit=limit)]
    leaves = leaves_by_backtracking(pinned_matrix_rows(n))
    assert ours == list(itertools.islice(leaves, limit))


def test_enumerate_tail_product_at_every_cut(sieve_small, monkeypatch):
    # wherever the walk hands the last rows to the tail product, the stream
    # is the unpruned backtracking's; test_enumerate_equals_the_unpruned_walk
    # checks the first 50 000 leaves at n = 15 and 16 with the shipped
    # _TAIL_ROWS
    for n in range(1, 14):
        leaves = list(leaves_by_backtracking(pinned_matrix_rows(n)))
        for tail_rows in range(1, max(1, n // 2) + 1):
            monkeypatch.setattr(walk_module, "_TAIL_ROWS", tail_rows)
            ours = [p.image for p in enumerate_solutions(n, sieve_small)]
            assert ours == leaves, (n, tail_rows)


@st.composite
def _half_matrices(draw):
    """An n, any m x m matrix A, m = n // 2 in 1..6, often with a planted
    perfect matching, and a number of tail rows."""
    n = draw(st.integers(2, 13))
    m = n // 2
    rows = list(draw(_square_matrices(m)))
    if draw(st.booleans()):
        plant = draw(st.permutations(range(m)))  # row i may take value plant[i] + 1
        rows = [row | 1 << plant[i] for i, row in enumerate(rows)]
    return n, rows, draw(st.integers(1, 6))


# m = 6 with _TAIL_ROWS = 6: the cut is at depth 1, so the half below it
# keeps all six levels and a list may hold 6! = 720 entries, past a byte
_SIX_TAIL_ROWS = (12, [63, 63, 63, 63, 63, 7], 6)


def _writing(n):
    """The head of _walk's images at n and each half's shift: a value v of
    A at a level of half h is written 2v + shifts[h]."""
    return ((1,), (1, 0)) if n % 2 else ((), (0, -1))


def _interleaved_rows(rows, n):
    """The rows over 1..n that A gives both halves at n: depth d takes row
    d // 2 of A, each value v written as half d % 2 writes it, after the
    row {1} of the head."""
    head, shifts = _writing(n)
    values = range(1, len(rows) + 1)
    return [1] * len(head) + [
        sum(1 << 2 * v + shifts[d % 2] - 1 for v in values if rows[d // 2] >> v - 1 & 1)
        for d in range(2 * len(rows))
    ]


def _matchings(rows):
    """A perfect matching of A for each half, the second found in the other
    row order, so often another one; None if there is none."""
    match = perfect_matching(rows)
    return match and [match, perfect_matching(rows[::-1])[::-1]]


@settings(deadline=None)
@given(case=_half_matrices())
@example(case=_SIX_TAIL_ROWS)
def test_walk_with_a_matching_is_the_unpruned_walk(case):
    # the two matchings, their repairs and the tail product change no leaf
    # of the oracle's unpruned backtracking over the rows A gives both
    # halves, also where the cut is at depth 1 and the halves share A's
    # values; a matrix with no perfect matching has no leaf
    n, rows, tail_rows = case
    matches = _matchings(rows)
    unpruned = list(leaves_by_backtracking(_interleaved_rows(rows, n)))
    if matches is None:
        assert unpruned == []
        return
    with mock.patch.object(walk_module, "_TAIL_ROWS", tail_rows):
        assert list(_leaves(_walk(rows, n, matches))) == unpruned


@settings(deadline=None)
@given(case=_half_matrices())
@example(case=_SIX_TAIL_ROWS)
def test_walk_keeps_a_perfect_matching_that_agrees_with_the_prefix(case):
    # at every block each half's matching, repaired in place, is still a
    # perfect matching of A, and the two give each depth of the prefix its
    # image
    n, rows, tail_rows = case
    matches = _matchings(rows)
    assume(matches is not None)
    head, shifts = _writing(n)
    with mock.patch.object(walk_module, "_TAIL_ROWS", tail_rows):
        for prefix, *_ in _walk(rows, n, matches):
            for match in matches:
                assert sorted(match) == list(range(1, len(rows) + 1))
                assert all(row >> (v - 1) & 1 for row, v in zip(rows, match))
            depths = range(2 * len(rows))
            image = head + tuple(2 * matches[d % 2][d // 2] + shifts[d % 2] for d in depths)
            assert image[: len(prefix)] == prefix


def _units(key, kept) -> int:
    """The units a list or an order the walk keeps counts against its room:
    one, and one for each entry, key and cell of a list that passed its
    checks (entry alone of one that failed), or for each index of an
    order, into the firsts and into the seconds."""
    if isinstance(key, tuple):
        return 1 + 2 * len(kept[0])
    entries, keys, cells = kept
    return 1 + len(entries) * (1 if keys is None else 3)


def test_enumerate_completion_lists_stay_within_room(sieve_small, monkeypatch):
    # with room for 1000 (or 4000) units, the completion lists, their keys
    # and cells, and the orders of their pairs stay within it and are
    # dropped together; the stream does not change. With the shipped room
    # the full n = 15 stream never drops them.
    walk = walk_module._walk
    held, orders = [], []

    def watched(*args):
        blocks = walk(*args)
        for block in blocks:
            state = blocks.gi_frame.f_locals
            lists = state["lists"]
            units = sum(_units(key, kept) for key, kept in lists.items())
            assert units == state["held"] <= walk_module._LIST_ROOM, units
            held.append(units)
            orders.append(sum(isinstance(key, tuple) for key in lists))
            yield block

    monkeypatch.setattr(walk_module, "_walk", watched)
    list(enumerate_solutions(15, sieve_small))
    assert held == sorted(held) and orders[-1] > 0
    for n, room in itertools.product((12, 13, 14), (1000, 4000)):
        full = [p.image for p in enumerate_solutions(n, sieve_small)]
        held.clear()
        orders.clear()
        with monkeypatch.context() as patch:
            patch.setattr(walk_module, "_LIST_ROOM", room)
            assert [p.image for p in enumerate_solutions(n, sieve_small)] == full
        # lists and orders were kept, and dropped when they outgrew their room
        assert max(orders) > 0, (n, room)
        assert any(after < before for before, after in itertools.pairwise(held))


@pytest.mark.parametrize(
    "fault",
    [
        # the second value written over by the first: a repeat
        lambda entry: (entry[0], entry[0], *entry[2:]),
        # the smallest value left out: the entry is one short
        lambda entry: tuple(v for v in entry if v != min(entry)),
        # the first value as a float of equal value
        lambda entry: (float(entry[0]), *entry[1:]),
        # the largest value, never 1, as True, which equals 1
        lambda entry: tuple(True if v == max(entry) else v for v in entry),
    ],
    ids=["repeat", "missing", "float", "bool"],
)
def test_enumerate_checks_every_tail_of_a_block(sieve_small, monkeypatch, fault):
    # a faulty last entry in each completion list of more than one entry
    # past the first block's two, as a slip in the walk would make one,
    # raises RuntimeError before any solution of the first block that takes
    # such a list, as Permutations and as lines: the stream up to there is
    # the true one, block by block
    for line in (None, "%s"):
        with monkeypatch.context() as patch:
            _check_every_tail(sieve_small, patch, fault, line)


def _check_every_tail(sieve_small, monkeypatch, fault, line):
    true = list(enumerate_solutions(12, sieve_small, line=line))
    completions, walk = walk_module._completions, walk_module._walk
    blocks, built, faulted = [], [], []

    def faulty(rows, key):
        found = completions(rows, key)
        built.append(found)
        if len(built) > 2 and len(found) > 1:
            found[-1] = fault(found[-1])
            faulted.append(found)
        return found

    def recorded(*args):
        for block in walk(*args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(walk_module, "_completions", faulty)
    monkeypatch.setattr(walk_module, "_walk", recorded)
    got = []
    with pytest.raises(RuntimeError, match="completion list"):
        got.extend(enumerate_solutions(12, sieve_small, line=line))
    assert faulted and got and got == true[: len(got)]
    assert len(got) == sum(len(order[0]) for *_, order in blocks)
    lists = [kept[0] for block in blocks for kept in block[1:3]]
    assert not any(entries is kept for entries in faulted for kept in lists)


@pytest.mark.parametrize(
    "line",
    ["%%s <%s> 100%%", "%%%s%%%%", "%%%%s\0%s\1%%s", "%d", "no placeholder"],
)
def test_enumerate_lines_resolve_percent_escapes(sieve_small, line):
    # line is text around one %s, with no other %: %% escapes, another
    # conversion or no %s at all raise before any work, even at n = 0 and
    # 1, with the line clipped in the message; the same text with its %
    # signs dropped, around one %s, is kept as it is, through the more
    # than one % pass a block's lines go through
    refused = "line must hold one %s and no other %, got "
    around = line.replace("%", "")
    for n in range(13):
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}"):
            enumerate_solutions(n, sieve_small, line=line)
        good = f"{around}%s{around}"
        expected = [good % p.to_text() for p in enumerate_solutions(n, sieve_small)]
        assert list(enumerate_solutions(n, sieve_small, line=good)) == expected
    with pytest.raises(ValueError) as info:
        enumerate_solutions(2, sieve_small, line=line * 100)
    assert str(info.value) == refused + repr(line * 100)[:37] + "..."


def test_enumerate_stream_properties(sieve_small):
    for n in range(1, 11):
        seen = []
        for perm in enumerate_solutions(n, sieve_small):
            assert is_valid_solution(perm, sieve_small)
            seen.append(perm.image)
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)  # strictly increasing lexicographic
        assert len(seen) == count_solutions_dp(n, sieve_small)


def test_enumerate_contains_constructed_witness(sieve_small):
    for n in range(1, 11):
        witness = construct_prime_sum_permutation(n, sieve_small)
        assert witness.image in {p.image for p in enumerate_solutions(n, sieve_small)}


def test_enumerate_limit(sieve_small):
    full = [p.image for p in enumerate_solutions(6, sieve_small)]
    assert len(full) == 9
    assert [p.image for p in enumerate_solutions(6, sieve_small, limit=4)] == full[:4]
    assert len(list(enumerate_solutions(6, sieve_small, limit=100))) == 9


def test_enumerate_first_solution_even_n(sieve_small):
    # even n: the dead subtree under 1 -> 1 is skipped, not searched
    (first,) = enumerate_solutions(30, sieve_small, limit=1)
    assert first.image[0] == 2
    assert is_valid_solution(first, sieve_small)


def test_enumerate_preconditions(sieve_small):
    assert [p.image for p in enumerate_solutions(0, sieve_small)] == [()]
    with pytest.raises(ValueError):
        enumerate_solutions(-1, sieve_small)
    with pytest.raises(ValueError):
        enumerate_solutions(5, sieve_small, limit=0)


def test_enumerate_refuses_rows_over_the_cap(monkeypatch):
    # m ceil(m / 8) bytes of rows, m = n // 2: 2^15 * 2^12 = 2^27 at
    # n = 65537, the cap, and 134254593 at 65538
    def no_work(*args):
        raise AssertionError("enumeration work started before the memory check")

    monkeypatch.setattr(count_module, "build_adjacency", no_work)
    monkeypatch.setattr(count_module, "build_sieve", no_work)
    for n, estimate in ((65538, 134254593), (10**5, 312500000), (2**26, 2**47)):
        message = f"at n = {n} is estimated at {estimate} bytes .* cap of {DEFAULT_LIMIT_CAP}"
        for limit in (None, 1):
            with pytest.raises(MethodCapError, match=message):
                enumerate_solutions(n, limit=limit)
    with pytest.raises(AssertionError, match="work started"):  # admitted
        enumerate_solutions(65537, limit=1)


def _readme_enumerate_peak():
    """(n, MB) from the README's "`enumerate --n 65537 --limit 1` takes
    1.7 s and peaks at 166 MB"."""
    found = re.search(
        r"`enumerate --n (\d+) --limit 1` takes [\d.]+ s and peaks at\s+([\d.]+) MB",
        (ROOT / "README.md").read_text(),
    )
    return int(found[1]), float(found[2])


def test_readme_enumerate_peak_rss():
    # the largest n the memory estimate admits prints a solution within the
    # MB the README states for it, and the next n is refused
    largest, mb = _readme_enumerate_peak()
    peaks = {}
    for n in (largest, largest + 1):
        code, out, rss_mb = run_cli(["enumerate", "--n", str(n), "--limit", "1"])
        peaks[n] = code, out.splitlines(), rss_mb
    code, lines, rss_mb = peaks[largest]
    assert code == 0
    image = list(map(int, lines[0].split(",")))
    assert sorted(image) == list(range(1, largest + 1))
    assert all(is_prime_trial(k + v) for k, v in enumerate(image, 1))
    assert rss_mb <= 1.25 * mb, (largest, rss_mb, mb)
    assert peaks[largest + 1][:2] == (65, [])


# --- sequence table ---------------------------------------------------------


def test_sequence_table_known_rows():
    rows = sequence_table(10)
    assert [r.count for r in rows] == KNOWN_COUNTS
    assert [r.primes_below_2n for r in rows] == KNOWN_PRIMES_BELOW_2N
    assert [r.n for r in rows] == list(range(1, 11))


def test_sequence_table_single_row():
    rows = sequence_table(1)
    assert len(rows) == 1
    assert (rows[0].n, rows[0].count, rows[0].primes_below_2n) == (1, 1, 0)


def test_sequence_table_extended():
    rows = sequence_table(12)
    assert [r.count for r in rows[:10]] == KNOWN_COUNTS
    assert rows[10].count == COUNT_N11
    assert rows[11].count == COUNT_N12


def test_sequence_table_methods_agree():
    for method in ("dp", "ryser"):
        assert [r.count for r in sequence_table(9, method)] == KNOWN_COUNTS[:9]


def test_sequence_table_rejects_bad_max():
    with pytest.raises(ValueError):
        sequence_table(0)


def test_sequence_table_cap_fails_fast():
    # an over-budget max_n must raise before any row is computed
    with pytest.raises(MethodCapError):
        sequence_table(40, "ryser")
    with pytest.raises(MethodCapError):
        sequence_table(1000)
