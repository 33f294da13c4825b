from math import isqrt

import pytest

from primeperm import (
    MethodCapError,
    SieveRangeError,
    build_adjacency,
    build_sieve,
    construct_prime_sum_permutation,
    count_solutions,
    count_solutions_dp,
    count_solutions_naive,
    count_solutions_ryser,
    enumerate_solutions,
    is_valid_solution,
    sequence_table,
)

from oracles import count_by_full_iteration, is_prime_trial, solutions_by_backtracking

# Counts for n = 1..10 as published; verified here against full iteration
# and backtracking oracles as well.
KNOWN_COUNTS = [1, 1, 1, 4, 1, 9, 4, 36, 36, 676]
KNOWN_PRIMES_BELOW_2N = [0, 2, 3, 4, 4, 5, 6, 6, 7, 8]
# Frozen from the backtracking oracle (solutions_by_backtracking).
COUNT_N11 = 400
COUNT_N12 = 9216


# --- adjacency ------------------------------------------------------------


def test_adjacency_small_rows(sieve_small):
    adj = build_adjacency(2, sieve_small)
    assert adj.rows == (0b11, 0b01)  # 1+1=2, 1+2=3 prime; 2+2=4 not
    assert build_adjacency(1, sieve_small).rows == (0b1,)
    assert build_adjacency(3, sieve_small).rows[2] == 0b010  # only 3+2=5


def _allows(adj, i, j):
    """Bit j-1 of row i: position i may map to j (both 1-indexed)."""
    return adj.rows[i - 1] >> (j - 1) & 1


def test_adjacency_allows(sieve_small):
    adj = build_adjacency(5, sieve_small)
    assert _allows(adj, 2, 5) and _allows(adj, 5, 2)
    assert not _allows(adj, 2, 2)


def test_adjacency_matches_primality(sieve_small):
    for n in (1, 2, 7, 23, 60):
        adj = build_adjacency(n, sieve_small)
        for i in range(1, n + 1):
            images = {j for j in range(1, n + 1) if _allows(adj, i, j)}
            assert images == {j for j in range(1, n + 1) if is_prime_trial(i + j)}


def test_adjacency_symmetric(sieve_small):
    for n in (2, 9, 31, 64):
        adj = build_adjacency(n, sieve_small)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert _allows(adj, i, j) == _allows(adj, j, i)


def test_adjacency_preconditions(sieve_small):
    with pytest.raises(ValueError):
        build_adjacency(0, sieve_small)
    with pytest.raises(SieveRangeError):
        build_adjacency(11, build_sieve(21))


# --- the three counting routes --------------------------------------------


def test_naive_matches_full_iteration_oracle(sieve_small):
    for n in range(1, 8):
        expected = count_by_full_iteration(n)
        assert count_solutions_naive(n, sieve_small) == expected
        assert count_solutions_naive(n, sieve_small, strict_paper=True) == expected


def test_strict_equals_backtracking_to_eight(sieve_small):
    for n in range(1, 9):
        assert count_solutions_naive(
            n, sieve_small, strict_paper=True
        ) == count_solutions_naive(n, sieve_small)


def test_known_counts_naive(sieve_small):
    for n, expected in enumerate(KNOWN_COUNTS, start=1):
        assert count_solutions_naive(n, sieve_small) == expected


def test_known_counts_dp(sieve_small):
    for n, expected in enumerate(KNOWN_COUNTS, start=1):
        assert count_solutions_dp(n, sieve_small) == expected


def test_known_counts_ryser(sieve_small):
    for n, expected in enumerate(KNOWN_COUNTS, start=1):
        assert count_solutions_ryser(n, sieve_small) == expected


def test_extended_counts_match_backtracking_oracle(sieve_small):
    assert len(solutions_by_backtracking(11)) == COUNT_N11
    assert len(solutions_by_backtracking(12)) == COUNT_N12
    assert count_solutions_dp(11, sieve_small) == COUNT_N11
    assert count_solutions_dp(12, sieve_small) == COUNT_N12
    assert count_solutions_naive(12, sieve_small, cap=12) == COUNT_N12


def test_dp_equals_ryser_midrange(sieve_small):
    for n in range(1, 31):
        assert count_solutions_dp(n, sieve_small, cap=30) == count_solutions_ryser(
            n, sieve_small, cap=30
        )


def test_half_kernels_match_oracle_and_are_squares(sieve_small):
    # dp and ryser count on the odd x even half matrix; the oracle walks
    # the full one
    for n in range(0, 13):
        count = count_solutions_dp(n, sieve_small)
        assert count == count_solutions_ryser(n, sieve_small)
        assert count == len(solutions_by_backtracking(n))
        assert isqrt(count) ** 2 == count


def test_counts_are_positive(sieve_small):
    for n in range(0, 13):
        assert count_solutions_dp(n, sieve_small) >= 1


def test_n_zero_counts_one(sieve_small):
    assert count_solutions_naive(0, sieve_small) == 1
    assert count_solutions_dp(0, sieve_small) == 1
    assert count_solutions_ryser(0, sieve_small) == 1


def test_method_caps(sieve_small):
    with pytest.raises(MethodCapError):
        count_solutions_naive(11, sieve_small)
    with pytest.raises(MethodCapError):
        count_solutions_naive(11, sieve_small, strict_paper=True, cap=99)
    with pytest.raises(MethodCapError):
        count_solutions_dp(27, sieve_small)
    with pytest.raises(MethodCapError):
        count_solutions_ryser(25, sieve_small)
    with pytest.raises(MethodCapError):
        count_solutions_dp(13, sieve_small, cap=12)


def test_dispatcher(sieve_small):
    assert count_solutions(6, sieve_small) == 9
    assert count_solutions(10, sieve_small) == 676  # auto routes to dp
    assert count_solutions(10, sieve_small, "ryser") == 676
    with pytest.raises(ValueError):
        count_solutions(5, sieve_small, "magic")
    with pytest.raises(MethodCapError):
        count_solutions(13, sieve_small, "auto", dp_cap=12)


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
    with pytest.raises(ValueError):
        enumerate_solutions(0, sieve_small)
    with pytest.raises(ValueError):
        enumerate_solutions(5, sieve_small, limit=0)


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
    for method in ("naive", "dp", "ryser"):
        assert [r.count for r in sequence_table(9, method)] == KNOWN_COUNTS[:9]


def test_sequence_row_json():
    rows = sequence_table(10)
    assert rows[9].as_json_dict() == {"n": 10, "count": "676", "primes_below_2n": 8}


def test_sequence_table_rejects_bad_max():
    with pytest.raises(ValueError):
        sequence_table(0)


def test_sequence_table_cap_fails_fast():
    # over-cap max_n must raise before any row is computed
    with pytest.raises(MethodCapError):
        sequence_table(11, "naive")
    with pytest.raises(MethodCapError):
        sequence_table(1000)
    with pytest.raises(MethodCapError):
        sequence_table(25, "ryser", ryser_cap=24)
