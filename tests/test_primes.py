import pytest

from primeperm import (
    BertrandViolationError,
    SieveCapError,
    SieveRangeError,
    build_sieve,
)

from oracles import count_primes_below_trial, is_prime_trial, next_prime_trial


def test_sieve_agrees_with_trial_division():
    sieve = build_sieve(500)
    for m in range(501):
        assert sieve.is_prime(m) == is_prime_trial(m), m


@pytest.mark.parametrize(
    "limit,primes",
    [
        (2, {2}),
        (10, {2, 3, 5, 7}),  # trial-division oracle
        (0, set()),
        (1, set()),
    ],
)
def test_sieve_small_limits(limit, primes):
    sieve = build_sieve(limit)
    assert {m for m in range(limit + 1) if sieve.is_prime(m)} == primes


def test_zero_and_one_never_prime():
    sieve = build_sieve(5)
    assert not sieve.is_prime(0)
    assert not sieve.is_prime(1)
    assert sieve.is_prime(2)


def test_is_prime_known_values(sieve_small):
    assert sieve_small.is_prime(2)
    assert not sieve_small.is_prime(9)
    assert sieve_small.is_prime(7)


def test_is_prime_out_of_range(sieve_small):
    with pytest.raises(SieveRangeError):
        sieve_small.is_prime(sieve_small.limit + 1)
    with pytest.raises(ValueError):
        sieve_small.is_prime(-1)


def test_prime_flags_match_trial_division():
    sieve = build_sieve(500)
    values = [*range(501), 97, 0, 500, 2]
    assert sieve.prime_flags(values) == bytes(is_prime_trial(m) for m in values)
    assert sieve.prime_flags([]) == b""


def test_prime_flags_out_of_range(sieve_small):
    # the same range checks as is_prime, whichever value is out of range
    with pytest.raises(SieveRangeError):
        sieve_small.prime_flags([2, sieve_small.limit + 1, 3])
    with pytest.raises(ValueError) as excinfo:
        sieve_small.prime_flags([2, -1, 3])
    assert not isinstance(excinfo.value, SieveRangeError)


@pytest.mark.parametrize("k,expected", [(5, 7), (1, 2), (10, 11)])
def test_least_prime_greater_than_examples(sieve_small, k, expected):
    assert sieve_small.least_prime_greater_than(k) == expected


def test_least_prime_matches_oracle(sieve_small):
    for k in range(1, 301):
        assert sieve_small.least_prime_greater_than(k) == next_prime_trial(k)


def test_least_prime_bertrand_range(sieve_small):
    # the cited prime-gap theorem, checked empirically over the sieve
    for k in range(2, sieve_small.limit // 2 + 1):
        assert sieve_small.least_prime_greater_than(k) < 2 * k


def test_least_prime_requires_headroom():
    sieve = build_sieve(10)
    with pytest.raises(SieveRangeError):
        sieve.least_prime_greater_than(6)  # needs limit >= 12
    assert sieve.least_prime_greater_than(5) == 7
    with pytest.raises(ValueError):
        sieve.least_prime_greater_than(0)


@pytest.mark.parametrize("bound,expected", [(2, 0), (20, 8), (10, 4)])
def test_count_primes_below_examples(sieve_small, bound, expected):
    assert sieve_small.count_primes_below(bound) == expected


def test_count_primes_below_matches_oracle(sieve_small):
    for bound in range(0, 120):
        assert sieve_small.count_primes_below(bound) == count_primes_below_trial(bound)


def test_count_primes_below_steps_at_primes(sieve_small):
    # nondecreasing, and +1 exactly when the bound crosses a prime
    prev = sieve_small.count_primes_below(0)
    for bound in range(1, 301):
        cur = sieve_small.count_primes_below(bound)
        step = cur - prev
        assert step in (0, 1)
        assert step == (1 if is_prime_trial(bound - 1) else 0)
        prev = cur


def test_count_primes_below_bounds(sieve_small):
    limit = sieve_small.limit
    sieve_small.count_primes_below(limit + 1)  # counts the whole table
    with pytest.raises(SieveRangeError):
        sieve_small.count_primes_below(limit + 2)
    with pytest.raises(ValueError):
        sieve_small.count_primes_below(-1)


def test_memory_cap():
    with pytest.raises(SieveCapError):
        build_sieve(2000, limit_cap=1000)
    build_sieve(1000, limit_cap=1000)


def test_negative_limit_rejected():
    with pytest.raises(ValueError):
        build_sieve(-1)


def test_bertrand_violation_surfaces():
    # unreachable for a correct sieve; simulate a broken one with no
    # prime in (10, 20] and check the impossibility is reported rather
    # than searched past
    sieve = build_sieve(20)
    sieve._flags[11:21] = b"\x00" * 10
    with pytest.raises(BertrandViolationError):
        sieve.least_prime_greater_than(10)
