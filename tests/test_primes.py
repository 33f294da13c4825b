import pytest

from primeperm import (
    BertrandViolationError,
    PrimeSieve,
    SieveCapError,
    SieveRangeError,
    build_sieve,
)
from primeperm.primes import DEFAULT_LIMIT_CAP

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


@pytest.mark.parametrize(
    "values",
    [[], (), [0], [1], [2], (500,), [2, 3], [4, 9], (1, 0), range(7), range(2, 3)],
)
def test_prime_flags_of_few_values(values):
    # every value is looked up in one call, which for one value gives an
    # int, not a tuple, and takes no value at all for none
    sieve = build_sieve(500)
    assert sieve.prime_flags(values) == bytes(map(is_prime_trial, values))


def test_prime_flags_refuse_a_negative_among_many():
    # a negative index would read a flag from the end of the sieve, so it
    # is refused wherever it stands, as is_prime refuses it; past the limit,
    # the largest value is named
    sieve = build_sieve(500)
    for at in (0, 1, 250, 499):
        values = list(range(2, 502))
        values[at] = -1 - at
        with pytest.raises(ValueError, match=f"got {-1 - at}$") as excinfo:
            sieve.prime_flags(values)
        assert not isinstance(excinfo.value, SieveRangeError)
    values = [*range(300), 900, *range(300), 501]
    with pytest.raises(SieveRangeError, match="^900 is beyond the sieve limit 500$"):
        sieve.prime_flags(values)


def test_prime_bits_match_trial_division():
    sieve = build_sieve(500)
    for values in (
        range(0, 501),
        range(1, 1),
        range(7, 8),
        range(3, 500, 2),
        range(2, 498, 3),
        range(490, 501, 10),
        range(600, 500),
    ):
        expected = sum(1 << c for c, m in enumerate(values) if is_prime_trial(m))
        assert sieve.prime_bits(values) == expected


def test_prime_bits_out_of_range(sieve_small):
    # the range checks of is_prime, whichever end is out of range
    limit = sieve_small.limit
    for values in (range(limit - 5, limit + 2), range(limit, limit + 3, 2)):
        with pytest.raises(SieveRangeError):
            sieve_small.prime_bits(values)
    with pytest.raises(ValueError) as excinfo:
        sieve_small.prime_bits(range(-1, 5))
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


def test_sieve_repr_names_its_limit():
    assert repr(PrimeSieve(10)) == "PrimeSieve(limit=10)"


def test_memory_cap():
    # refused before the flags are allocated
    with pytest.raises(SieveCapError):
        build_sieve(DEFAULT_LIMIT_CAP + 1)


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
