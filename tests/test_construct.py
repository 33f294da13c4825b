import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primeperm import (
    BertrandViolationError,
    Block,
    NotAPermutationError,
    Permutation,
    SieveRangeError,
    build_sieve,
    construct_prime_sum_permutation,
    decompose_blocks,
    is_valid_solution,
)

from oracles import is_prime_trial, next_prime_trial


# --- Permutation type ---------------------------------------------------


def test_permutation_basics():
    p = Permutation((1, 5, 4, 3, 2))
    assert p.n == 5
    assert p.apply(2) == 5
    assert p.to_text() == "1,5,4,3,2"
    assert p.as_json_dict() == {"n": 5, "image": [1, 5, 4, 3, 2]}


def test_permutation_accepts_lists():
    assert Permutation([2, 1]).image == (2, 1)


def test_empty_permutation():
    p = Permutation(())
    assert p.n == 0
    assert p.to_text() == ""
    assert Permutation.from_text("") == p
    assert Permutation.from_text("   ") == p


@pytest.mark.parametrize(
    "bad",
    [
        (1, 1, 2),  # repeated element
        (1, 3),  # 3 outside 1..2
        (0, 1),  # zero is not a contestant
        (-1, 2),
        (2,),
    ],
)
def test_permutation_rejects_non_bijections(bad):
    with pytest.raises(NotAPermutationError):
        Permutation(bad)


def reference_is_permutation(image) -> bool:
    """The bijection check as a plain per-element loop: every entry an int
    (bools included) in 1..n, no entry twice."""
    n = len(image)
    seen = set()
    for v in image:
        if not isinstance(v, int) or not 1 <= v <= n or v in seen:
            return False
        seen.add(v)
    return True


def _entries(n):
    """0, negatives, values above n, bools and floats (some equal to a
    valid entry)."""
    return st.one_of(
        st.integers(-2, n + 2),
        st.booleans(),
        st.floats(-2, n + 2),
        st.integers(1, max(n, 1)).map(float),
    )


@st.composite
def candidate_images(draw):
    """A permutation of 1..n (n = 0 included) with 0-2 entries replaced,
    or a list of arbitrary entries; both forms produce duplicates."""
    n = draw(st.integers(0, 9))
    if draw(st.booleans()):
        return tuple(draw(st.lists(_entries(n), min_size=n, max_size=n)))
    image = list(draw(st.permutations(range(1, n + 1))))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        image[draw(st.integers(0, n - 1))] = draw(_entries(n))
    return tuple(image)


@given(candidate_images())
def test_permutation_validation_matches_reference(image):
    if reference_is_permutation(image):
        assert Permutation(image).image == image
        assert Permutation(list(image)).image == image
    else:
        with pytest.raises(NotAPermutationError):
            Permutation(image)


@given(
    st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.data(),
)
def test_from_json_non_int_entry_is_plain_value_error(image, data):
    good = Permutation.from_json({"n": len(image), "image": list(image)})
    assert good.image == tuple(image)
    bad = list(image)
    bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(
        st.one_of(st.booleans(), st.floats(), st.text(max_size=3))
    )
    with pytest.raises(ValueError) as excinfo:
        Permutation.from_json({"n": len(bad), "image": bad})
    assert type(excinfo.value) is ValueError


def test_from_text_round_trip():
    for text in ("1", "2,1", "1,5,4,3,2", "10,9,8,7,6,5,4,3,2,1"):
        assert Permutation.from_text(text).to_text() == text


def test_from_text_tolerates_spaces():
    assert Permutation.from_text(" 2 , 1 ").image == (2, 1)


@pytest.mark.parametrize("text", ["1,x,3", "1,,2", "a", "1;2", "1.5,2"])
def test_from_text_parse_errors(text):
    with pytest.raises(ValueError) as excinfo:
        Permutation.from_text(text)
    assert not isinstance(excinfo.value, NotAPermutationError)


def test_from_json():
    p = Permutation.from_json({"n": 5, "image": [1, 5, 4, 3, 2]})
    assert p.image == (1, 5, 4, 3, 2)


@pytest.mark.parametrize(
    "obj",
    [
        {"image": [1, 2]},
        {"n": 2},
        {"n": 2, "image": "1,2"},
        {"n": 2, "image": [1, "2"]},
        [1, 2],
    ],
)
def test_from_json_malformed(obj):
    with pytest.raises(ValueError):
        Permutation.from_json(obj)


def test_from_json_length_mismatch():
    with pytest.raises(NotAPermutationError):
        Permutation.from_json({"n": 4, "image": [1, 2, 3]})


# --- block decomposition ------------------------------------------------


def test_decompose_examples(sieve_small):
    assert decompose_blocks(5, sieve_small) == [Block(2, 5, 7), Block(1, 1, 2)]
    assert decompose_blocks(1, sieve_small) == [Block(1, 1, 2)]
    assert decompose_blocks(4, sieve_small) == [Block(1, 4, 5)]


def test_decompose_invariants(sieve_small):
    for n in range(1, 201):
        blocks = decompose_blocks(n, sieve_small)
        covered = []
        for b in blocks:
            assert 1 <= b.lo <= b.hi
            assert b.prime == b.lo + b.hi
            assert is_prime_trial(b.prime)
            # minimality: the block prime is the least prime above hi
            assert b.prime == next_prime_trial(b.hi)
            if b.lo == b.hi:
                assert (b.lo, b.hi, b.prime) == (1, 1, 2)
            covered.extend(range(b.lo, b.hi + 1))
        # descending, and a partition of 1..n
        assert blocks[0].hi == n
        assert blocks[-1].lo == 1
        assert sorted(covered) == list(range(1, n + 1))
        for prev, cur in zip(blocks, blocks[1:]):
            assert cur.hi == prev.lo - 1


def test_decompose_needs_big_enough_sieve():
    with pytest.raises(SieveRangeError):
        decompose_blocks(10, build_sieve(19))
    decompose_blocks(10, build_sieve(20))


def test_decompose_rejects_nonpositive(sieve_small):
    with pytest.raises(ValueError):
        decompose_blocks(0, sieve_small)


def test_decompose_surfaces_bertrand_violation():
    # doctored sieve: no prime in (10, 20], next survivor 23, so the
    # block above 10 would not close below 2*10
    sieve = build_sieve(50)
    sieve._flags[11:23] = b"\x00" * 12
    with pytest.raises(BertrandViolationError):
        decompose_blocks(10, sieve)


# --- witness construction -----------------------------------------------


def test_construct_examples(sieve_small):
    assert construct_prime_sum_permutation(5, sieve_small).image == (1, 5, 4, 3, 2)
    assert construct_prime_sum_permutation(1, sieve_small).image == (1,)
    witness4 = construct_prime_sum_permutation(4, sieve_small)
    assert witness4.image == (4, 3, 2, 1)
    assert [k + v for k, v in enumerate(witness4.image, start=1)] == [5, 5, 5, 5]


def test_construct_empty(sieve_small):
    assert construct_prime_sum_permutation(0, sieve_small).image == ()


def test_construct_rejects_negative(sieve_small):
    with pytest.raises(ValueError):
        construct_prime_sum_permutation(-1, sieve_small)


def test_constructed_witnesses_are_valid(sieve_small):
    for n in range(1, 301):
        perm = construct_prime_sum_permutation(n, sieve_small)
        assert is_valid_solution(perm, sieve_small), n


def test_constructed_witnesses_are_involutions(sieve_small):
    for n in range(1, 301):
        image = construct_prime_sum_permutation(n, sieve_small).image
        assert all(image[image[k - 1] - 1] == k for k in range(1, n + 1)), n


def test_block_sums_are_constant(sieve_small):
    for n in (1, 2, 5, 17, 100, 211):
        image = construct_prime_sum_permutation(n, sieve_small).image
        for b in decompose_blocks(n, sieve_small):
            assert all(i + image[i - 1] == b.prime for i in range(b.lo, b.hi + 1))


def test_construction_is_deterministic(sieve_small):
    for n in (3, 12, 50):
        a = construct_prime_sum_permutation(n, sieve_small)
        b = construct_prime_sum_permutation(n, sieve_small)
        assert a == b


# --- validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "image,expected",
    [
        ((1, 5, 4, 3, 2), True),
        ((3, 2, 1, 5, 4), False),  # every total composite
        ((2, 1, 4, 3), True),
        ((2, 1), True),
        ((1, 3, 2), True),
    ],
)
def test_validator_known_permutations(sieve_small, image, expected):
    assert is_valid_solution(image, sieve_small) == expected


def test_validator_vacuous_for_empty(sieve_small):
    assert is_valid_solution((), sieve_small)


def test_validator_checks_bijection(sieve_small):
    with pytest.raises(NotAPermutationError):
        is_valid_solution((1, 1, 2), sieve_small)


def test_validator_needs_big_enough_sieve():
    with pytest.raises(SieveRangeError):
        is_valid_solution((2, 1, 4, 3), build_sieve(7))


def test_validator_matches_trial_division(sieve_small):
    # soundness against a direct loop, over random permutations
    rng = random.Random(20260810)
    for n in list(range(1, 16)) + [40, 99]:
        for _ in range(20):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            direct = all(is_prime_trial(k + image[k - 1]) for k in range(1, n + 1))
            assert is_valid_solution(image, sieve_small) == direct
