import copy
import json
import pickle
import random
import re
from itertools import chain, starmap

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from primeperm import (
    BertrandViolationError,
    Block,
    NotAPermutationError,
    Permutation,
    PrimeAdjacency,
    SequenceRow,
    SieveRangeError,
    build_sieve,
    construct_prime_sum_permutation,
    decompose_blocks,
    is_valid_solution,
)


from primeperm.walk import _keyed, _lines, _order, _permutations, _proven

from oracles import interleaved_product, is_prime_trial, next_prime_trial


# --- Permutation type ---------------------------------------------------


def test_permutation_basics():
    p = Permutation((1, 5, 4, 3, 2))
    assert p.n == 5
    assert p.apply(2) == 5
    for k in (0, 6):
        with pytest.raises(IndexError, match=f"^position {k} outside 1..5$"):
            p.apply(k)
    assert p.to_text() == "1,5,4,3,2"
    assert p.as_json_dict() == {"n": 5, "image": [1, 5, 4, 3, 2]}


def test_permutation_accepts_lists():
    assert Permutation([2, 1]).image == (2, 1)


# One of each record, its exact repr, and an unequal value of the same class.
RECORDS = [
    (lambda: Permutation((2, 1)), "Permutation(image=(2, 1))", Permutation((1, 2))),
    (lambda: Block(2, 5, 7), "Block(lo=2, hi=5, prime=7)", Block(1, 4, 5)),
    (
        lambda: PrimeAdjacency(2, (3, 1)),
        "PrimeAdjacency(n=2, rows=(3, 1))",
        PrimeAdjacency(2, (3, 0)),
    ),
    (
        lambda: SequenceRow(12, 9216, 9),
        "SequenceRow(n=12, count=9216, primes_below_2n=9)",
        SequenceRow(12, 9216, 8),
    ),
]


@pytest.mark.parametrize(
    "make, text, other", RECORDS, ids=[text.split("(")[0] for _, text, _ in RECORDS]
)
def test_record_behaviour(make, text, other):
    record = make()
    assert repr(record) == text
    assert record == make() and hash(record) == hash(make())
    assert record != other and not record == other
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert repr(record) == text


def test_records_equal_only_their_own_class():
    assert Block(2, 5, 7) != (2, 5, 7)
    assert Permutation((2, 1)) != (2, 1)
    assert Permutation((2, 1)) != ((2, 1),)
    assert SequenceRow(1, 1, 0) != PrimeAdjacency(1, 1)
    with pytest.raises(ValueError):
        Block(2, 5, 8)
    with pytest.raises(ValueError):
        Block(0, 2, 2)


def test_patched_post_init_runs_on_every_construction(monkeypatch):
    seen = []
    check = Permutation.__post_init__

    def spy(self):
        seen.append(tuple(self.image))
        check(self)

    monkeypatch.setattr(Permutation, "__post_init__", spy)
    Permutation([2, 1])
    Permutation.from_text("1,3,2")
    Permutation.from_json({"n": 1, "image": [1]})
    with pytest.raises(NotAPermutationError):
        Permutation((1, 1))
    assert seen == [(2, 1), (1, 3, 2), (1,), (1, 1)]


def test_empty_permutation():
    p = Permutation(())
    assert p.n == 0
    assert p.to_text() == ""
    assert Permutation.from_text("") == p
    assert Permutation.from_text("   ") == p


@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, 1, 2), "entry 1 at position 2 repeats an earlier entry: not a permutation of 1..3"),
        ((1, 3), "entry 3 at position 2 is outside 1..2: not a permutation of 1..2"),
        ((0, 1), "entry 0 at position 1 is outside 1..2"),  # zero is not a contestant
        ((-1, 2), "entry -1 at position 1 is outside 1..2"),
        ((2,), "entry 2 at position 1 is outside 1..1"),
        ((2, 1.0), "entry 1.0 at position 2 is not an int: not a permutation of 1..2"),
        ((2, 2, 5), "entry 2 at position 2 repeats"),  # the first fault, not the worst
        # an echoed entry is cut to 40 characters
        ((1, "x" * 100), "entry '" + "x" * 36 + "... at position 2 is not an int"),
        # past the int-string digit limit, where repr raises
        ((1, 10**5000), "entry <int of 16610 bits> at position 2 is outside 1..2"),
    ],
    ids=[f"bad{i}" for i in range(9)],
)
def test_permutation_rejects_non_bijections(bad, message):
    with pytest.raises(NotAPermutationError, match=re.escape(message)):
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


@st.composite
def product_blocks(draw):
    """n, a prefix and two completion lists, as the enumerator lists one
    block: the firsts rearrange some of the values the prefix leaves
    out, as many as the seconds or one more, and the seconds the rest. One
    entry of either list may have a value replaced (by 0, n + 1, a bool, a
    float), made a float of equal value, dropped, added, or added again,
    which keeps the entry's set of values. Last, the fault drawn, or
    "none"."""
    n = draw(st.integers(0, 9))
    image = draw(st.permutations(range(1, n + 1)))
    cut = draw(st.integers(0, n))
    prefix, rest = tuple(image[:cut]), image[cut:]
    halves = (rest[: (len(rest) + 1) // 2], rest[(len(rest) + 1) // 2 :])
    lists = [
        [tuple(draw(st.permutations(half))) for _ in range(draw(st.integers(0, 4)))]
        for half in halves
    ]
    fault = draw(st.sampled_from(("none", "replace", "float", "drop", "add", "again")))
    entries = lists[draw(st.integers(0, 1))]
    if fault == "none" or not entries:
        return n, prefix, *lists, "none"
    k = draw(st.integers(0, len(entries) - 1))
    entry = list(entries[k])
    at = draw(st.integers(0, max(len(entry) - 1, 0)))
    if fault == "add" or not entry:
        entry.insert(at, draw(_entries(n)))
    elif fault == "again":
        entry.insert(at, entry[-1])
    elif fault == "drop":
        del entry[at]
    else:
        entry[at] = draw(_entries(n)) if fault == "replace" else float(entry[at])
    entries[k] = tuple(entry)
    return n, prefix, *lists, fault


def _built(perms, show=lambda perm: (perm.image, tuple(map(type, perm.image)))):
    """Each permutation's image and entry types (or what show makes of it),
    then the message of the NotAPermutationError that stopped them, if one
    did."""
    out = []
    try:
        for perm in perms:
            out.append(show(perm))
    except NotAPermutationError as error:
        out.append(str(error))
    return out


@given(product_blocks())
@example((4, (1,), [(2, 4.0)], [(3,)], "float"))  # _keyed raises
@example((4, (1,), [(2, 2)], [(3,)], "replace"))  # only _proven raises
def test_block_matches_one_permutation_per_leaf(block):
    # a block passes _keyed and _proven only if each leaf is a permutation
    # of 1..n in plain ints, and fails, with RuntimeError before any leaf,
    # only on a fault that a leaf shows or in a list with no partner. A
    # block that passes gives each leaf, as a Permutation and, where there
    # is a prefix, as a line, as one Permutation per leaf would.
    n, prefix, firsts, seconds, fault = block
    leaves = interleaved_product(prefix, firsts, seconds)
    one_by_one = _built(map(Permutation, leaves))
    sound = not any(isinstance(built, str) for built in one_by_one) and all(
        len(leaf) == n and set(map(type, leaf)) <= {int} for leaf in leaves
    )
    length = n - len(prefix)
    try:
        values = range(n + 1)  # each value written as itself
        keyed = _keyed(firsts, values, 0, length), _keyed(seconds, values, 1, length)
        order = _order(*keyed)
        _proven(prefix, *keyed, order)
    except RuntimeError:
        assert fault != "none" and not (leaves and sound)
        return
    assert sound
    assert _built(_permutations(prefix, *keyed, order)) == one_by_one
    if prefix:
        # called when the stream reaches the block, as enumerate_solutions does
        block = ("[%s]", prefix, *keyed, order)
        lines = chain.from_iterable(starmap(_lines, [block]))
        text = "[{}]".format
        one_by_one = _built(map(Permutation, leaves), lambda p: text(p.to_text()))
        assert _built(lines, str) == one_by_one


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


@given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(1, n + 1))))
@example(())
def test_codecs_round_trip(image):
    p = Permutation(image)
    assert Permutation.from_text(p.to_text()) == p
    wire = json.dumps(p.as_json_dict(), separators=(",", ":"))
    assert Permutation.from_json(json.loads(wire)) == p


def test_to_text_writes_a_bool_entry_as_an_int():
    # True is an int in 1..1, so it is a valid entry; %d writes it as 1,
    # which from_text reads back (str would write "True")
    p = Permutation([True])
    assert p.to_text() == "1"
    assert Permutation.from_text(p.to_text()) == p


def test_from_text_tolerates_spaces():
    assert Permutation.from_text(" 2 , 1 ").image == (2, 1)


@pytest.mark.parametrize(
    "text, token",
    [
        ("1,x,3", "token 2 of 3 ('x')"),
        ("1,,2", "token 2 of 3 ('')"),
        ("a", "token 1 of 1 ('a')"),
        ("1;2", "token 1 of 1 ('1;2')"),
        ("1.5,2", "token 1 of 2 ('1.5')"),
        (" 2 , y , z", "token 2 of 3 (' y ')"),
        # past the int-string digit limit; an echoed token is cut to 40 characters
        ("1," + "9" * 5000, "token 2 of 2 ('" + "9" * 36 + "...)"),
    ],
    ids=["1,x,3", "1,,2", "a", "1;2", "1.5,2", " 2 , y , z", "long-token"],
)
def test_from_text_parse_errors(text, token):
    with pytest.raises(ValueError) as excinfo:
        Permutation.from_text(text)
    assert not isinstance(excinfo.value, NotAPermutationError)
    assert str(excinfo.value) == (
        f"cannot parse {token}: expected comma-separated integers"
    )


def _from_text_by_tokens(text):
    """from_text as first written: split on commas, int() on each token."""
    stripped = text.strip()
    if not stripped:
        return Permutation(())
    tokens = stripped.split(",")
    for k, token in enumerate(tokens, 1):
        try:
            int(token)
        except ValueError:
            shown = repr(token) if len(repr(token)) <= 40 else repr(token)[:37] + "..."
            raise ValueError(
                f"cannot parse token {k} of {len(tokens)} ({shown}): "
                "expected comma-separated integers"
            ) from None
    return Permutation(tuple(map(int, tokens)))


_SHUFFLE_30000 = ",".join(map(str, random.Random(8).sample(range(1, 30001), 30000)))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text",
    [
        "2,1",
        ",".join(map(str, random.Random(7).sample(range(1, 1001), 1000))),
        " 2 , 1 ",
        "2,\n1\n",
        "2,\x0b1",
        "\xa02,\xa01\xa0",
        "+2,1",
        "1_0,9,8,7,6,5,4,3,2,1",
        "02,1",
        "\u0662,\u0661",
        "2,1,",
        "2,,1",
        "true",
        "1,NaN",
        "1.0",
        "1e0",
        "-1",
        "2,3",
        "[1],[2]",
        "[" * 10**4,
        "1," + "9" * 5000,
        # text of 2^16 characters and more, read a piece at a time: faults
        # in later pieces, commas at the first cut, a token longer than a piece
        _SHUFFLE_30000,
        _SHUFFLE_30000.replace(",20000,", ",x,"),
        _SHUFFLE_30000 + ",",
        "11," + "1," * 40000 + "1",
        "11," + "1," * 32767,
        "11," + "1," * 32767 + ",1",
        "1," + "9" * 100_000 + ",2",
    ],
    ids=[
        "canonical", "canonical-1000", "spaces", "newlines", "vertical-tab",
        "no-break-space", "plus-sign", "underscore", "leading-zero",
        "arabic-indic", "trailing-comma", "doubled-comma", "true", "NaN", "1.0",
        "1e0", "-1", "out-of-range", "[1],[2]", "deep-brackets", "5000-digits",
        "canonical-30000", "fault-in-a-later-piece", "trailing-comma-30000",
        "comma-at-the-cut", "trailing-comma-at-the-cut", "empty-token-at-the-cut",
        "token-longer-than-a-piece",
    ],
)
def test_from_text_matches_the_token_parser(text):
    # from_text reads every input, canonical or not, by its tokens alone:
    # the value or error of the parser as first written
    assert _outcome(Permutation.from_text, text) == _outcome(_from_text_by_tokens, text)


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


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 4, "image": [1, 2, 3]},
        {"n": True, "image": [1]},  # a bool is not a length, though True == 1
        {"n": [1] * 10**5, "image": []},  # echoed cut to 40 characters
    ],
    ids=["short", "bool-n", "list-n"],
)
def test_from_json_length_mismatch(obj):
    with pytest.raises(NotAPermutationError) as excinfo:
        Permutation.from_json(obj)
    assert len(str(excinfo.value)) < 100


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
