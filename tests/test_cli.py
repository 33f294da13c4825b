import argparse
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import primeperm
from oracles import is_prime_trial
from peak_rss import run_cli
from primeperm import (
    Block,
    NotAPermutationError,
    Permutation,
    PrimeSieve,
    build_sieve,
    construct_prime_sum_permutation,
    decompose_blocks,
)
from primeperm import cli
from primeperm import construct as construct_module
from primeperm import count as count_module
from primeperm import primes as primes_module
from primeperm import runs as runs_module
from primeperm import verify as verify_module
from primeperm import walk as walk_module
from primeperm.cli import (
    BLOCK_LINES,
    EXIT_CAP,
    EXIT_COMPOSITE,
    EXIT_ERROR,
    EXIT_NOT_PERMUTATION,
    EXIT_OK,
    EXIT_USAGE,
    _rounds_table,
    build_parser,
    main,
)
from primeperm.construct import STDIN_PIECE

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- construct ---------------------------------------------------------------


def test_construct_text_table(capsys):
    code, out, err = run(capsys, "construct", "--n", "5")
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("Round 1") and lines[0].endswith("1  2  3  4  5")
    assert lines[1].startswith("Round 2") and lines[1].endswith("1  5  4  3  2")
    assert lines[2].startswith("Total") and lines[2].endswith("2  7  7  7  7")


ROUNDS_N12 = (
    "Round 1 |  1   2   3   4   5   6   7   8   9  10  11  12\n"
    "Round 2 | 12  11  10   9   8   7   6   5   4   3   2   1\n"
    "Total   | 13  13  13  13  13  13  13  13  13  13  13  13\n"
)
# Blocks [4, 13], [2, 3] and [1, 1]: one- and two-digit columns side by side.
ROUNDS_N13 = (
    "Round 1 | 1  2  3   4   5   6   7   8   9  10  11  12  13\n"
    "Round 2 | 1  3  2  13  12  11  10   9   8   7   6   5   4\n"
    "Total   | 2  5  5  17  17  17  17  17  17  17  17  17  17\n"
)


@pytest.mark.parametrize("n,expected", [(12, ROUNDS_N12), (13, ROUNDS_N13)])
def test_construct_text_golden(capsys, n, expected):
    assert run(capsys, "construct", "--n", str(n)) == (EXIT_OK, expected, "")


def test_construct_n1(capsys):
    code, out, _ = run(capsys, "construct", "--n", "1")
    assert code == EXIT_OK
    assert "2" in out.splitlines()[2]  # the lone total


def test_construct_json(capsys):
    code, out, err = run(capsys, "construct", "--n", "4", "--format", "json")
    assert code == EXIT_OK and err == ""
    assert out.strip() == '{"n":4,"image":[4,3,2,1]}'


# Starts and ends of runs: at and around multiples of 1000 and powers of ten.
_RUN_ANCHORS = [0, 1, 9, 10, 99, 100, 999, 1000, 1999, 2000, 9999, 10**4, 10**5, 10**7]


@given(
    anchor=st.sampled_from(_RUN_ANCHORS),
    offset=st.integers(-2, 2),
    anchor_is_first=st.booleans(),
    size=st.sampled_from([0, 1, 2, 999, 1000, 1001, 2500]),
    step=st.sampled_from([1, -1]),
    width=st.integers(0, 8),
    sep=st.sampled_from(["  ", ","]),
)
@example(
    anchor=1000, offset=0, anchor_is_first=True, size=1000, step=1, width=4, sep="  "
)
@example(
    anchor=9999, offset=0, anchor_is_first=True, size=2500, step=-1, width=0, sep=","
)
@example(
    anchor=10**4, offset=0, anchor_is_first=False, size=1001, step=1, width=8, sep="  "
)
def test_run_matches_one_format_per_cell(
    anchor, offset, anchor_is_first, size, step, width, sep
):
    # a run of consecutive values is written one piece per group of values
    # that share their digits above the last three, with the bytes of one
    # %-format per cell
    first = anchor + offset
    if not anchor_is_first:  # the anchor is the run's last value
        first -= (size - 1) * step
    values = range(first, first + size * step, step)
    assume(min(values, default=0) >= 0)
    pieces = list(runs_module._run(first, size, step, width, sep))
    assert "".join(pieces) == sep.join("%*d" % (width, v) for v in values)
    assert len(pieces) == len({v // 1000 for v in values})


_NO_TILE = "blocks do not tile 1..7"


def _blocks_of_7(case):
    # the witness of n = 7 has the blocks [4, 7], [2, 3] and [1, 1]
    return {
        "gap": [Block(4, 7, 11), Block(1, 1, 2)],
        "overlap": [Block(4, 7, 11), Block(3, 4, 7), Block(1, 2, 3)],
        "short": [Block(2, 3, 5), Block(1, 1, 2)],
        "composite": [Block(3, 7, 10), Block(1, 2, 3)],
    }[case]


@pytest.mark.parametrize(
    "case,message",
    [
        ("gap", "Block(lo=4, hi=7, prime=11) does not start at 2: " + _NO_TILE),
        ("overlap", "Block(lo=4, hi=7, prime=11) does not start at 5: " + _NO_TILE),
        ("short", "blocks end at 3: they do not tile 1..7"),
        ("composite", "Block(lo=3, hi=7, prime=10) sums to a composite"),
    ],
)
def test_construct_refuses_blocks_that_are_no_witness(
    capsys, monkeypatch, case, message
):
    # construct proves its blocks a solution before it stores the image
    # without Permutation's check: a decomposition with a gap, an overlap,
    # a missing end or a composite sum is an internal error, with no output
    blocks = _blocks_of_7(case)
    monkeypatch.setattr(construct_module, "decompose_blocks", lambda n, sieve: blocks)
    with pytest.raises(RuntimeError) as raised:
        construct_prime_sum_permutation(7, build_sieve(14))
    assert str(raised.value) == message
    for fmt in ("text", "json"):
        expected = (EXIT_ERROR, "", f"primeperm: internal error: {message}\n")
        assert run(capsys, "construct", "--n", "7", "--format", fmt) == expected


def test_construct_rejects_bfile(capsys):
    code, _, err = run(capsys, "construct", "--n", "4", "--format", "bfile")
    assert code == EXIT_USAGE and err != ""


def test_construct_requires_n(capsys):
    code, _, _ = run(capsys, "construct")
    assert code == EXIT_USAGE


def test_construct_negative_n(capsys):
    code, _, _ = run(capsys, "construct", "--n", "-3")
    assert code == EXIT_USAGE


# --- verify --------------------------------------------------------------------


def test_verify_valid(capsys):
    code, out, err = run(capsys, "verify", "--perm", "1,5,4,3,2")
    assert code == EXIT_OK and err == ""
    assert "valid: every total is prime" in out


def test_verify_composite_sums(capsys):
    code, out, _ = run(capsys, "verify", "--perm", "3,2,1,5,4")
    assert code == EXIT_COMPOSITE
    assert out.count("composite") >= 5
    for s in (4, 9):
        assert f"= {s}  composite" in out


def test_verify_composite_golden(capsys):
    assert run(capsys, "verify", "--perm", "3,2,1,5,4") == (
        EXIT_COMPOSITE,
        "1 + 3 = 4  composite\n"
        "2 + 2 = 4  composite\n"
        "3 + 1 = 4  composite\n"
        "4 + 5 = 9  composite\n"
        "5 + 4 = 9  composite\n"
        "invalid: composite totals at positions 1,2,3,4,5\n",
        "",
    )


def test_verify_mixed_golden(capsys):
    assert run(capsys, "verify", "--perm", "2,1,3") == (
        EXIT_COMPOSITE,
        "1 + 2 = 3  prime\n"
        "2 + 1 = 3  prime\n"
        "3 + 3 = 6  composite\n"
        "invalid: composite totals at positions 3\n",
        "",
    )


def test_verify_empty_golden(capsys):
    # n = 0: no position lines, only the verdict.
    expected = (EXIT_OK, "valid: every total is prime\n", "")
    assert run(capsys, "verify", "--perm", "") == expected
    assert run(capsys, "verify", "--perm", "  ") == expected


def test_verify_not_a_permutation(capsys):
    code, _, err = run(capsys, "verify", "--perm", "1,1,2")
    assert code == EXIT_NOT_PERMUTATION
    assert "not a permutation" in err


def test_verify_parse_failure(capsys):
    code, _, err = run(capsys, "verify", "--perm", "1,x,3")
    assert code == EXIT_USAGE and err != ""


def _bad_token_at_half(n):
    tokens = list(map(str, range(1, n + 1)))
    tokens[n // 2] = "x"
    return ",".join(tokens)


@pytest.mark.parametrize(
    "text, code, err",
    [
        (
            _bad_token_at_half(10**6),
            EXIT_USAGE,
            "primeperm: error: cannot parse token 500001 of 1000000 ('x'): "
            "expected comma-separated integers\n",
        ),
        (
            ",".join(["1"] * 10**6),
            EXIT_NOT_PERMUTATION,
            "primeperm: entry 1 at position 2 repeats an earlier entry: "
            "not a permutation of 1..1000000\n",
        ),
        (
            '{"n":[' + ",".join(["1"] * 10**6) + '],"image":[]}',
            EXIT_NOT_PERMUTATION,
            "primeperm: declared n=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, ... "
            "does not match image length 0\n",
        ),
    ],
    ids=["parse", "repeat", "json-n"],
)
def test_verify_error_does_not_echo_the_input(capsys, text, code, err):
    # a 10^6-entry input once came back whole on stderr: 6.9 MB, 3 MB or 3 MB
    result = run(capsys, "verify", "--perm", text)
    assert result == (code, "", err)
    assert len(err.encode()) < 300


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--perm", "2,1,4,3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {
        "n": 4,
        "image": [2, 1, 4, 3],
        "sums": [3, 3, 7, 7],
        "composite_positions": [],
        "valid": True,
    }


@pytest.mark.parametrize(
    "text,expected",
    [
        (
            "1,5,4,3,2",
            '{"n":5,"image":[1,5,4,3,2],"sums":[2,7,7,7,7],'
            '"composite_positions":[],"valid":true}\n',
        ),
        (
            "2,1,3",
            '{"n":3,"image":[2,1,3],"sums":[3,3,6],'
            '"composite_positions":[3],"valid":false}\n',
        ),
        ("", '{"n":0,"image":[],"sums":[],"composite_positions":[],"valid":true}\n'),
        (
            '{"n":4,"image":[4,3,2,1]}',
            '{"n":4,"image":[4,3,2,1],"sums":[5,5,5,5],'
            '"composite_positions":[],"valid":true}\n',
        ),
    ],
)
def test_verify_json_golden(capsys, monkeypatch, text, expected):
    # member by member, the same bytes as one json.dumps of the whole dict
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = EXIT_COMPOSITE if "false" in expected else EXIT_OK
    assert run(capsys, "verify", "--format", "json") == (code, expected, "")


def _witness(n):
    return list(construct_prime_sum_permutation(n, build_sieve(max(2, 2 * n))).image)


def _composites(image):
    return [k for k, v in enumerate(image, 1) if not is_prime_trial(k + v)]


def _rounds_table_by_columns(image):
    """The rounds table as first written: each column as wide as its widest
    cell, every cell right-aligned with str.rjust."""
    rows = [
        [str(k) for k in range(1, len(image) + 1)],
        [str(v) for v in image],
        [str(k + v) for k, v in enumerate(image, 1)],
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = [
        f"{label:<7} | " + "  ".join(map(str.rjust, cells, widths))
        for label, cells in zip(("Round 1", "Round 2", "Total"), rows)
    ]
    return "".join(line.rstrip() + "\n" for line in lines)


def test_construct_writes_the_image_of_the_library_witness(capsys):
    # construct writes from the checked blocks, and construct.py builds the
    # public witness's image from the same blocks; _witness_json below is
    # the command's own writer, so this is what checks it independently:
    # one table and one json.dumps of the image, for every small n
    for n in range(301):
        image = _witness(n)
        table = _rounds_table_by_columns(image)
        assert run(capsys, "construct", "--n", str(n)) == (EXIT_OK, table, "")
        expected = json.dumps({"n": n, "image": image}, separators=(",", ":")) + "\n"
        argv = ("construct", "--n", str(n), "--format", "json")
        assert run(capsys, *argv) == (EXIT_OK, expected, "")


def test_construct_builds_no_image(capsys, monkeypatch):
    # with both ways to store a Permutation made to fail, construct still
    # writes the witness: it never builds the n-int image
    image = _witness(1000)
    table = _rounds_table_by_columns(image)
    expected = json.dumps({"n": 1000, "image": image}, separators=(",", ":")) + "\n"

    def no_image(*args):
        raise AssertionError("construct built an image")

    monkeypatch.setattr(construct_module.Permutation, "_unchecked", no_image)
    monkeypatch.setattr(construct_module.Permutation, "__post_init__", no_image)
    with pytest.raises(AssertionError):
        construct_prime_sum_permutation(1000, build_sieve(2000))
    assert run(capsys, "construct", "--n", "1000") == (EXIT_OK, table, "")
    argv = ("construct", "--n", "1000", "--format", "json")
    assert run(capsys, *argv) == (EXIT_OK, expected, "")


def test_construct_of_the_10_7_witness_peaks_under_45_mb():
    # construct holds the sieve to 2n and the witness's blocks: it peaked at
    # 36.5 MB, where the n-int image took it to 429 MB
    argv = ["construct", "--n", "10000000", "--format", "json"]
    code, _, rss_mb = run_cli(argv, stdout=False)
    assert code == EXIT_OK
    assert rss_mb < 45, rss_mb


def _verify_text_by_lines(image):
    bad = _composites(image)
    lines = [
        f"{k} + {v} = {k + v}  {'prime' if is_prime_trial(k + v) else 'composite'}"
        for k, v in enumerate(image, 1)
    ]
    if bad:
        positions = ",".join(map(str, bad))
        lines.append(f"invalid: composite totals at positions {positions}")
    else:
        lines.append("valid: every total is prime")
    return "".join(line + "\n" for line in lines)


def _verify_json_by_dumps(image):
    bad = _composites(image)
    members = {
        "n": len(image),
        "image": image,
        "sums": [k + v for k, v in enumerate(image, 1)],
        "composite_positions": bad,
        "valid": not bad,
    }
    return json.dumps(members, separators=(",", ":")) + "\n"


def _swapped_at_a_boundary():
    # positions BLOCK_LINES and BLOCK_LINES + 1 swap images: composite sums
    # on both sides of the first slice boundary
    image = _witness(2 * BLOCK_LINES + 1)
    k = BLOCK_LINES - 1
    image[k], image[k + 1] = image[k + 1], image[k]
    assert _composites(image) == [BLOCK_LINES, BLOCK_LINES + 1]
    return image


@pytest.mark.parametrize(
    "n",
    [999, 1000, 1001, 10**4 + 1]
    + [BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1, 2 * BLOCK_LINES + 1, None],
)
def test_witness_commands_across_slice_boundaries(capsys, monkeypatch, n):
    # verify works a slice of BLOCK_LINES positions at a time, construct a
    # group of values that share their digits above the last three (the
    # first four n put a block edge next to a multiple of 1000); the bytes
    # are those of one json.dumps, or one table of the whole image
    image = _swapped_at_a_boundary() if n is None else _witness(n)
    if n is not None:
        construct = ("construct", "--n", str(n))
        table = _rounds_table_by_columns(image)
        assert run(capsys, *construct) == (EXIT_OK, table, "")
        expected = json.dumps({"n": n, "image": image}, separators=(",", ":")) + "\n"
        assert run(capsys, *construct, "--format", "json") == (EXIT_OK, expected, "")
    # a shuffle has runs of one equal total, where a witness has long ones
    shuffled = random.Random(len(image)).sample(image, len(image))
    table = _rounds_table(Permutation(shuffled)) + "\n"
    assert table == _rounds_table_by_columns(shuffled)
    code = EXIT_COMPOSITE if n is None else EXIT_OK
    for fmt, expected in (
        ("text", _verify_text_by_lines(image)),
        ("json", _verify_json_by_dumps(image)),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(str, image))))
        assert run(capsys, "verify", "--format", fmt) == (code, expected, "")


def _tiled(n, edges, swaps=()):
    """1..n tiled by reversed blocks, one ending at each edge and at n, with
    the images at each pair of positions in swaps exchanged."""
    image, lo = [], 1
    for hi in sorted({*edges, n}):
        image.extend(range(hi, lo - 1, -1))
        lo = hi + 1
    for a, b in swaps:
        image[a - 1], image[b - 1] = image[b - 1], image[a - 1]
    return image


@st.composite
def _reversed_blocks(draw):
    # block totals lo + hi prime or composite, edges at and next to slice
    # boundaries, and slices whose first and last images fit a run but two
    # entries between them are swapped
    n = draw(st.integers(1, 3 * BLOCK_LINES + 1))
    near = [e for b in range(BLOCK_LINES, n, BLOCK_LINES) for e in (b - 1, b, b + 1)]
    edges = draw(st.sets(st.integers(1, n), max_size=6))
    edges |= draw(st.sets(st.sampled_from(near), max_size=4)) if near else set()
    swaps = []
    for lo in draw(st.sets(st.sampled_from(range(0, n, BLOCK_LINES)), max_size=2)):
        hi = min(lo + BLOCK_LINES, n)  # the slice's positions are lo + 1..hi
        if hi - lo >= 4:
            a = draw(st.integers(lo + 2, hi - 2))
            swaps.append((a, draw(st.integers(a + 1, hi - 1))))
    return _tiled(n, edges, swaps)


@settings(deadline=None, max_examples=25)
@given(_reversed_blocks())
# a run that ends at a slice boundary, and a last slice of one position
@example(_tiled(2 * BLOCK_LINES + 1, [BLOCK_LINES, 2 * BLOCK_LINES]))
@example(_tiled(3 * BLOCK_LINES + 1, [1, 3 * BLOCK_LINES]))
# look-alikes: a run slice, but for two entries inside it
@example(_tiled(2 * BLOCK_LINES, [BLOCK_LINES], [(2, 3)]))
@example(_tiled(3 * BLOCK_LINES + 1, [2], [(BLOCK_LINES + 10, 2 * BLOCK_LINES - 1)]))
def test_verify_reversed_blocks(image):
    # a slice whose images count down by one is checked and written as one
    # run; any other slice, position by position
    code = EXIT_COMPOSITE if _composites(image) else EXIT_OK
    assert _verify_quietly(image, "text") == (code, _verify_text_by_lines(image))
    assert _verify_quietly(image, "json") == (code, _verify_json_by_dumps(image))


# Faults in one entry's token: each gives the token's replacement
_TOKEN_FAULTS = {
    "leading zero": lambda t: "0" + t,
    "plus": lambda t: "+" + t,
    "underscore": lambda t: t[:1] + "_" + (t[1:] or "0"),
    "arabic-indic digits": lambda t: "".join(chr(0x660 + int(d)) for d in t),
    "point": lambda t: t + ".0",
    "exponent": lambda t: t + "e0",
    "minus": lambda t: "-" + t,
    "minus zero": lambda t: "-0",
    "empty": lambda t: "",
    "newline": lambda t: t + "\n",
    "space": lambda t: t[:1] + " " + t[1:],
    "5000 digits": lambda t: "1" * 5000,
}
# Whole inputs around a body of comma-separated entries, n of them
_FORMS = {
    "csv": "{body}",
    "leading comma": ",{body}",
    "trailing comma": "{body},",
    "json": '{{"n":{n},"image":[{body}]}}\n',
    "json n one too large": '{{"n":{n1},"image":[{body}]}}',
    "json n with a leading zero": '{{"n":0{n},"image":[{body}]}}',
    "json n true": '{{"n":true,"image":[{body}]}}',
    "json space before a colon": '{{"n" :{n},"image":[{body}]}}',
    "json keys reordered": '{{"image":[{body}],"n":{n}}}',
    "json extra key": '{{"n":{n},"image":[{body}],"m":1}}',
    "json trailing junk": '{{"n":{n},"image":[{body}]}} x',
    "json 5000-digit n": '{{"n":' + "1" * 5000 + ',"image":[{body}]}}',
}


def _verified(text, stdin, fmt):
    argv = ["verify", "--format", fmt] + ([] if stdin else ["--perm=" + text])
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _composite_edges(n):
    """A shuffle of 1..n, so that no slice is a run, with a composite sum at
    the first and the last position of every slice: position 1 holds 3, and
    every other such position k holds k (k + k = 2k)."""
    image = random.Random(n).sample(range(1, n + 1), n)
    edges = {e for lo in range(0, n, BLOCK_LINES) for e in (lo + 1, lo + BLOCK_LINES)}
    for k in sorted(edges & set(range(1, n + 1))):
        at = image.index(3 if k == 1 else k)
        image[k - 1], image[at] = image[at], image[k - 1]
    assert edges & set(range(1, n + 1)) <= set(_composites(image))
    return image


@pytest.mark.parametrize(
    "fault, form",
    [(None, form) for form in _FORMS]
    + [(fault, form) for fault in _TOKEN_FAULTS for form in ("csv", "json")],
)
@settings(deadline=None, max_examples=4)
@given(
    image=_reversed_blocks(),
    # the faulty entry's index, or past the last one for the last entry
    at=st.one_of(
        st.sampled_from([BLOCK_LINES * b + e for b in (1, 2, 3) for e in (-1, 0, 1)]),
        st.integers(0, 3 * BLOCK_LINES),
    ),
    stdin=st.booleans(),
)
# n at the edges of the empty input and of one slice
@example(image=[], at=0, stdin=True)
@example(image=[1], at=0, stdin=False)
@example(image=[2, 1], at=1, stdin=True)
@example(image=_tiled(BLOCK_LINES - 1, [1]), at=BLOCK_LINES, stdin=False)
@example(image=_tiled(BLOCK_LINES, [1]), at=BLOCK_LINES, stdin=True)
@example(image=_tiled(BLOCK_LINES + 1, [1]), at=BLOCK_LINES, stdin=False)
# a run slice whose positions cross 10^4 and whose images cross 10^3
@example(image=_tiled(3 * BLOCK_LINES + 1, [1, 3 * BLOCK_LINES]), at=0, stdin=True)
# shuffles, with composite sums at the slice edges, at and next to whole slices
@example(image=_composite_edges(BLOCK_LINES - 1), at=0, stdin=True)
@example(image=_composite_edges(BLOCK_LINES), at=BLOCK_LINES - 1, stdin=False)
@example(image=_composite_edges(BLOCK_LINES + 1), at=BLOCK_LINES, stdin=True)
@example(image=_composite_edges(2 * BLOCK_LINES - 1), at=1, stdin=False)
@example(image=_composite_edges(2 * BLOCK_LINES), at=BLOCK_LINES, stdin=True)
@example(image=_composite_edges(2 * BLOCK_LINES + 1), at=2 * BLOCK_LINES, stdin=False)
def test_verify_reads_canonical_text_as_the_decode_path(fault, form, image, at, stdin):
    # canonical input is read slice by slice from its text, a run slice as
    # a range and any other as a tuple that keeps its text; whatever else
    # the input holds, verify gives the exit code, stdout and stderr that
    # decoding it whole into tuples gives, through --perm and through
    # stdin. So the run code (interval marks, one sum per slice,
    # digit-column lines, a repeated total in JSON) and the echoed text of
    # other slices are checked against the plain code of tuple slices, and
    # canonical input, with the composite positions cut from the position
    # templates, against a per-entry oracle
    tokens, n = list(map(str, image)), len(image)
    if fault is not None and tokens:
        tokens[min(at, n - 1)] = _TOKEN_FAULTS[fault](tokens[min(at, n - 1)])
    text = _FORMS[form].format(n=n, n1=n + 1, body=",".join(tokens))
    canonical = fault is None and form in ("csv", "json")
    if canonical:
        # raises verify_module._Whole if not canonical
        list(verify_module._canonical_slices(iter([text])))
    code = EXIT_COMPOSITE if _composites(image) else EXIT_OK
    oracles = {"text": _verify_text_by_lines, "json": _verify_json_by_dumps}
    for fmt in ("text", "json"):
        fast = _verified(text, stdin, fmt)
        with mock.patch.object(verify_module, "_canonical_slices", _read_whole):
            assert fast == _verified(text, stdin, fmt), (fault, form, fmt)
        if canonical:
            assert fast == (code, oracles[fmt](image), ""), (form, fmt)
        if fault == "5000 digits" and tokens or form == "json 5000-digit n":
            assert fast[:2] == (EXIT_USAGE, ""), fast[2]


def _read_whole(pieces):
    # _canonical_slices as if no input were canonical: the decode path
    raise verify_module._Whole("".join(pieces))


# Textual forms of one permutation, from its entries
_SPELLINGS = {
    "json.dumps": lambda vs: json.dumps({"n": len(vs), "image": vs}),
    "csv with ', '": lambda vs: ", ".join(map(str, vs)),
    "json with CRLF line ends": lambda vs: json.dumps(
        {"n": len(vs), "image": vs}, indent=1
    ).replace("\n", "\r\n") + "\r\n",
    "csv with CRLF line ends": lambda vs: ",\r\n".join(map(str, vs)) + "\r\n",
    "json in Unicode spaces": lambda vs: "\u00a0\u2003"
    + json.dumps({"n": len(vs), "image": vs}, separators=(",", ":"))
    + "\u3000\n",
    "csv in Unicode spaces": lambda vs: "\u2028" + ",".join(map(str, vs)) + "\x1c",
}


@pytest.mark.parametrize("spelling", _SPELLINGS)
def test_verify_reads_every_spelling_of_a_permutation_alike(spelling):
    # each textual form of a permutation gives the exit code, stdout and
    # stderr of its compact form, canonical text, in text and JSON output,
    # through --perm and through stdin
    n = 2 * BLOCK_LINES + 1
    images = [[], [1], _witness(n), random.Random(5).sample(range(1, n + 1), n)]
    assert _composites(images[-1])
    for image in images:
        compact = ",".join(map(str, image))
        text = _SPELLINGS[spelling](image)
        for fmt in ("text", "json"):
            for stdin in (False, True):
                expected = _verified(compact, stdin, fmt)
                assert _verified(text, stdin, fmt) == expected, (len(image), fmt)


def test_verify_looks_up_one_total_per_run_slice(monkeypatch):
    # of the 49 slices of the n = 2 * 10^5 witness, the first holds the
    # block edge [1, 2] and the other 48 are runs: one lookup each. No
    # slice of a shuffle is a run.
    n = 200_000
    witness = construct_prime_sum_permutation(n, build_sieve(2 * n)).image
    shuffled = random.Random(1).sample(range(1, n + 1), n)
    prime_flags, looked_up = PrimeSieve.prime_flags, []

    def counted(sieve, values):
        looked_up.append(len(values))
        return prime_flags(sieve, values)

    monkeypatch.setattr(PrimeSieve, "prime_flags", counted)
    for image, code, lookups in (
        (witness, EXIT_OK, BLOCK_LINES + 48),
        (shuffled, EXIT_COMPOSITE, n),
    ):
        for fmt in ("text", "json"):
            looked_up.clear()
            monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(str, image))))
            with redirect_stdout(io.StringIO()):
                assert main(["verify", "--format", fmt]) == code
            assert sum(looked_up) == lookups


def test_verify_decides_each_slice_once(monkeypatch):
    # canonical input is decided by its text, slice by slice, with no
    # json.loads of the whole document; other input, here JSON with a space
    # after each ":", is decoded whole, by one json.loads, into tuples
    n = 200_000
    witness = construct_prime_sum_permutation(n, build_sieve(2 * n)).image
    shuffled = random.Random(1).sample(range(1, n + 1), n)
    loads, loaded = json.loads, []

    def measured(text, *args, **kwargs):
        loaded.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", measured)
    csv = ",".join(map(str, witness))
    for text, code, whole_loads in (
        (csv, EXIT_OK, 0),
        (f'{{"n":{n},"image":[{csv}]}}\n', EXIT_OK, 0),
        (",".join(map(str, shuffled)), EXIT_COMPOSITE, 0),
        (f'{{"n": {n},"image": [{csv}]}}', EXIT_OK, 1),
    ):
        for fmt in ("text", "json"):
            loaded.clear()
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            with redirect_stdout(io.StringIO()):
                assert main(["verify", "--format", fmt]) == code
            whole = [size for size in loaded if size >= len(text) - 1]
            assert whole == [len(text)] * whole_loads, (text[:20], fmt)


def test_verify_decides_every_slice_but_the_last_before_the_input_ends(monkeypatch):
    # canonical stdin is matched slice by slice as its pieces are read: of
    # the 49 slices of the n = 2 * 10^5 witness, as CSV and as JSON, the
    # first is decided after the first read, and the other 47 before the
    # read that returns EOF; only the last waits for the end of the input
    n = 200_000
    csv = ",".join(map(str, _witness(n)))
    canonical, reads, decided = verify_module._canonical_slices, [], []

    class Stdin(io.BytesIO):
        def read(self, size=-1):
            piece = super().read(size)
            reads.append(len(piece))
            return piece

    def counted(pieces):
        for vs in canonical(pieces):
            decided.append((len(reads), 0 in reads))  # reads so far, EOF among them
            yield vs

    monkeypatch.setattr(verify_module, "_canonical_slices", counted)
    for text in (csv, f'{{"n":{n},"image":[{csv}]}}\n'):
        reads.clear()
        decided.clear()
        stdin = io.TextIOWrapper(Stdin(text.encode()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "--format", "json"]) == EXIT_OK
        assert reads == [verify_module.STDIN_PIECE] * (
            len(text) // verify_module.STDIN_PIECE
        ) + [len(text) % verify_module.STDIN_PIECE, 0]
        assert len(decided) == 49 and decided[0] == (1, False)
        assert [eof for _, eof in decided] == [False] * 48 + [True]
        assert [at for at, _ in decided] == sorted(at for at, _ in decided)


def test_verify_refuses_an_input_over_the_sieve_cap_as_it_reads(monkeypatch):
    # the sums of n entries reach 2n: with the cap patched to 4 * BLOCK_LINES,
    # an input of more entries than 2 * BLOCK_LINES is refused (exit 65) once
    # that many are read, before any check or output: canonical stdin before
    # its end is read, whatever its JSON head says, and the decode path
    # right after decoding. Entries read are what counts: a JSON head whose
    # N passes the cap over a few entries is refused as any lying head is
    at_cap, past_cap = (_witness(2 * BLOCK_LINES + e) for e in (0, 1))
    cap = 4 * BLOCK_LINES
    monkeypatch.setattr(verify_module, "DEFAULT_LIMIT_CAP", cap)
    monkeypatch.setattr(primes_module, "DEFAULT_LIMIT_CAP", cap)
    reads = []

    class Stdin(io.BytesIO):
        def read(self, size=-1):
            piece = super().read(size)
            reads.append(len(piece))
            return piece

    def verified(text, argv=()):
        reads.clear()
        stdin = io.TextIOWrapper(Stdin(text.encode()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", *argv])
        return code, out.getvalue(), err.getvalue()

    def refused(read):
        return (
            EXIT_CAP,
            "",
            f"primeperm: input of {read} or more entries: their sums pass the "
            f"sieve cap of {cap} entries\n",
        )

    n = 200_000
    csv = ",".join(map(str, random.Random(3).sample(range(1, n + 1), n)))
    for text in (csv, f'{{"n":{n},"image":[{csv}]}}', f'{{"n":5,"image":[{csv}]}}'):
        assert verified(text) == refused(3 * BLOCK_LINES)
        assert 0 not in reads and sum(reads) < len(text) // 4
    assert verified(csv.replace(",", ", ")) == refused(3 * BLOCK_LINES)
    assert verified("", ["--perm", csv.replace(",", ", ")]) == refused(3 * BLOCK_LINES)
    # at the cap and one past it
    assert verified(",".join(map(str, at_cap)), ["--format", "json"])[0] == EXIT_OK
    assert verified(",".join(map(str, past_cap))) == refused(2 * BLOCK_LINES + 1)
    assert verified('{"n":99999999,"image":[2,1]}') == (
        EXIT_NOT_PERMUTATION,
        "",
        "primeperm: declared n=99999999 does not match image length 2\n",
    )


@st.composite
def _faulty_runs(draw):
    # n reversed in one block, so that every slice of BLOCK_LINES positions
    # is a run, with one fault: a run moved onto an earlier or later run's
    # interval, a run moved to hold 0 or n + 1, or one entry of a slice made
    # a value of the first slice's interval
    n = draw(st.integers(2 * BLOCK_LINES + 1, 3 * BLOCK_LINES))
    image = list(range(n, 0, -1))
    case = draw(st.sampled_from(["overlap", "outside", "repeat"]))
    if case == "overlap":
        i, j = draw(st.permutations([0, 1]))  # slice j moves onto slice i's
        shift = draw(st.integers(1 - BLOCK_LINES, BLOCK_LINES - 1))
        top, lo = image[i * BLOCK_LINES] + shift, j * BLOCK_LINES
        assume(BLOCK_LINES <= top <= n)
        image[lo : lo + BLOCK_LINES] = range(top, top - BLOCK_LINES, -1)
    elif case == "outside":
        lo = draw(st.sampled_from([0, BLOCK_LINES, 2 * BLOCK_LINES]))
        size = min(lo + BLOCK_LINES, n) - lo
        top = draw(st.sampled_from([size - 1, n + 1]))  # holds 0, or n + 1
        image[lo : lo + size] = range(top, top - size, -1)
    else:
        at = draw(st.integers(BLOCK_LINES, 2 * BLOCK_LINES - 1))
        image[at] = draw(st.sampled_from(image[:BLOCK_LINES]))
    return image


@settings(deadline=None, max_examples=30)
@given(_faulty_runs(), st.booleans())
def test_verify_refuses_faulty_runs_as_permutation_does(image, as_json):
    # verify checks a run slice's interval at once, and any other slice
    # entry by entry: a fault in either gives exit 3, no output and the
    # message of Permutation's own check
    with pytest.raises(NotAPermutationError) as raised:
        Permutation(image)
    text = ",".join(map(str, image))
    if as_json:
        text = f'{{"n":{len(image)},"image":[{text}]}}'
    for fmt in ("text", "json"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--perm", text, "--format", fmt])
        assert (code, out.getvalue(), err.getvalue()) == (
            EXIT_NOT_PERMUTATION, "", f"primeperm: {raised.value}\n"
        )


def test_verify_stores_a_witness_without_permutations_loop(monkeypatch):
    # run intervals prove the bijection, so verify of a witness runs no
    # Permutation check at all; a faulty input runs one, which words its
    # message
    n = 200_000
    witness = construct_prime_sum_permutation(n, build_sieve(2 * n)).image
    faulty = list(witness)
    faulty[n // 2] = faulty[0]
    post_init, checks = Permutation.__post_init__, []

    def counted(perm):
        checks.append(perm.n)
        return post_init(perm)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    csv = ",".join(map(str, witness))
    for text, code, expected in (
        (csv, EXIT_OK, []),
        (f'{{"n":{n},"image":[{csv}]}}', EXIT_OK, []),
        (",".join(map(str, faulty)), EXIT_NOT_PERMUTATION, [n]),
    ):
        for fmt in ("text", "json"):
            checks.clear()
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(["verify", "--format", fmt]) == code
            assert checks == expected, fmt


@st.composite
def _run_slices(draw):
    # positions first.. that cross 10^d, and images total - k that cross
    # 10^e, for d and e in 1..6
    size = draw(st.integers(1, BLOCK_LINES))
    d, e = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    first = draw(st.integers(max(1, 10**d - size + 1), 10**d))
    # the image at position k is 10^e - 1, and the last image at least 1
    k = draw(st.integers(max(first, first + size + 1 - 10**e), first + size - 1))
    return first, size, 10**e - 1 + k


@settings(deadline=None, max_examples=60)
@given(_run_slices(), st.booleans())
# pieces of one line: 9 + 10 | 10 + 9, and 99 + 1000 | 100 + 999 | ...
@example((9, 2, 19), True)
@example((99, 3, 1099), False)
@example((1, BLOCK_LINES, 10**6 + 1), True)
def test_verify_lines_of_a_run_by_digit_columns(run, prime):
    # a run slice's lines are written by digit columns, in pieces whose
    # positions and images keep their number of digits, as one text; its
    # bytes are one %-format per line, each line ending in a newline
    first, size, total = run
    ks = range(first, first + size)
    vs = tuple(total - k for k in ks)
    label = "prime" if prime else "composite"
    text = verify_module._verify_lines(ks, vs, (total,), bytes([prime]))
    assert text == "".join(
        "%d + %d = %d  %s\n" % (k, total - k, total, label) for k in ks
    )


@pytest.mark.parametrize("space", [" \t\n\r", "\x0c", "\u00a0", "\u2028\x1c"])
def test_verify_json_in_any_whitespace(capsys, space):
    # str.strip's whitespace, not only the JSON kind, may wrap the input
    text = space + '{"n":2,"image":[2,1]}' + space
    assert run(capsys, "verify", "--perm", text, "--format", "json") == (
        EXIT_OK,
        '{"n":2,"image":[2,1],"sums":[3,3],"composite_positions":[],"valid":true}\n',
        "",
    )


@pytest.mark.parametrize(
    "text", ['   {"n":4,', '\t\n{"n":2,"image":[2,1,]}', '\x0c{"n":2,"image":[2,1]} x']
)
def test_verify_bad_json_quotes_offsets_past_the_whitespace(capsys, text):
    # the message counts from the first character that is not whitespace
    try:
        json.loads(text.strip())
    except json.JSONDecodeError as exc:
        expected = f"primeperm: error: invalid JSON permutation: {exc}\n"
    assert run(capsys, "verify", "--perm", text) == (EXIT_USAGE, "", expected)
    if text == '   {"n":4,':
        assert expected.endswith(": line 1 column 8 (char 7)\n")


def _readme_witness_peaks():
    """MB from the README's "`construct --n 1000000 --format json` peaks at
    16.5 MB" and "`verify --format json` of the n = 10^6 witness peaks at 28
    MB"."""
    text = README.read_text()
    construct = re.search(
        r"`construct --n 1000000 --format json` peaks at\s+([\d.]+) MB", text
    )
    verify = re.search(
        r"`verify --format json` of the\s+n = 10\^6 witness peaks at\s+([\d.]+) MB",
        text,
    )
    return float(construct[1]), float(verify[1])


def test_readme_witness_peak_rss():
    # each process of the witness round trip at n = 10^6 stays within the
    # memory the README states for it
    construct_mb, verify_mb = _readme_witness_peaks()
    code, witness, rss_mb = run_cli(["construct", "--n", "1000000", "--format", "json"])
    assert code == EXIT_OK
    assert rss_mb <= 1.25 * construct_mb, (rss_mb, construct_mb)
    code, out, rss_mb = run_cli(["verify", "--format", "json"], stdin=witness)
    assert code == EXIT_OK
    assert out.startswith('{"n":1000000,"image":[') and out.endswith(',"valid":true}\n')
    assert rss_mb <= 1.25 * verify_mb, (rss_mb, verify_mb)


def test_readme_decode_path_peak_rss():
    # verify of the n = 10^6 witness as CSV with ", " between entries, which
    # takes the decode path, stays within the memory the README states for it
    phrase = "as CSV with `, ` between entries, which takes the decode path, peaks at"
    pattern = r"\s+".join(map(re.escape, phrase.split())) + r"\s+([\d.]+) MB"
    stated = re.search(pattern, README.read_text())
    csv = ", ".join(map(str, _witness(10**6)))
    code, _, rss_mb = run_cli(["verify", "--format", "json"], stdin=csv, stdout=False)
    assert code == EXIT_OK
    assert rss_mb <= 1.25 * float(stated[1]), (rss_mb, stated[1])


def test_readme_shuffled_candidate_peak_rss():
    # verify --format json of a shuffled n = 2 * 10^5, with no run slice and
    # about 180 000 composite positions, stays within 4 % of the memory the
    # README states for it: the 30.6 MB it took while it held those
    # positions and every slice's sums as lists of ints would fail
    phrase = "`verify --format json` of the shuffled n = 2·10^5 candidate peaks at"
    pattern = r"\s+".join(map(re.escape, phrase.split())) + r"\s+([\d.]+) MB"
    stated = float(re.search(pattern, README.read_text())[1])
    n = 200_000
    shuffled = random.Random(1).sample(range(1, n + 1), n)
    csv = ",".join(map(str, shuffled))
    code, _, rss_mb = run_cli(["verify", "--format", "json"], stdin=csv, stdout=False)
    assert code == EXIT_COMPOSITE
    assert rss_mb <= 1.04 * stated, (rss_mb, stated)


def _witness_json(n):
    """construct --n n --format json's output, written from the witness's
    blocks by construct's own writer (_cells), with no n-int image."""
    blocks = decompose_blocks(n, build_sieve(2 * n))[::-1]  # in position order
    runs = [(b.prime, b.hi - b.lo + 1) for b in blocks]
    body = "".join(runs_module._cells(runs, -1, ",", False))
    return f'{{"n":{n},"image":[' + body + "]}\n"


def test_verify_of_the_10_7_witness_reads_it_in_bounded_memory(capsys):
    # verify holds the run slices of canonical stdin as ranges and lets
    # their text go as it reads: the n = 10^7 witness (79 MB of JSON) peaks
    # under 60 MB, where holding the input text took 165 MB
    assert _witness_json(10**6) == run(
        capsys, "construct", "--n", "1000000", "--format", "json"
    )[1]
    code, _, rss_mb = run_cli(
        ["verify", "--format", "json"], stdin=_witness_json(10**7), stdout=False
    )
    assert code == EXIT_OK
    assert rss_mb < 60, rss_mb


def test_verify_reads_stdin_csv(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2,1\n"))
    code, _, _ = run(capsys, "verify")
    assert code == EXIT_OK


def test_verify_reads_stdin_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n":3,"image":[1,3,2]}'))
    code, _, _ = run(capsys, "verify")
    assert code == EXIT_OK


def test_verify_stdin_json_mismatch(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n":4,"image":[1,3,2]}'))
    code, _, _ = run(capsys, "verify")
    assert code == EXIT_NOT_PERMUTATION


def test_verify_stdin_bad_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n":4,'))
    code, _, err = run(capsys, "verify")
    assert code == EXIT_USAGE
    assert err.startswith("primeperm: error: invalid JSON permutation: ")


@pytest.mark.parametrize(
    "text,code",
    [
        ('{"n":true,"image":[1]}', EXIT_NOT_PERMUTATION),
        # past int's digit limit: an input error, not an internal one
        ('{"n":1,"image":[' + "1" * 5000 + "]}", EXIT_USAGE),
    ],
)
def test_verify_json_input_exit_codes(capsys, text, code):
    assert run(capsys, "verify", "--perm", text)[:2] == (code, "")


@pytest.mark.parametrize(
    "text", ['{"a":' * 10**5, '{"n":1,"image":' + "[" * 10**5], ids=["dict", "list"]
)
def test_verify_deep_json_is_a_usage_error(capsys, monkeypatch, text):
    # past its nesting limit json.loads raises RecursionError, not
    # JSONDecodeError
    expected = "primeperm: error: invalid JSON permutation: maximum recursion depth"
    code, out, err = run(capsys, "verify", "--perm", text)
    assert (code, out) == (EXIT_USAGE, "") and err.startswith(expected)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "verify") == (code, out, err)


def test_verify_undecodable_stdin_is_a_usage_error():
    # a strict stdin decoder raises UnicodeDecodeError, a ValueError, on read
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["PYTHONIOENCODING"] = "utf-8:strict"
    done = subprocess.run(
        [sys.executable, "-m", "primeperm.cli", "verify"],
        input=b"1,\xff,2",
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (EXIT_USAGE, b"")
    assert done.stderr == (
        b"primeperm: error: 'utf-8' codec can't decode byte 0xff in position 2: "
        b"invalid start byte\n"
    )


def test_verify_with_stdin_closed_is_a_usage_error():
    # Python sets sys.stdin to None when fd 0 is closed at start-up: verify
    # with no --perm names its missing input
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" -m primeperm.cli verify <&-', sys.executable],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (EXIT_USAGE, b"")
    assert done.stderr == (
        b"primeperm: error: no input: stdin is closed and --perm is not given\n"
    )


@pytest.mark.parametrize("at", [0, 1, 2, 3, 4])
def test_verify_undecodable_stdin_names_its_offset_in_the_input(at):
    # stdin is read and decoded STDIN_PIECE bytes at a time; an error names
    # the same offsets as one read of the whole input: a bad byte, or a
    # 3-byte sequence cut short by a comma, just before, across and just
    # after the boundary of two pieces
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["PYTHONIOENCODING"] = "utf-8:strict"
    offset = verify_module.STDIN_PIECE - 2 + at
    for bad, reason, width in ((b"\xff", "byte 0xff", 1), (b"\xe2\x82", "bytes", 2)):
        data = b"1," * verify_module.STDIN_PIECE
        data = data[:offset] + bad + data[offset:]
        done = subprocess.run(
            [sys.executable, "-m", "primeperm.cli", "verify"],
            input=data,
            env=env,
            capture_output=True,
            timeout=60,
        )
        where = f"{offset}" if width == 1 else f"{offset}-{offset + 1}"
        reason += f" in position {where}: "
        reason += "invalid start byte" if width == 1 else "invalid continuation byte"
        assert (done.returncode, done.stdout) == (EXIT_USAGE, b"")
        expected = f"primeperm: error: 'utf-8' codec can't decode {reason}\n"
        assert done.stderr.decode() == expected, at


def test_construct_verify_round_trip(capsys, monkeypatch):
    for n in (0, 1, 2, 3, 10, 97):
        code, out, _ = run(capsys, "construct", "--n", str(n), "--format", "json")
        assert code == EXIT_OK
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, _, _ = run(capsys, "verify")
        assert code == EXIT_OK, n


def _verify_quietly(values, fmt):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["verify", "--perm=" + ",".join(map(str, values)), "--format", fmt])
    return code, out.getvalue()


def _oracle_verdict(values):
    if sorted(values) != list(range(1, len(values) + 1)):
        return EXIT_NOT_PERMUTATION
    if all(is_prime_trial(k + v) for k, v in enumerate(values, 1)):
        return EXIT_OK
    return EXIT_COMPOSITE


@given(
    st.one_of(
        st.integers(0, 16).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.lists(st.integers(-2, 20), max_size=16),
    )
)
def test_verify_exit_codes_match_oracle(values):
    text_code, _ = _verify_quietly(values, "text")
    json_code, out = _verify_quietly(values, "json")
    assert text_code == json_code == _oracle_verdict(values)
    if json_code != EXIT_NOT_PERMUTATION:
        assert json.loads(out)["valid"] is (json_code == EXIT_OK)


# --- count -----------------------------------------------------------------


def test_count_known_values(capsys):
    assert run(capsys, "count", "--n", "10")[1].strip() == "676"
    assert run(capsys, "count", "--n", "0")[1].strip() == "1"


def test_count_methods_print_identical_strings(capsys):
    for n in (1, 5, 9, 12, 14):
        dp = run(capsys, "count", "--n", str(n), "--method", "dp")
        ry = run(capsys, "count", "--n", str(n), "--method", "ryser")
        assert dp[0] == ry[0] == EXIT_OK
        assert dp[1] == ry[1]


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "10", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"n": 10, "method": "auto", "count": "676"}
    out = run(capsys, "count", "--n", "3", "--format", "json")[1]
    assert out == '{"n":3,"method":"auto","count":"1"}\n'


def test_count_cap_exit(capsys):
    # dp at n = 44 does m 2^m = 22 * 2^22 steps
    code, out, err = run(capsys, "count", "--n", "44", "--method", "dp")
    assert (code, out) == (EXIT_CAP, "")
    assert "92274688" in err and "50000000" in err


@pytest.mark.parametrize("method", ["auto", "dp", "ryser"])
def test_count_refuses_before_sieving(capsys, monkeypatch, method):
    # a sieve to 2n = 2^27 entries is within its cap, and costs 134 MB
    def no_sieve(limit):
        raise AssertionError("sieve built before the step estimate")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    monkeypatch.setattr(count_module, "build_sieve", no_sieve)
    code, out, err = run(capsys, "count", "--n", "67108864", "--method", method)
    assert (code, out) == (EXIT_CAP, "")
    assert "over the step budget of 50000000" in err


def test_count_beyond_old_caps(capsys):
    # n = 27 was refused by the old hand-set dp cap of 26
    dp = run(capsys, "count", "--n", "27", "--method", "dp")
    assert dp == run(capsys, "count", "--n", "27", "--method", "ryser")
    assert dp == (EXIT_OK, "4551557699844\n", "")


@pytest.mark.parametrize(
    "method, kernel", [("auto", "count_solutions_dp"), ("ryser", "count_solutions_ryser")]
)
def test_count_of_the_wrong_parity_is_an_internal_error(
    capsys, monkeypatch, method, kernel
):
    # per(A) = 3 at n = 6, so det(A) over GF(2) is 1: a kernel that gives
    # 4^2 in place of 3^2 fails the package's parity check, in count and in
    # table, and nothing is written
    true = getattr(count_module, kernel)

    def wrong(n, sieve):
        return (isqrt(true(n, sieve)) + 1) ** 2

    monkeypatch.setattr(count_module, kernel, wrong)
    other = "dp" if method == "ryser" else "ryser"  # the kernel left as it is
    assert run(capsys, "count", "--n", "6", "--method", other)[:2] == (EXIT_OK, "9\n")
    for argv in (("count", "--n", "6"), ("table", "--max", "6")):
        code, out, err = run(capsys, *argv, "--method", method)
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("primeperm: internal error:") and "det(A)" in err


def test_count_bad_method(capsys):
    code, _, _ = run(capsys, "count", "--n", "5", "--method", "magic")
    assert code == EXIT_USAGE
    # naive is not a method: the backtracking counts live in tests/oracles.py
    for argv in (("count", "--n", "5"), ("table", "--max", "5")):
        code, out, err = run(capsys, *argv, "--method", "naive")
        assert (code, out) == (EXIT_USAGE, "")
        assert "invalid choice: 'naive'" in err


# --- enumerate ----------------------------------------------------------------


def test_enumerate_n5(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "5")
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == ["1,5,4,3,2"]


def test_enumerate_n4(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == EXIT_OK
    assert out.splitlines() == ["2,1,4,3", "2,3,4,1", "4,1,2,3", "4,3,2,1"]


def test_enumerate_n3(capsys):
    assert run(capsys, "enumerate", "--n", "3")[1].splitlines() == ["1,3,2"]


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--limit", "2")
    assert code == EXIT_OK and len(out.splitlines()) == 2


def test_enumerate_limit_past_sys_maxsize_is_no_limit(capsys):
    # islice takes no stop past sys.maxsize; no stream gets that far
    whole = run(capsys, "enumerate", "--n", "6")
    assert whole[0] == EXIT_OK and whole[1].count("\n") == 9
    assert run(capsys, "enumerate", "--n", "6", "--limit", str(2**64)) == whole


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "json")
    assert code == EXIT_OK
    images = [json.loads(line)["image"] for line in out.splitlines()]
    assert images[0] == [2, 1, 4, 3] and len(images) == 4


def test_enumerate_zero_golden(capsys):
    # the empty permutation, as count --n 0 = 1 and construct --n 0 say
    assert run(capsys, "enumerate", "--n", "0") == (EXIT_OK, "\n", "")
    assert run(capsys, "enumerate", "--n", "0", "--format", "json") == (
        EXIT_OK,
        '{"n":0,"image":[]}\n',
        "",
    )
    assert run(capsys, "enumerate", "--n", "-1")[0] == EXIT_USAGE


@pytest.mark.parametrize("n", [1000, 2000])
def test_enumerate_deep_n(capsys, n):
    # one stack level per position would pass the interpreter's recursion limit
    code, out, err = run(capsys, "enumerate", "--n", str(n), "--limit", "1")
    assert (code, err) == (EXIT_OK, "")
    (line,) = out.splitlines()
    image = list(map(int, line.split(",")))
    assert sorted(image) == list(range(1, n + 1))
    assert all(is_prime_trial(k + v) for k, v in enumerate(image, 1))


def _counted_blocks(monkeypatch) -> list[int]:
    """The number of solutions of each block the line writer checks, as it
    checks them."""
    proven, sizes = walk_module._proven, []

    def counted(prefix, firsts, seconds, order):
        sizes.append(len(order[0]))
        return proven(prefix, firsts, seconds, order)

    monkeypatch.setattr(walk_module, "_proven", counted)
    return sizes


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_limit_cuts_the_stream_at_any_line(capsys, monkeypatch, fmt):
    # lines leave block by block: a limit at a block's last line, or one
    # past it, cuts the full stream there, and checks no block past it
    sizes = _counted_blocks(monkeypatch)
    argv = ("enumerate", "--n", "15", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    full, first = out.splitlines(keepends=True), sizes[0]
    assert code == EXIT_OK and len(full) == 36100 and first > 1
    for limit, blocks in ((1, 1), (first, 1), (first + 1, 2)):
        sizes.clear()
        expected = (EXIT_OK, "".join(full[:limit]), "")
        assert run(capsys, *argv, "--limit", str(limit)) == expected
        assert len(sizes) == blocks, limit


def test_enumerate_limit_1_checks_one_block(capsys, monkeypatch):
    sizes = _counted_blocks(monkeypatch)
    assert run(capsys, "enumerate", "--n", "16", "--limit", "1")[0] == EXIT_OK
    assert len(sizes) == 1


def _in_last(fault):
    """fault made to the last entry of a completion list of more than one."""

    def change(entries, key):
        return [*entries[:-1], fault(entries[-1])] if len(entries) > 1 else entries

    return change


# Faults that a slip in the walk could make in a completion list, given the
# list and its key, the values its half took above the block. The first
# four break the list's own shape; the last keeps it, one set of A's values,
# but gives every entry a value its half took in the prefix, which only
# the block's first solution shows.
LIST_FAULTS = {
    "repeat": (_in_last(lambda e: (e[0], e[0], *e[2:])), "completion list"),
    "missing": (
        _in_last(lambda e: tuple(v for v in e if v != min(e))),
        "completion list",
    ),
    "float": (_in_last(lambda e: (float(e[0]), *e[1:])), "completion list"),
    "bool": (
        _in_last(lambda e: tuple(True if v == max(e) else v for v in e)),
        "completion list",
    ),
    "prefix": (
        lambda entries, key: [
            tuple((key & -key).bit_length() if v == max(e) else v for v in e)
            for e in entries
        ],
        "repeats an earlier entry",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("fault", sorted(LIST_FAULTS))
def test_enumerate_reports_a_faulty_list_as_an_internal_error(
    capsys, monkeypatch, fault, fmt
):
    # each list past the first block's two is faulty: the stream stops
    # before the first block that takes one, and a broken walk is an
    # internal error, not a bad input
    argv = ("enumerate", "--n", "12", "--format", fmt)
    true = run(capsys, *argv)[1].splitlines()
    completions, (change, message) = walk_module._completions, LIST_FAULTS[fault]
    built = []

    def faulty(rows, key):
        built.append(completions(rows, key))
        return change(built[-1], key) if len(built) > 2 else built[-1]

    monkeypatch.setattr(walk_module, "_completions", faulty)
    code, out, err = run(capsys, *argv)
    lines = out.splitlines()
    assert code == EXIT_ERROR and err.startswith("primeperm: internal error:")
    assert message in err and err.count("\n") == 1
    assert lines and lines == true[: len(lines)]


def test_enumerate_refuses_before_sieving(capsys, monkeypatch):
    # at n = 10^5 the rows of A alone would take 0.31 GB
    def no_work(*args):
        raise AssertionError("sieve or rows built before the memory estimate")

    monkeypatch.setattr(cli, "build_sieve", no_work)
    monkeypatch.setattr(count_module, "build_sieve", no_work)
    monkeypatch.setattr(count_module, "build_adjacency", no_work)
    assert run(capsys, "enumerate", "--n", "100000", "--limit", "1") == (
        EXIT_CAP,
        "",
        "primeperm: enumeration at n = 100000 is estimated at 312500000 bytes "
        "of rows, over the cap of 134217728 bytes\n",
    )


# SHA-256 of the one line (with its newline) that `enumerate --n N --limit 1`
# prints, computed once with the walk that has no completion check: as
# processes, that walk took 2.5 s at n = 253 and 16 s at n = 676 in dead
# subtrees before its first line. n = 1586 and 6446 took 0.60-0.72 and
# 0.76-1.00 s with the memo of completed half states that came before the
# matching (hashes from that walk).
FIRST_LINE_SHA256 = {
    253: "252a6ac669d86dde78e543fc38373a7d5f944bfb34f4388c05dae70df5f81c6c",
    676: "7ffb0392cf04ba6ea35850d29db33b92e6e438cc4f4d618ce41d55d31e2d222a",
    1586: "55b38726fa675771726c8daa949f6fe1b3c0c43deb9ea227c1fade2a7cbc39a8",
    6446: "12711af5a3cb7bb189a6c80de1b1f5d151dcf14926c5049bb1c6194821c6d81e",
}


@pytest.mark.parametrize("n", sorted(FIRST_LINE_SHA256))
def test_enumerate_first_line_skips_dead_subtrees(n):
    argv = ["enumerate", "--n", str(n), "--limit", "1"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "primeperm.cli", *argv],
        env=env,
        capture_output=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == FIRST_LINE_SHA256[n]
    assert elapsed < 1.0, elapsed


def test_enumerate_first_line_peak_rss():
    # the rows, the matching and the walk's one mask, not a memo of n-bit
    # half states: 139 MB with that memo
    code, out, rss_mb = run_cli(["enumerate", "--n", "6446", "--limit", "1"])
    assert (code, len(out.splitlines())) == (EXIT_OK, 1)
    assert rss_mb < 48, rss_mb


def test_enumerate_writes_long_lines_in_small_blocks():
    # lines of 3893 characters leave at most 16 to a write, 64 KiB: 79.6 MB
    # with blocks of up to 4096 lines, each held as its list, its join and
    # its encoding at once
    argv = ["enumerate", "--n", "1000", "--limit", "8191"]
    code, _, rss_mb = run_cli(argv, stdout=False)
    assert code == EXIT_OK
    assert rss_mb < 25, rss_mb


def test_enumerate_holds_one_copy_of_its_rows():
    # A's 9458 rows of 9458 bits take 11 MB: 30 MB as a process, against
    # 64 MB with the full matrix's 18917 rows of 18917 bits, and 135.5 MB
    # with two masks per depth of the walk and a second, pinned copy of
    # those
    code, out, rss_mb = run_cli(["enumerate", "--n", "18917", "--limit", "1"])
    assert (code, len(out.splitlines())) == (EXIT_OK, 1)
    assert rss_mb < 40, rss_mb


def test_enumerate_line_count_matches_count(capsys):
    for n in range(1, 10):
        lines = run(capsys, "enumerate", "--n", str(n))[1].splitlines()
        counted = int(run(capsys, "count", "--n", str(n))[1])
        assert len(lines) == counted


# --- table ----------------------------------------------------------------------


def _parse_table(out):
    rows = []
    for line in out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            rows.append((int(cells[0]), int(cells[1]), int(cells[2])))
    return rows


def test_table_known_rows(capsys):
    code, out, err = run(capsys, "table", "--max", "10")
    assert code == EXIT_OK and err == ""
    rows = _parse_table(out)
    assert [r[1] for r in rows] == [1, 1, 1, 4, 1, 9, 4, 36, 36, 676]
    assert [r[2] for r in rows] == [0, 2, 3, 4, 4, 5, 6, 6, 7, 8]


def test_table_max_two(capsys):
    assert _parse_table(run(capsys, "table", "--max", "2")[1]) == [
        (1, 1, 0),
        (2, 1, 2),
    ]


def test_table_bfile(capsys):
    code, out, _ = run(capsys, "table", "--max", "10", "--format", "bfile")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "1 1"
    assert lines[-1] == "10 676"
    assert len(lines) == 10
    for idx, line in enumerate(lines, start=1):
        n_str, value = line.split(" ")
        assert int(n_str) == idx and value.isdigit()


def test_table_json_lines(capsys):
    code, out, _ = run(capsys, "table", "--max", "3", "--format", "json")
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[2] == {"n": 3, "count": "1", "primes_below_2n": 3}


def _dumps_line(obj) -> str:
    """The reference for every JSON line, which the CLI formats by hand."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


def test_count_json_is_compact_json_dumps(capsys):
    for n in range(31):
        for method in count_module.METHODS:
            try:
                count = count_module.count_solutions(n, method=method)
            except count_module.MethodCapError:
                continue
            expected = _dumps_line({"n": n, "method": method, "count": str(count)})
            argv = ("count", "--n", str(n), "--method", method, "--format", "json")
            assert run(capsys, *argv) == (EXIT_OK, expected, ""), argv


# The Permutation stream of enumerate_solutions, which
# test_count.py::test_enumerate_equals_the_unpruned_walk pins to the oracle's
# backtracking, against the lines the CLI writes from it: whole streams to
# n = 15.
ENUMERATE_CASES = [(n, None) for n in range(13)] + [(15, None), (15, 1000), (16, 1000)]


@pytest.mark.parametrize("n,limit", ENUMERATE_CASES)
def test_enumerate_json_is_compact_json_dumps(capsys, n, limit):
    solutions = count_module.enumerate_solutions(n, limit=limit)
    expected = "".join(_dumps_line({"n": n, "image": list(p.image)}) for p in solutions)
    argv = ("enumerate", "--n", str(n), "--format", "json")
    if limit:
        argv += ("--limit", str(limit))
    assert run(capsys, *argv) == (EXIT_OK, expected, "")


@pytest.mark.parametrize("n,limit", ENUMERATE_CASES)
def test_enumerate_text_is_the_permutation_stream(capsys, n, limit):
    solutions = count_module.enumerate_solutions(n, limit=limit)
    expected = "".join(",".join(map(str, p.image)) + "\n" for p in solutions)
    argv = ("enumerate", "--n", str(n))
    if limit:
        argv += ("--limit", str(limit))
    assert run(capsys, *argv) == (EXIT_OK, expected, "")


def test_table_json_is_compact_json_dumps(capsys):
    expected = "".join(
        _dumps_line(dict(n=r.n, count=str(r.count), primes_below_2n=r.primes_below_2n))
        for r in count_module.sequence_table(20)
    )
    code, out, err = run(capsys, "table", "--max", "20", "--format", "json")
    assert (code, out, err) == (EXIT_OK, expected, "")


def test_table_cap(capsys):
    code, _, err = run(capsys, "table", "--max", "40")
    assert code == EXIT_CAP
    # the refusal names the kernel auto runs, as count's does
    assert err.startswith("primeperm: dp counting at n = 1..40 is estimated at ")


@pytest.mark.parametrize("method", ["auto", "dp", "ryser"])
@pytest.mark.parametrize("max_n", [2**63, 10**20])
def test_table_cap_past_sys_maxsize(capsys, max_n, method):
    # range(1, max_n + 1) is longer than len() can state
    code, out, err = run(capsys, "table", "--max", str(max_n), "--method", method)
    assert (code, out) == (EXIT_CAP, "")
    at = f"{'dp' if method == 'auto' else method} counting at n = 1..{max_n} "
    assert err.startswith(f"primeperm: {at}is estimated at ")


@pytest.mark.parametrize(
    "argv,limit",
    [
        # a sieve to 2n = 2 * 10^8 is over its cap of 2^27 entries
        (("construct", "--n", "100000000"), "exceeds the cap of 134217728"),
        # count and table estimate their steps before they build a sieve
        (("count", "--n", "100000000"), "over the step budget of 50000000"),
        (("table", "--max", "100000000"), "over the step budget of 50000000"),
    ],
)
def test_resource_limit_exit(capsys, argv, limit):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CAP, "")
    assert limit in err and "Traceback" not in err


def test_table_requires_positive_max(capsys):
    assert run(capsys, "table", "--max", "0")[0] == EXIT_USAGE


# --- output blocks ----------------------------------------------------------------


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def _block_sizes(lines, width):
    # the lines of each write of lines of width characters, newline
    # included: doubling from one, at most BLOCK_LINES and at most
    # STDIN_PIECE characters, or one line
    sizes, size = [], 1
    while lines > 0:
        sizes.append(min(size, lines))
        lines -= size
        size = max(1, min(2 * size, BLOCK_LINES, STDIN_PIECE // width))
    return sizes


@pytest.mark.parametrize(
    "command, n",
    [
        pytest.param("verify", 200_000, id="verify"),
        pytest.param("enumerate", 12, id="enumerate"),
        pytest.param("enumerate", 1000, id="enumerate-long"),
        *(
            pytest.param("verify", n, id=f"verify-{n}")
            for n in (1, BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1, 2 * BLOCK_LINES)
        ),
        pytest.param("verify", None, id="verify-shuffle"),
    ],
)
def test_streams_double_their_blocks_and_verify_writes_whole_slices(
    monkeypatch, command, n
):
    # enumerate's lines leave in the doubling blocks of _write_lines, the
    # first line alone, and each block at most STDIN_PIECE characters or
    # one line, for short lines and long; verify, which has no line before
    # its input is read and checked, writes each checked slice's lines as
    # one write, then the verdict line: whole slices, a last slice of one
    # line or one short of whole, and a shuffle, whose slices are not runs
    # and whose verdict line names composite positions
    code = EXIT_OK
    if command == "verify":
        image = _witness(n) if n else _composite_edges(3 * BLOCK_LINES + 5)
        code = EXIT_COMPOSITE if n is None else code
        monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(str, image))))
        argv, first = ["verify"], f"1 + {image[0]} = "
        slices = range(0, len(image), BLOCK_LINES)
        sizes = [*(min(BLOCK_LINES, len(image) - lo) for lo in slices), 1]
    else:
        # every line is a permutation of 1..n: all are as wide; n = 1000
        # stops at 100 lines of 3893 characters, 16 to a write past the first
        # 15, where doubling alone would write 32 and then 37
        lines, width = (9216, 27) if n == 12 else (100, 3893)
        assert len(",".join(map(str, range(1, n + 1)))) + 1 == width
        argv = ["enumerate", "--n", str(n), "--limit", str(lines)]
        first, sizes = "2,1,4,3,", _block_sizes(lines, width)
    stdout = _CountingStdout()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(argv) == code
    writes = stdout.writes
    assert len(writes) <= 64
    assert writes[0].startswith(first)
    assert [w.count("\n") for w in writes] == sizes
    assert all(w.endswith("\n") for w in writes)
    if command == "enumerate":
        assert all(len(w) <= STDIN_PIECE or w.count("\n") == 1 for w in writes)


def _closed_early(argv, stdin, buffered, read=io.BufferedReader.readline):
    # read one line (or what read takes), then close the pipe while the CLI
    # still has output
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "primeperm.cli", *argv],
        stdin=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert read(proc.stdout)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_pipe_keeps_exit_code(tmp_path, buffered):
    # identity 1..30000: 2 + 2 = 4 is composite, and 600 KB of lines
    # outgrow the pipe, so the reader is gone before verify is done
    identity = tmp_path / "identity.txt"
    identity.write_text(",".join(map(str, range(1, 30001))))
    with identity.open("rb") as stdin:
        assert _closed_early(["verify"], stdin, buffered) == (EXIT_COMPOSITE, b"")
    # 36100 lines, 1.3 MB
    closed = _closed_early(["enumerate", "--n", "15"], subprocess.DEVNULL, buffered)
    assert closed == (EXIT_OK, b"")
    # a witness whose only composite sums lie past the first slice: output
    # stops before verify reaches them, and they still set the exit code
    image = _witness(30000)
    image[20000], image[20001] = image[20001], image[20000]
    assert _composites(image) == [20001, 20002]
    late = tmp_path / "late.txt"
    late.write_text(",".join(map(str, image)))
    # and one whose only composite sums fill the third slice, a run: the
    # witness sends it to total - hi..total - lo and back, and each of the
    # two is reversed on its own
    image, lo, hi = _witness(30000), 2 * BLOCK_LINES + 1, 3 * BLOCK_LINES
    total = lo + image[lo - 1]
    for a, b in ((lo, hi), (total - hi, total - lo)):
        image[a - 1 : b] = range(b, a - 1, -1)
    assert _composites(image) == list(range(lo, hi + 1))
    run_slice = tmp_path / "run_slice.txt"
    run_slice.write_text(",".join(map(str, image)))
    for path, (argv, read) in itertools.product(
        (late, run_slice),
        (
            (["verify"], io.BufferedReader.readline),
            (["verify", "--format", "json"], lambda out: out.read(10)),
        ),
    ):
        with path.open("rb") as stdin:
            assert _closed_early(argv, stdin, buffered, read) == (EXIT_COMPOSITE, b"")


# --- shared behaviour -------------------------------------------------------------


@pytest.mark.parametrize("argv", [["-h"], ["count", "--help"]])
def test_help_returns_ok(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: primeperm")


def test_unrecognized_arguments_are_clipped(capsys):
    # argparse would echo every leftover token whole: 100 043 bytes here
    for junk in (["x" * 100_000], [str(k) * 50 for k in range(10_000)]):
        code, out, err = run(capsys, "count", "--n", "5", *junk)
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: " in err
        assert len(err.encode()) < 300


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    # --strict-paper (an n! naive route) is gone: argparse rejects it
    for argv in (
        ("count", "--n", "5", "--method", "dp", "--strict-paper"),
        ("table", "--max", "5", "--strict-paper"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --strict-paper" in err


def test_no_command(capsys):
    assert run(capsys)[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, option",
    [
        (["count", "--n", "x" * 100_000], "--n"),
        (["count", "--n", "5", "--method", "x" * 100_000], "--method"),
        (["enumerate", "--n", "5", "--limit", "9" * 100_000], "--limit"),
        (["table", "--max", "5", "--format", "x" * 100_000], "--format"),
        (["x" * 100_000], "<command>"),
    ],
)
def test_usage_error_clips_the_token(capsys, argv, option):
    # the message names the option and a clipped token, not all of it
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"argument {option}: " in err
    assert len(err.encode()) < 300


def test_usage_error_names_each_options_least_value(capsys):
    for argv, least in (
        (("enumerate", "--n", "-1"), 0),
        (("enumerate", "--n", "5", "--limit", "-3"), 1),
        (("table", "--max", "0"), 1),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(f": value must be >= {least}\n")


# Every n is tiny, or past the sieve cap and the step budget, so no example
# starts mid-size work (construct --n 10^7 alone sieves 20 MB).
# Junk has no decimal digits, so it never spells another n.
_N = st.one_of(st.integers(0, 8), st.sampled_from([10**8, 2**27, 2**64])).map(str)
_N_FLAGS = st.sampled_from(["--n", "--max", "--limit"])
_PERMS = st.sampled_from(["1,5,4,3,2", "1,2", "1,1", "", '{"n":2,"image":[2,1]}', "{"])
_WORDS = st.one_of(
    st.sampled_from(["naive", "dp", "ryser", "auto", "text", "json", "bfile"]),
    _N,
    _PERMS,
    st.sampled_from(["--strict-paper", "-h", "--help", "--", "-"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6),
)
# a command with its main option, most of the time, then more options
_HEADS = st.one_of(
    st.tuples(st.sampled_from(["construct", "count", "enumerate"]), st.just("--n"), _N),
    st.tuples(st.just("table"), st.just("--max"), _N),
    st.tuples(st.just("verify"), st.just("--perm"), _PERMS),
    st.tuples(st.sampled_from(["construct", "verify", "count", "enumerate", "table"])),
    st.tuples(st.sampled_from(["-h", "x"])),
)
_OPTIONS = st.one_of(
    st.tuples(_N_FLAGS, _N),
    st.tuples(st.builds("{}={}".format, _N_FLAGS, _N)),
    st.tuples(st.just("--method"), st.sampled_from(["naive", "dp", "ryser", "auto"])),
    st.tuples(st.just("--format"), st.sampled_from(["text", "json", "bfile"])),
    st.tuples(st.just("--perm"), _PERMS),
    st.tuples(st.just("--strict-paper")),
)
_ARGV = st.builds(
    lambda head, options, junk: [*head, *itertools.chain(*options), *junk],
    _HEADS,
    st.lists(_OPTIONS, max_size=3),
    st.lists(_WORDS, max_size=1),
)


@settings(deadline=None)
@given(_ARGV, _PERMS)
def test_random_argv_gets_a_documented_exit_code(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_COMPOSITE, EXIT_NOT_PERMUTATION, EXIT_USAGE, EXIT_CAP)
    assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--n", "8"),
        ("verify", "--perm", "2,1"),
        ("count", "--n", "8"),
        ("enumerate", "--n", "6"),
        ("table", "--max", "8"),
    ],
)
def test_success_is_silent_on_stderr(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert err == ""


IMPORT_PROBE = """
import sys
bare = set(sys.modules)
from primeperm.cli import main
for argv in {argvs!r}:
    main(argv)
print(*sorted(set(sys.modules) - bare))
"""


def _modules_imported_by(*argvs) -> set[str]:
    """The modules that importing the CLI and running argvs add, in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(argvs=argvs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


def test_text_commands_import_no_json_or_dataclasses():
    # start-up cost of every process (README, "Start-up"); modules, not times
    added = _modules_imported_by(["count", "--n", "22"], ["construct", "--n", "1"])
    assert "primeperm.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}


def test_json_output_imports_no_json():
    # every line is written by %-format; only verify loads json, to read
    added = _modules_imported_by(
        ["count", "--n", "22", "--format", "json"],
        ["enumerate", "--n", "6", "--format", "json"],
        ["table", "--max", "8", "--format", "json"],
        ["construct", "--n", "1", "--format", "json"],
    )
    assert "primeperm.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["count", "--n", "22"], {"primeperm.count"}),
        (["count", "--n", "12", "--method", "ryser"], {"primeperm.count"}),
        (["table", "--max", "18"], {"primeperm.count"}),
        (
            ["enumerate", "--n", "6"],
            {"primeperm.construct", "primeperm.count", "primeperm.walk"},
        ),
        (["construct", "--n", "1"], {"primeperm.construct", "primeperm.runs"}),
        (["verify", "--perm", "2,1"], {"primeperm.runs", "primeperm.verify"}),
        (
            ["verify", "--perm", '{"n":2,"image":[2,1]}', "--format", "json"],
            {"primeperm.runs", "primeperm.verify"},
        ),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, loaded):
    # each command compiles only the package code it runs (README,
    # "Start-up"): construct and verify never count, count and table never
    # build a witness, verify of canonical input builds no Permutation, and
    # every command imports primes.py
    added = _modules_imported_by(argv)
    optional = {"construct", "count", "runs", "verify", "walk"}
    assert added & {f"primeperm.{name}" for name in optional} == loaded
    assert "primeperm.primes" in added


PACKAGE_PROBE = """
import sys
import primeperm
print(*sorted(name for name in sys.modules if name.startswith("primeperm.")))
print(*sorted(set(primeperm.__all__) - set(dir(primeperm))))
star = {}
exec("from primeperm import *", star)
print(*sorted(star.keys() - {"__builtins__"}))
"""


def test_package_names_resolve_on_first_use():
    # a fresh `import primeperm`, as python -m primeperm.cli makes first,
    # compiles neither construct.py nor count.py; their names resolve on
    # first use (PEP 562) to the very objects of the modules that define them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", PACKAGE_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    fresh, undir, star = done.stdout.split("\n")[:3]
    assert fresh == "primeperm.primes"
    assert undir == ""  # dir(primeperm) lists every name of __all__, unresolved too
    assert star.split() == sorted(primeperm.__all__) and len(primeperm.__all__) == 20
    for name in primeperm.__all__:
        value = getattr(primeperm, name)
        assert getattr(sys.modules[value.__module__], name) is value
    # the names every command needs moved to primes.py, and keep their old homes
    for name in ("BLOCK_LINES", "STDIN_PIECE", "NotAPermutationError", "_Frozen", "_clip"):
        assert getattr(construct_module, name) is getattr(primes_module, name)
    for name in ("METHODS", "MethodCapError", "_Frozen", "_clip"):
        assert getattr(count_module, name) is getattr(primes_module, name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        primeperm.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "argv, stdin, code",
    [
        (["construct", "--n", "10"], "", EXIT_OK),
        (["verify"], "1,2", EXIT_COMPOSITE),
        (["verify", "--format", "json"], '{"n":2,"image":[2,1]}', EXIT_OK),
        (["count", "--n", "8"], "", EXIT_OK),
        (["enumerate", "--n", "6"], "", EXIT_OK),
        (["table", "--max", "8"], "", EXIT_OK),
        (["verify", "--perm", "1,x"], "", EXIT_USAGE),
        (["verify"], '{"n":2,', EXIT_USAGE),
        (["verify"], None, EXIT_USAGE),  # stdin closed
        (["construct", "--n", str(2**26 + 1)], "", EXIT_CAP),
        (["count", "--n", "100"], "", EXIT_CAP),
    ],
)
def test_commands_never_import_the_cli_twice(capsys, monkeypatch, argv, stdin, code):
    # under python -m, the running cli is __main__: a module that imported
    # primeperm.cli would compile it again, and raise a second _UsageError
    # that main does not catch. Each command keeps its code and message.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-X", "importtime", "-m", "primeperm.cli", *argv]
    if stdin is None:
        command = ["sh", "-c", 'exec "$@" <&-', "sh", *command]
    done = subprocess.run(
        command, input=stdin or "", env=env, capture_output=True, text=True, timeout=60
    )
    timings, messages = [], []
    for line in done.stderr.splitlines(True):
        (timings if line.startswith("import time:") else messages).append(line)
    imported = [line.split("|")[-1].strip() for line in timings]
    assert "primeperm.primes" in imported and "primeperm.cli" not in imported
    monkeypatch.setattr("sys.stdin", None if stdin is None else io.StringIO(stdin))
    assert (done.returncode, done.stdout, "".join(messages)) == run(capsys, *argv)
    assert done.returncode == code


def test_readme_cli_table_matches_parser():
    # rows of the table under "## CLI": | `count` | `--n N` `--method ...` ... |
    section = README.read_text().split("\n## CLI\n")[1].split("\n#")[0]
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", section, re.M)
    documented = {cmd: set(re.findall(r"--[a-z-]+", opts)) for cmd, opts in rows}
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    parsed = {
        cmd: {flag for action in p._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for cmd, p in commands.choices.items()
    }
    assert documented == parsed


def test_benchmark_traced_round_runs():
    # perfbench's traced mode times the CLI by wrapping module attributes,
    # and reads every span they record. These must stay on their modules,
    # called through the module's globals: cli.build_sieve,
    # cli.construct_prime_sum_permutation, cli.sequence_table,
    # cli.enumerate_solutions, count.build_sieve, count.build_adjacency
    # (which dp, ryser and enumeration each call for A's rows),
    # count.count_solutions_dp and count.count_solutions_ryser. The three
    # cli names among them are short functions that import their module
    # (construct.py or count.py) on first call, and the commands still
    # call them through cli's globals; cli.construct_prime_sum_permutation
    # returns the witness's checked blocks, which `construct` writes from,
    # and keeps that name only for this mode. It also
    # calls cli._rounds_table, cli.build_parser and cli.main. A name that
    # leaves its module fails this round with an AttributeError, and a
    # command that stops calling one with a KeyError
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["failed"] == 0
