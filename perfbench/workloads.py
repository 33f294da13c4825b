"""Workloads of the primeperm benchmark and the checks of their outputs.

A workload is a fixed list of units; a unit is one or more CLI steps run
in order. Every check here is independent of the package: it uses its own
sieve and expected values recorded below, and never imports primeperm.
"""

import json
import random
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable

# Solution counts for n = 1..22, computed by a row-by-row subset DP written
# apart from the package (trial-division primality). Every one is a perfect
# square. The ryser step at n = 19 is checked against this DP-derived value.
EXPECTED_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 9, 7: 4, 8: 36, 9: 36, 10: 676,
    11: 400, 12: 9216, 13: 3600, 14: 44100, 15: 36100, 16: 1223236,
    17: 583696, 18: 14130081, 19: 5461569, 20: 158180929, 21: 96275344,
    22: 5486661184,
}
# Lexicographically first solutions, from a plain backtracker.
FIRST_SOLUTIONS = {
    14: (2, 1, 4, 3, 6, 5, 12, 11, 14, 13, 8, 7, 10, 9),
    16: (2, 1, 4, 3, 6, 5, 10, 9, 8, 7, 12, 11, 16, 15, 14, 13),
}

WITNESS_JSON_N = 1_000_000
WITNESS_TEXT_N = 200_000
RANDOM_N = 200_000
SIEVE_LIMIT = 2 * WITNESS_JSON_N
PRIMES_UP_TO_SIEVE_LIMIT = 148_933  # pi(2 * 10^6), a published value


class Mismatch(ValueError):
    """An output differs from what the benchmark expects."""


def _prime_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


PRIME = _prime_flags(SIEVE_LIMIT)
if PRIME.count(1) != PRIMES_UP_TO_SIEVE_LIMIT:
    raise RuntimeError("benchmark sieve disagrees with pi(2 * 10^6)")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _composites(image) -> list[int]:
    return [k for k, v in enumerate(image, 1) if not PRIME[k + v]]


def _check_solution(image, n: int) -> None:
    """image is a permutation of 1..n with every k + image[k-1] prime."""
    _require(len(image) == n, f"expected {n} entries, got {len(image)}")
    _require(sorted(image) == list(range(1, n + 1)), "not a permutation of 1..n")
    bad = _composites(image)
    _require(not bad, f"composite sums at positions {bad[:5]}")


# --- checks; each takes the step's stdout bytes and raises Mismatch -------


def verify_json(n: int, image=None) -> Callable[[bytes], None]:
    """`verify --format json`: a witness of size n, or the given image."""

    def check(out: bytes) -> None:
        obj = json.loads(out)
        got = obj["image"]
        _require(obj["n"] == len(got) == n, "wrong n")
        if image is None:
            _check_solution(got, n)
        else:
            _require(got == image, "echoed image differs from the input")
        _require(obj["sums"] == [k + v for k, v in enumerate(got, 1)], "wrong sums")
        composite = _composites(got)
        _require(obj["composite_positions"] == composite, "wrong composite positions")
        _require(obj["valid"] is (not composite), "wrong verdict")

    return check


def verify_text(n: int) -> Callable[[bytes], None]:
    """Text `verify` of a witness: one line per position, then the verdict."""

    def check(out: bytes) -> None:
        lines = out.decode().splitlines()
        _require(len(lines) == n + 1, f"expected {n + 1} lines, got {len(lines)}")
        image = []
        for k, line in enumerate(lines[:-1], 1):
            left, _, verdict = line.partition("  ")
            pos, _, rest = left.partition(" + ")
            v, _, s = rest.partition(" = ")
            _require(int(pos) == k and int(s) == k + int(v), f"bad line {line!r}")
            _require(verdict == ("prime" if PRIME[k + int(v)] else "composite"),
                     f"wrong label on {line!r}")
            image.append(int(v))
        _check_solution(image, n)
        _require(lines[-1] == "valid: every total is prime", "wrong verdict line")

    return check


def rounds_table(n: int) -> Callable[[bytes], None]:
    """Text `construct`: Round 1, Round 2 and Total rows of a witness."""

    def check(out: bytes) -> None:
        positions, image, totals = _rounds_rows(out)
        _require(positions == list(range(1, n + 1)), "wrong Round 1 row")
        _check_solution(image, n)
        _require(totals == [k + v for k, v in enumerate(image, 1)], "wrong totals")

    return check


def _rounds_rows(out: bytes) -> list[list[int]]:
    rows = out.decode().splitlines()
    labels = ("Round 1", "Round 2", "Total")
    _require(len(rows) == 3, f"expected 3 rows, got {len(rows)}")
    parsed = []
    for label, row in zip(labels, rows):
        head, _, cells = row.partition("|")
        _require(head.strip() == label, f"expected row {label!r}")
        parsed.append([int(x) for x in cells.split()])
    return parsed


def rounds_to_csv(out: bytes) -> bytes:
    """The Round 2 row as the one-line notation `verify` reads; `verify`
    does not parse the rounds table itself."""
    return ",".join(map(str, _rounds_rows(out)[1])).encode()


def count_value(n: int, expected=EXPECTED_COUNTS) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        value = int(out)
        _require(isqrt(value) ** 2 == value, f"count {value} is not a perfect square")
        _require(value == expected[n], f"count({n}) = {value}, expected {expected[n]}")

    return check


def count_table(max_n: int) -> Callable[[bytes], None]:
    """Text `table`: header, then `n | count | primes<2n` rows."""

    def check(out: bytes) -> None:
        header, *rows = out.decode().splitlines()
        _require(header.split() == ["n", "|", "count", "|", "primes<2n"], "bad header")
        _require(len(rows) == max_n, f"expected {max_n} rows, got {len(rows)}")
        for n, row in enumerate(rows, 1):
            got = [int(cell) for cell in row.split("|")]
            want = [n, EXPECTED_COUNTS[n], PRIME.count(1, 0, 2 * n)]
            _require(got == want, f"row {row!r}, expected {want}")
            _require(isqrt(got[1]) ** 2 == got[1], f"count {got[1]} is not a square")

    return check


def enumerate_first(n: int) -> Callable[[bytes], None]:
    def check(out: bytes) -> None:
        lines = out.decode().splitlines()
        _require(len(lines) == 1, f"expected 1 line, got {len(lines)}")
        image = tuple(int(x) for x in lines[0].split(","))
        _check_solution(image, n)
        _require(image == FIRST_SOLUTIONS[n], "not the lexicographically first solution")

    return check


def enumerate_all(n: int) -> Callable[[bytes], None]:
    """Full stream: every solution valid, strictly increasing, all there."""

    def check(out: bytes) -> None:
        previous = ()
        lines = out.decode().splitlines()
        for line in lines:
            image = tuple(int(x) for x in line.split(","))
            _check_solution(image, n)
            _require(image > previous, "stream is not strictly lexicographic")
            previous = image
        want = EXPECTED_COUNTS[n]
        _require(len(lines) == want, f"{len(lines)} solutions, expected {want}")

    return check


# --- workloads -------------------------------------------------------------


@dataclass
class Step:
    """One CLI invocation. `upstream` is a second CLI process whose stdout
    is piped into this one; `stdin` builds this step's input from the
    previous step's stdout."""

    args: list[str]
    check: Callable[[bytes], None]
    expect: int = 0
    upstream: list[str] | None = None
    stdin: Callable[[bytes | None], bytes] | None = None
    stream: bool = False  # prints several lines; counts toward first_line_s


@dataclass
class Unit:
    """Steps that run in this order; `items` is what the unit delivers
    toward items_per_s."""

    name: str
    steps: list[Step]
    items: int = 0


@dataclass
class Workload:
    name: str
    units: list[Unit]
    rng: random.Random = field(repr=False, default_factory=random.Random)

    def order(self, extra: list[Unit]) -> list[Unit]:
        """The units plus `extra` in a seeded order, new for every pass."""
        pool = self.units + extra
        return self.rng.sample(pool, len(pool))


SETUP = Unit("setup", [Step(["construct", "--n", "1"], rounds_table(1))])


def witness(seed: int) -> Workload:
    rng = random.Random(seed)
    shuffled = list(range(1, RANDOM_N + 1))
    rng.shuffle(shuffled)
    csv = ",".join(map(str, shuffled)).encode()
    units = [
        Unit("construct_json|verify_json", [Step(
            ["verify", "--format", "json"], verify_json(WITNESS_JSON_N),
            upstream=["construct", "--n", str(WITNESS_JSON_N), "--format", "json"],
        )], items=WITNESS_JSON_N),
        Unit("construct_text>verify_text", [
            Step(["construct", "--n", str(WITNESS_TEXT_N)], rounds_table(WITNESS_TEXT_N),
                 stream=True),
            Step(["verify"], verify_text(WITNESS_TEXT_N), stdin=rounds_to_csv, stream=True),
        ], items=WITNESS_TEXT_N),
        Unit("verify_random", [Step(
            ["verify", "--format", "json"], verify_json(RANDOM_N, shuffled),
            expect=2, stdin=lambda _: csv,
        )]),
    ]
    return Workload("witness", units, rng)


def count(seed: int) -> Workload:
    units = [
        Unit("count_21", [Step(["count", "--n", "21"], count_value(21))], 1),
        Unit("count_22", [Step(["count", "--n", "22"], count_value(22))], 1),
        Unit("count_19_ryser", [Step(
            ["count", "--n", "19", "--method", "ryser"], count_value(19),
        )], 1),
        Unit("table_18", [Step(
            ["table", "--max", "18"], count_table(18), stream=True,
        )], 18),
    ]
    return Workload("count", units, random.Random(seed))


def enumerate_(seed: int) -> Workload:
    units = [
        Unit(f"enumerate_{n}_limit_1", [Step(
            ["enumerate", "--n", str(n), "--limit", "1"], enumerate_first(n), stream=True,
        )])
        for n in (14, 16)
    ]
    units.append(Unit("enumerate_15", [Step(
        ["enumerate", "--n", "15"], enumerate_all(15), stream=True,
    )], items=EXPECTED_COUNTS[15]))
    return Workload("enumerate", units, random.Random(seed))


WORKLOADS = {"witness": witness, "count": count, "enumerate": enumerate_}

