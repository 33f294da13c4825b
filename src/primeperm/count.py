"""Exact counting and enumeration of prime-sum permutations.

Valid permutations are exactly the permutation matrices dominated by the
0/1 matrix M with M[i][j] = 1 iff i + j is prime, so the solution count
is the permanent of M. Three independent routes compute it: exhaustive
search over permutations (the desk-scale oracle), subset dynamic
programming, and Ryser inclusion-exclusion. The last two use parity to
reduce per(M) to per(A) ** 2 for a half-size block A (see _half_rows);
the oracle stays on the full matrix as a check of that reduction. Counts
are plain Python ints: they outgrow 64 bits quickly, and n! already does
at n = 21.
"""

import itertools
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

from .construct import Permutation
from .primes import PrimeSieve, SieveRangeError, build_sieve

DEFAULT_NAIVE_CAP = 10
DEFAULT_DP_CAP = 26
DEFAULT_RYSER_CAP = 24

METHODS = ("naive", "dp", "ryser", "auto")


class MethodCapError(ValueError):
    """n exceeds the size cap of the selected counting method."""


@dataclass(frozen=True)
class PrimeAdjacency:
    """Bitset rows of the prime-sum adjacency matrix.

    Bit j-1 of rows[i-1] is set iff i + j is prime, i.e. row i is the set
    of columns position i may map to. The matrix is symmetric because
    i + j = j + i.
    """

    n: int
    rows: tuple[int, ...]


def _require_cover(n: int, sieve: PrimeSieve) -> None:
    if sieve.limit < 2 * n:
        raise SieveRangeError(f"sieve limit {sieve.limit} is below 2n = {2 * n}")


def build_adjacency(n: int, sieve: PrimeSieve) -> PrimeAdjacency:
    """Build the n x n prime-sum adjacency rows."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _require_cover(n, sieve)
    rows = []
    for i in range(1, n + 1):
        row = 0
        for j in range(1, n + 1):
            if sieve.is_prime(i + j):
                row |= 1 << (j - 1)
        rows.append(row)
    return PrimeAdjacency(n, tuple(rows))


def _count_backtracking(rows: tuple[int, ...], n: int) -> int:
    def go(pos: int, used: int) -> int:
        if pos == n:
            return 1
        total = 0
        avail = rows[pos] & ~used
        while avail:
            bit = avail & -avail
            total += go(pos + 1, used | bit)
            avail ^= bit
        return total

    return go(0, 0)


def count_solutions_naive(
    n: int,
    sieve: PrimeSieve,
    *,
    strict_paper: bool = False,
    cap: int = DEFAULT_NAIVE_CAP,
) -> int:
    """Count solutions by exhaustive search; the ground-truth oracle.

    The default walks a pruned backtracking tree over legal images. With
    strict_paper=True it literally tests all n! permutations instead,
    which is only tolerable up to n = 10 and is hard-capped there.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 1
    if strict_paper:
        if n > DEFAULT_NAIVE_CAP:
            raise MethodCapError(
                f"strict naive counting is capped at n = {DEFAULT_NAIVE_CAP}, got {n}"
            )
        _require_cover(n, sieve)
        positions = range(1, n + 1)
        return sum(
            1
            for image in itertools.permutations(positions)
            if all(sieve.is_prime(k + image[k - 1]) for k in positions)
        )
    if n > cap:
        raise MethodCapError(f"naive counting is capped at n = {cap}, got {n}")
    adjacency = build_adjacency(n, sieve)
    return _count_backtracking(adjacency.rows, n)


def _half_rows(n: int, sieve: PrimeSieve) -> tuple[int, ...]:
    """Bitset rows of A, the odd-row x even-column block of the prime-sum
    matrix, with count(n) = per(A) ** 2.

    Every prime above 2 is odd, so i + pi(i) prime forces i and pi(i) to
    have opposite parity, except for 1 -> 1 (sum 2). For even n, 1 -> 1
    would leave n/2 - 1 odd positions for the n/2 even values, which only
    odd positions can take: A has rows 1, 3, ..., n-1 and columns
    2, 4, ..., n. For odd n the odd positions outnumber the even values by
    one, so 1 -> 1 is forced: A has rows 3, 5, ..., n and columns
    2, 4, ..., n-1. The even-row x odd-column block is A transposed (the
    matrix is symmetric), and the two blocks are matched independently.
    Bit c of a row is set iff the row index plus 2(c + 1) is prime.
    """
    _require_cover(n, sieve)
    return tuple(
        sum(1 << c for c in range(n // 2) if sieve.is_prime(i + 2 * c + 2))
        for i in range(3 if n % 2 else 1, n + 1, 2)
    )


def count_solutions_dp(n: int, sieve: PrimeSieve, *, cap: int = DEFAULT_DP_CAP) -> int:
    """Count solutions as per(A) ** 2 (see _half_rows), with the permanent
    of the m x m block A, m = n // 2, computed by subset dynamic
    programming.

    ways(S) = number of ways to assign the first |S| rows of A onto
    exactly the column set S; ways(S) = sum over allowed j in S of
    ways(S - {j}). Subsets are processed in layers of equal population
    count so only two layers are resident at once (peak memory is the
    central binomial coefficient C(m, m // 2), not a 2^m table).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > cap:
        raise MethodCapError(f"dp counting is capped at n = {cap}, got {n}")
    rows = _half_rows(n, sieve)
    layer = {0: 1}
    for row in rows:
        nxt: dict[int, int] = defaultdict(int)
        for mask, ways in layer.items():
            avail = row & ~mask
            while avail:
                bit = avail & -avail
                nxt[mask | bit] += ways
                avail ^= bit
        layer = nxt
    return layer.get((1 << len(rows)) - 1, 0) ** 2


def count_solutions_ryser(
    n: int, sieve: PrimeSieve, *, cap: int = DEFAULT_RYSER_CAP
) -> int:
    """Count solutions as per(A) ** 2 (see _half_rows), with the permanent
    of the m x m block A from Ryser's inclusion-exclusion formula:

        per(A) = sum over column subsets S of (-1)^(m-|S|) prod_i |row_i & S|

    traversed in Gray-code order: step t visits gray(t) = t ^ (t >> 1),
    which differs from the previous subset in the single bit (t & -t), so
    the m running row sums update by +-1 and each term costs O(m).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > cap:
        raise MethodCapError(f"ryser counting is capped at n = {cap}, got {n}")
    rows = _half_rows(n, sieve)
    m = len(rows)
    # the empty subset's term is a product of m zero row sums: 1 iff m = 0
    per = 0 if m else 1
    rowsums = [0] * m
    state = 0
    for t in range(1, 1 << m):
        bit = t & -t
        state ^= bit
        step = 1 if state & bit else -1
        for i, row in enumerate(rows):
            if row & bit:
                rowsums[i] += step
        term = 1
        for v in rowsums:
            if not v:
                term = 0
                break
            term *= v
        if term:
            per += term if (m - state.bit_count()) % 2 == 0 else -term
    return per**2


def count_solutions(
    n: int,
    sieve: PrimeSieve,
    method: str = "auto",
    *,
    strict_paper: bool = False,
    naive_cap: int = DEFAULT_NAIVE_CAP,
    dp_cap: int = DEFAULT_DP_CAP,
    ryser_cap: int = DEFAULT_RYSER_CAP,
) -> int:
    """Dispatch to a counting method.

    "auto" is the DP, the production kernel. Naive backtracking and Ryser
    run only when asked for by name: they exist as independent
    cross-checks.
    """
    if method not in METHODS:
        raise ValueError(f"unknown counting method {method!r}; pick from {METHODS}")
    if method == "naive":
        return count_solutions_naive(n, sieve, strict_paper=strict_paper, cap=naive_cap)
    if method == "ryser":
        return count_solutions_ryser(n, sieve, cap=ryser_cap)
    return count_solutions_dp(n, sieve, cap=dp_cap)


def enumerate_solutions(
    n: int,
    sieve: PrimeSieve,
    limit: int | None = None,
) -> Iterator[Permutation]:
    """Yield every valid permutation exactly once, in lexicographic order
    of one-line notation, stopping after ``limit`` items if given.

    Backtracking restricted to adjacency rows. Apart from pinning the
    image of 1 by parity, it only skips images already used, so it can
    still descend into prefixes that no solution extends.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    rows = list(build_adjacency(n, sieve).rows)
    # parity (see _half_rows): 1 -> 1 is forced for odd n, impossible for even n
    rows[0] = 1 if n % 2 else rows[0] & ~1
    image = [0] * n

    def extend(pos: int, used: int) -> Iterator[Permutation]:
        if pos == n:
            yield Permutation(tuple(image))
            return
        avail = rows[pos] & ~used
        while avail:
            # lowest set bit first keeps the stream lexicographic
            bit = avail & -avail
            image[pos] = bit.bit_length()
            yield from extend(pos + 1, used | bit)
            avail ^= bit

    stream = extend(0, 0)
    return stream if limit is None else itertools.islice(stream, limit)


@dataclass(frozen=True)
class SequenceRow:
    """One row of the solution-count sequence table."""

    n: int
    count: int
    primes_below_2n: int

    def as_json_dict(self) -> dict:
        # count rides as a string: JSON consumers commonly lose precision
        # past 53 bits
        return {
            "n": self.n,
            "count": str(self.count),
            "primes_below_2n": self.primes_below_2n,
        }


def sequence_table(
    max_n: int,
    method: str = "auto",
    *,
    strict_paper: bool = False,
    naive_cap: int = DEFAULT_NAIVE_CAP,
    dp_cap: int = DEFAULT_DP_CAP,
    ryser_cap: int = DEFAULT_RYSER_CAP,
) -> list[SequenceRow]:
    """Solution counts and primes-below-2n for n = 1..max_n.

    max_n must sit within the selected method's cap; that is checked up
    front so no partial table is computed before failing.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    worst = {"naive": naive_cap, "dp": dp_cap, "ryser": ryser_cap, "auto": dp_cap}
    if method in worst and max_n > worst[method]:
        raise MethodCapError(
            f"{method} counting is capped at n = {worst[method]}, got max_n = {max_n}"
        )
    sieve = build_sieve(2 * max_n)
    return [
        SequenceRow(
            n,
            count_solutions(
                n,
                sieve,
                method,
                strict_paper=strict_paper,
                naive_cap=naive_cap,
                dp_cap=dp_cap,
                ryser_cap=ryser_cap,
            ),
            sieve.count_primes_below(2 * n),
        )
        for n in range(1, max_n + 1)
    ]
