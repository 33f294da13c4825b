"""Exact counting and enumeration of prime-sum permutations.

Valid permutations are exactly the permutation matrices dominated by the
0/1 matrix M with M[i][j] = 1 iff i + j is prime, whose row i is the
sieve's window i + 1 .. i + n, so the solution count is the permanent of
M. Parity splits M into two perfect matchings of one half-size symmetric
matrix A (see build_adjacency), so per(M) = per(A) ** 2. Two kernels
compute per(A): subset dynamic programming, the production kernel, and
Ryser inclusion-exclusion, its independent cross-check; the full-matrix
oracles live outside the package, in tests/oracles.py. The enumerator
walks the two matchings of A from construct's witness; walk.py and
construct.py are imported on first use, so `count` and `table` compile
neither. Counts are plain Python ints: they outgrow 64 bits quickly.
"""

import functools
import itertools
import math
from collections import defaultdict
from collections.abc import Iterator
from sys import maxsize

from .primes import DEFAULT_LIMIT_CAP, PrimeSieve, build_sieve
# what every command needs lives in primes.py; this module exports it too
from .primes import METHODS, MethodCapError, _clip, _Frozen

# Elementary steps a count may take: n <= 43 for dp and ryser (README,
# "Counting methods").
STEP_BUDGET = 5 * 10**7


class PrimeAdjacency(_Frozen):
    """The m = n // 2 bitset rows of A, with count(n) = per(A) ** 2 (see
    build_adjacency): bit j - 1 of rows[i - 1] is set iff 2(i + j) - 1
    (even n) or 2(i + j) + 1 (odd n) is prime, so A is symmetric."""

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: tuple[int, ...]):
        self._set(n, rows)


def build_adjacency(n: int, sieve: PrimeSieve) -> PrimeAdjacency:
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
    Row i is the sieve's window i + 2, i + 4, ..., i + 2 * (n // 2), one
    stride-2 window to 2n - 1 shifted down a bit per row above the first.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    first, m = 3 if n % 2 else 1, n // 2
    bits, mask = sieve.prime_bits(range(first + 2, 2 * n, 2)), (1 << m) - 1
    return PrimeAdjacency(n, tuple(bits >> s & mask for s in range(m)))


def _steps(n: int) -> int:
    """Upper bound on the elementary steps of counting n by dp or ryser:
    m * 2^m on the m x m half matrix, m = n // 2. It stops at the first
    m * 2^k past STEP_BUDGET, so refusing any n is cheap."""
    for steps in (n // 2 << k for k in range(n // 2 + 1)):
        if steps > STEP_BUDGET:
            break
    return steps


def _admit(method: str, ns: range) -> str:
    """The kernel that counts every n in ns by method ("auto" is "dp"),
    after, in this order: method is one of METHODS, n is nonnegative, and
    the steps of all of ns together fit STEP_BUDGET. Each refusal raises
    before any work; ns may be longer than any len() can state."""
    if method not in METHODS:
        raise ValueError(f"unknown counting method {method!r}; pick from {METHODS}")
    if ns[0] < 0:
        raise ValueError(f"n must be nonnegative, got {ns[0]}")
    kernel = "dp" if method == "auto" else method
    for steps in itertools.accumulate(map(_steps, ns)):
        if steps > STEP_BUDGET:
            at = ns[0] if ns[0] == ns[-1] else f"{ns[0]}..{ns[-1]}"
            raise MethodCapError(
                f"{kernel} counting at n = {at} is estimated at {steps} or more "
                f"steps, over the step budget of {STEP_BUDGET}"
            )
    return kernel


def count_solutions_dp(n: int, sieve: PrimeSieve) -> int:
    """Count solutions as per(A) ** 2 (see build_adjacency), with the
    permanent of the m x m block A, m = n // 2, computed by subset dynamic
    programming.

    ways(S) = number of ways to assign the first |S| rows of A onto
    exactly the column set S; ways(S) = sum over allowed j in S of
    ways(S - {j}). Subsets are processed in layers of equal population
    count so only two layers are resident at once (peak memory is the
    central binomial coefficient C(m, m // 2), not a 2^m table).
    """
    _admit("dp", range(n, n + 1))
    rows = build_adjacency(n, sieve).rows
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


def count_solutions_ryser(n: int, sieve: PrimeSieve) -> int:
    """Count solutions as per(A) ** 2 (see build_adjacency), with the
    permanent of the m x m block A from Ryser's formula in the Nijenhuis-Wilf
    form (Combinatorial Algorithms, 1978, ch. 23), which fixes A's last
    column and sums over subsets S of the other m - 1 columns only:

        per(A) = (-1)^(m-1) 2 sum_S (-1)^|S| prod_i (x_i + |row_i & S|),
        x_i = a(i, last) - |row_i| / 2

    Its factors are kept doubled, so integral: the walk sums to
    (-1)^(m-1) 2^(m-1) per(A). Step t of the Gray-code walk flips column
    (t & -t), so |S| changes parity and only the rows holding that column
    change, by +-2: 2^(m-1) - 1 steps, on O(m) ints.
    """
    _admit("ryser", range(n, n + 1))
    rows = build_adjacency(n, sieve).rows
    m = len(rows)
    if not m:
        return 1  # the empty matrix has one (empty) matching
    last = 1 << (m - 1)
    x = [2 * bool(row & last) - row.bit_count() for row in rows]  # doubled
    # the rows holding each column of the walk: a flip changes only these
    holders = [[i for i, row in enumerate(rows) if row >> j & 1] for j in range(m - 1)]
    total = math.prod(x)  # S empty
    for t in range(1, last):
        bit = t & -t  # S = gray(t) = t ^ (t >> 1), and |S| is odd iff t is
        step = 2 if (t ^ t >> 1) & bit else -2
        for i in holders[bit.bit_length() - 1]:
            x[i] += step
        if 0 not in x:
            total += -math.prod(x) if t & 1 else math.prod(x)
    return ((-total if (m - 1) % 2 else total) >> (m - 1)) ** 2


def count_solutions(
    n: int, sieve: PrimeSieve | None = None, method: str = "auto"
) -> int:
    """Count solutions by method; "auto" is the dp, the production kernel.

    Ryser runs only when named: it is the independent cross-check. Without
    a sieve, one to 2n is built once the step estimate has admitted n, so
    refusing a large n costs no sieve. A count whose root's parity is not
    det(A) over GF(2), which is per(A) mod 2 and shares no code with either
    kernel, raises RuntimeError.
    """
    kernel = _admit(method, range(n, n + 1))
    if sieve is None:
        sieve = build_sieve(2 * n)
    kernels = {"dp": count_solutions_dp, "ryser": count_solutions_ryser}
    count = kernels[kernel](n, sieve)
    # per(A) mod 2 is det(A) over GF(2), where -1 = 1 (Valiant 1979): each
    # pivot clears its lowest column from the rows left; a zero row ends at 0
    rows, det = list(build_adjacency(n, sieve).rows), 1
    while rows and det:
        det = pivot = rows.pop()
        rows = [row ^ pivot if row & pivot & -pivot else row for row in rows]
    if math.isqrt(count) % 2 != bool(det):
        raise RuntimeError(f"{kernel} counting at n = {n} broke per(A) = det(A) mod 2")
    return count


def enumerate_solutions(
    n: int,
    sieve: PrimeSieve | None = None,
    limit: int | None = None,
    line: str | None = None,
) -> "Iterator[Permutation] | Iterator[str]":
    """Yield every valid permutation exactly once, in lexicographic order
    of one-line notation, stopping after ``limit`` items if given. With a
    ``line``, a text holding one %s and no other %, each solution comes as
    line with the comma-separated one-line notation in place of its %s,
    instead of as a Permutation; any other line raises ValueError.

    The solutions are the pairs of perfect matchings of A (see
    build_adjacency) for the odd and the even positions, interleaved. The
    walk takes the positions in order on an explicit stack, so any n the
    sieve covers runs without recursion, and keeps each half's matching
    agreeing with its prefix, seeded with construct's witness: it takes an
    image only if an alternating path repairs the matching to hold it (see
    walk._walk), so it never descends into a prefix no solution extends.

    Near the leaves, the walk hands over each subtree as one block: a
    prefix, the two halves' completion lists, each checked, keyed and
    rendered once per call (walk._keyed), and the order of their
    interleaved product, sorted once per pair. The walk's _proven checks
    the first solution of a block as any Permutation, which proves every
    solution of the block a bijection, or raises RuntimeError before the
    block; each is then stored as a Permutation without a second check,
    or, with a line, written as one %-format (see walk._lines). The m rows
    of m bits, m = n // 2, take up to m ceil(m / 8) bytes, whatever the
    limit: over DEFAULT_LIMIT_CAP (n > 65537) it raises MethodCapError
    before any work. The walk and the matchings take a few lists of m ints
    and two masks, and the completion lists at most walk._LIST_ROOM units.
    A block adds its prefix, fewer than n ints; with a line, its lines are
    made one at a time as the stream is read, so the caller decides how
    many are held at once (the CLI writes at most 64 KiB, or one line).
    Without a sieve, one to 2n is built after that check.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if line is not None and (line.count("%") != 1 or "%s" not in line):
        raise ValueError(f"line must hold one %s and no other %, got {_clip(line)}")
    from .construct import Permutation, construct_prime_sum_permutation
    if n <= 1:
        # the empty permutation or 1 -> 1: A has no rows, and one solution
        return iter((Permutation((1,) * n) if line is None else line % ("1" * n),))
    m = n // 2
    estimate = m * -(-m // 8)  # m rows of m bits
    if estimate > DEFAULT_LIMIT_CAP:
        raise MethodCapError(
            f"enumeration at n = {n} is estimated at {estimate} bytes of rows, "
            f"over the cap of {DEFAULT_LIMIT_CAP} bytes"
        )
    if sieve is None:
        sieve = build_sieve(2 * n)
    from .walk import _lines, _permutations, _walk  # compiled only when it runs

    # the witness, a solution with 1 -> 1 iff n is odd, as A's values: w = 2v + shift
    witness = construct_prime_sum_permutation(n, sieve).image[n % 2 :]
    shifts = (1, 0) if n % 2 else (0, -1)
    matches = [[(w - s) // 2 for w in witness[h::2]] for h, s in enumerate(shifts)]
    blocks = _walk(build_adjacency(n, sieve).rows, n, matches)
    render = _permutations if line is None else functools.partial(_lines, line)
    stream = itertools.chain.from_iterable(itertools.starmap(render, blocks))
    # islice takes at most sys.maxsize, an item count no stream reaches
    return stream if limit is None else itertools.islice(stream, min(limit, maxsize))


class SequenceRow(_Frozen):
    """One row of the solution-count sequence table."""

    __slots__ = ("n", "count", "primes_below_2n")
    n: int
    count: int
    primes_below_2n: int

    def __init__(self, n: int, count: int, primes_below_2n: int):
        self._set(n, count, primes_below_2n)


def sequence_table(max_n: int, method: str = "auto") -> list[SequenceRow]:
    """Solution counts and primes-below-2n for n = 1..max_n.

    The method, then the steps of all rows together against STEP_BUDGET,
    are checked up front, so a refusal builds no sieve and no partial table.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    _admit(method, range(1, max_n + 1))  # before the sieve to 2 * max_n
    sieve = build_sieve(2 * max_n)
    return [
        SequenceRow(
            n, count_solutions(n, sieve, method), sieve.count_primes_below(2 * n)
        )
        for n in range(1, max_n + 1)
    ]
