"""Slow, independent reference implementations used as test oracles.

Nothing here touches the package's sieve or bitset machinery on purpose:
primality is trial division, counting is full permutation iteration or a
plain dict/set backtracker, and a count's parity is a GF(2) elimination
on rows built by trial division. Keep it that way so the oracle stays an
independent route to every expected value.
"""

import itertools
from collections.abc import Iterator


def is_prime_trial(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def next_prime_trial(k: int) -> int:
    m = k + 1
    while not is_prime_trial(m):
        m += 1
    return m


def count_primes_below_trial(bound: int) -> int:
    return sum(1 for m in range(2, bound) if is_prime_trial(m))


def count_by_full_iteration(n: int) -> int:
    """Test every one of the n! permutations. Keep n small."""
    count = 0
    for image in itertools.permutations(range(1, n + 1)):
        if all(is_prime_trial(k + image[k - 1]) for k in range(1, n + 1)):
            count += 1
    return count


def solutions_by_backtracking(n: int) -> list[tuple[int, ...]]:
    """All solutions in lexicographic order, via list/set backtracking."""
    values = range(1, n + 1)
    allowed = [[j for j in values if is_prime_trial(i + j)] for i in values]
    return list(_backtrack(allowed))


def leaves_by_backtracking(rows: list[int]) -> Iterator[tuple[int, ...]]:
    """Every way for each bitset row d to take a distinct value v with bit
    v - 1 of rows[d] set, in lexicographic order, via list/set
    backtracking, one at a time: the leaves of an unpruned walk over rows."""
    n = len(rows)
    return _backtrack([[v for v in range(1, n + 1) if row >> (v - 1) & 1] for row in rows])


def _backtrack(allowed: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Every way for each position to take a distinct value from its
    sorted list in allowed, in lexicographic order, as a generator.
    Recursive: keep the lists few."""
    used: set[int] = set()
    image: list[int] = []

    def go(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(allowed):
            yield tuple(image)
            return
        for j in allowed[i]:
            if j not in used:
                used.add(j)
                image.append(j)
                yield from go(i + 1)
                used.discard(j)
                image.pop()

    return go(0)


def count_by_layered_dp(n: int) -> int:
    """Count solutions position by position on the full n x n matrix: each
    layer maps the frozenset of values taken by positions 1..k to the number
    of ways to take them. No parity split, so it checks that reduction too."""
    layer = {frozenset(): 1}
    for k in range(1, n + 1):
        images = [v for v in range(1, n + 1) if is_prime_trial(k + v)]
        nxt: dict[frozenset, int] = {}
        for used, ways in layer.items():
            for v in images:
                if v not in used:
                    key = used | {v}
                    nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return sum(layer.values())


def interleaved_product(prefix: tuple, firsts: list, seconds: list) -> list[tuple]:
    """prefix followed by each first and second interleaved, first[0],
    second[0], first[1], ..., then the rest of the longer, in sorted
    order: the leaves of one block of the enumerator's walk."""
    leaves = []
    for first, second in itertools.product(firsts, seconds):
        end = []
        for k in range(max(len(first), len(second))):
            end += [*first[k : k + 1], *second[k : k + 1]]
        leaves.append((*prefix, *end))
    return sorted(leaves)


def perfect_matching(rows: list[int]) -> list[int] | None:
    """A perfect matching of bitset rows, row d onto a value v with bit
    v - 1 of rows[d] set, as the value of each row; None if there is none.
    Kuhn's augmenting paths on lists and a dict, recursive: keep n small."""
    n = len(rows)
    allowed = [[v for v in range(1, n + 1) if rows[d] >> (v - 1) & 1] for d in range(n)]
    holder: dict[int, int] = {}  # value -> the row that takes it

    def augment(d: int, seen: set[int]) -> bool:
        for v in allowed[d]:
            if v not in seen:
                seen.add(v)
                if v not in holder or augment(holder[v], seen):
                    holder[v] = d
                    return True
        return False

    if not all(augment(d, set()) for d in range(n)):
        return None
    match = [0] * n
    for v, d in holder.items():
        match[d] = v
    return match


def pinned_matrix_rows(n: int) -> list[int]:
    """Bitset rows of the full prime-sum matrix, by trial division, with the
    parity pin: bit v - 1 of row i (both 1-indexed) is set iff i + v is an
    odd prime, so odd positions take even values and even positions odd
    ones, and 1 -> 1 (sum 2) is cut; at odd n it is forced instead, so row
    1 is {1} and no other row keeps 1."""
    odd, prime = n % 2, [is_prime_trial(k) for k in range(2 * n + 1)]
    rows = [
        sum(1 << v - 1 for v in range(1 + i % 2, n + 1, 2) if v > odd and prime[i + v])
        for i in range(1, n + 1)
    ]
    if odd:
        rows[0] = 1
    return rows


def half_matrix_rows(n: int) -> list[int]:
    """Bitset rows of the symmetric m x m half matrix A, m = n // 2, by
    trial division: bit j - 1 of row i (both 1-indexed) is set iff
    2(i + j) - 1 (even n) or 2(i + j) + 1 (odd n) is prime."""
    m, shift = n // 2, 1 if n % 2 else -1
    return [
        sum(1 << j - 1 for j in range(1, m + 1) if is_prime_trial(2 * (i + j) + shift))
        for i in range(1, m + 1)
    ]


def solutions_by_matching_pairs(n: int) -> list[tuple[int, ...]]:
    """All solutions in lexicographic order, as the interleavings of every
    pair (sigma, tau) of perfect matchings of A (see half_matrix_rows),
    found by testing all m! maps: for even n, 2i - 1 -> 2 sigma(i) and
    2i -> 2 tau(i) - 1; for odd n, 1 -> 1, 2i + 1 -> 2 sigma(i) and
    2i -> 2 tau(i) + 1. Keep n small."""
    rows, m, shift = half_matrix_rows(n), n // 2, 1 if n % 2 else -1
    matchings = [
        p
        for p in itertools.permutations(range(1, m + 1))
        if all(row >> (j - 1) & 1 for row, j in zip(rows, p))
    ]
    found = []
    for sigma, tau in itertools.product(matchings, repeat=2):
        image = {1: 1}  # position 1 is overwritten at even n
        for i, (s, t) in enumerate(zip(sigma, tau), 1):
            image[2 * i + shift], image[2 * i] = 2 * s, 2 * t + shift
        found.append(tuple(image[k] for k in range(1, n + 1)))
    return sorted(found)


def det_gf2(rows: list[int]) -> int:
    """The determinant over GF(2) of the square matrix with these bitset
    rows (bit j of a row is column j), by Gaussian elimination: 1 iff the
    rows are linearly independent. It equals the permanent mod 2, since
    -1 = 1 there."""
    rows = list(rows)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r] >> col & 1), None)
        if pivot is None:
            return 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, len(rows)):
            if rows[r] >> col & 1:
                rows[r] ^= rows[col]
    return 1
