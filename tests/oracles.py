"""Slow, independent reference implementations used as test oracles.

Nothing here touches the package's sieve or bitset machinery on purpose:
primality is trial division, counting is full permutation iteration or a
plain dict/set backtracker. Keep it that way so the oracle stays an
independent route to every expected value.
"""

import itertools


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
    return _backtrack(
        [[j for j in range(1, n + 1) if is_prime_trial(i + j)] for i in range(1, n + 1)]
    )


def leaves_by_backtracking(rows: list[int]) -> list[tuple[int, ...]]:
    """Every way for each bitset row d to take a distinct value v with bit
    v - 1 of rows[d] set, in lexicographic order, via list/set
    backtracking: the leaves of the enumerator's walk over rows."""
    n = len(rows)
    return _backtrack([[v for v in range(1, n + 1) if row >> (v - 1) & 1] for row in rows])


def _backtrack(allowed: list[list[int]]) -> list[tuple[int, ...]]:
    """Every way for each position to take a distinct value from its
    sorted list in allowed, in lexicographic order. Recursive: keep the
    lists few."""
    found: list[tuple[int, ...]] = []
    used: set[int] = set()
    image: list[int] = []

    def go(i: int) -> None:
        if i == len(allowed):
            found.append(tuple(image))
            return
        for j in allowed[i]:
            if j not in used:
                used.add(j)
                image.append(j)
                go(i + 1)
                used.discard(j)
                image.pop()

    go(0)
    return found


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
