"""The enumerator's walk and its blocks of solutions, imported only when
enumerate_solutions is called."""

import itertools
from collections.abc import Iterator, Sequence
from operator import mul

from .construct import NotAPermutationError, Permutation

# The rows each half may have left when enumeration lists the leaves below
# as a product instead of walking to them (see _walk). In-process on a
# 2-core VM, `enumerate --n 15` into a null writer took 59-61, 30-32 and
# 28-30 ms with 4, 5 and 6 (two rounds of medians of 15 alternating runs),
# and the n = 16 stream 1.95, 0.83 and 0.85 s. With 6, a list may hold 6!
# tuples and a pair's order (6!)^2 indices.
_TAIL_ROWS = 5

# The units of completion lists and pair orders that enumeration keeps
# (see _walk), whatever n is: the full n = 16 stream peaks at 472 611.
_LIST_ROOM = 1 << 19


def _permutations(
    prefix: tuple, firsts: tuple, seconds: tuple, order: tuple
) -> Iterator[Permutation]:
    """Each solution of one _proven block, in its order, stored as a
    Permutation without a second check, from a list per first whose
    second's slots each solution writes over."""
    (entries, *_), (others, *_), (fi, sj) = firsts, seconds, order
    images = [[*prefix, *_interleave(entry, others[0])] for entry in entries if fi]
    start = len(prefix) + 1
    for image, j in zip(map(images.__getitem__, fi), sj):
        image[start::2] = others[j]
        yield Permutation._unchecked(tuple(image))


def _lines(
    line: str, prefix: tuple, firsts: tuple, seconds: tuple, order: tuple
) -> Iterator[str]:
    """The text of each solution of one _proven block, in its order: line's
    text, which holds one %s and no other %, around its csv. Each line is
    one %-format: its first's template, line holding the prefix's digits
    and the first's cell, filled in with its second's digits. The prefix
    is not empty."""
    head = ("%d," * len(prefix))[:-1] % prefix
    templates = list(map(line.__mod__, map(head.__add__, firsts[2])))
    fi, sj = order
    cells = map(templates.__getitem__, fi), map(seconds[2].__getitem__, sj)
    return map(str.__mod__, *cells)


def _walk(rows: Sequence[int], n: int, matches: list) -> Iterator[tuple]:
    """Lowest-bit-first backtracking over two perfect matchings of the one
    matrix A with these bitset rows, on a list of each depth's value and a
    mask per half of the values taken above, so its depth is not bound by
    the recursion limit. Depth d is level d // 2 of half d % 2, which
    writes a value v of A as 2v + shifts[d % 2], shifts (0, -1) for even n
    and (+1, 0) after the head (1,) for odd n: the positions of n's
    solutions in order. It yields the leaves in blocks (prefix, firsts,
    seconds, order), firsts and seconds as _keyed lists: each leaf is the
    prefix followed by a first and a second interleaved, the first's
    values at the even offsets, and the pairs of entries that order lists,
    by _order, come in the order the walk would reach their leaves.

    matches holds each half's matching, the value of each level. An image
    keeps a leaf below iff its half's levels below can still take distinct
    values (Hall 1935), that is, iff _repair can change that matching, in
    place, to give the image to its level and agree with the prefix above;
    else the walk skips it. Any such matching will do, so nothing is undone
    on backtrack. Once each half has at most _TAIL_ROWS levels left, and
    past depth 0, the walk stops descending: the leaves below are one
    block, whose firsts and seconds are the _completions of the half that
    takes the next depth and of the other. The product is not built here,
    so a block holds two lists of at most _TAIL_ROWS! short tuples, which
    the walk keys and keeps by half state and hands to many blocks, and
    their order, kept by the pair of states; each block is _proven before
    it is yielded. The lists and orders hold at most _LIST_ROOM units, one
    per list or order and one per entry of each of their parts, and are
    all dropped when a new one would not fit.
    """
    m, depths = len(rows), 2 * len(rows)
    head, shifts = ((1,), (1, 0)) if n % 2 else ((), (0, -1))
    written = [range(shift, n + 1, 2) for shift in shifts]  # [h][v] is 2v + shift
    image = [0] * depths  # the value each depth holds, 0 before its first
    cut = max(1, depths - 2 * _TAIL_ROWS)
    values = [0] * cut  # what each depth above the cut writes: the prefix
    taken = [0, 0]  # each half's values at the depths above pos
    # each value's level: the levels in the order of their values
    owners = [[0, *sorted(range(m), key=match.__getitem__)] for match in matches]
    # The halves share A's values: a list's key is its half's values above
    # the cut, then the half, and an order's is the pair of its lists' keys.
    lists: dict[int | tuple[int, int], tuple] = {}
    held = 0  # units in lists
    pos = 0
    while True:
        half, level = pos & 1, pos >> 1
        avail = rows[level] & ~taken[half] & -1 << image[pos]  # free, above its value
        if not avail:
            if not pos:
                return
            pos -= 1
            taken[pos & 1] ^= 1 << image[pos] - 1
            continue
        # lowest set bit first keeps the stream lexicographic
        bit = avail & -avail
        image[pos] = bit.bit_length()
        match = matches[half]
        if match[level] != image[pos]:
            if not _repair(rows, match, owners[half], level, image[pos], taken[half]):
                continue
        values[pos] = written[half][image[pos]]
        if pos + 1 == cut:
            other = half ^ 1  # the half that takes depth cut
            pair = (taken[other] << 1 | other, (taken[half] | bit) << 1 | half)
            block = []
            for key in (*pair, pair):
                found = lists.get(key)
                if found is None:
                    if key is pair:
                        found = _order(*block)
                    else:
                        entries = _completions(rows, key >> 1)
                        found = _keyed(entries, written[key & 1], len(block), depths - cut)
                    units = 1 + sum(map(len, found))
                    if held + units > _LIST_ROOM:
                        lists.clear()
                        held = 0
                    if units <= _LIST_ROOM:
                        lists[key] = found
                        held += units
                block.append(found)
            prefix = (*head, *values)
            _proven(prefix, *block)
            yield prefix, *block
            continue
        taken[half] |= bit
        pos += 1
        image[pos] = 0


def _repair(
    rows: Sequence[int], match: list, owner: list, pos: int, value: int, taken: int
) -> bool:
    """Whether depth pos can take value while the depths below it take
    distinct values of their rows outside taken, the values of the depths
    above it, given match, a perfect matching of rows that agrees with
    them, and owner, its inverse; if so, both become such a matching.

    One depth-first search, on a list, for an alternating path: from the
    depth that holds value, each depth on it takes the next one's value,
    until one takes the value that pos gives up. Each depth tries that
    value first, then the lowest value not yet entered; no value is
    entered twice. On failure match is unchanged."""
    lost = match[pos]
    goal = 1 << lost - 1
    free = ~taken ^ 1 << value - 1  # values the path may still enter
    path = [owner[value]]
    while path:
        row = rows[path[-1]]
        if row & goal:
            break
        avail = row & free
        if avail:
            bit = avail & -avail
            free ^= bit
            path.append(owner[bit.bit_length()])
        else:
            path.pop()
    else:
        return False
    for depth in reversed(path):
        match[depth], lost = lost, match[depth]
        owner[match[depth]] = depth
    match[pos], owner[value] = value, pos
    return True


def _completions(rows: Sequence[int], key: int) -> list[tuple[int, ...]]:
    """Every way for the rows past the first key.bit_count() to take
    distinct values outside key, which those first rows took, as tuples of
    values in lexicographic order."""
    partial = [((), key)]
    for row in rows[key.bit_count() :]:
        grown = []
        for taken, used in partial:
            avail = row & ~used
            while avail:
                bit = avail & -avail
                avail ^= bit
                grown.append(((*taken, bit.bit_length()), used | bit))
        partial = grown
    return [taken for taken, _ in partial]


def _keyed(entries: list, written: range, offset: int, length: int) -> tuple:
    """(entries, keys, cells) for a completion list whose values go at
    offsets offset, offset + 2, ... of tails of the given length, each
    value v written as written[v].

    Unless the entries hold only ints (not bools) in 1..len(written) - 1,
    each as long as its offsets, all of one set of values, RuntimeError. An
    entry's key is its values as digits in base len(written) at those
    offsets, so a tail's key is its first's plus its second's, and sorting
    the keys sorts the tails, written in rising order. The entries come
    back written: a first's cell is a %-format of its digits with a %s at
    each odd offset, and a second's cell the tuple of its digits."""
    powers, base = range(length - 1 - offset, -1, -2), len(written)
    if entries and not (
        set(map(type, itertools.chain.from_iterable(entries))) <= {int}
        and set(map(len, entries)) == {len(powers)}
        and set(map(frozenset, entries)) == {frozenset(entries[0])}
        and all(0 < v < base for v in entries[0])
    ):
        n = written.stop - 1  # written runs to n
        raise RuntimeError(f"enumeration built a faulty completion list at n = {n}")
    weights = [base**power for power in powers]
    keys = [sum(map(mul, entry, weights)) for entry in entries]
    entries = [tuple(map(written.__getitem__, entry)) for entry in entries]
    if offset:
        return entries, keys, [tuple(map("%d".__mod__, entry)) for entry in entries]
    cell = ",%d,%%s" * (length // 2) + ",%d" * (length % 2)
    return entries, keys, list(map(cell.__mod__, entries))


def _order(firsts: tuple, seconds: tuple) -> tuple[Sequence[int], Sequence[int]]:
    """The tails of a pair of _keyed lists as the indices of their firsts
    and of their seconds, sorted by the sums of their keys. Each index
    takes a byte while both lists hold at most 256 entries, as they do at
    _TAIL_ROWS = 5 (5! = 120); with more rows left a list may hold 6! = 720,
    and the indices are a list."""
    keys = [a + b for a in firsts[1] for b in seconds[1]]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    m = len(seconds[0])
    index = bytes if max(len(firsts[0]), m) <= 256 else list
    return index(map(m.__rfloordiv__, order)), index(map(m.__rmod__, order))


def _proven(prefix: tuple, firsts: tuple, seconds: tuple, order: tuple) -> None:
    """Prove each solution of a block of _keyed lists a bijection, or raise
    RuntimeError. Each is the prefix and a first and a second interleaved,
    n ints in 1..n with the same set of values, so once Permutation has
    accepted the first in order, whose n values are distinct, each is."""
    fi, sj = order
    if fi:
        try:
            Permutation(prefix + _interleave(firsts[0][fi[0]], seconds[0][sj[0]]))
        except NotAPermutationError as error:
            raise RuntimeError(f"enumeration built a faulty block: {error}") from None


def _interleave(first: tuple, second: tuple) -> tuple:
    """first's values at the even offsets and second's at the odd ones,
    then the rest of the longer."""
    pairs = itertools.chain.from_iterable(zip(first, second))
    return (*pairs, *first[len(second) :], *second[len(first) :])
