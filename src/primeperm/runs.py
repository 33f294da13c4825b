"""The witness text that `construct` writes from its runs of equal totals,
the rounds table and the JSON images, from one template of digits per
group of values. Only the `construct` and `verify` commands import it."""

from collections.abc import Iterator
from functools import cache


def _rounds_pieces(runs: list[tuple[int, int]]) -> Iterator[str]:
    """The Round 1, Round 2 and Total rows of a permutation whose runs of
    equal totals k + v are runs, as (total, length), newlines included, in
    pieces of at most 1000 cells. Entries are ints >= 1, so a
    total has at least the digits of k and of v: it is the widest cell of
    its column, and sets its width."""
    for label, step in (("Round 1", 1), ("Round 2", -1), ("Total", 0)):
        yield f"{label:<7} |" + (" " if runs else "")
        yield from _cells(runs, step, "  ", padded=True)
        yield "\n"


def _cells(
    runs: list[tuple[int, int]], step: int, sep: str, padded: bool
) -> Iterator[str]:
    """One row of the runs' cells, joined by sep: the positions (step 1),
    the images (step -1) or the totals (step 0). A run at positions
    lo..lo+L-1 with total t has images t-lo down to t-lo-L+1. A padded
    cell is right-aligned to the width of its run's total."""
    lo = 1
    for total, size in runs:
        if lo > 1:
            yield sep
        width = len(str(total)) if padded else 0
        if step:
            yield from _run(lo if step == 1 else total - lo, size, step, width, sep)
        else:
            cell = sep + str(total)
            for at in range(0, size, 1000):
                yield (cell * min(1000, size - at))[0 if at else len(sep) :]
        lo += size


def _run(first: int, size: int, step: int, width: int, sep: str) -> Iterator[str]:
    """sep.join("%*d" % (width, v) for v in range(first, first + size * step,
    step)), for step 1 or -1, values from 0 below 10^29 and a sep without
    lowercase letters, in pieces of at most 1000 cells. The values below
    1000 take one %-format. Each group of values that share their digits
    above the last three is one slice of _template, whose one str.translate
    writes those digits, right-aligned to width: no Python step per value."""
    order = range(1000)[::step]  # the last three digits, in the run's order
    last = first + (size - 1) * step
    skip = len(sep)  # the first piece has no sep before it
    for high in range(first // 1000, last // 1000 + step, step) if size else ():
        # the group's first and last values: the run's, clamped to the group
        a, b = (min(max(v, 1000 * high), 1000 * high + 999) for v in (first, last))
        if high:
            digits = str(high).rjust(width - 3)
            i, j = order.index(a % 1000), order.index(b % 1000)
            stride = len(sep) + len(digits) + 3
            template = _template(sep, step, len(digits))
            piece = template[i * stride + skip : (j + 1) * stride]
            yield piece.translate(str.maketrans(_MARKS[: len(digits)], digits))
        else:
            values = range(a, b + step, step)
            yield sep[skip:] + sep.join([f"%{width}d"] * len(values)) % tuple(values)
        skip = 0


_MARKS = "abcdefghijklmnopqrstuvwxyz"


@cache
def _template(sep: str, step: int, marks: int) -> str:
    """sep + marks letters + "ddd" for ddd from 000 up to 999 (step 1) or
    down (step -1): with the letters translated, the cells of the values with
    those digits above the last three. Built on first use, not by --n 1."""
    return "".join(map(f"{sep}{_MARKS[:marks]}%03d".__mod__, range(1000)[::step]))
