"""primeperm command line: construct witnesses, verify candidate rounds,
count and enumerate solutions, and print the sequence table. Beyond
primes.py, each command imports only what it runs: `construct` construct.py
and runs.py, `verify` runs.py and verify.py (and construct.py for input that
is not canonical), `count` and `table` count.py, and `enumerate` count.py,
construct.py and walk.py.

Exit codes:
    0   success (for verify: the permutation is a valid solution)
    1   internal error
    2   well-formed permutation, but some positional sum is composite
    3   input is not a permutation of 1..n
    64  usage or parse error
    65  input exceeds a resource limit (counting step budget, enumerate
        memory estimate or sieve cap)
"""

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, groupby, islice
from operator import add

from .primes import (
    BLOCK_LINES,
    METHODS,
    STDIN_PIECE,
    MethodCapError,
    NotAPermutationError,
    SieveCapError,
    _clip,
    build_sieve,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COMPOSITE = 2
EXIT_NOT_PERMUTATION = 3
EXIT_USAGE = 64
EXIT_CAP = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route through _UsageError so main() can
    # return the documented code 64.
    def error(self, message):
        raise _UsageError(message)

    # argparse's own checks, with the values clipped: the messages would
    # otherwise echo argv tokens of any length and number
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_clip(value)} (choose from {choices})"
            )

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            shown = " ".join(t if len(t) <= 40 else _clip(t) for t in extras[:3])
            more = f" and {len(extras) - 3} more" if len(extras) > 3 else ""
            self.error(f"unrecognized arguments: {shown}{more}")
        return args


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _int_at_least(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_clip(text)} is not an integer") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"value must be >= {least}")
    return value


def _write(chunks: Iterable[str]) -> None:
    """Write and flush each chunk to stdout. If the reader has gone, point
    the stdout fd at os.devnull (the recipe in the Python signal docs), so
    the flush at exit cannot fail either, and stop writing: the command
    still returns its own exit code."""
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
            sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_lines(lines: Iterable[str]) -> None:
    """Write lines (without their newlines) in blocks, each one write and
    one flush: the writer of count, table and enumerate. The first line
    leaves alone, as soon as it exists; each next block doubles the last,
    up to BLOCK_LINES lines and STDIN_PIECE characters at the last block's
    width, or one line. A stream of short lines costs a few dozen write(2)
    calls even when stdout is unbuffered (PYTHONUNBUFFERED), where every
    write is one. verify, which has no line to send before its whole input
    is read and checked, writes each checked slice's text as one write."""
    _write(_blocks(iter(lines)))


def _blocks(lines: Iterator[str]) -> Iterator[str]:
    size = 1
    while block := list(islice(lines, size)):
        text = "\n".join(block) + "\n"
        yield text
        fits = STDIN_PIECE * len(block) // len(text)  # lines this wide in a piece
        size = max(1, min(2 * size, BLOCK_LINES, fits))


# The calls the benchmark's traced mode wraps, as globals of this module,
# through which the commands call them: each imports its module on first call
def construct_prime_sum_permutation(n, sieve):
    """The witness's checked blocks in position order, which `construct`
    writes from: no image is built. Named for the call the traced mode
    times as construct.construct_s, and kept only for it, until the
    profile of whole processes in ROADMAP.md item 10 replaces that mode."""
    from .construct import _checked_blocks
    return _checked_blocks(n, sieve)


def sequence_table(max_n, method):
    from .count import sequence_table
    return sequence_table(max_n, method)


def enumerate_solutions(n, limit, line):
    from .count import enumerate_solutions
    return enumerate_solutions(n, limit=limit, line=line)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="primeperm",
        description=(
            "Tools for prime-sum permutations: orderings of 1..n in which "
            "every position k plus its entry pi(k) is a prime number."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="<command>")

    p = sub.add_parser("construct", help="build a witness permutation for n")
    p.add_argument("--n", type=_nonnegative_int, required=True, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a candidate permutation")
    p.add_argument(
        "--perm",
        metavar="CSV",
        help="one-line notation, e.g. 1,5,4,3,2 (reads stdin when omitted)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="count all solutions for n")
    p.add_argument("--n", type=_nonnegative_int, required=True, metavar="N")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="stream all solutions for n")
    p.add_argument("--n", type=_nonnegative_int, required=True, metavar="N")
    p.add_argument("--limit", type=_positive_int, metavar="K")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="print the count sequence for n = 1..max")
    p.add_argument("--max", type=_positive_int, required=True, metavar="N")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--format", choices=("text", "json", "bfile"), default="text")
    p.set_defaults(func=_cmd_table)

    return parser


def _cmd_construct(args) -> int:
    from .runs import _cells, _rounds_pieces  # imported by construct and verify only

    blocks = construct_prime_sum_permutation(args.n, build_sieve(2 * args.n))
    # the witness reverses each block [lo, hi]: one run of totals lo + hi
    runs = [(b.prime, b.hi - b.lo + 1) for b in blocks]
    if args.format == "json":
        # a compact json.dumps of {"n": n, "image": [...]}
        head = f'{{"n":{args.n},"image":['
        _write(chain((head,), _cells(runs, -1, ",", padded=False), ("]}\n",)))
    else:
        _write(_rounds_pieces(runs))
    return EXIT_OK


def _rounds_table(perm) -> str:
    """The rounds table of a Permutation, one string without its last newline."""
    from .runs import _rounds_pieces

    # each run of equal totals k + v, as (total, length)
    ks = range(1, perm.n + 1)
    runs = [(total, len(list(run))) for total, run in groupby(map(add, ks, perm.image))]
    return "".join(_rounds_pieces(runs))[:-1]


def _cmd_verify(args) -> int:
    from . import verify  # the reader, checker and writers only verify runs

    try:  # a strict stdin decoder's error is a ValueError
        slices = verify._parse_image(args.perm)
    except NotAPermutationError:
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    n = verify._checked_image(slices)
    flagged: list[tuple[range, bytes]] = []
    checked = verify._checked_slices(n, slices, build_sieve(2 * n), flagged)
    if args.format == "json":
        _write(verify._verify_json(n, slices, checked, flagged))
    else:
        _write(verify._verify_text(checked, flagged))
    # a reader that stopped early left slices unchecked, but the exit code
    # answers for every position
    for _ in checked:
        pass
    return EXIT_COMPOSITE if flagged else EXIT_OK


def _cmd_count(args) -> int:
    from .count import count_solutions

    # no sieve passed: count_solutions builds it after the step estimate,
    # so an n over the budget is refused without sieving to 2n
    count = count_solutions(args.n, method=args.method)
    if args.format == "json":
        # the count as a string: JSON consumers commonly lose precision
        # past 53 bits. Every value is an int or a METHODS name: no escaping.
        _write_lines([f'{{"n":{args.n},"method":"{args.method}","count":"{count}"}}'])
    else:
        _write_lines([str(count)])
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    # no sieve passed: enumerate_solutions builds it after its memory
    # estimate, so an n whose rows would not fit is refused without sieving
    # each line is Permutation.to_text, or in JSON its compact json.dumps
    line = "%s" if args.format == "text" else f'{{"n":{args.n},"image":[%s]}}'
    _write_lines(enumerate_solutions(args.n, limit=args.limit, line=line))
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = sequence_table(args.max, method=args.method)
    if args.format == "bfile":
        _write_lines(f"{row.n} {row.count}" for row in rows)
    elif args.format == "json":
        _write_lines(
            f'{{"n":{r.n},"count":"{r.count}","primes_below_2n":{r.primes_below_2n}}}'
            for r in rows
        )
    else:
        n_w = max(len(str(rows[-1].n)), 1)
        c_w = max(max(len(str(r.count)) for r in rows), len("count"))
        header = f"{'n':>{n_w}} | {'count':>{c_w}} | primes<2n"
        _write_lines(
            [header]
            + [f"{r.n:>{n_w}} | {r.count:>{c_w}} | {r.primes_below_2n}" for r in rows]
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's --help, after printing the usage
        return exc.code
    except _UsageError as exc:
        print(f"primeperm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MethodCapError, SieveCapError) as exc:
        print(f"primeperm: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NotAPermutationError as exc:
        print(f"primeperm: {exc}", file=sys.stderr)
        return EXIT_NOT_PERMUTATION
    except Exception as exc:  # CLI boundary: report, don't traceback
        print(f"primeperm: internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
