"""primeperm command line: construct witnesses, verify candidate rounds,
count and enumerate solutions, and print the sequence table.

Exit codes:
    0   success (for verify: the permutation is a valid solution)
    1   internal error
    2   well-formed permutation, but some positional sum is composite
    3   input is not a permutation of 1..n
    64  usage or parse error
    65  n exceeds the selected counting method's cap
"""

import argparse
import json
import sys
from itertools import compress
from operator import add, not_

from .construct import (
    NotAPermutationError,
    Permutation,
    construct_prime_sum_permutation,
)
from .count import (
    DEFAULT_DP_CAP,
    DEFAULT_RYSER_CAP,
    METHODS,
    MethodCapError,
    count_solutions,
    enumerate_solutions,
    sequence_table,
)
from .primes import PrimeSieve, build_sieve

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


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("value must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


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
    _add_method_options(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="stream all solutions for n")
    p.add_argument("--n", type=_positive_int, required=True, metavar="N")
    p.add_argument("--limit", type=_positive_int, metavar="K")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="print the count sequence for n = 1..max")
    p.add_argument("--max", type=_positive_int, required=True, metavar="N")
    _add_method_options(p)
    p.add_argument("--format", choices=("text", "json", "bfile"), default="text")
    p.set_defaults(func=_cmd_table)

    return parser


def _add_method_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument(
        "--strict-paper",
        action="store_true",
        help="naive method tests all n! permutations instead of backtracking",
    )
    p.add_argument("--dp-cap", type=_positive_int, default=DEFAULT_DP_CAP, metavar="N")
    p.add_argument(
        "--ryser-cap", type=_positive_int, default=DEFAULT_RYSER_CAP, metavar="N"
    )


def _sieve_for(n: int) -> PrimeSieve:
    """A sieve covering every sum k + pi(k) of a permutation of 1..n."""
    return build_sieve(max(2, 2 * n))


def _cmd_construct(args) -> int:
    perm = construct_prime_sum_permutation(args.n, _sieve_for(args.n))
    if args.format == "json":
        print(_dump(perm.as_json_dict()))
    else:
        print(_rounds_table(perm))
    return EXIT_OK


def _rounds_table(perm: Permutation) -> str:
    ks = range(1, perm.n + 1)
    positions = list(map(str, ks))
    images = list(map(str, perm.image))
    totals = list(map(str, map(add, ks, perm.image)))
    # Entries are ints >= 1, so k + v has at least the digits of k and of v:
    # each total is the widest cell of its column.
    widths = list(map(len, totals))
    lines = []
    for label, cells in (("Round 1", positions), ("Round 2", images), ("Total", totals)):
        row = "  ".join(map(str.rjust, cells, widths))
        lines.append(f"{label:<7} | {row}".rstrip())
    return "\n".join(lines)


def _parse_perm(text: str) -> Permutation:
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"invalid JSON permutation: {exc}") from None
        try:
            return Permutation.from_json(obj)
        except NotAPermutationError:
            raise
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    try:
        return Permutation.from_text(stripped)
    except NotAPermutationError:
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_verify(args) -> int:
    # No name keeps the raw input alive: at n = 10^6 it is 7 MB more at the
    # output, where verify peaks.
    perm = _parse_perm(args.perm if args.perm is not None else sys.stdin.read())
    ks = range(1, perm.n + 1)
    sums = list(map(add, ks, perm.image))
    flags = _sieve_for(perm.n).prime_flags(sums)
    composite_at = list(compress(ks, map(not_, flags))) if 0 in flags else []
    if args.format == "json":
        print(
            _dump(
                {
                    "n": perm.n,
                    "image": perm.image,
                    "sums": sums,
                    "composite_positions": composite_at,
                    "valid": not composite_at,
                }
            )
        )
    else:
        labels = map(("composite", "prime").__getitem__, flags)
        # Lazily, line by line: one joined string would delay the first line.
        sys.stdout.writelines(
            map("{} + {} = {}  {}\n".format, ks, perm.image, sums, labels)
        )
        if composite_at:
            print(
                "invalid: composite totals at positions "
                + ",".join(map(str, composite_at))
            )
        else:
            print("valid: every total is prime")
    return EXIT_COMPOSITE if composite_at else EXIT_OK


def _cmd_count(args) -> int:
    count = count_solutions(
        args.n,
        _sieve_for(args.n),
        method=args.method,
        strict_paper=args.strict_paper,
        dp_cap=args.dp_cap,
        ryser_cap=args.ryser_cap,
    )
    if args.format == "json":
        print(_dump({"n": args.n, "method": args.method, "count": str(count)}))
    else:
        print(count)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    for perm in enumerate_solutions(args.n, _sieve_for(args.n), limit=args.limit):
        if args.format == "json":
            print(_dump(perm.as_json_dict()), flush=True)
        else:
            print(perm.to_text(), flush=True)
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = sequence_table(
        args.max,
        method=args.method,
        strict_paper=args.strict_paper,
        dp_cap=args.dp_cap,
        ryser_cap=args.ryser_cap,
    )
    if args.format == "bfile":
        for row in rows:
            print(f"{row.n} {row.count}")
    elif args.format == "json":
        for row in rows:
            print(_dump(row.as_json_dict()))
    else:
        n_w = max(len(str(rows[-1].n)), 1)
        c_w = max(max(len(str(r.count)) for r in rows), len("count"))
        print(f"{'n':>{n_w}} | {'count':>{c_w}} | primes<2n")
        for r in rows:
            print(f"{r.n:>{n_w}} | {r.count:>{c_w}} | {r.primes_below_2n}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"primeperm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MethodCapError as exc:
        print(f"primeperm: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NotAPermutationError as exc:
        print(f"primeperm: {exc}", file=sys.stderr)
        return EXIT_NOT_PERMUTATION
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # CLI boundary: report, don't traceback
        print(f"primeperm: internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
