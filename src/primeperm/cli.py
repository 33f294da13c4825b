"""primeperm command line: construct witnesses, verify candidate rounds,
count and enumerate solutions, and print the sequence table.

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
import codecs
import os
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import cache, lru_cache, partial
from itertools import chain, compress, groupby, islice, starmap
from operator import add

from .construct import (
    NotAPermutationError,
    Permutation,
    _clip,
    construct_prime_sum_permutation,
)
from .count import (
    METHODS,
    MethodCapError,
    count_solutions,
    enumerate_solutions,
    sequence_table,
)
from .primes import DEFAULT_LIMIT_CAP, PrimeSieve, SieveCapError, build_sieve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COMPOSITE = 2
EXIT_NOT_PERMUTATION = 3
EXIT_USAGE = 64
EXIT_CAP = 65

# Largest block of lines _write_lines joins into one write, and the
# number of positions verify formats at a time.
BLOCK_LINES = 4096

# Bytes of stdin verify reads and decodes at a time.
STDIN_PIECE = 1 << 16


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
    """Write lines (without their newlines) in blocks of 1, 2, 4, ... up to
    BLOCK_LINES lines, each one write and one flush. The first line leaves
    on its own, as soon as it exists, and a long stream costs a few dozen
    write(2) calls even when stdout is unbuffered (PYTHONUNBUFFERED), where
    every write is one."""
    _write(_blocks(iter(lines)))


def _blocks(lines: Iterator[str]) -> Iterator[str]:
    size = 1
    while block := list(islice(lines, size)):
        yield "\n".join(block) + "\n"
        size = min(2 * size, BLOCK_LINES)


def _text_blocks(texts: Iterable[str]) -> Iterator[str]:
    """_blocks of the lines in texts, each text whole lines, newlines
    included. Once blocks are BLOCK_LINES lines, a text of BLOCK_LINES
    lines is cut by one rfind: the line held back and all its lines but
    the last, which is held back in turn."""
    held, size = [], 1  # lines not yet written, fewer than size
    for text in texts:
        if len(held) == 1 and size == BLOCK_LINES == text.count("\n"):
            cut = text.rfind("\n", 0, -1) + 1
            yield held.pop() + text[:cut]
            text = text[cut:]
        held += text.splitlines(True)
        while len(held) >= size:
            yield "".join(held[:size])
            del held[:size]
            size = min(2 * size, BLOCK_LINES)
    if held:
        yield "".join(held)


def _slices(values: Sequence[int]) -> Iterator[Sequence[int]]:
    """values in consecutive slices of BLOCK_LINES entries."""
    return (values[lo : lo + BLOCK_LINES] for lo in range(0, len(values), BLOCK_LINES))


def _csv(pieces: Iterable[str]) -> Iterator[str]:
    """pieces joined by commas, one string per piece: a JSON array's body,
    one write each."""
    sep = ""
    for piece in pieces:
        yield sep + piece
        sep = ","


def _ints(part: Sequence[int]) -> str:
    """The ints of part as comma-separated decimals. One %-format runs at
    C speed, faster than json.dumps or str on each int."""
    return ",".join(["%d"] * len(part)) % tuple(part)


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


def _sieve_for(n: int) -> PrimeSieve:
    """A sieve covering every sum k + pi(k) of a permutation of 1..n."""
    return build_sieve(max(2, 2 * n))


def _cmd_construct(args) -> int:
    perm = construct_prime_sum_permutation(args.n, _sieve_for(args.n))
    # the witness reverses blocks [lo, hi] that tile 1..n in order: the
    # image at lo is hi, so one entry per block gives its run of totals
    runs, lo = [], 1
    while lo <= perm.n:
        hi = perm.image[lo - 1]
        runs.append((lo + hi, hi - lo + 1))
        lo = hi + 1
    if args.format == "json":
        # a compact json.dumps of {"n": n, "image": [...]}
        head = f'{{"n":{perm.n},"image":['
        _write(chain((head,), _cells(runs, -1, ",", padded=False), ("]}\n",)))
    else:
        _write(_rounds_pieces(runs))
    return EXIT_OK


def _rounds_table(perm: Permutation) -> str:
    """The rounds table as one string, without its last newline."""
    # each run of equal totals k + v, as (total, length)
    ks = range(1, perm.n + 1)
    runs = [(total, len(list(run))) for total, run in groupby(map(add, ks, perm.image))]
    return "".join(_rounds_pieces(runs))[:-1]


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


def _parse_image(text: str | None) -> list[Sequence[int]]:
    """The entries in text, or in stdin if text is None, in slices of
    BLOCK_LINES entries not yet checked to be a permutation. Canonical text
    is read slice by slice as it arrives (_canonical_slices), a run slice
    as a range; any other text is stripped and decoded whole, as from_text
    or from_json decode it, the one path that words parse errors, into
    tuples of plain ints. JSON text is let go once decoded, the decoded
    list before it is copied into a tuple. Either path is refused once
    its slices pass the sieve cap (_capped)."""
    import json  # here, not at the top: only verify reads JSON

    try:
        try:  # a strict stdin decoder's error is a ValueError
            pieces = _stdin() if text is None else iter((text,))
            return list(_capped(_canonical_slices(pieces)))
        except _Whole as whole:
            text = whole.args[0].strip()
        if not text.startswith("{"):
            image = Permutation._text_values(text)
        else:
            try:
                obj = json.loads(text)
            except (json.JSONDecodeError, RecursionError) as exc:  # or too deep
                raise _UsageError(f"invalid JSON permutation: {exc}") from None
            del text  # before the decoded list is copied into a tuple
            image = Permutation._json_values(obj)
            del obj
    except NotAPermutationError:
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return list(_capped(_slices(image)))


def _capped(slices: Iterable[Sequence[int]]) -> Iterator[Sequence[int]]:
    """slices, refused as soon as they hold more entries than a sieve within
    DEFAULT_LIMIT_CAP can check, before the rest is read or held. Judged by
    the entries read, as a JSON head's N may lie."""
    read = 0
    for vs in slices:
        if (read := read + len(vs)) > DEFAULT_LIMIT_CAP // 2:  # sums reach 2n
            raise SieveCapError(
                f"input of {read} or more entries: their sums pass the sieve "
                f"cap of {DEFAULT_LIMIT_CAP} entries"
            )
        yield vs


class _Whole(Exception):
    """The whole input text, raised when it is not canonical."""


class _Decoded(tuple):
    """A canonical slice that is not a run, with its input text as .text."""


def _canonical_slices(pieces: Iterator[str]) -> Iterator[Sequence[int]]:
    """_parse_image's slices of canonical text, each yielded as soon as the
    pieces hold its text, which is then let go. Canonical text is a BODY of
    comma-separated entries, stripped, or a JSON document that is exactly
    {"n":N,"image":[BODY]} plus JSON whitespace, with N the number of
    entries in plain decimal, compared as text. Every slice but the last is
    followed by a comma, so it is decided before the input ends. Any other
    text raises _Whole with the whole text: the slices decided so far,
    rebuilt, and the rest. So does text that holds 16 * BLOCK_LINES
    characters (16 an entry and its comma) past the last slice decided,
    before its end: no slice's text is matched more than a few times."""
    buf = next(pieces, "")
    pos = re.match(r"\s*", buf).end()
    csv = not buf.startswith("{", pos)
    head = None if csv else re.match(r'\{"n":([0-9]{1,15}),"image":\[', buf)
    prefix, kept, end = buf[: head.end() if head else pos], [], None

    def whole() -> _Whole:
        texts = (_slice_text(vs) + "," for vs in kept)
        return _Whole("".join(chain((prefix,), texts, (buf[pos:],), pieces)))

    if not csv and not head:
        raise whole()
    pos = len(prefix)
    while True:
        stop = len(buf) if end is None else end
        while decided := _decided(buf, pos, stop, BLOCK_LINES, False):
            vs, pos = decided[0], decided[1] + 1
            kept.append(vs)
            yield vs
        if end is not None:
            break
        if len(buf) - pos >= 16 * BLOCK_LINES:
            raise whole()
        piece = next(pieces, None)
        if piece is not None:
            buf, pos = buf[pos:] + piece, 0
        elif csv:
            end = len(buf.rstrip())
        else:
            end = buf.rfind("]}", pos)
            if end < 0 or buf[end + 2 :].strip(" \t\n\r"):
                raise whole()
    size = buf.count(",", pos, end) + 1 if pos < end else 0
    n = len(kept) * BLOCK_LINES + size
    if size > BLOCK_LINES or kept and not size or head and head[1] != str(n):
        raise whole()
    if size:
        if not (decided := _decided(buf, pos, end, size, True)):
            raise whole()
        yield decided[0]


def _decided(text: str, pos: int, end: int, size: int, last: bool) -> tuple | None:
    """The slice of size entries whose text starts at pos, and where that
    text ends: at end for the last slice, else at a comma before end; None
    if it is not canonical or not all here. A run is construct's run text
    (_run). Any other slice's entries, digits only, are cut by one re match
    and decoded by one json.loads, which refuses a leading zero, so the
    slice's text is _ints of them: it is kept, a _Decoded, to be echoed."""
    import json

    top = re.compile("[1-9][0-9]{0,13}").match(text, pos, end)
    top = int(top[0]) if top else 0
    if top >= size and (size == 1 or text.startswith(f"{top},{top - 1}", pos, end)):
        run = _slice_text(vs := range(top, top - size, -1))
        after = pos + len(run)
        if not last and after >= end:
            return None  # the run's text or its comma is still to come
        if (after == end if last else text[after] == ",") and text.startswith(run, pos):
            return vs, after
    cut = re.compile(f"(?:[0-9]*,){{{size - 1}}}[0-9]*").match(text, pos, end)
    if not cut or (
        cut.end() < end if last else not text.startswith(",", cut.end(), end)
    ):
        return None
    body = text[pos : cut.end()]
    try:
        vs = _Decoded(json.loads(f"[{body}]"))
    except ValueError:  # not JSON, or past the int-string digit limit
        return None
    vs.text = body
    return vs, cut.end()


@lru_cache(maxsize=1)
def _slice_text(vs: Sequence[int]) -> str:
    """A slice's images, comma-separated, as construct writes them: a run's
    from _run, kept for the next call, which asks again for a run whose
    text had not all come; a _Decoded's the text it was read from."""
    if type(vs) is range:
        return "".join(_run(vs[0], len(vs), -1, 0, ","))
    return vs.text if type(vs) is _Decoded else _ints(vs)


def _stdin() -> Iterator[str]:
    """stdin, decoded as sys.stdin decodes it, in pieces of STDIN_PIECE
    bytes, each read when the last has been matched. A decoding error gives
    its offsets within the whole input, as one read would."""
    if sys.stdin is None:  # fd 0 was closed when Python started
        raise _UsageError("no input: stdin is closed and --perm is not given")
    stream = getattr(sys.stdin, "buffer", None)
    if stream is None:  # a text stream with no bytes below it, e.g. io.StringIO
        yield from iter(partial(sys.stdin.read, STDIN_PIECE), "")
        return
    decoder = codecs.getincrementaldecoder(sys.stdin.encoding)(sys.stdin.errors)
    done, piece = 0, True
    while piece:
        piece = stream.read(STDIN_PIECE)
        held = len(decoder.getstate()[0])  # undecoded bytes from earlier pieces
        try:
            text = decoder.decode(piece, final=not piece)
        except UnicodeDecodeError as exc:
            # the message reads the offending bytes from the object at the
            # offsets, so both are moved to where they are in the input
            shift = done - held
            raise UnicodeDecodeError(
                exc.encoding, bytes(shift) + exc.object,
                exc.start + shift, exc.end + shift, exc.reason,
            ) from None
        yield text
        done += len(piece)


def _cmd_verify(args) -> int:
    slices = _parse_image(args.perm)
    n = _checked_image(slices)
    flagged: list[tuple[range, bytes]] = []
    checked = _checked_slices(n, slices, _sieve_for(n), flagged)
    if args.format == "json":
        _write(_verify_json(n, slices, checked, flagged))
    else:
        texts = starmap(_verify_lines, checked)
        # the verdict line is made once every slice is checked
        _write(_text_blocks(chain(texts, map(_verdict, (flagged,)))))
    # a reader that stopped early left slices unchecked, but the exit code
    # answers for every position
    for _ in checked:
        pass
    return EXIT_COMPOSITE if flagged else EXIT_OK


def _checked_image(slices: list[Sequence[int]]) -> int:
    """n, the number of entries in slices, once they are proven a
    permutation of 1..n in one pass over the slices. A run slice, a range,
    inside 1..n holds exactly the interval [vs[-1], vs[0]] and marks it
    with one slice assignment; a tuple inside 1..n marks its entries one
    by one, and a slice that leaves 1..n marks none. n marked slots are a
    bijection; else Permutation raises on the entries, with its message."""
    n = sum(map(len, slices))
    seen = bytearray(n + 1)
    for vs in slices:
        if type(vs) is range:
            if 0 < vs[-1] and vs[0] <= n:
                seen[vs[-1] : vs[0] + 1] = b"\x01" * len(vs)
        elif 0 < min(vs) and max(vs) <= n:
            for v in vs:
                seen[v] = 1
    if seen.count(1) != n:
        Permutation(tuple(chain.from_iterable(slices)))
    return n


def _checked_slices(
    n: int, slices: list[Sequence[int]], sieve: PrimeSieve, flagged: list
) -> Iterator[tuple[range, Sequence[int], tuple[int, ...], bytes]]:
    """Per slice of BLOCK_LINES positions: the positions, their images, the
    sums as one tuple, and the sums' prime flags, from one prime_flags call.
    A run slice, a range, as every slice of a witness but the one that
    holds a block edge is, has one sum and one flag, and its positions are
    all composite or none. A slice with a composite sum is appended to
    flagged as (positions, flags) before it is yielded."""
    for lo, vs in zip(range(0, n, BLOCK_LINES), slices):
        ks = range(lo + 1, lo + len(vs) + 1)
        sums = (lo + 1 + vs[0],) if type(vs) is range else tuple(map(add, ks, vs))
        flags = sieve.prime_flags(sums)
        if 0 in flags:
            flagged.append((ks, flags))
        yield ks, vs, sums, flags


def _verify_lines(
    ks: range, vs: Sequence[int], sums: tuple[int, ...], flags: bytes
) -> str:
    """The text lines of one checked slice, as one text. A slice with one
    sum, a run, is written by digit columns: in each piece of it whose
    positions k and images total - k keep their number of digits, every
    line has the same length, and each digit column of the positions and
    of the images, from construct's templates (_run), is one strided slice
    assignment into the piece's lines. Any other slice is one %-format."""
    label = ("composite", "prime")
    if len(sums) > 1:
        line = "%d + %d = %d  %s\n"
        cells = zip(ks, vs, sums, map(label.__getitem__, flags))
        return line * len(vs) % tuple(chain.from_iterable(cells))
    total, tail = sums[0], f" = {sums[0]}  {label[flags[0]]}\n".encode()
    powers = [10**d for d in range(1, len(str(total)))]
    cuts = {c for p in powers for c in (p, total - p + 1) if ks.start < c < ks.stop}
    edges, text = sorted({ks.start, ks.stop, *cuts}), bytearray()
    for a, b in zip(edges, edges[1:]):
        line = b"%d + %d%s" % (a, total - a, tail)  # the piece's first line
        piece = bytearray(line * (b - a))
        for at, first, step in ((0, a, 1), (len(str(a)) + 3, total - a, -1)):
            width = len(str(first))
            column = "".join(_run(first, b - a, step, 0, "")).encode()
            for j in range(width):
                piece[at + j :: len(line)] = column[j::width]
        text += piece
    return text.decode()


def _composites(ks: range, flags: bytes) -> str:
    """The positions in ks whose flag is 0, comma-separated, cut from their
    _run text with no int made: a run's one flag stands for all of them."""
    text = "".join(_run(ks.start, len(ks), 1, 0, ","))
    keep = flags.translate(bytes.maketrans(b"\0\1", b"\1\0"))  # the 0 flags
    return text if len(flags) == 1 else ",".join(compress(text.split(","), keep))


def _verify_json(n, slices, checked, flagged) -> Iterator[str]:
    """The bytes of one compact json.dumps of the members n, image, sums,
    composite_positions and valid, plus a newline, one slice at a time:
    the images by _slice_text, which echoes a canonical slice's input text;
    a run's sums as one total repeated, any other's by one %-format; and,
    once every slice is checked, the flagged slices' _composites."""
    yield f'{{"n":{n},"image":['
    yield from _csv(map(_slice_text, slices))
    yield '],"sums":['
    yield from _csv(
        _ints(sums) if len(sums) > 1 else (f",{sums[0]}" * len(vs))[1:]
        for _, vs, sums, _ in checked
    )
    yield '],"composite_positions":['
    yield from _csv(starmap(_composites, flagged))
    yield f'],"valid":{"false" if flagged else "true"}}}\n'


def _verdict(flagged: list[tuple[range, bytes]]) -> str:
    """Text verify's last line: the flagged slices' _composites, if any."""
    if flagged:
        positions = ",".join(starmap(_composites, flagged))
        return f"invalid: composite totals at positions {positions}\n"
    return "valid: every total is prime\n"


def _cmd_count(args) -> int:
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
