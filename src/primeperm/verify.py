"""The `verify` command's reader, checker and writers, which only it imports.
A parse error is a ValueError, which the CLI words as a usage error."""

import codecs
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, partial
from itertools import chain, compress, starmap
from operator import add

from .primes import BLOCK_LINES, DEFAULT_LIMIT_CAP, STDIN_PIECE
from .primes import PrimeSieve, SieveCapError
from .runs import _run


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


def _parse_image(text: str | None) -> list[Sequence[int]]:
    """The entries in text, or in stdin if text is None, in slices of
    BLOCK_LINES entries not yet checked to be a permutation. Canonical text
    is read slice by slice as it arrives (_canonical_slices), a run slice
    as a range; any other text is stripped and decoded whole, as from_text
    or from_json decode it, the one path that words parse errors, into
    tuples of plain ints. JSON text is let go once decoded, the decoded
    list before it is copied into a tuple. Either path is refused once
    its slices pass the sieve cap (_capped)."""
    try:
        pieces = _stdin() if text is None else iter((text,))
        return list(_capped(_canonical_slices(pieces)))
    except _Whole as whole:
        text = whole.args[0].strip()
    import json  # here, not at the top: only JSON text needs it
    from .construct import Permutation  # canonical text never needs it
    if not text.startswith("{"):
        image = Permutation._text_values(text)
    else:
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # or too deep
            raise ValueError(f"invalid JSON permutation: {exc}") from None
        del text  # before the decoded list is copied into a tuple
        image = Permutation._json_values(obj)
        del obj
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
    slice's text is _ints of them: it is kept, a _Decoded, to be echoed.
    Such a slice is only cut once the text holds its size commas."""
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
    if not last and text.count(",", pos, end) < size:
        return None  # the slice's text or its comma is still to come
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
        raise ValueError("no input: stdin is closed and --perm is not given")
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
        from .construct import Permutation
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


def _verify_text(checked, flagged) -> Iterator[str]:
    """Text verify's output, one write each: the text lines of each checked
    slice (_verify_lines), then the verdict line, made once every slice is
    checked: the flagged slices' _composites, if any."""
    yield from starmap(_verify_lines, checked)
    if flagged:
        positions = ",".join(starmap(_composites, flagged))
        yield f"invalid: composite totals at positions {positions}\n"
    else:
        yield "valid: every total is prime\n"


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
