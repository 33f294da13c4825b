"""Witness construction and validation for prime-sum permutations.

A prime-sum permutation of {1..n} is a bijection pi with k + pi(k) prime
for every k. One always exists: partition {1..n} into descending blocks
[lo, hi] where lo + hi is the least prime above hi, and reverse each
block so every position in it sums to that prime.
"""

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import add

from .primes import BertrandViolationError, PrimeSieve
# what every command needs lives in primes.py; this module exports it too
from .primes import BLOCK_LINES, STDIN_PIECE, NotAPermutationError, _clip, _Frozen


def _first_fault(image: tuple) -> str:
    """Why image is not a permutation of 1..n, at its first bad position."""
    n = len(image)
    seen = set()
    for k, v in enumerate(image, 1):
        if not isinstance(v, int):
            why = "is not an int"
        elif not 0 < v <= n:
            why = f"is outside 1..{n}"
        elif v in seen:
            why = "repeats an earlier entry"
        else:
            seen.add(v)
            continue
        return f"entry {_clip(v)} at position {k} {why}: not a permutation of 1..{n}"


def _comma_pieces(text: str) -> Iterator[list[str]]:
    """The comma-separated tokens of text, one list for each piece of about
    STDIN_PIECE characters (then up to the next comma)."""
    start = 0
    while start <= len(text):
        end = text.find(",", start + STDIN_PIECE)
        end = len(text) if end < 0 else end
        yield text[start:end].split(",")
        start = end + 1


class Permutation(_Frozen):
    """A permutation of {1..n} in 1-indexed one-line notation.

    ``image[k-1]`` is where position k is sent. The constructor enforces
    the bijection invariant, so holding a Permutation means holding a
    genuine permutation.
    """

    __slots__ = ("image",)
    image: tuple[int, ...]

    def __init__(self, image: Iterable[int]):
        object.__setattr__(self, "image", tuple(image))
        self.__post_init__()

    def __post_init__(self):
        n = len(self.image)
        # A per-element loop on purpose: it measured faster than sort- and
        # map-based checks at n = 15, 2*10^5 and 10^6 (see README).
        # n ints in 1..n that mark n distinct slots are a bijection.
        seen = bytearray(n + 1)
        for v in self.image:
            if not isinstance(v, int) or not 0 < v <= n:
                break
            seen[v] = 1
        else:
            if seen.count(1) == n:
                return
        raise NotAPermutationError(_first_fault(self.image))

    @classmethod
    def _unchecked(cls, image: tuple[int, ...]) -> "Permutation":
        """image, a tuple its caller has proven a bijection, unchecked."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "image", image)
        return perm

    @property
    def n(self) -> int:
        return len(self.image)

    def apply(self, k: int) -> int:
        """Image of position k (1-indexed)."""
        if not 1 <= k <= self.n:
            raise IndexError(f"position {k} outside 1..{self.n}")
        return self.image[k - 1]

    def to_text(self) -> str:
        """Comma-separated one-line notation by %d, e.g. '1,5,4,3,2'."""
        return ",".join(["%d"] * self.n) % self.image

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse comma-separated one-line notation; empty text is n = 0."""
        return cls(cls._text_values(text))

    @staticmethod
    def _text_values(text: str) -> tuple[int, ...]:
        """from_text's entries, as plain ints not yet checked: each
        comma-separated token of the stripped text, read by int(). The text
        is split in pieces of about 64 KiB, cut at commas, so only one
        piece's token strings are held at a time."""
        stripped = text.strip()
        if not stripped:
            return ()
        try:
            return tuple(map(int, chain.from_iterable(_comma_pieces(stripped))))
        except ValueError:
            for k, token in enumerate(chain.from_iterable(_comma_pieces(stripped)), 1):
                try:
                    int(token)
                except ValueError:
                    break
            raise ValueError(
                f"cannot parse token {k} of {stripped.count(',') + 1} "
                f"({_clip(token)}): expected comma-separated integers"
            ) from None

    def as_json_dict(self) -> dict:
        return {"n": self.n, "image": list(self.image)}

    @classmethod
    def from_json(cls, obj: object) -> "Permutation":
        """Build from the wire form {"n": 5, "image": [1,5,4,3,2]}."""
        return cls(cls._json_values(obj))

    @staticmethod
    def _json_values(obj: object) -> tuple[int, ...]:
        """from_json's entries, as plain ints not yet checked."""
        if not isinstance(obj, dict) or "n" not in obj or "image" not in obj:
            raise ValueError("permutation JSON must have 'n' and 'image' keys")
        n, image = obj["n"], obj["image"]
        # Exact for decoded JSON, whose integers are plain ints (not bools).
        if not isinstance(image, list) or not set(map(type, image)) <= {int}:
            raise ValueError("'image' must be a list of integers")
        if type(n) is not int or n != len(image):
            raise NotAPermutationError(
                f"declared n={_clip(n)} does not match image length {len(image)}"
            )
        return tuple(image)


class Block(_Frozen):
    """Interval [lo, hi] of positions whose reversal makes every
    positional sum equal ``prime`` (= lo + hi, the least prime > hi)."""

    __slots__ = ("lo", "hi", "prime")
    lo: int
    hi: int
    prime: int

    def __init__(self, lo: int, hi: int, prime: int):
        if not (1 <= lo <= hi and prime == lo + hi):
            raise ValueError(f"inconsistent block ({lo}, {hi}, {prime})")
        self._set(lo, hi, prime)


def decompose_blocks(n: int, sieve: PrimeSieve) -> list[Block]:
    """Partition {1..n} into descending blocks, each reversible into
    constant prime sums.

    Working down from hi = n: take p = least prime > hi, set lo = p - hi,
    emit [lo, hi], and continue below lo. Bertrand-Chebyshev guarantees
    lo < hi whenever hi > 1, so the walk always terminates; the final
    block is (1, 1) with prime 2. Positions below a block are covered by
    the later (smaller) blocks, not fixed by the finished permutation.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    blocks = []
    hi = n
    while hi >= 1:
        p = sieve.least_prime_greater_than(hi)
        lo = p - hi
        if hi > 1 and lo >= hi:
            # p >= 2*hi would contradict Bertrand-Chebyshev.
            raise BertrandViolationError(
                f"least prime above {hi} is {p} >= {2 * hi}"
            )
        blocks.append(Block(lo, hi, p))
        hi = lo - 1
    return blocks


def construct_prime_sum_permutation(n: int, sieve: PrimeSieve) -> Permutation:
    """Build a witness permutation of {1..n} with every positional sum
    prime. Deterministic, and always an involution: each block [lo, hi]
    maps i to lo + hi - i. n = 0 yields the empty permutation.

    The blocks are checked, one step each, to tile 1..n in order and to
    sum to a prime of the sieve. The image, each block's reversed range,
    is then a bijection whose sums are all prime, so it is stored without
    Permutation's loop over its entries. A failed check raises
    RuntimeError: the decomposition itself is broken."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return Permutation(())
    blocks = decompose_blocks(n, sieve)[::-1]
    end = 0
    for b in blocks:
        if b.lo != end + 1:
            raise RuntimeError(
                f"{b} does not start at {end + 1}: blocks do not tile 1..{n}"
            )
        if not sieve.is_prime(b.prime):
            raise RuntimeError(f"{b} sums to a composite")
        end = b.hi
    if end != n:
        raise RuntimeError(f"blocks end at {end}: they do not tile 1..{n}")
    image = chain.from_iterable(range(b.hi, b.lo - 1, -1) for b in blocks)
    return Permutation._unchecked(tuple(image))


def is_valid_solution(perm: Permutation | Sequence[int], sieve: PrimeSieve) -> bool:
    """True iff k + perm(k) is prime for every position k.

    Accepts a raw sequence as well; it is wrapped in a Permutation, whose
    constructor raises NotAPermutationError unless it is a bijection on
    1..n. Raises SieveRangeError unless the sieve covers 2n. The n sums go
    to one PrimeSieve.prime_flags call, so the check holds a list of n
    sums while it runs. Vacuously true for n = 0.
    """
    if not isinstance(perm, Permutation):
        perm = Permutation(tuple(perm))
    sieve.is_prime(2 * perm.n)  # its range check: the sieve must cover 2n
    sums = list(map(add, range(1, perm.n + 1), perm.image))
    return 0 not in sieve.prime_flags(sums)
