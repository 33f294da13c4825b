"""Witness construction and validation for prime-sum permutations.

A prime-sum permutation of {1..n} is a bijection pi with k + pi(k) prime
for every k. One always exists: partition {1..n} into descending blocks
[lo, hi] where lo + hi is the least prime above hi, and reverse each
block so every position in it sums to that prime.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from operator import add

from .primes import BertrandViolationError, PrimeSieve, SieveRangeError


class NotAPermutationError(ValueError):
    """Sequence is not a bijection on {1..n}."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in 1-indexed one-line notation.

    ``image[k-1]`` is where position k is sent. The constructor enforces
    the bijection invariant, so holding a Permutation means holding a
    genuine permutation.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
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
        raise NotAPermutationError(
            f"{list(self.image)!r} is not a permutation of 1..{n}"
        )

    @property
    def n(self) -> int:
        return len(self.image)

    def apply(self, k: int) -> int:
        """Image of position k (1-indexed)."""
        if not 1 <= k <= self.n:
            raise IndexError(f"position {k} outside 1..{self.n}")
        return self.image[k - 1]

    def to_text(self) -> str:
        """Comma-separated one-line notation, e.g. '1,5,4,3,2'."""
        return ",".join(map(str, self.image))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse comma-separated one-line notation; empty text is n = 0."""
        stripped = text.strip()
        if not stripped:
            return cls(())
        try:
            values = tuple(map(int, stripped.split(",")))
        except ValueError:
            raise ValueError(
                f"cannot parse {text!r}: expected comma-separated integers"
            ) from None
        return cls(values)

    def as_json_dict(self) -> dict:
        return {"n": self.n, "image": list(self.image)}

    @classmethod
    def from_json(cls, obj: object) -> "Permutation":
        """Build from the wire form {"n": 5, "image": [1,5,4,3,2]}."""
        if not isinstance(obj, dict) or "n" not in obj or "image" not in obj:
            raise ValueError("permutation JSON must have 'n' and 'image' keys")
        n, image = obj["n"], obj["image"]
        # Exact for decoded JSON, whose integers are plain ints (not bools).
        if not isinstance(image, list) or not set(map(type, image)) <= {int}:
            raise ValueError("'image' must be a list of integers")
        if not isinstance(n, int) or n != len(image):
            raise NotAPermutationError(
                f"declared n={n!r} does not match image length {len(image)}"
            )
        return cls(tuple(image))


@dataclass(frozen=True)
class Block:
    """Interval [lo, hi] of positions whose reversal makes every
    positional sum equal ``prime`` (= lo + hi, the least prime > hi)."""

    lo: int
    hi: int
    prime: int

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi and self.prime == self.lo + self.hi):
            raise ValueError(f"inconsistent block ({self.lo}, {self.hi}, {self.prime})")


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
    if sieve.limit < 2 * n:
        raise SieveRangeError(
            f"sieve limit {sieve.limit} is below 2n = {2 * n}"
        )
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
    maps i to lo + hi - i. n = 0 yields the empty permutation."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return Permutation(())
    image = []
    for block in reversed(decompose_blocks(n, sieve)):
        image.extend(range(block.hi, block.lo - 1, -1))
    return Permutation(tuple(image))


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
    if sieve.limit < 2 * perm.n:
        raise SieveRangeError(
            f"sieve limit {sieve.limit} is below 2n = {2 * perm.n}"
        )
    sums = list(map(add, range(1, perm.n + 1), perm.image))
    return 0 not in sieve.prime_flags(sums)
