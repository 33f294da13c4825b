"""Primality infrastructure: an Eratosthenes sieve plus the prime queries
the rest of the package needs (membership, least prime above, strict
prime counting)."""

from collections.abc import Sequence
from itertools import repeat
from math import isqrt
from operator import getitem

# One byte per integer; 2**27 entries is ~134 MB, far beyond anything the
# desk-scale commands need (problem size n requires a sieve to 2n).
DEFAULT_LIMIT_CAP = 1 << 27


class SieveCapError(Exception):
    """Requested sieve is larger than the configured memory cap."""


class SieveRangeError(ValueError):
    """Query outside the range the sieve was built for."""


class BertrandViolationError(RuntimeError):
    """No prime found in (k, 2k]; impossible by Bertrand-Chebyshev, so
    hitting this means the sieve itself is broken."""


class PrimeSieve:
    """Primality lookup table for 0..limit.

    Immutable after construction; reads are safe from any number of
    threads. Deterministic by construction (no probabilistic tests).
    """

    __slots__ = ("limit", "_flags")

    def __init__(self, limit: int, *, limit_cap: int = DEFAULT_LIMIT_CAP):
        if limit < 0:
            raise ValueError(f"sieve limit must be nonnegative, got {limit}")
        if limit > limit_cap:
            raise SieveCapError(
                f"sieve limit {limit} exceeds the cap of {limit_cap} entries"
            )
        flags = bytearray(b"\x01") * (limit + 1)
        flags[0 : min(2, limit + 1)] = b"\x00" * min(2, limit + 1)
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                start = p * p
                flags[start :: p] = b"\x00" * len(range(start, limit + 1, p))
        self.limit = limit
        self._flags = flags

    def __repr__(self) -> str:
        return f"PrimeSieve(limit={self.limit})"

    def is_prime(self, m: int) -> bool:
        """True iff m is prime. m must lie within the sieve."""
        if m < 0:
            raise ValueError(f"m must be nonnegative, got {m}")
        if m > self.limit:
            raise SieveRangeError(f"{m} is beyond the sieve limit {self.limit}")
        return bool(self._flags[m])

    def prime_flags(self, values: Sequence[int]) -> bytes:
        """Byte i is 1 iff values[i] is prime, 0 otherwise. Every value
        must lie within the sieve, as for is_prime."""
        if values and min(values) < 0:
            raise ValueError(f"m must be nonnegative, got {min(values)}")
        try:
            return bytes(map(getitem, repeat(self._flags), values))
        except IndexError:
            raise SieveRangeError(
                f"{max(values)} is beyond the sieve limit {self.limit}"
            ) from None

    def least_prime_greater_than(self, k: int) -> int:
        """Smallest prime p with p > k.

        Requires limit >= 2k so the answer is guaranteed to exist inside
        the sieve (Bertrand-Chebyshev for k > 1, and p = 2 for k = 1).
        For k > 1 the result always satisfies k < p < 2k.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if self.limit < 2 * k:
            raise SieveRangeError(
                f"sieve limit {self.limit} is below 2k = {2 * k}; "
                "no answer is guaranteed in range"
            )
        # bytearray.find scans at C speed for the next set flag.
        idx = self._flags.find(1, k + 1)
        if idx == -1:
            raise BertrandViolationError(f"no prime in ({k}, {self.limit}]")
        return idx

    def count_primes_below(self, bound: int) -> int:
        """Number of primes p with p < bound (strict)."""
        if bound < 0:
            raise ValueError(f"bound must be nonnegative, got {bound}")
        if bound > self.limit + 1:
            raise SieveRangeError(
                f"bound {bound} needs flags up to {bound - 1}, "
                f"but the sieve stops at {self.limit}"
            )
        return self._flags.count(1, 0, bound)


def build_sieve(limit: int, *, limit_cap: int = DEFAULT_LIMIT_CAP) -> PrimeSieve:
    """Build a PrimeSieve covering 0..limit."""
    return PrimeSieve(limit, limit_cap=limit_cap)
