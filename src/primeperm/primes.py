"""Primality infrastructure: an Eratosthenes sieve plus the prime queries
the rest of the package needs (membership, prime windows as bitsets,
least prime above, strict prime counting)."""

from collections.abc import Sequence
from math import isqrt
from operator import itemgetter

# One byte per integer; 2**27 entries is ~134 MB, far beyond anything the
# desk-scale commands need (problem size n requires a sieve to 2n).
DEFAULT_LIMIT_CAP = 1 << 27


class SieveCapError(Exception):
    """Requested sieve is larger than DEFAULT_LIMIT_CAP."""


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

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError(f"sieve limit must be nonnegative, got {limit}")
        if limit > DEFAULT_LIMIT_CAP:
            raise SieveCapError(
                f"sieve limit {limit} exceeds the cap of {DEFAULT_LIMIT_CAP} entries"
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
        must lie within the sieve, as for is_prime; one itemgetter call
        reads them all, once no negative value can index from the end."""
        if values and min(values) < 0:
            raise ValueError(f"m must be nonnegative, got {min(values)}")
        try:
            flags = itemgetter(*values)(self._flags) if values else ()
            return bytes((flags,) if len(values) == 1 else flags)
        except IndexError:
            raise SieveRangeError(
                f"{max(values)} is beyond the sieve limit {self.limit}"
            ) from None

    def prime_bits(self, values: range) -> int:
        """Bitset whose bit c is set iff values[c] is prime, from one slice
        of the flags read as a base-2 literal (exempt from the int-string
        digit limit). values must step upward and lie within the sieve, as
        for is_prime."""
        if values:  # is_prime's range checks, at both ends
            self.is_prime(values[0])
            self.is_prime(values[-1])
        window = self._flags[values.start : values.stop : values.step][::-1]
        return int(window.translate(bytes.maketrans(b"\0\1", b"01")) or b"0", 2)

    def least_prime_greater_than(self, k: int) -> int:
        """Smallest prime p with p > k.

        Requires limit >= 2k so the answer is guaranteed to exist inside
        the sieve (Bertrand-Chebyshev for k > 1, and p = 2 for k = 1).
        For k > 1 the result always satisfies k < p < 2k.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.is_prime(2 * k)  # its range check: the sieve must cover 2k
        # bytearray.find scans at C speed for the next set flag.
        idx = self._flags.find(1, k + 1)
        if idx == -1:
            raise BertrandViolationError(f"no prime in ({k}, {self.limit}]")
        return idx

    def count_primes_below(self, bound: int) -> int:
        """Number of primes p with p < bound (strict)."""
        if bound < 0:
            raise ValueError(f"bound must be nonnegative, got {bound}")
        if bound:
            self.is_prime(bound - 1)  # its range check on the last flag read
        return self._flags.count(1, 0, bound)


def build_sieve(limit: int) -> PrimeSieve:
    """Build a PrimeSieve covering 0..limit."""
    return PrimeSieve(limit)
