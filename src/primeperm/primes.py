"""Primality infrastructure: an Eratosthenes sieve plus the prime queries
the rest of the package needs (membership, prime windows as bitsets,
least prime above, strict prime counting).

Every command imports it, so it also holds what all of them need of
construct.py and count.py, which only some import (see cli.py): BLOCK_LINES,
STDIN_PIECE, METHODS, NotAPermutationError, MethodCapError, _Frozen, _clip."""

from collections.abc import Sequence
from math import isqrt
from operator import itemgetter

# One byte per integer; 2**27 entries is ~134 MB, far beyond anything the
# desk-scale commands need (problem size n requires a sieve to 2n).
DEFAULT_LIMIT_CAP = 1 << 27

# The most lines the CLI joins into one write, and the number of entries
# verify reads, checks and formats at a time: its text output is one
# write of BLOCK_LINES lines per slice, then the verdict line.
BLOCK_LINES = 4096

# Bytes of stdin verify reads and decodes at a time, the characters of text
# _comma_pieces splits at a time, and of lines cli._blocks joins into a write.
STDIN_PIECE = 1 << 16

METHODS = ("dp", "ryser", "auto")


class SieveCapError(Exception):
    """Requested sieve is larger than DEFAULT_LIMIT_CAP."""


class SieveRangeError(ValueError):
    """Query outside the range the sieve was built for."""


class BertrandViolationError(RuntimeError):
    """No prime found in (k, 2k]; impossible by Bertrand-Chebyshev, so
    hitting this means the sieve itself is broken."""


class NotAPermutationError(ValueError):
    """Sequence is not a bijection on {1..n}."""


class MethodCapError(ValueError):
    """Counting or enumeration refused before any work: its estimated
    elementary steps exceed STEP_BUDGET, or, for enumeration, its estimated
    bytes exceed DEFAULT_LIMIT_CAP. The message names the estimate and the
    limit."""


class _Frozen:
    """An immutable record whose fields are its ``__slots__``: equal to a
    record of the same class with equal fields, hashable, shown as
    ``Name(field=value, ...)``, and copied or pickled through its
    constructor. Written out, not generated: the stdlib generator and the
    modules it imports cost every CLI process several ms (see README,
    "Start-up")."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _clip(value: object) -> str:
    """repr of value for an error message, cut to at most 40 characters."""
    try:
        text = repr(value)
    except ValueError:  # an int past the int-string digit limit
        return f"<int of {value.bit_length()} bits>"
    return text if len(text) <= 40 else text[:37] + "..."


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
