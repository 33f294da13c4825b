"""primeperm: construct, verify, enumerate, and exactly count prime-sum
permutations, i.e. orderings pi of {1..n} with k + pi(k) prime for all k.
The names of construct.py and count.py are imported on first use (PEP 562),
so each command compiles only the modules it runs (README, "Start-up")."""

from .primes import (
    BertrandViolationError,
    MethodCapError,
    NotAPermutationError,
    PrimeSieve,
    SieveCapError,
    SieveRangeError,
    build_sieve,
)

__version__ = "0.1.0"

# construct.py's names in __all__; the others not imported above are count.py's
_CONSTRUCT = {
    "Block",
    "Permutation",
    "construct_prime_sum_permutation",
    "decompose_blocks",
    "is_valid_solution",
}

__all__ = [
    "BertrandViolationError",
    "Block",
    "MethodCapError",
    "NotAPermutationError",
    "Permutation",
    "PrimeAdjacency",
    "PrimeSieve",
    "SequenceRow",
    "SieveCapError",
    "SieveRangeError",
    "build_adjacency",
    "build_sieve",
    "construct_prime_sum_permutation",
    "count_solutions",
    "count_solutions_dp",
    "count_solutions_ryser",
    "decompose_blocks",
    "enumerate_solutions",
    "is_valid_solution",
    "sequence_table",
]


def __getattr__(name):
    from importlib import import_module
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(".construct" if name in _CONSTRUCT else ".count", __name__)
    value = globals()[name] = getattr(home, name)  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
