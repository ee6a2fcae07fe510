"""Seeded randomness for simulations.

Every stochastic branch in the package draws from :class:`SplitMix64`, a
64-bit counter-based generator (Steele, Lea and Flood's splitmix64 step).
The algorithm is fixed so that runs are reproducible bit-for-bit across
platforms and easy to port: state advances by the odd constant
0x9E3779B97F4A7C15 and each output is a finalized mix of the new state.

Branch selection against exact rational weights compares a uniform draw
u/2**64 with the cumulative weights, so sampled frequencies converge to the
exact enumeration probabilities (granularity 2**-64).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")


class SplitMix64:
    """Deterministic 64-bit generator; one instance per simulation stream."""

    def __init__(self, seed: int = 0):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def choice_weighted(self, options: Sequence[tuple[T, Fraction]]) -> T:
        """Pick an option by its exact rational weight (weights must sum to 1)."""
        # u/2**64 < acc compared in integers to avoid Fraction churn.
        u = self.next_u64()
        num, den = 0, 1
        for value, weight in options:
            num = num * weight.denominator + weight.numerator * den
            den *= weight.denominator
            if u * den < (num << 64):
                return value
        # Only reachable if the weights sum to less than 1.
        raise ValueError("weights do not sum to 1")

    def randrange(self, n: int) -> int:
        # Desk-scale use; modulo bias at n << 2**64 is irrelevant here.
        return self.next_u64() % n
