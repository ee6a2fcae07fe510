"""Seeded randomness for simulations.

Every stochastic branch in the package draws from :class:`SplitMix64`, a
64-bit counter-based generator (Steele, Lea and Flood's splitmix64 step).
The algorithm is fixed so that runs are reproducible bit-for-bit across
platforms and easy to port: state advances by the odd constant
0x9E3779B97F4A7C15 and each output is a finalized mix of the new state.

A model transition picks the first branch whose threshold ceil(cum * 2**64)
exceeds one draw u (``orthobox.models.base.Transition``), so sampled frequencies
converge to the exact enumeration probabilities (granularity 2**-64).
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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

    def randrange(self, n: int) -> int:
        # Desk-scale use; modulo bias at n << 2**64 is irrelevant here.
        return self.next_u64() % n
