"""Exact verification of the three-proposition signalling argument.

Setting: three pairwise orthogonal propositions shared between two parties
whose matching measurements are perfectly correlated.  Alice measures the
third proposition first and then, depending on the outcome, one of the other
two; averaging over her outcomes must leave Bob's marginals untouched, which
pins a single linear constraint on the conditional probabilities Bob can
display.  Even against the most adversarial conditionals compatible with
that constraint, Alice's adaptive choice shifts Bob's marginal for the first
proposition by a strictly positive amount.

Every value is an exact ``Fraction``; floats appear only when a sweep is
rendered to CSV.  The worst case and its gap have one closed form in the
integer numerators of a triple over a common denominator (``_worst_case``):
``worst_case_params`` and ``signalling_gap`` put their triple over the lcm
of its denominators, and ``sweep_gap`` runs the integers of its grid.
The derivation it condenses (pair conditionals, the averaging constraint,
the four cases) is the test reference in ``tests/reference_theorem.py``.
"""

from __future__ import annotations

import io
from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import CertificateError
from .rational import format_decimal, format_rational


class TheoremError(ValueError):
    pass


class TripleMarginals(namedtuple("TripleMarginals", "p1 p2 p3")):
    """Marginals p1, p2, p3, each strictly inside (0, 1), pairwise sums at most 1."""

    __slots__ = ()

    def __new__(cls, p1: Fraction, p2: Fraction, p3: Fraction):
        values = []
        for name, value in zip(cls._fields, (p1, p2, p3)):
            value = Fraction(value)
            if not 0 < value < 1:
                raise TheoremError(f"{name} = {format_rational(value)} not strictly inside (0, 1)")
            values.append(value)
        p1, p2, p3 = values
        for a, b, pair in ((p1, p2, "p1+p2"), (p1, p3, "p1+p3"), (p2, p3, "p2+p3")):
            if a + b > 1:
                raise TheoremError(f"{pair} = {format_rational(a + b)} exceeds 1")
        return super().__new__(cls, *values)


class AlphaBeta(namedtuple("AlphaBeta", "alpha beta indices")):
    """Bob's conditional p(A_i=1 | A_j=0) split by Alice's A_k outcome.

    ``alpha`` applies when Alice found A_k = 1, ``beta`` when A_k = 0.
    """

    __slots__ = ()

    def __new__(cls, alpha: Fraction, beta: Fraction, indices: tuple[int, int, int]):
        alpha, beta = Fraction(alpha), Fraction(beta)
        i, j, k = indices
        if sorted((i, j, k)) != [1, 2, 3]:
            raise TheoremError(f"indices must be a permutation of (1, 2, 3), got {indices}")
        if not (0 <= alpha <= 1 and 0 <= beta <= 1):
            raise TheoremError("alpha and beta must lie in [0, 1]")
        return super().__new__(cls, alpha, beta, indices)


_ZERO, _ONE = Fraction(0), Fraction(1)


def _worst_case(a: int, b: int, c: int, n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(beta, alpha, bob_p1, gap) against the worst-case conditionals for
    indices (1, 2, 3) at (p1, p2, p3) = (a, b, c) / n, from integers.

    The largest beta the averaging constraint allows is a n / ((n - b)(n - c)).
    At most 1, it stands with alpha = 0; Bob's p(A1=1), which is
    beta (1 - p2 - p3), is a (n - b - c) / ((n - b)(n - c)), and the gap
    p1 - bob_p1 is a b c / (n (n - b)(n - c)).  Above 1, beta caps at 1,
    alpha = (a n - (n - b)(n - c)) / ((n - b) c), bob_p1 = (n - b - c) / n
    and the gap is (a + b + c - n) / n.
    """
    nb, nc = n - b, n - c
    capped = a * n > nb * nc
    gap_num, gap_den = (a + b + c - n, n) if capped else (a * b * c, n * nb * nc)
    if gap_num <= 0:
        raise CertificateError(f"signalling gap {format_rational(Fraction(gap_num, gap_den))} is not positive")
    if not capped:
        d = nb * nc
        return Fraction(a * n, d), _ZERO, Fraction(a * (nb - c), d), Fraction(gap_num, gap_den)
    return _ONE, Fraction(a * n - nb * nc, nb * c), Fraction(nb - c, n), Fraction(gap_num, n)


def _over_common_denominator(t: TripleMarginals) -> tuple[int, int, int, int]:
    """(a, b, c, n) with (p1, p2, p3) = (a, b, c) / n, n the lcm of the denominators."""
    n = lcm(t.p1.denominator, t.p2.denominator, t.p3.denominator)
    return (*(p.numerator * (n // p.denominator) for p in t), n)


def worst_case_params(t: TripleMarginals) -> AlphaBeta:
    """Adversarial conditionals for indices (1, 2, 3): the largest beta the
    averaging constraint allows, with alpha recovered if beta caps at 1."""
    beta, alpha, _, _ = _worst_case(*_over_common_denominator(t))
    return AlphaBeta(alpha, beta, (1, 2, 3))


def signalling_gap(t: TripleMarginals) -> Fraction:
    """How far Alice can pull Bob's p(A1=1) below p1, against the worst-case
    conditionals; strictly positive whenever all three marginals are.

    Alice finds A3 = 1 (weight p3) and measures A1, leaving Bob's A1 at 0;
    she finds A3 = 0 (weight 1 - p3) and measures A2, leaving case iv's
    beta * (1 - p2 - p3) / (1 - p3).  So Bob's p(A1=1) is beta * (1 - p2 - p3).
    """
    return _worst_case(*_over_common_denominator(t))[3]


class SweepRow(NamedTuple):
    p1: Fraction
    p2: Fraction
    p3: Fraction
    beta_worst: Fraction
    alpha_worst: Fraction
    bob_p1: Fraction
    gap: Fraction


def sweep_gap(denominator: int) -> list[SweepRow]:
    """One row per triple with entries in {1/N, ..., (N-1)/N} and pairwise
    sums at most 1, in (p1, p2, p3) order; each row comes from the integer
    numerators over N, and the grid's values i / N are built once."""
    if denominator < 2:
        raise TheoremError("grid denominator must be at least 2")
    n = denominator
    p = [Fraction(i, n) for i in range(n)]
    rows = []
    for a in range(1, n):
        for b in range(1, n - a + 1):
            for c in range(1, n - max(a, b) + 1):
                rows.append(SweepRow(p[a], p[b], p[c], *_worst_case(a, b, c, n)))
    return rows


def sweep_csv(rows: list[SweepRow], exact: bool = False) -> str:
    render = format_rational if exact else format_decimal
    out = io.StringIO()
    out.write("p1,p2,p3,beta_worst,alpha_worst,bob_p1,gap\n")
    for row in rows:
        out.write(",".join(render(v) for v in row) + "\n")
    return out.getvalue()
