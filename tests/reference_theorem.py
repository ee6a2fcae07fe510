"""The per-point theorem sweep that ``theorem.sweep_gap`` replaced, kept as
the differential reference.

Each grid point is a validated ``TripleMarginals``; the worst-case
conditionals and the gap come from the marginals' formulas in ``Fraction``
arithmetic: raw beta = p1 / ((1 - p2)(1 - p3)), and when that exceeds 1,
beta = 1 and alpha = (p1 / (1 - p2) - (1 - p3)) / p3; the gap is
p1 - beta (1 - p2 - p3), which must be positive.
"""

from fractions import Fraction

from orthobox.rational import format_rational
from orthobox.theorem import AlphaBeta, SweepRow, TheoremError, TripleMarginals


def valid_grid(denominator: int):
    """All triples with entries in {1/N, ..., (N-1)/N} and pairwise sums <= 1."""
    if denominator < 2:
        raise TheoremError("grid denominator must be at least 2")
    for a in range(1, denominator):
        for b in range(1, denominator):
            if a + b > denominator:
                continue
            for c in range(1, denominator):
                if a + c > denominator or b + c > denominator:
                    continue
                yield TripleMarginals(Fraction(a, denominator), Fraction(b, denominator), Fraction(c, denominator))


def worst_case_params(t) -> AlphaBeta:
    p1, p2, p3 = t.p1, t.p2, t.p3
    raw_beta = p1 / ((1 - p2) * (1 - p3))
    if raw_beta <= 1:
        return AlphaBeta(Fraction(0), raw_beta, (1, 2, 3))
    alpha = (p1 / (1 - p2) - (1 - p3)) / p3
    return AlphaBeta(alpha, Fraction(1), (1, 2, 3))


def gap(t, worst) -> Fraction:
    value = t.p1 - worst.beta * (1 - t.p2 - t.p3)
    if value <= 0:
        raise TheoremError(f"signalling gap {format_rational(value)} is not positive")
    return value


def signalling_gap(t) -> Fraction:
    return gap(t, worst_case_params(t))


def sweep_gap(denominator: int) -> list[SweepRow]:
    rows = []
    for t in valid_grid(denominator):
        worst = worst_case_params(t)
        g = gap(t, worst)
        rows.append(SweepRow(t.p1, t.p2, t.p3, worst.beta, worst.alpha, t.p1 - g, g))
    return rows
