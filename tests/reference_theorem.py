"""References for ``orthobox.theorem``: the paper's step-by-step derivation,
and the per-point sweep that ``theorem.sweep_gap`` replaced.

The derivation: an orthogonal pair's conditionals (``conditional_probs``),
the averaging constraint that no-signalling puts on Bob's conditional
(``nosig_constraint_residual``), and Bob's marginals in the four cases of
Alice's adaptive protocol (``case_marginals``).  The library's integer
closed form is checked against these.

The per-point sweep: each grid point is a validated ``TripleMarginals``; the
worst-case conditionals and the gap come from the marginals' formulas in
``Fraction`` arithmetic: raw beta = p1 / ((1 - p2)(1 - p3)), and when that
exceeds 1, beta = 1 and alpha = (p1 / (1 - p2) - (1 - p3)) / p3; the gap is
p1 - beta (1 - p2 - p3), which must be positive.
"""

from fractions import Fraction
from typing import NamedTuple

from orthobox.rational import format_rational
from orthobox.theorem import AlphaBeta, SweepRow, TheoremError, TripleMarginals


class ConditionalProbs(NamedTuple):
    """p(A_i = x | A_j = y) for a jointly measured orthogonal pair."""

    one_given_one: Fraction
    zero_given_one: Fraction
    one_given_zero: Fraction
    zero_given_zero: Fraction


def conditional_probs(p_i: Fraction, p_j: Fraction) -> ConditionalProbs:
    """Conditionals for an orthogonal pair: never both true, and
    p(A_i=1 | A_j=0) = p_i / (1 - p_j)."""
    p_i, p_j = Fraction(p_i), Fraction(p_j)
    if not (0 <= p_i <= 1 and 0 <= p_j <= 1 and p_i + p_j <= 1):
        raise TheoremError("need probabilities with p_i + p_j <= 1")
    if p_j == 1:
        raise TheoremError("conditioning on A_j = 0 undefined when p_j = 1")
    one_given_zero = p_i / (1 - p_j)
    return ConditionalProbs(Fraction(0), Fraction(1), one_given_zero, 1 - one_given_zero)


def nosig_constraint_residual(ab: AlphaBeta, t: TripleMarginals) -> Fraction:
    """p_k * alpha + (1 - p_k) * beta - p_i / (1 - p_j); zero iff averaging over
    Alice's A_k outcome leaves Bob's conditional unchanged."""
    p = tuple(t)
    p_i, p_j, p_k = (p[index - 1] for index in ab.indices)
    return p_k * ab.alpha + (1 - p_k) * ab.beta - p_i / (1 - p_j)


class CaseMarginals(NamedTuple):
    """Bob's (p(A1=1), p(A2=1)) for the four branches of Alice's protocol."""

    case_i: tuple[Fraction, Fraction]
    case_ii: tuple[Fraction, Fraction]
    case_iii: tuple[Fraction, Fraction]
    case_iv: tuple[Fraction, Fraction]


def case_marginals(t: TripleMarginals, ab21: AlphaBeta, ab12: AlphaBeta) -> CaseMarginals:
    """The four cases: Alice gets A3 = 1 or 0, then measures A1 or A2.

    Perfect cross-party correlation makes Alice's outcome Bob's value, so
    e.g. after Alice finds A3 = 1 and measures A1, Bob's A1 is surely 0.
    """
    if ab21.indices != (2, 1, 3) or ab12.indices != (1, 2, 3):
        raise TheoremError("expected AlphaBeta for index triples (2,1,3) and (1,2,3)")
    for ab in (ab21, ab12):
        if nosig_constraint_residual(ab, t) != 0:
            raise TheoremError(
                f"alpha/beta for indices {ab.indices} violate the averaging constraint "
                f"(residual {format_rational(nosig_constraint_residual(ab, t))})"
            )
    p1, p2, p3 = t
    return CaseMarginals(
        case_i=(Fraction(0), ab21.alpha),
        case_ii=(ab12.alpha, Fraction(0)),
        case_iii=(p1 / (1 - p3), ab21.beta * (1 - p1 - p3) / (1 - p3)),
        case_iv=(ab12.beta * (1 - p2 - p3) / (1 - p3), p2 / (1 - p3)),
    )


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
