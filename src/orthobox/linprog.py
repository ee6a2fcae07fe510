"""Exact linear feasibility over the rationals for 0/1 columns.

Phase-1 revised simplex with Bland's rule.  No floating point anywhere, so
verdicts are exact; problem sizes here are tiny (tens of rows, at most a few
thousand columns).

Every column is a 0/1 vector, given as the tuple of row indices where it is
1, and the target is nonnegative: the columns are the vertices of the
stable-set polytope (plus a normalization row) and the target a marginal
vector.  Only the m x m basis inverse ``B^-1`` and the right-hand side are
kept as ``Fraction``s.  A column's reduced-cost sign is the sign of the sum
of ``pi = c_B B^-1``, scaled to integers by the lcm of its denominators,
over the column's rows; ``B^-1 a_e`` is the sum of ``B^-1``'s columns over
those rows.

Bland's rule reads only reduced-cost signs in column order, the entering
column ``B^-1 a_e`` and the right-hand side, and those equal the entries a
dense tableau would hold for the same basis.  Pricing the structural columns
in the caller's order and then the artificials, and breaking ratio ties by
the smallest basis label, this solver therefore takes the dense tableau's
pivots one for one and stops at the same basis, with the same witness and
separating functional.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def feasible_combination(
    columns: Sequence[Sequence[int]], target: Sequence[Fraction]
) -> tuple[dict[int, Fraction] | None, tuple[Fraction, ...] | None]:
    """Find x >= 0 with ``sum_j x_j * a_j == target``, where ``a_j`` is 1 on
    the rows in ``columns[j]`` and 0 elsewhere.

    Returns ``(solution, None)`` with a sparse mapping column index -> weight,
    or ``(None, y)`` with a separating functional: ``y . target > 0`` while
    ``y . a_j <= 0`` for every column (so no nonnegative combination can
    reach the target).  A negative target entry raises ``ValueError``.
    """
    m = len(target)
    n = len(columns)
    if any(t < 0 for t in target):
        raise ValueError("target entries must be nonnegative")
    rhs = list(map(Fraction, target))

    # Artificial variables n..n+m-1 start as the basis, so B^-1 = I.
    binv = [[Fraction(int(i == k)) for k in range(m)] for i in range(m)]
    basis = [n + i for i in range(m)]

    while True:
        # pi = c_B B^-1 with cost 1 on artificials, 0 on structural columns.
        pi = [sum((binv[i][k] for i in range(m) if basis[i] >= n), Fraction(0)) for k in range(m)]
        scale = lcm(*(p.denominator for p in pi))
        price = [p.numerator * (scale // p.denominator) for p in pi]
        # Bland's rule: the first column with a negative reduced cost enters.
        # A structural column's is -pi.a_j, an artificial's 1 - pi_k.
        entering = next((j for j, rows in enumerate(columns) if sum(price[i] for i in rows) > 0), None)
        if entering is not None:
            d = [sum((r[i] for i in columns[entering]), Fraction(0)) for r in binv]
        else:
            k = next((k for k in range(m) if price[k] > scale), None)
            if k is None:
                break
            entering = n + k
            d = [r[k] for r in binv]
        # Smallest ratio, ties by smallest basis label.
        ratios = [(rhs[i] / d[i], basis[i], i) for i in range(m) if d[i] > 0]
        if not ratios:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
        pivot_row = min(ratios)[2]
        piv = d[pivot_row]
        row = [v / piv for v in binv[pivot_row]]
        binv[pivot_row] = row
        rhs[pivot_row] /= piv
        for i in range(m):
            f = d[i]
            if i != pivot_row and f != 0:
                binv[i] = [v - f * w if w else v for v, w in zip(binv[i], row)]
                rhs[i] -= f * rhs[pivot_row]
        basis[pivot_row] = entering

    residual = sum((rhs[i] for i in range(m) if basis[i] >= n), Fraction(0))
    if residual == 0:
        solution = {basis[i]: rhs[i] for i in range(m) if basis[i] < n and rhs[i] != 0}
        return solution, None

    # Infeasible: y = c_B B^-1 from the last pricing pass.
    return None, tuple(pi)
