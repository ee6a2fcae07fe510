"""Exact linear feasibility over the rationals for 0/1 columns.

Phase-1 revised simplex with Bland's rule.  No floating point anywhere, so
verdicts are exact; problem sizes here are tiny (tens of rows, at most a few
thousand columns).

Every column is a 0/1 vector, given as the tuple of row indices where it is
1, and the target is nonnegative: the columns are the vertices of the
stable-set polytope (plus a normalization row) and the target a marginal
vector.  Only the m x m basis inverse and the right-hand side are kept, both
in integers: ``B^-1 = M / D`` with an integer matrix ``M`` over one positive
denominator ``D = |det B|``, and the target scaled to integers by the lcm
``L`` of its denominators, so the right-hand side is ``beta / (D L)``.  A
pivot updates them fraction-free, as in Bareiss (Math. Comp. 22, 1968): with
``p`` the entering column's entry in the pivot row ``r`` (times ``D``), every
other row becomes ``(p M_i - d_i M_r) / D``, a division that is exact, and
``D`` becomes ``p``.  A column's reduced-cost sign is the sign of the sum of
``pi = c_B B^-1``, times ``D``, over the column's rows; ``B^-1 a_e`` times
``D`` is the sum of ``M``'s columns over those rows.

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
    target = list(map(Fraction, target))
    scale = lcm(*(t.denominator for t in target))
    # Artificial variables n..n+m-1 start as the basis, so B^-1 = I and D = 1.
    inverse = [[int(i == k) for k in range(m)] for i in range(m)]
    beta = [t.numerator * (scale // t.denominator) for t in target]
    det = 1
    basis = [n + i for i in range(m)]

    while True:
        # pi = c_B B^-1 (times D) with cost 1 on artificials, 0 on structural columns.
        price = [sum(row[k] for row, b in zip(inverse, basis) if b >= n) for k in range(m)]
        # Bland's rule: the first column with a negative reduced cost enters.
        # A structural column's is -pi.a_j, an artificial's 1 - pi_k.
        entering = next((j for j, rows in enumerate(columns) if sum(price[i] for i in rows) > 0), None)
        if entering is not None:
            d = [sum(row[i] for i in columns[entering]) for row in inverse]
        else:
            k = next((k for k in range(m) if price[k] > det), None)
            if k is None:
                break
            entering = n + k
            d = [row[k] for row in inverse]
        # Smallest ratio beta_i / d_i, ties by smallest basis label.
        r = None
        for i in range(m):
            if d[i] > 0 and (r is None or (beta[i] * d[r], basis[i]) < (beta[r] * d[i], basis[r])):
                r = i
        if r is None:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
        p = d[r]
        pivot, pivot_beta = inverse[r], beta[r]
        # Every row but the pivot row scales by p / D, so one with d_i = 0
        # changes too unless p == D; the divisions by D are exact.
        for i in range(m):
            f = d[i]
            if i != r and (f or p != det):
                inverse[i] = [(p * v - f * w) // det for v, w in zip(inverse[i], pivot)]
                beta[i] = (p * beta[i] - f * pivot_beta) // det
        det = p
        basis[r] = entering

    if not any(beta[i] for i in range(m) if basis[i] >= n):
        solution = {basis[i]: Fraction(beta[i], det * scale) for i in range(m) if basis[i] < n and beta[i]}
        return solution, None

    # Infeasible: y = c_B B^-1 from the last pricing pass.
    return None, tuple(Fraction(v, det) for v in price)
