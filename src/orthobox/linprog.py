"""Exact linear feasibility over the rationals.

Phase-1 revised simplex with Bland's rule.  No floating point anywhere, so
verdicts are exact; problem sizes here are tiny (tens of rows, at most a few
thousand columns).

Only the m x m basis inverse ``B^-1`` and the right-hand side are kept as
``Fraction``s.  Each row-flipped column is stored once, as sparse integer
numerators over one denominator, and is priced against ``pi = c_B B^-1``
scaled by the lcm of its denominators, so each reduced-cost sign is an
integer comparison.

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

Vector = tuple[Fraction, ...]


def feasible_combination(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> tuple[dict[int, Fraction] | None, Vector | None]:
    """Find x >= 0 with ``sum_j x_j * columns[j] == target``.

    Returns ``(solution, None)`` with a sparse mapping column index -> weight,
    or ``(None, y)`` with a separating functional: ``y . target > 0`` while
    ``y . column <= 0`` for every column (so no nonnegative combination can
    reach the target).
    """
    m = len(target)
    n = len(columns)
    for col in columns:
        if len(col) != m:
            raise ValueError("column/target dimension mismatch")

    # Flip rows so the right-hand side is nonnegative.
    signs = [-1 if t < 0 else 1 for t in target]
    rhs = [s * Fraction(t) for s, t in zip(signs, target)]
    # Each flipped column as (rows, integer numerators, denominator), nonzeros only.
    sparse = []
    for col in columns:
        entries = [(i, s * v) for i, (s, v) in enumerate(zip(signs, map(Fraction, col))) if v]
        den = lcm(*(v.denominator for _, v in entries))
        sparse.append(
            (tuple(i for i, _ in entries), tuple(v.numerator * (den // v.denominator) for _, v in entries), den)
        )

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
        entering = next(
            (j for j, (rows, nums, _) in enumerate(sparse) if sum(price[i] * a for i, a in zip(rows, nums)) > 0),
            None,
        )
        if entering is not None:
            rows, nums, den = sparse[entering]
            d = [sum((r[i] * a for i, a in zip(rows, nums)), Fraction(0)) / den for r in binv]
        else:
            k = next((k for k in range(m) if price[k] > scale), None)
            if k is None:
                break
            entering = n + k
            d = [r[k] for r in binv]
        # Smallest ratio, ties by smallest basis label.
        pivot_row = None
        best = None
        for i in range(m):
            a = d[i]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
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

    # Infeasible: y = c_B B^-1 from the last pricing pass, row flips undone.
    return None, tuple(s * p for s, p in zip(signs, pi))
