"""The dense-tableau phase-1 simplex that ``orthobox.linprog`` replaced.

Kept unchanged as the differential reference: it rewrites every column of a
``Fraction`` tableau on each pivot, so it is slow but plainly Bland's rule.
``orthobox.linprog.feasible_combination`` must return exactly what it
returns, witness and separating functional included.
"""

from __future__ import annotations

from fractions import Fraction
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
    signs = [Fraction(-1) if t < 0 else Fraction(1) for t in target]
    rows = [[signs[i] * Fraction(columns[j][i]) for j in range(n)] for i in range(m)]
    rhs = [signs[i] * Fraction(target[i]) for i in range(m)]

    # Append the identity for the artificial variables.
    for i in range(m):
        for k in range(m):
            rows[i].append(Fraction(1) if i == k else Fraction(0))
    basis = [n + i for i in range(m)]

    def reduced_cost(j: int) -> Fraction:
        # cost 1 on artificials, 0 on structural columns
        c_j = Fraction(1) if j >= n else Fraction(0)
        z = sum((rows[i][j] for i in range(m) if basis[i] >= n), Fraction(0))
        return c_j - z

    total = n + m
    while True:
        entering = next((j for j in range(total) if reduced_cost(j) < 0), None)
        if entering is None:
            break
        # Bland's rule: smallest ratio, ties by smallest basis label.
        pivot_row = None
        best = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
        piv = rows[pivot_row][entering]
        rows[pivot_row] = [v / piv for v in rows[pivot_row]]
        rhs[pivot_row] /= piv
        for i in range(m):
            if i != pivot_row and rows[i][entering] != 0:
                f = rows[i][entering]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[pivot_row])]
                rhs[i] -= f * rhs[pivot_row]
        basis[pivot_row] = entering

    residual = sum((rhs[i] for i in range(m) if basis[i] >= n), Fraction(0))
    if residual == 0:
        solution = {basis[i]: rhs[i] for i in range(m) if basis[i] < n and rhs[i] != 0}
        return solution, None

    # Infeasible: y = c_B B^-1 read off the artificial columns, undo row flips.
    y = tuple(
        signs[k] * sum((rows[i][n + k] for i in range(m) if basis[i] >= n), Fraction(0))
        for k in range(m)
    )
    return None, y
