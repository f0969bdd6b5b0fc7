"""Exact two-phase simplex over the rationals.

Solves ``min c*x subject to A x = b, x >= 0`` with Fraction arithmetic and
Bland's rule, so it terminates without cycling and every reported number is
exact.  When the constraints are infeasible the phase-1 multipliers are
returned as a Farkas certificate: a vector y with y*A <= 0 componentwise
and y*b > 0, proof that no nonnegative solution exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import ONE, ZERO

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    x: tuple | None = None
    objective: Fraction | None = None
    farkas: tuple | None = None


def _pivot(tableau, basis, row, col):
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    for r, current in enumerate(tableau):
        if r != row and current[col] != 0:
            factor = current[col]
            tableau[r] = [v - factor * p for v, p in zip(current, tableau[row])]
    basis[row] = col


def _run_simplex(tableau, basis, m, allowed):
    # Bland's rule: lowest eligible column enters, ties on the ratio test
    # break toward the lowest basic index.  The objective row is last.
    while True:
        obj = tableau[m]
        col = next((j for j in allowed if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best_ratio = None
        row = None
        for r in range(m):
            coef = tableau[r][col]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[row]
                ):
                    best_ratio = ratio
                    row = r
        if row is None:
            return UNBOUNDED
        _pivot(tableau, basis, row, col)


def solve_lp(a_rows, b, c) -> SimplexResult:
    """Minimize ``c*x`` subject to ``A x = b`` and ``x >= 0``.

    ``a_rows`` is a list of m rows of length n.  Returns exact optimum and
    solution, or a Farkas vector of length m when infeasible.
    """
    m = len(a_rows)
    n = len(c)
    signs = [ONE if bi >= 0 else -ONE for bi in b]
    rows = [
        [s * v for v in row] + [ZERO] * m + [s * bi]
        for row, bi, s in zip(a_rows, b, signs)
    ]
    for i in range(m):
        rows[i][n + i] = ONE

    # Phase 1: minimize the artificial sum; reduced costs start at -sum(rows).
    obj = [ZERO] * (n + m + 1)
    for row in rows:
        for j in range(n):
            obj[j] -= row[j]
        obj[-1] -= row[-1]
    tableau = rows + [obj]
    basis = [n + i for i in range(m)]

    status = _run_simplex(tableau, basis, m, range(n))
    assert status == OPTIMAL  # phase 1 is bounded below by zero
    infeasibility = -tableau[m][-1]
    if infeasibility > 0:
        # Multipliers: the reduced cost of artificial i is 1 - y_i.
        farkas = tuple(signs[i] * (ONE - tableau[m][n + i]) for i in range(m))
        return SimplexResult(INFEASIBLE, farkas=farkas)

    if any(ci != 0 for ci in c):
        # An artificial still basic after phase 1 sits at level 0; pivot it
        # out on any nonzero original column (a degenerate pivot, so x does
        # not move) lest phase 2 raise it.  A row without one is redundant.
        for r in range(m):
            if basis[r] >= n:
                col = next((j for j in range(n) if tableau[r][j] != 0), None)
                if col is not None:
                    _pivot(tableau, basis, r, col)
        obj = [Fraction(ci) for ci in c] + [ZERO] * (m + 1)
        for r in range(m):
            if basis[r] < n and obj[basis[r]] != 0:
                factor = obj[basis[r]]
                obj = [v - factor * p for v, p in zip(obj, tableau[r])]
        tableau[m] = obj
        status = _run_simplex(tableau, basis, m, range(n))
        if status == UNBOUNDED:
            return SimplexResult(UNBOUNDED)

    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r][-1]
    objective = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return SimplexResult(OPTIMAL, x=tuple(x), objective=objective)
