"""Exact two-phase simplex over the rationals: a fraction-free integer simplex.

Solves ``min c*x subject to A x = b, x >= 0`` by Bland's rule, so it ends
without cycling.  A and b are scaled by the lcm of their denominators, and the
tableau is held in integers T = D*F over one denominator D > 0, F being the
rational tableau of the scaled system: a pivot on p maps each other row to
(p*T[r] - T[r][col]*T[row]) // D, exact by Sylvester's identity (Bareiss), and
sets D = p.  Every sign test and ratio order is that of F, so the pivot path
and the exact results are too.  An infeasible system yields the phase-1
multipliers as a Farkas certificate: y with y*A <= 0 componentwise, y*b > 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import Record, ZERO

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexResult(Record):
    __match_args__ = ("status", "x", "objective", "farkas", "pivots")

    def __init__(self, status, x=None, objective=None, farkas=None, pivots=0):
        self.__dict__.update(status=status, x=x, objective=objective, farkas=farkas, pivots=pivots)

    def _key(self):
        # pivots (taken, phase 1 included) is no part of equality
        return (self.status, self.x, self.objective, self.farkas)


def _pivot(tableau, basis, row, col, d):
    # Returns the new D; a negative pivot (an artificial's pivot-out) negates all.
    prow = tableau[row]
    p = prow[col]
    for r, current in enumerate(tableau):
        if r != row:
            f = current[col]
            if f:
                tableau[r] = [(v * p - f * w) // d for v, w in zip(current, prow)]
            elif p != d:
                tableau[r] = [v * p // d for v in current]
    basis[row] = col
    if p < 0:
        tableau[:] = [[-v for v in current] for current in tableau]
    return abs(p)


def _run_simplex(tableau, basis, m, n, d):
    # Bland's rule: lowest eligible column enters; ratio ties (cross-multiplied,
    # so D cancels) go to the lowest basic index.  The objective row is last.
    # Returns (status, D, pivots taken).
    pivots = 0
    while True:
        obj = tableau[m]
        col = next((j for j in range(n) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL, d, pivots
        row = None
        for r in range(m):
            coef = tableau[r][col]
            if coef > 0:
                key = -1 if row is None else tableau[r][-1] * best - rhs * coef
                if key < 0 or (key == 0 and basis[r] < basis[row]):
                    row, rhs, best = r, tableau[r][-1], coef
        if row is None:
            return UNBOUNDED, d, pivots
        d = _pivot(tableau, basis, row, col, d)
        pivots += 1


def solve_lp(a_rows, b, c) -> SimplexResult:
    """Minimize ``c*x`` subject to ``A x = b`` and ``x >= 0``: the exact optimum
    and solution, or a Farkas vector of length m when infeasible.  ``a_rows``
    holds m rows of ``len(c)`` entries and ``b`` m entries (else ``ValueError``),
    each ``int`` or ``Fraction`` (else ``TypeError``)."""
    m, n = len(a_rows), len(c)
    if len(b) != m or any(len(row) != n for row in a_rows):
        lengths = sorted({len(row) for row in a_rows})
        raise ValueError(f"{m} rows of lengths {lengths}, {len(b)} right-hand sides, {n} costs")
    for v in [*b, *c, *(v for row in a_rows for v in row)]:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"entry {v!r} is not exact; pass Fraction or int entries")
    scale = math.lcm(*[v.denominator for row in a_rows for v in row], *[v.denominator for v in b])
    signs = [1 if bi >= 0 else -1 for bi in b]
    rows = [
        [s * v.numerator * (scale // v.denominator) for v in [*row, bi]]
        for row, bi, s in zip(a_rows, b, signs)
    ]
    # Phase 1: minimize the artificial sum; reduced costs start at -sum(rows).
    obj = [-sum(row[j] for row in rows) for j in range(n)] + [0] * m + [-sum(r[-1] for r in rows)]
    tableau = [row[:n] + [int(i == k) for k in range(m)] + row[n:] for i, row in enumerate(rows)]
    tableau.append(obj)
    basis = [n + i for i in range(m)]
    status, d, pivots = _run_simplex(tableau, basis, m, n, 1)
    assert status == OPTIMAL  # phase 1 is bounded below by zero
    if tableau[m][-1] < 0:
        # Multipliers: the reduced cost of artificial i is 1 - y_i.
        y = (Fraction(s * (d - tableau[m][n + i]), d) for i, s in enumerate(signs))
        return SimplexResult(INFEASIBLE, farkas=tuple(y), pivots=pivots)
    if any(ci != 0 for ci in c):
        # An artificial still basic after phase 1 sits at level 0; pivot it
        # out on any nonzero original column (a degenerate pivot, so x does
        # not move) lest phase 2 raise it.  A row without one is redundant.
        for r in range(m):
            if basis[r] >= n:
                col = next((j for j in range(n) if tableau[r][j] != 0), None)
                if col is not None:
                    d = _pivot(tableau, basis, r, col, d)
                    pivots += 1
        lc = math.lcm(*[ci.denominator for ci in c])
        cost = [ci.numerator * (lc // ci.denominator) for ci in c]
        obj = [d * cj for cj in cost] + [0] * (m + 1)  # reduced costs times D * lc
        for r in range(m):
            if basis[r] < n and cost[basis[r]] != 0:
                obj = [v - cost[basis[r]] * p for v, p in zip(obj, tableau[r])]
        tableau[m] = obj
        status, d, more = _run_simplex(tableau, basis, m, n, d)
        pivots += more
        if status == UNBOUNDED:
            return SimplexResult(UNBOUNDED, pivots=pivots)
    values = {j: Fraction(row[-1], d) for j, row in zip(basis, tableau) if j < n}
    x = tuple(values.get(j, ZERO) for j in range(n))
    objective = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return SimplexResult(OPTIMAL, x=x, objective=objective, pivots=pivots)
