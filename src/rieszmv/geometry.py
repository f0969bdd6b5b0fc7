"""Exact optimization and decision procedures via arrangement vertices.

A Max-Min function is affine on every cell of the arrangement cut out by
the pairwise differences of its pieces together with the box facets, so its
extrema over [0, 1]^n are attained at cell vertices: intersections of n
independent hyperplanes from that family.  :func:`extrema`, the one scan of
those vertices, gives certified minima and maxima, and with them validity,
invalidity, semantic equivalence and the unit seminorm of formulas.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from fractions import Fraction

from .errors import BudgetExceededError
from .formula import Ominus, Oplus, arity, evaluate
from .kernel import ONE, ZERO
from .pwl import MaxMin, components, maxmin_eval, term_pwl

DEFAULT_VERTEX_BUDGET = 2_000_000


def effective_budget(budget=None):
    """Resolve the vertex budget: explicit value, RIESZ_BUDGET, or default."""
    if budget is not None:
        return budget
    env = os.environ.get("RIESZ_BUDGET")
    if env:
        return int(env)
    return DEFAULT_VERTEX_BUDGET


def _normalize_equation(coeffs):
    # Scale so the first nonzero linear coefficient is 1; merges multiples.
    pivot = next((c for c in coeffs[1:] if c != 0), None)
    if pivot is None:
        return None
    return tuple(c / pivot for c in coeffs)


def _equations_from_components(n, affines):
    eqs = set()
    for a, b in itertools.combinations(affines, 2):
        diff = tuple(ca - cb for ca, cb in zip(a.coeffs, b.coeffs))
        norm = _normalize_equation(diff)
        if norm is not None:
            eqs.add(norm)
    for i in range(1, n + 1):
        row = [ZERO] * (n + 1)
        row[i] = ONE
        eqs.add(tuple(row))          # x_i = 0
        row = list(row)
        row[0] = -ONE
        eqs.add(tuple(row))          # x_i = 1
    return sorted(eqs)


def _solve_square(equations, n):
    # Gaussian elimination on n equations c0 + sum c_i x_i = 0; None if singular.
    rows = [list(eq[1:]) + [-eq[0]] for eq in equations]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            return None
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        rows[col] = [v / pivot for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[col])]
    return tuple(rows[r][n] for r in range(n))


def vertices_from_components(n, affines, budget=None):
    """Candidate extremum points for any Max-Min built from ``affines``.

    Intersects every n-subset of the difference/facet hyperplane family,
    keeps the nonsingular solutions inside the box, and returns them sorted
    and deduplicated.  Always contains all box corners.
    """
    if n < 1:
        raise ValueError("vertex enumeration needs dimension >= 1")
    budget = effective_budget(budget)
    eqs = _equations_from_components(n, affines)
    systems = math.comb(len(eqs), n)
    if systems > budget:
        raise BudgetExceededError(
            f"vertex enumeration over {len(eqs)} hyperplanes in dimension {n}", systems, budget
        )
    points = set()
    for combo in itertools.combinations(eqs, n):
        x = _solve_square(combo, n)
        if x is not None and all(ZERO <= xi <= ONE for xi in x):
            points.add(x)
    return tuple(sorted(points))


def candidate_vertices(f: MaxMin, budget=None):
    """Vertex candidates for the extrema of ``f`` over the box."""
    return vertices_from_components(f.n, components(f), budget)


def extrema(f: MaxMin, budget=None):
    """``(lo, lo_at, hi, hi_at)``: exact minimum and maximum of ``f`` over the box.

    Ties go to the first candidate vertex in sorted order.
    """
    scan = [(maxmin_eval(f, v), v) for v in candidate_vertices(f, budget)]
    by_value = operator.itemgetter(0)
    # min and max return the first of equal items
    return min(scan, key=by_value) + max(scan, key=by_value)


def _term_extrema(phi, budget):
    n = arity(phi)
    if n == 0:
        value = evaluate(phi, ())
        return value, (), value, ()
    return extrema(term_pwl(phi, n), budget)


def minimum(phi, budget=None):
    """Exact minimum of the term function over the box, with a witness point."""
    return _term_extrema(phi, budget)[:2]


def maximum(phi, budget=None):
    """Exact maximum of the term function over the box, with a witness point."""
    return _term_extrema(phi, budget)[2:]


def is_valid(phi, budget=None) -> bool:
    """True when the term function is identically 1."""
    return minimum(phi, budget)[0] == ONE


def is_invalid(phi, budget=None):
    """(True, witness) when some evaluation sends ``phi`` to 0."""
    value, witness = minimum(phi, budget)
    if value == ZERO:
        return True, witness
    return False, None


def _distance_formula(phi, psi):
    return Oplus(Ominus(phi, psi), Ominus(psi, phi))


def semantic_equiv(phi, psi, budget=None) -> bool:
    """True when the two formulas have the same term function.

    Decided by maximizing the pointwise distance |phi - psi|, realized as
    the formula ``(phi (-) psi) (+) (psi (-) phi)``.
    """
    return maximum(_distance_formula(phi, psi), budget)[0] == ZERO


def unit_norm(phi, budget=None) -> Fraction:
    """Unit seminorm of the term function; the sup-norm over the box."""
    return maximum(phi, budget)[0]


def delta_norm(phi, psi, budget=None) -> Fraction:
    """Seminorm distance between two formulas: the sup of |phi - psi|."""
    return unit_norm(_distance_formula(phi, psi), budget)
