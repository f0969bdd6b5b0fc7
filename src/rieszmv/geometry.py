"""Exact optimization and decision procedures via arrangement vertices.

A Max-Min function is affine on every cell of the arrangement cut out by
the pairwise differences of its pieces together with the box facets, so its
extrema over [0, 1]^n are attained at cell vertices: intersections of n
independent hyperplanes from that family.  :func:`vertices_from_components`
finds them in integer arithmetic, walking the n-subsets of the hyperplanes
(budgeted by their number, C(H, n)) with a null-space basis of each prefix.
:func:`extrema`, the one scan of those vertices, gives certified minima and
maxima, and with them validity, invalidity, semantic equivalence and the unit
seminorm of formulas.
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


def _differences(affines):
    # primitive integer rows (c0, ..., cn) of the pairwise differences, first
    # nonzero linear coefficient positive
    distinct = {a.coeffs for a in affines}
    scale = math.lcm(*[c.denominator for coeffs in distinct for c in coeffs])
    pieces = [[c.numerator * (scale // c.denominator) for c in coeffs] for coeffs in distinct]
    rows = set()
    for a, b in itertools.combinations(pieces, 2):
        diff = [ca - cb for ca, cb in zip(a, b)]
        lead = next((c for c in diff[1:] if c), 0)
        if lead:
            rows.add(_primitive(diff if lead > 0 else [-c for c in diff]))
    return rows


def _is_facet(row):
    # x_i = 0 is (0, e_i) and x_i = 1 is (-1, e_i)
    return row[0] in (0, -1) and sum(map(abs, row[1:])) == 1


def _hyperplanes(n, differences):
    # the difference rows and the 2n box facets, sorted
    rows = set(differences)
    for i in range(1, n + 1):
        facet = tuple(int(j == i) for j in range(n + 1))
        rows |= {facet, (-1,) + facet[1:]}  # x_i = 0 and x_i = 1
    return sorted(rows)


def _primitive(v):
    g = math.gcd(*v)
    return tuple(c // g for c in v)


def vertices_from_components(n, affines, budget=None):
    """Candidate extremum points for any Max-Min built from ``affines``.

    Intersects every n-subset of the difference/facet hyperplane family,
    keeps the nonsingular solutions inside the box, and returns them sorted
    and deduplicated.  Always contains all box corners.

    The walk is depth first in homogeneous coordinates (x0, ..., xn), carrying
    an integer null-space basis of the rows chosen so far; a row orthogonal to
    it depends on them, so its subtree is singular.  At two basis vectors (u, w)
    a later row h cuts (h.u) w - (h.w) u: a vertex when x0 != 0, 0 <= xi <= x0.
    """
    if n < 1:
        raise ValueError("vertex enumeration needs dimension >= 1")
    budget = effective_budget(budget)
    differences = _differences(affines)
    # count the hyperplanes first: the 2n facet rows alone hold O(n^2) entries
    count = len(differences) + 2 * n - sum(map(_is_facet, differences))
    systems = math.comb(count, n)
    if systems > budget:
        raise BudgetExceededError(f"vertex enumeration over {count} hyperplanes in dimension {n}", systems, budget)
    rows = _hyperplanes(n, differences)
    points = set()
    stack = [(0, [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)])]
    while stack:
        start, basis = stack.pop()
        if len(basis) == 2:
            u, w = basis
            for h in rows[start:]:
                su = sum(map(operator.mul, h, u))
                sw = sum(map(operator.mul, h, w))
                x0 = su * w[0] - sw * u[0]
                if x0 < 0:
                    su, sw, x0 = -su, -sw, -x0
                elif not x0:
                    continue  # singular system, or dependent rows
                p = [su * b - sw * a for a, b in zip(u, w)]
                if all(0 <= c <= x0 for c in p):
                    points.add(_primitive(p))
            continue
        for i in range(start, len(rows) - len(basis) + 2):
            s = [sum(map(operator.mul, rows[i], b)) for b in basis]
            k = next((k for k, sk in enumerate(s) if sk), None)
            if k is None:
                continue  # rows[i] depends on the rows chosen so far
            sk, bk = s[k], basis[k]
            reduced = [
                _primitive([sk * x - sj * y for x, y in zip(b, bk)])
                for j, (b, sj) in enumerate(zip(basis, s))
                if j != k
            ]
            stack += ((i + 1, basis), (i + 1, reduced))  # this level resumes after the subtree
            break
    return tuple(sorted(tuple(Fraction(c, p[0]) for c in p[1:]) for p in points))


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
