"""Exact extrema over [0, 1]^n, by one small LP per group.

The maximum of a Max-Min function is the largest, over its groups, of max_x
min_{a in G} a(x): one LP per group (:func:`lp.solve_lp`, integer rows),
skipped for one-piece groups and for groups whose bound cannot beat the best
value so far.  The rows bound f by L <= f <= U, the largest over the groups
of the least piece minimum (maximum) on the box: synthesis solves only for a
side of [0, 1] they leave open, and f(0) = L is the minimum, else -max(-f)
(:func:`pwl.mm_negate`).  That of a formula is 1 - max ``!phi`` in negation
normal form, whose term function reflects only projections.  The witness is
the lexicographically least extremal point, from successive LPs: an
arrangement vertex, so the first sorted vertex a scan would report.
The ``budget`` argument, else :data:`DEFAULT_BUDGET`, caps the simplex pivots
of one maximum and its witness; the CLI resolves its own budget setting
(README, Notes on budgets).

Every vertex of the arrangement of the box facets and the pairwise piece
differences within each family (one family per event) is needed by the event
image of coherence, and by the minimum of a bare Max-Min function whose
reflection -f outgrows the piece cap (exponential in the groups); the scan
reports the least value at the first vertex, the budget counting n-subsets.
:func:`vertices_from_components` finds the vertices in integer arithmetic,
walking the n-subsets of the hyperplanes (budgeted by their number,
C(H, n)) with a null-space basis of each prefix.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import BudgetExceededError, RangeViolationError
from .formula import Ominus, Oplus, arity, evaluate, nnf
from .kernel import ONE, ZERO
from .lp import solve_lp
from .pwl import MaxMin, components, maxmin_eval, mm_negate, term_pwl

DEFAULT_BUDGET = 2_000_000  # simplex pivots, or the vertex subsets of a scan


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


def vertices_from_components(n, *families, budget=None):
    """Candidate extremum points for Max-Min functions, one from each family.

    Intersects every n-subset of the box facets and the differences within
    each family, keeps the nonsingular solutions inside the box, and returns
    them sorted and deduplicated.  Always contains all box corners.

    The walk is depth first in homogeneous coordinates (x0, ..., xn), carrying
    an integer null-space basis of the rows chosen so far; a row orthogonal to
    it depends on them, so its subtree is singular.  At two basis vectors (u, w)
    a later row h cuts (h.u) w - (h.w) u: a vertex when x0 != 0, 0 <= xi <= x0.
    """
    if n < 1:
        raise ValueError("vertex enumeration needs dimension >= 1")
    budget = DEFAULT_BUDGET if budget is None else budget
    differences = set().union(*map(_differences, families))
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


def extrema(f: MaxMin, budget=None):
    """``(lo, lo_at, hi, hi_at)``: exact minimum and maximum of ``f`` over the
    box, each with its lexicographically least point and its own budget."""
    lo, lo_at = _box_min(f, budget)
    hi, hi_at = _box_max(f, budget)
    return lo, lo_at(), hi, hi_at()


def _at_zero(f: MaxMin):
    # f(0) in numerator units
    return max(min(row[0] for row in g) for g in f.rows)


def _row_bounds(f: MaxMin):
    # the bounds L <= f <= U of the module docstring, in numerator units
    lower = max(min(row[0] + sum(c for c in row[1:] if c < 0) for row in g) for g in f.rows)
    return lower, max(min(map(_upper, g)) for g in f.rows)


def _check_unit_range(f: MaxMin, budget):
    # synth_pwl's range check: an extremum only on a side the row bounds leave open
    lower, upper = _row_bounds(f)
    if lower < 0:
        lo, at = _box_min(f, budget)
        if lo < 0:
            raise RangeViolationError("function drops below 0", at(), lo)
    if upper > f.den:
        hi, at = _box_max(f, budget)
        if hi > 1:
            raise RangeViolationError("function exceeds 1", at(), hi)


def _box_min(f: MaxMin, budget):
    """``(lo, at)``: the minimum of ``f`` over the box, and a function giving
    the lexicographically least point where it is attained.

    f(0) = L is the minimum, at 0; else -max(-f), unless the reflection
    outgrows the piece cap: then the first least value at the vertices.
    """
    zero = _at_zero(f)
    if zero == _row_bounds(f)[0]:
        return Fraction(zero, f.den), lambda: (ZERO,) * f.n  # 0 is the least point of the box
    try:
        negated = mm_negate(f)
    except BudgetExceededError:
        scan = [(maxmin_eval(f, v), v) for v in vertices_from_components(f.n, components(f), budget=budget)]
        lo, point = min(scan, key=operator.itemgetter(0))  # min returns the first of equal items
        return lo, lambda: point
    neg, at = _box_max(negated, budget)
    return -neg, at


def _upper(row):
    # the most a piece reaches on the box
    return row[0] + sum(c for c in row[1:] if c > 0)


def _box_max(f: MaxMin, budget):
    """``(hi, at)``: the maximum of ``f`` over the box, and a function giving
    the lexicographically least point where it is attained.

    Groups are visited by descending bound (the least of their pieces'
    maxima) while a bound exceeds the best value so far; a one-piece group's
    value is its bound, any other group's is one LP.  ``at()`` is 0 when f(0)
    attains the maximum; else it also checks the groups whose bound equals
    it and takes the least of the attaining groups' lexicographic minima.
    Every LP counts its simplex pivots against one budget.
    """
    n = f.n
    budget = DEFAULT_BUDGET if budget is None else budget
    spent = 0

    def solve(a_rows, b, c, stage):
        nonlocal spent
        result = solve_lp(a_rows, b, c)
        spent += result.pivots
        if spent > budget:
            raise BudgetExceededError(f"simplex pivots of the {stage} in dimension {n}", spent, budget)
        return result

    def value(bound, group):
        return bound if len(group) == 1 else _group_max(group, n, solve)

    order = sorted(((min(map(_upper, g)), g) for g in f.rows), key=operator.itemgetter(0), reverse=True)
    best, attaining = value(*order[0]), [order[0][1]]
    k = 1
    while k < len(order) and order[k][0] > best:
        v = value(*order[k])
        if v > best:
            best, attaining = v, []
        if v == best:
            attaining.append(order[k][1])
        k += 1

    def at():
        if _at_zero(f) == best:
            return (ZERO,) * n
        tied = itertools.takewhile(lambda item: item[0] == best, order[k:])
        groups = attaining + [group for bound, group in tied if value(bound, group) == best]
        return min(_lexmin(group, best, n, solve) for group in groups)

    return Fraction(best, f.den), at


def _group_max(group, n, solve):
    """max over the box of the least piece of ``group``, in numerator units.

    A coordinate whose coefficients in the group share one sign is fixed at
    its best end.  Over the others the value t lies in [L, U], L and U the
    least of the pieces' minima and of their maxima; with t = L + (U - L) s
    it is one LP: maximize s subject to a(x) >= L + (U - L) s for each
    piece a, with x and s in [0, 1].
    """
    consts = [row[0] for row in group]
    mixed = []
    for i in range(1, n + 1):
        column = [row[i] for row in group]
        if max(column) > 0 > min(column):
            mixed.append(i)
        elif max(column) > 0:
            consts = [c + a for c, a in zip(consts, column)]  # x_i = 1
    low = min(c + sum(row[i] for i in mixed if row[i] < 0) for c, row in zip(consts, group))
    span = min(c + sum(row[i] for i in mixed if row[i] > 0) for c, row in zip(consts, group)) - low
    if not span:
        return low
    rows = [[row[i] for i in mixed] + [-span] for row in group]
    cost = [0] * len(mixed) + [-1]
    return low - span * _box_lp(rows, [low - c for c in consts], cost, solve, "group maxima")


def _box_lp(rows, rhs, cost, solve, stage):
    """min cost*x over x in [0, 1]^v subject to row*x >= r for each row and r."""
    m, v = len(rows), len(cost)
    a_rows = [row + [-int(h == g) for g in range(m)] + [0] * v for h, row in enumerate(rows)]
    for h in range(v):
        unit = [int(h == g) for g in range(v)]
        a_rows.append(unit + [0] * m + unit)
    return solve(a_rows, rhs + [1] * v, cost + [0] * (m + v), stage).objective


def _lexmin(group, target, n, solve):
    """The lexicographically least x in the box with a(x) >= target for
    every piece a of ``group`` (numerator units).

    A one-piece group at its bound has x_i = 1 where a_i > 0, else 0.
    Otherwise the coordinates some piece uses are fixed one at a time: at
    0 when no constraint the rest of the box leaves open needs them
    positive, in closed form when one such constraint is left, else by an
    LP minimizing that coordinate.  Unused coordinates are 0.
    """
    if len(group) == 1:
        return tuple(ONE if c > 0 else ZERO for c in group[0][1:])
    rows = [[row[0] - target, *row[1:]] for row in group]  # each must stay >= 0
    support = [i for i in range(1, n + 1) if any(row[i] for row in group)]
    point = [ZERO] * n
    for s, k in enumerate(support):
        rest = support[s:]
        live = [row for row in rows if row[0] + sum(row[i] for i in rest if row[i] < 0) < 0]
        if not any(row[k] > 0 for row in live):
            continue
        if len(live) == 1:
            row = live[0]
            x = max(ZERO, Fraction(-row[0] - sum(row[i] for i in rest[1:] if row[i] > 0), row[k]))
        else:
            used = [i for i in rest if any(row[i] for row in live)]
            coeffs = [[row[i] for i in used] for row in live]
            cost = [1] + [0] * (len(used) - 1)
            x = _box_lp(coeffs, [-row[0] for row in live], cost, solve, "lexicographic witness")
        point[k - 1] = x
        for row in rows:
            row[0] += row[k] * x
    return tuple(point)


def _term_max(phi, budget, negate):
    # _box_max of the term function of phi, or of !phi, on [0, 1]^arity
    n = arity(phi)
    if n == 0:
        value = evaluate(phi, ())
        return ONE - value if negate else value, lambda: ()
    return _box_max(term_pwl(nnf(phi)[negate], n), budget)


def minimum(phi, budget=None):
    """Exact minimum of the term function over the box, with a witness point.

    ``min phi = 1 - max !phi``, with ``!phi`` in negation normal form; the
    witness is the lexicographically least minimizer.
    """
    hi, at = _term_max(phi, budget, True)
    return ONE - hi, at()


def maximum(phi, budget=None):
    """Exact maximum of the term function over the box, with the
    lexicographically least maximizer as witness."""
    hi, at = _term_max(phi, budget, False)
    return hi, at()


def is_valid(phi, budget=None) -> bool:
    """True when the term function is identically 1."""
    return _term_max(phi, budget, True)[0] == ZERO


def is_invalid(phi, budget=None):
    """(True, witness) when some evaluation sends ``phi`` to 0."""
    hi, at = _term_max(phi, budget, True)
    if hi == ONE:
        return True, at()
    return False, None


def _distance_formula(phi, psi):
    return Oplus(Ominus(phi, psi), Ominus(psi, phi))


def semantic_equiv(phi, psi, budget=None) -> bool:
    """True when the two formulas have the same term function.

    Decided by maximizing the pointwise distance |phi - psi|, realized as
    the formula ``(phi (-) psi) (+) (psi (-) phi)``.
    """
    return unit_norm(_distance_formula(phi, psi), budget) == ZERO


def unit_norm(phi, budget=None) -> Fraction:
    """Unit seminorm of the term function; the sup-norm over the box."""
    return _term_max(phi, budget, False)[0]


def delta_norm(phi, psi, budget=None) -> Fraction:
    """Seminorm distance between two formulas: the sup of |phi - psi|."""
    return unit_norm(_distance_formula(phi, psi), budget)
