"""Shared generators and reference oracles for the test suite.

The reference Lukasiewicz machinery, vertex enumeration, simplex and Max-Min
pipeline at the bottom deliberately avoid the package's evaluator, vertex
walk, integer tableau and integer Max-Min rows so that cross-checks against
them exercise an independent route.  The vertex scan of a Max-Min function
(``vertex_extrema``) is the oracle of the package's group-LP extrema.
"""

import itertools
import math
import operator
from fractions import Fraction

from rieszmv import (
    Affine,
    BudgetExceededError,
    Delta,
    Iff,
    Implies,
    Join,
    MaxMin,
    Meet,
    Nabla,
    Neg,
    Odot,
    Ominus,
    Oplus,
    RConst,
    Var,
    arity,
    components,
    maxmin_eval,
    program,
    term_pwl,
    vertices_from_components,
)
from rieszmv.geometry import DEFAULT_BUDGET
from rieszmv.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, SimplexResult, solve_lp
from rieszmv.pwl import _COVERAGE_LIMIT, DEFAULT_PIECE_CAP

F = Fraction


def rand_unit(rng, max_den=16):
    den = rng.randint(1, max_den)
    return F(rng.randint(0, den), den)


def rand_point(rng, n, max_den=32):
    return tuple(rand_unit(rng, max_den) for _ in range(n))


def rand_signed(rng, bound=3, max_den=16):
    den = rng.randint(1, max_den)
    return F(rng.randint(-bound * den, bound * den), den)


_BINARY_KINDS = (
    (Implies, 20),
    (Oplus, 16),
    (Odot, 16),
    (Join, 16),
    (Meet, 16),
    (Ominus, 10),
    (Iff, 6),
)


def rand_formula(rng, n, depth, scalars=True):
    if depth <= 0 or rng.random() < 0.22:
        if rng.random() < 0.1 and scalars:
            return RConst(rand_unit(rng, 8))
        return Var(rng.randint(1, n))
    if rng.random() < 0.3:
        if scalars and rng.random() < 0.55:
            kind = Delta if rng.random() < 0.5 else Nabla
            return kind(rand_unit(rng, 8), rand_formula(rng, n, depth - 1, scalars))
        return Neg(rand_formula(rng, n, depth - 1, scalars))
    total = sum(w for _, w in _BINARY_KINDS)
    pick = rng.randrange(total)
    for kind, weight in _BINARY_KINDS:
        if pick < weight:
            break
        pick -= weight
    return kind(
        rand_formula(rng, n, depth - 1, scalars), rand_formula(rng, n, depth - 1, scalars)
    )


def rand_affine(rng, n, bound=3, max_den=16):
    return Affine(n, tuple(rand_signed(rng, bound, max_den) for _ in range(n + 1)))


def rand_maxmin(rng, n, max_groups=3, max_group_size=3, bound=2, max_den=8):
    groups = tuple(
        tuple(rand_affine(rng, n, bound, max_den) for _ in range(rng.randint(1, max_group_size)))
        for _ in range(rng.randint(1, max_groups))
    )
    return MaxMin(n, groups)


def clamp(value):
    return max(F(0), min(F(1), value))


def grid_points(n, step=32):
    if n == 0:
        return [()]
    coords = [F(i, step) for i in range(step + 1)]
    points = [()]
    for _ in range(n):
        points = [p + (c,) for p in points for c in coords]
    return points


# ---------------------------------------------------------------------------
# Reference Lukasiewicz oracle (scalar-connective-free fragment).


def luk_eval(phi, point):
    """Independent evaluator over [0, 1]; rejects scalar connectives."""
    kind = type(phi)
    if kind is Var:
        return point[phi.index - 1]
    if kind is Neg:
        return 1 - luk_eval(phi.child, point)
    if kind is Implies:
        return min(F(1), 1 - luk_eval(phi.left, point) + luk_eval(phi.right, point))
    if kind is Oplus:
        return min(F(1), luk_eval(phi.left, point) + luk_eval(phi.right, point))
    if kind is Odot:
        return max(F(0), luk_eval(phi.left, point) + luk_eval(phi.right, point) - 1)
    if kind is Join:
        return max(luk_eval(phi.left, point), luk_eval(phi.right, point))
    if kind is Meet:
        return min(luk_eval(phi.left, point), luk_eval(phi.right, point))
    if kind is Iff:
        return 1 - abs(luk_eval(phi.left, point) - luk_eval(phi.right, point))
    if kind is Ominus:
        return max(F(0), luk_eval(phi.left, point) - luk_eval(phi.right, point))
    raise TypeError(f"not a scalar-free formula: {phi!r}")


def luk_component_superset(phi, n):
    """Integer-coefficient affine pieces covering the term function.

    At every point the value of the formula equals the value of one of the
    returned pieces, which is all the vertex method needs.
    """
    zero = (F(0),) * (n + 1)
    one = (F(1),) + (F(0),) * n

    def minus(a):
        return tuple(-c for c in a)

    def add(a, b):
        return tuple(ca + cb for ca, cb in zip(a, b))

    def go(node):
        kind = type(node)
        if kind is Var:
            piece = [F(0)] * (n + 1)
            piece[node.index] = F(1)
            return {tuple(piece)}
        if kind is Neg:
            return {add(one, minus(q)) for q in go(node.child)}
        if kind is Implies:
            left, right = go(node.left), go(node.right)
            return {one} | {add(one, add(minus(q), p)) for q in left for p in right}
        if kind is Oplus:
            left, right = go(node.left), go(node.right)
            return {one} | {add(q, p) for q in left for p in right}
        if kind is Odot:
            left, right = go(node.left), go(node.right)
            return {zero} | {add(minus(one), add(q, p)) for q in left for p in right}
        if kind in (Join, Meet):
            return go(node.left) | go(node.right)
        if kind is Iff:
            left, right = go(node.left), go(node.right)
            crossed = {add(q, minus(p)) for q in left for p in right}
            return {one} | {add(one, d) for d in crossed} | {add(one, minus(d)) for d in crossed}
        if kind is Ominus:
            left, right = go(node.left), go(node.right)
            return {zero} | {add(q, minus(p)) for q in left for p in right}
        raise TypeError(f"not a scalar-free formula: {node!r}")

    return go(phi)


def luk_is_valid(phi, budget=None):
    """Reference validity: vertex method over the integer-piece superset."""
    n = arity(phi)
    if n == 0:
        return luk_eval(phi, ()) == 1
    pieces = luk_component_superset(phi, n)
    assert all(c.denominator == 1 for piece in pieces for c in piece)
    affines = [Affine(n, piece) for piece in pieces]
    return all(luk_eval(phi, v) == 1 for v in brute_vertices(n, affines, budget))


# ---------------------------------------------------------------------------
# Negation normal form.


# De Morgan duals of the binary connectives that negation normal form keeps
_DUAL = {Oplus: Odot, Odot: Oplus, Join: Meet, Meet: Join}


def nnf(phi):
    """Negation normal forms ``(positive, negated)`` of ``phi`` and of ``!phi``:
    the oracle of ``term_pwl``, which reads these forms without their nodes.

    Negation is pushed to the variables by the MV De Morgan laws, the
    scalar dualities ``!N[r]a = D[r]!a``, ``!D[r]a = N[r]!a`` and
    ``!C[r] = C[1 - r]``, and the definitions ``a -> b = !a (+) b``,
    ``a (-) b = a (.) !b`` and ``a <-> b = (a -> b) /\\ (b -> a)``.  The
    results use Var, !Var, constants, N, D, (+), (.), \\/ and /\\ only, so
    every ``Neg`` has a ``Var`` child.  One loop over :func:`program` keeps
    one pair per entry, and the forms share it, so they have at most six
    nodes per entry of ``phi`` (three for each side of a ``<->``).
    """
    pairs = []
    append = pairs.append
    for kind, r, i, j, _ in program(phi):
        if kind is Var:
            v = Var(r)
            append((v, Neg(v)))
        elif kind is RConst:
            append((RConst(r), RConst(1 - r)))
        elif kind is Neg:
            append(pairs[i][::-1])
        elif kind is Nabla:
            append((Nabla(r, pairs[i][0]), Delta(r, pairs[i][1])))
        elif kind is Delta:
            append((Delta(r, pairs[i][0]), Nabla(r, pairs[i][1])))
        else:
            (pa, na), (pb, nb) = pairs[i], pairs[j]
            if kind is Implies:
                append((Oplus(na, pb), Odot(pa, nb)))
            elif kind is Ominus:
                append((Odot(pa, nb), Oplus(na, pb)))
            elif kind is Iff:
                append((Meet(Oplus(na, pb), Oplus(nb, pa)), Join(Odot(pa, nb), Odot(pb, na))))
            else:
                append((kind(pa, pb), _DUAL[kind](na, nb)))
    return pairs[-1]


# ---------------------------------------------------------------------------
# Extrema of a Max-Min function by scanning its arrangement vertices: the
# function is affine on every cell cut out by the pairwise differences of its
# pieces and the box facets, so its extrema sit at cell vertices.


def candidate_vertices(f, budget=None):
    """Vertex candidates for the extrema of ``f`` over the box."""
    return vertices_from_components(f.n, components(f), budget=budget)


def vertex_extrema(f, budget=None):
    """Reference for ``extrema``: ``(lo, lo_at, hi, hi_at)`` over the
    candidate vertices, ties to the first vertex in sorted order (in
    dimension 0 the box is the one point ``()``)."""
    vertices = candidate_vertices(f, budget) if f.n else [()]
    scan = [(maxmin_eval(f, v), v) for v in vertices]
    by_value = operator.itemgetter(0)
    # min and max return the first of equal items
    return min(scan, key=by_value) + max(scan, key=by_value)


def pooled_event_image(book, budget=None):
    """Reference for ``event_image``: the vertices of the arrangement of all
    events' pieces pooled into one family, so the differences across events
    cut it too, with the value vectors there from ``maxmin_eval``, in the
    integer format of ``event_image``.  Its points include those of the
    per-event image and its vectors span the same hull."""
    n = book.dimension
    terms = [term_pwl(phi, n) for phi, _ in book.events]
    pooled = [a for f in terms for a in components(f)]
    image = []
    for v in vertices_from_components(n, pooled, budget=budget):
        values = tuple(maxmin_eval(f, v) for f in terms)
        q = math.lcm(*(c.denominator for c in v + values))
        image.append(((q, *(int(c * q) for c in v)), tuple(int(c * q) for c in values)))
    return image


def fraction_image(image):
    """An event image of integer pairs ``(w, u)`` read as ``(point, values)``
    in Fractions: the point (w1/w0, ..., wn/w0) and the values u_i/w0."""
    return [(tuple(F(c, w[0]) for c in w[1:]), tuple(F(c, w[0]) for c in u)) for w, u in image]


# ---------------------------------------------------------------------------
# Reference vertex enumeration: one Fraction Gauss-Jordan solve per n-subset.


def _normalize_equation(coeffs):
    # Scale so the first nonzero linear coefficient is 1; merges multiples.
    pivot = next((c for c in coeffs[1:] if c != 0), None)
    if pivot is None:
        return None
    return tuple(c / pivot for c in coeffs)


def _equations_from_components(n, affines):
    eqs = set()
    for a, b in itertools.combinations(affines, 2):
        norm = _normalize_equation(tuple(ca - cb for ca, cb in zip(a.coeffs, b.coeffs)))
        if norm is not None:
            eqs.add(norm)
    for i in range(1, n + 1):
        row = [F(0)] * (n + 1)
        row[i] = F(1)
        eqs.add(tuple(row))  # x_i = 0
        row[0] = F(-1)
        eqs.add(tuple(row))  # x_i = 1
    return sorted(eqs)


def _solve_square(equations, n):
    # Gauss-Jordan on n equations c0 + sum c_i x_i = 0; None if singular.
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


def brute_vertices(n, affines, budget=None):
    """Reference for ``vertices_from_components``: same budget rule and
    errors, sorted box points of every nonsingular n-subset."""
    if n < 1:
        raise ValueError("vertex enumeration needs dimension >= 1")
    budget = DEFAULT_BUDGET if budget is None else budget
    eqs = _equations_from_components(n, affines)
    systems = math.comb(len(eqs), n)
    if systems > budget:
        raise BudgetExceededError(
            f"vertex enumeration over {len(eqs)} hyperplanes in dimension {n}", systems, budget
        )
    points = set()
    for combo in itertools.combinations(eqs, n):
        x = _solve_square(combo, n)
        if x is not None and all(0 <= xi <= 1 for xi in x):
            points.add(x)
    return tuple(sorted(points))


def primal_box_lp(rows, rhs, cost):
    """Reference for ``geometry._box_lp``: min cost*x over x in [0, 1]^v with
    row*x >= r for each row and r, in primal form: m + v equality rows with
    a surplus column per row and a slack column per x_i <= 1."""
    m, v = len(rows), len(cost)
    a_rows = [list(row) + [-int(h == g) for g in range(m)] + [0] * v for h, row in enumerate(rows)]
    for h in range(v):
        unit = [int(h == g) for g in range(v)]
        a_rows.append(unit + [0] * m + unit)
    return solve_lp(a_rows, list(rhs) + [1] * v, list(cost) + [0] * (m + v))


# ---------------------------------------------------------------------------
# Reference simplex: a dense Fraction tableau, Bland's rule, two phases.


def _fraction_pivot(tableau, basis, row, col):
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    for r, current in enumerate(tableau):
        if r != row and current[col] != 0:
            factor = current[col]
            tableau[r] = [v - factor * p for v, p in zip(current, tableau[row])]
    basis[row] = col


def _fraction_run(tableau, basis, m, n):
    # Lowest eligible column enters; ratio ties go to the lowest basic index.
    while True:
        obj = tableau[m]
        col = next((j for j in range(n) if obj[j] < 0), None)
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
        _fraction_pivot(tableau, basis, row, col)


def fraction_simplex(a_rows, b, c):
    """Reference for ``solve_lp``: the same Bland path on Fraction entries,
    returning an equal ``SimplexResult``."""
    m = len(a_rows)
    n = len(c)
    signs = [F(1) if bi >= 0 else F(-1) for bi in b]
    rows = [
        [s * v for v in row] + [F(0)] * m + [s * bi] for row, bi, s in zip(a_rows, b, signs)
    ]
    for i in range(m):
        rows[i][n + i] = F(1)
    obj = [F(0)] * (n + m + 1)
    for row in rows:
        for j in range(n):
            obj[j] -= row[j]
        obj[-1] -= row[-1]
    tableau = rows + [obj]
    basis = [n + i for i in range(m)]
    assert _fraction_run(tableau, basis, m, n) == OPTIMAL
    if tableau[m][-1] < 0:
        # the reduced cost of artificial i is 1 - y_i
        farkas = tuple(signs[i] * (1 - tableau[m][n + i]) for i in range(m))
        return SimplexResult(INFEASIBLE, farkas=farkas)
    if any(ci != 0 for ci in c):
        # pivot level-0 artificials out on any nonzero original column
        for r in range(m):
            if basis[r] >= n:
                col = next((j for j in range(n) if tableau[r][j] != 0), None)
                if col is not None:
                    _fraction_pivot(tableau, basis, r, col)
        obj = [F(ci) for ci in c] + [F(0)] * (m + 1)
        for r in range(m):
            if basis[r] < n and obj[basis[r]] != 0:
                factor = obj[basis[r]]
                obj = [v - factor * p for v, p in zip(obj, tableau[r])]
        tableau[m] = obj
        if _fraction_run(tableau, basis, m, n) == UNBOUNDED:
            return SimplexResult(UNBOUNDED)
    x = [F(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r][-1]
    return SimplexResult(OPTIMAL, x=tuple(x), objective=sum((ci * xi for ci, xi in zip(c, x)), F(0)))


# ---------------------------------------------------------------------------
# Reference Max-Min pipeline: the Fraction operations and prune that the
# integer rows replaced.  A function is a tuple of groups, each a tuple of
# coefficient tuples (c0, ..., cn) of Fractions, sorted and deduplicated
# inside each group and across groups, as MaxMin stored them.


def _fcap(pieces, cap, what):
    cap = DEFAULT_PIECE_CAP if cap is None else cap
    if pieces > cap:
        raise BudgetExceededError(f"{what} would exceed the piece cap", pieces, cap)


def _fnorm(groups):
    norm = []
    for group in groups:
        ordered = sorted(group)
        norm.append(tuple(a for i, a in enumerate(ordered) if i == 0 or a != ordered[i - 1]))
    norm.sort()
    return tuple(g for i, g in enumerate(norm) if i == 0 or g != norm[i - 1])


def _fpieces(f):
    return sum(len(g) for g in f)


def _fconst(n, c):
    return (((F(c),) + (F(0),) * n,),)


def _fadd(f, g, cap):
    _fcap(_fpieces(f) * _fpieces(g), cap, "pointwise sum")
    return _fnorm(
        [tuple(tuple(x + y for x, y in zip(a, b)) for a in gf for b in gg) for gf in f for gg in g]
    )


def _fscale(r, f):
    if r == 0:
        return _fconst(len(f[0][0]) - 1, 0)
    return _fnorm([tuple(tuple(r * c for c in a) for a in g) for g in f])


def _freflect(f, c, cap):
    f = fraction_prune(f)
    reflected = [tuple((c - a[0],) + tuple(-x for x in a[1:]) for a in g) for g in f]
    reflected.sort(key=lambda factor: (len(factor), factor))
    _fcap(len(reflected[0]), cap, "reflection")
    groups = [(a,) for a in reflected[0]]
    for factor in reflected[1:]:
        _fcap(sum(len(g) + 1 for g in groups) * len(factor), cap, "reflection")
        groups = [g + (a,) for g in groups for a in factor]
        if len(reflected) > 2:
            groups = list(fraction_prune(_fnorm(groups)))
    return _fnorm(groups)


def _fmeet(f, g, cap):
    _fcap(len(g) * _fpieces(f) + len(f) * _fpieces(g), cap, "pointwise min")
    return _fnorm([gf + gg for gf in f for gg in g])


def _ftrunc(f, cap):
    n = len(f[0][0]) - 1
    return fraction_prune(_fmeet(_fnorm(f + _fconst(n, 0)), _fconst(n, 1), cap))


def corner_order(pieces):
    """``below(i, j)``: ``pieces[i] <= pieces[j]`` on the box, read off a
    Fraction table of their values at the 2**n box corners, each column
    rescaled to integers."""
    n = len(pieces[0]) - 1
    _fcap(2**n, None, "box corner table for pruning")
    corners = list(itertools.product((F(0), F(1)), repeat=n))
    exact = [
        tuple(a[0] + sum(c * x for c, x in zip(a[1:], corner)) for corner in corners)
        for a in pieces
    ]
    scale = [math.lcm(*(v.denominator for v in column)) for column in zip(*exact)]
    ivecs = [tuple(v.numerator * (s // v.denominator) for v, s in zip(vec, scale)) for vec in exact]
    cache = {}

    def below(i, j):
        if (i, j) not in cache:
            cache[i, j] = all(x <= y for x, y in zip(ivecs[i], ivecs[j]))
        return cache[i, j]

    return below


def covers(below, h, g):
    """Group ``h`` covers group ``g`` (both index tuples): each piece of h
    is above a piece of g."""
    return all(any(below(a, b) for a in g) for b in h)


def fraction_prune(f):
    """Reference for ``prune``: a Fraction corner table and the same drop
    rule, a group goes when another group covers it."""
    if len(f) == 1 and len(f[0]) == 1:
        return f
    pieces = list(dict.fromkeys(a for g in f for a in g))
    below = corner_order(pieces)
    index = {a: i for i, a in enumerate(pieces)}
    slimmed = set()
    for group in f:
        row = [index[a] for a in group]
        slimmed.add(tuple(a for a in row if not any(b != a and below(b, a) for b in row)))
    if len(slimmed) <= _COVERAGE_LIMIT:
        slimmed = [g for g in slimmed if not any(h != g and covers(below, h, g) for h in slimmed)]
    return _fnorm([tuple(pieces[a] for a in g) for g in slimmed])


def fraction_groups(f):
    """The reference form of a ``MaxMin``."""
    return _fnorm([tuple(a.coeffs for a in g) for g in f.groups])


def fraction_maxmin(n, f):
    """The ``MaxMin`` of a reference form."""
    return MaxMin(n, tuple(tuple(Affine(n, a) for a in g) for g in f))


def _ftsum(f, g, shift, cap):
    # trunc(f + g + shift) as term_pwl's truncated sums build it
    return _ftrunc(_fadd(_fadd(f, g, cap), _fconst(len(f[0][0]) - 1, shift), cap), cap)


def fraction_term_pwl(phi, n, cap=None):
    """Reference for ``term_pwl``: the function of negation normal form, with
    the same steps in the same order on the Fraction pipeline and the same
    piece-cap errors.  The polarities each entry needs are found as the
    formulas ``nnf`` builds would need them."""
    prog = program(phi)
    need = [set() for _ in prog]  # polarities: False as it is, True negated
    need[-1].add(False)
    for k in reversed(range(len(prog))):
        kind, _, i, j, _ = prog[k]
        for p in list(need[k]):
            if kind is Neg:
                need[i].add(not p)
            elif kind is Implies or kind is Ominus:
                need[i].add(p != (kind is Implies))
                need[j].add(p != (kind is Ominus))
            elif kind is Iff:
                need[i] |= {False, True}
                need[j] |= {False, True}
            elif i is not None:
                need[i].add(p)
                if j is not None:
                    need[j].add(p)
    pos, neg = [None] * len(prog), [None] * len(prog)

    def form(p, k):
        return neg[k] if p else pos[k]

    def arrow(p, i, j):
        # i -> j is !i (+) j; negated, i (.) !j
        return _ftsum(form(not p, i), form(p, j), -1 if p else 0, cap)

    for k, (kind, r, i, j, _) in enumerate(prog):
        if kind is Neg:
            pos[k], neg[k] = neg[i], pos[i]
            continue
        for p in (False, True):
            if p not in need[k]:
                continue
            if kind is Var:
                if r > n:
                    raise ValueError(f"arity mismatch: v{r} in dimension {n}")
                row = tuple(F(h == r) for h in range(n + 1))
                f = ((tuple(F(h == 0) - c for h, c in enumerate(row)) if p else row,),)
            elif kind is RConst:
                f = _fconst(n, 1 - r if p else r)
            elif kind is Oplus or kind is Odot:
                shift = -1 if (kind is Odot) != p else 0
                f = _ftsum(form(p, i), form(p, j), shift, cap)
            elif kind is Implies:
                f = arrow(p, i, j)
            elif kind is Ominus:  # i (-) j is !(i -> j)
                f = arrow(not p, i, j)
            elif kind is Iff:
                both = (arrow(p, i, j), arrow(p, j, i))
                f = fraction_prune(_fnorm(both[0] + both[1]) if p else _fmeet(*both, cap))
            elif kind is Join or kind is Meet:
                a, b = form(p, i), form(p, j)
                f = fraction_prune(_fnorm(a + b) if (kind is Join) != p else _fmeet(a, b, cap))
            elif (kind is Nabla) != p:  # 1 - r + r*a
                a = form(p, i)
                if r == 0:
                    f = _fconst(n, 1)
                elif r == 1:
                    f = a
                else:
                    f = fraction_prune(_fadd(_fconst(n, 1 - r), _fscale(r, a), cap))
            else:  # r*a
                a = form(p, i)
                f = a if r == 1 else _fscale(r, a)
            if p:
                neg[k] = f
            else:
                pos[k] = f
    return fraction_maxmin(n, pos[-1])


def fraction_linear_combination(fs, cs, cap=None):
    """Reference for ``linear_combination`` on the Fraction pipeline."""
    n = fs[0].n
    acc = _fconst(n, 0)
    for c, f in zip(cs, fs):
        if c == 0:
            continue
        g = fraction_groups(f)
        term = _fscale(c, g) if c > 0 else _freflect(_fscale(-c, g), F(0), cap)
        acc = fraction_prune(_fadd(acc, term, cap))
    return fraction_maxmin(n, _ftrunc(acc, cap))
