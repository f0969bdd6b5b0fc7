"""Exact piecewise-linear functions on [0, 1]^n in Max-Min form.

A function is a max over groups of mins of affine pieces, stored as one
positive denominator ``den`` and integer rows, the row ``(c0, ..., cn)``
being the piece ``(c0 + c1*x1 + ... + cn*xn) / den``: gcd-reduced, each
group sorted and deduplicated, and so are the groups.  Over one denominator
integer order is rational order, so equal functions have equal rows.  Every
operation the logic needs runs on these rows: pointwise sum, nonnegative
scaling, the reflection ``c - f``, lattice join/meet and the unit truncation
``(f v 0) ^ 1``.  The cost is term blowup, contained by :func:`prune` after
each binary operation and a hard cap on piece counts.  :class:`Affine` pieces
are built only for ``MaxMin.groups``, :func:`components` and JSON.

:func:`term_pwl` extracts the term function of a formula of any depth, or
of its negation, in negation normal form read from the formula's program
(:func:`rieszmv.formula.program`): only variables are reflected, and each
truncated sum is canonicalized and pruned once.  It agrees with
:func:`rieszmv.formula.evaluate` at every rational point, exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from operator import add, mul

from .errors import BudgetExceededError
from .formula import Iff, Implies, Join, Meet, Nabla, Neg, Odot, Ominus, Oplus, RConst, Var, program
from .kernel import Record

DEFAULT_PIECE_CAP = 100_000
_COVERAGE_LIMIT = 1200


def _exact(r) -> Fraction:
    if not isinstance(r, (int, Fraction)):
        raise TypeError(f"{r!r} is not exact; pass a Fraction or int")
    return r if isinstance(r, Fraction) else Fraction(r)


def _json_value(data):
    # the one JSON decoder, numbers kept exact; a decoded string is not text again
    return json.loads(data, parse_float=Fraction) if isinstance(data, str) else data


def _json_number(x):
    # a JSON number read with parse_float=Fraction is exact as it stands (no
    # text round trip); a string is rational text; bool and the rest are not
    if type(x) is int or type(x) is Fraction:
        return x
    if type(x) is str:
        return Fraction(x)
    raise TypeError(f"{x!r} is not a rational number or string")


def _json_array(x):
    # a string or an object where an array belongs would be read one
    # character or key at a time
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"expected an array, got {type(x).__name__}")
    return x


class Affine(Record):
    """c0 + c1*x1 + ... + cn*xn with exact rational coefficients."""

    __match_args__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        if type(n) is not int or n < 0:  # bool is an int subclass
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        coeffs = tuple(map(_exact, coeffs))
        if len(coeffs) != n + 1:
            raise ValueError(f"expected {n + 1} coefficients, got {len(coeffs)}")
        d = self.__dict__
        d["n"] = n
        d["coeffs"] = coeffs


class MaxMin(Record):
    """Max over groups of min over each group's affine members.

    ``MaxMin(n, groups)`` takes groups of :class:`Affine` pieces and puts
    them over one denominator in canonical form (see the module docstring),
    so equal representations compare and hash equal and every downstream
    computation is order-independent.
    """

    __match_args__ = ("n", "den", "rows")

    def __init__(self, n, groups):
        groups = tuple(groups)
        if not groups:
            raise ValueError("MaxMin needs at least one group")
        for group in groups:
            if not group:
                raise ValueError("empty group in MaxMin")
            for a in group:
                if a.n != n:
                    raise ValueError(f"dimension mismatch: affine of dim {a.n} in MaxMin of dim {n}")
        den = math.lcm(*(c.denominator for group in groups for a in group for c in a.coeffs))
        _fill(self, n, den, [[tuple(int(c * den) for c in a.coeffs) for a in g] for g in groups])

    @property
    def groups(self):
        """The groups as tuples of :class:`Affine` pieces, in canonical order."""
        return tuple(tuple(_affine(self.n, self.den, row) for row in group) for group in self.rows)

    @property
    def piece_count(self):
        return sum(map(len, self.rows))


def _fill(f, n, den, groups):
    if den > 1:
        g = math.gcd(den, *itertools.chain.from_iterable(itertools.chain.from_iterable(groups)))
        if g > 1:
            den //= g
            groups = [[tuple(c // g for c in row) for row in group] for group in groups]
    rows = tuple(sorted({tuple(sorted(set(group))) for group in groups}))
    f.__dict__.update(n=n, den=den, rows=rows)
    return f


def _maxmin(n, den, groups):
    """The canonical :class:`MaxMin` of integer row ``groups`` over ``den`` > 0."""
    return _fill(object.__new__(MaxMin), n, den, groups)


def _affine(n, den, row):
    return Affine(n, tuple(Fraction(c, den) for c in row))


def constant(n: int, c) -> MaxMin:
    """The constant function c on [0, 1]^n."""
    c = _exact(c)
    return _maxmin(n, c.denominator, [[(c.numerator,) + (0,) * n]])


def projection(n: int, i: int) -> MaxMin:
    """The i-th coordinate projection (1-based)."""
    if not 1 <= i <= n:
        raise ValueError(f"projection index {i} out of range for dimension {n}")
    return _maxmin(n, 1, [[tuple(int(j == i) for j in range(n + 1))]])


def affine_eval(a: Affine, x) -> Fraction:
    """Value of the affine piece at ``x``, as :func:`maxmin_eval` reads it."""
    return maxmin_eval(MaxMin(a.n, ((a,),)), x)


def maxmin_eval(f: MaxMin, x) -> Fraction:
    """Exact value of ``f`` at ``x``: max over groups of min within group.

    The point is put over the lcm ``q`` of its coordinate denominators, so
    the max-min runs on the integer rows and only the result becomes a
    :class:`Fraction`.  Coordinates must be ``int`` or ``Fraction``; extra
    ones are ignored.
    """
    n = f.n
    if len(x) < n:
        raise ValueError(f"point of length {len(x)} for MaxMin of dimension {n}")
    coords = x[:n]
    for c in coords:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coordinate {c!r} is not exact; pass Fraction or int coordinates")
    q = math.lcm(*(c.denominator for c in coords))
    point = (q,) + tuple(c.numerator * (q // c.denominator) for c in coords)
    return Fraction(_maxmin_at(f.rows, point), f.den * q)


def _maxmin_at(rows, w):
    # max-min of integer row groups at the homogeneous point w: the value over den * w0
    return max(min([sum(map(mul, row, w)) for row in group]) for group in rows)


def _pieces(f: MaxMin):
    # the distinct integer rows of f
    return set(itertools.chain.from_iterable(f.rows))


def components(f: MaxMin):
    """All affine pieces of ``f``, deduplicated, in canonical order."""
    return tuple(_affine(f.n, f.den, row) for row in sorted(_pieces(f)))


def _check_cap(pieces, what):
    if pieces > DEFAULT_PIECE_CAP:
        raise BudgetExceededError(f"{what} would exceed the piece cap", pieces, DEFAULT_PIECE_CAP)


def _rows_over(f: MaxMin, den):
    """The rows of ``f`` over ``den``, a multiple of ``f.den``."""
    k = den // f.den
    if k == 1:
        return f.rows
    return tuple(tuple(tuple(k * c for c in row) for row in group) for group in f.rows)


def _common(f: MaxMin, g: MaxMin):
    """``(den, rows of f, rows of g)`` over the lcm of both denominators."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    den = math.lcm(f.den, g.den)
    return den, _rows_over(f, den), _rows_over(g, den)


def mm_add(f: MaxMin, g: MaxMin) -> MaxMin:
    """Pointwise sum.

    Sums of maxima distribute over pairs of groups, and sums of minima over
    independent index sets distribute over pairs of members, so the result
    has one group per group pair, holding all pairwise piece sums.
    """
    den, frows, grows = _common(f, g)
    _check_cap(f.piece_count * g.piece_count, "pointwise sum")
    groups = [[tuple(map(add, a, b)) for a in gf for b in gg] for gf in frows for gg in grows]
    return _maxmin(f.n, den, groups)


def mm_scale(r, f: MaxMin) -> MaxMin:
    """Pointwise product by a nonnegative rational; preserves max/min shape."""
    r = _exact(r)
    if r < 0:
        raise ValueError("mm_scale needs a nonnegative scalar")
    if r == 0:
        return constant(f.n, 0)
    p = r.numerator
    groups = [[tuple(p * c for c in row) for row in group] for group in f.rows]
    return _maxmin(f.n, f.den * r.denominator, groups)


def _reflect(f: MaxMin, c: int) -> MaxMin:
    """Max-Min form of the reflection ``c - f``.

    ``c - max min`` is a min of maxes; redistributing the min over the
    maxes enumerates one group per choice function picking a piece from
    every original group, exponential in the group count.  The product is
    built one factor at a time with pruning in between, which is sound
    because the value of the extended product depends only on the pointwise
    values of the partial one.  The cap aborts a single step loudly.
    """
    f = prune(f)
    n, den = f.n, f.den
    top = c * den
    reflected = [
        tuple((top - row[0],) + tuple(-x for x in row[1:]) for row in group) for group in f.rows
    ]
    reflected.sort(key=lambda factor: (len(factor), factor))
    _check_cap(len(reflected[0]), "reflection")
    groups = [(piece,) for piece in reflected[0]]
    for factor in reflected[1:]:
        pieces = sum(len(g) + 1 for g in groups) * len(factor)
        _check_cap(pieces, "reflection")
        groups = [g + (piece,) for g in groups for piece in factor]
        if len(reflected) > 2:
            groups = _rows_over(prune(_maxmin(n, den, groups)), den)
    return _maxmin(n, den, groups)


def mm_neg_affine(f: MaxMin) -> MaxMin:
    """Pointwise 1 - f."""
    return _reflect(f, 1)


def mm_negate(f: MaxMin) -> MaxMin:
    """Pointwise -f."""
    return _reflect(f, 0)


def mm_join(f: MaxMin, g: MaxMin) -> MaxMin:
    """Pointwise max: the union of the group lists."""
    den, frows, grows = _common(f, g)
    return _maxmin(f.n, den, frows + grows)


def mm_meet(f: MaxMin, g: MaxMin) -> MaxMin:
    """Pointwise min: min distributes over the maxes, giving merged groups."""
    den, frows, grows = _common(f, g)
    pieces = len(g.rows) * f.piece_count + len(f.rows) * g.piece_count
    _check_cap(pieces, "pointwise min")
    return _maxmin(f.n, den, [gf + gg for gf in frows for gg in grows])


def trunc(f: MaxMin) -> MaxMin:
    """Unit truncation ``(f v 0) ^ 1``, clamping values into [0, 1]."""
    return _trunc_sum(f, constant(f.n, 0))


def _trunc_sum(f: MaxMin, g: MaxMin, shift=0) -> MaxMin:
    """``trunc(f + g + shift)``, ``shift`` an integer: :func:`mm_add`'s sums,
    a group {0}, 1 in every group, canonical and pruned once; the cap checks
    are those of ``trunc(mm_add(f, g))``."""
    den, frows, grows = _common(f, g)
    _check_cap(f.piece_count * g.piece_count, "pointwise sum")
    if shift:
        shift *= den
        grows = [[(row[0] + shift,) + row[1:] for row in group] for group in grows]
    zero = (0,) * (f.n + 1)
    groups = {frozenset([tuple(map(add, a, b)) for a in gf for b in gg]) for gf in frows for gg in grows}
    groups.add(frozenset((zero,)))
    _check_cap(sum(map(len, groups)) + len(groups), "pointwise min")
    one = {(den,) + zero[1:]}
    return prune(_maxmin(f.n, den, [group | one for group in groups]))


def prune(f: MaxMin) -> MaxMin:
    """Drop pieces and groups that can never decide the max-min value.

    Inside a group (a min), a piece with another member below it on the
    whole box is redundant; under the max, a group is redundant when
    another group covers it: each of that group's pieces lies above one of
    its own.  ``a <= b`` on [0, 1]^n is decided exactly in O(n): ``b - a``
    is least at the corner with ``x_i = 1`` exactly where ``b_i < a_i``.
    Slimmed groups are antichains, so coverage is a partial order, and the
    groups kept, those no other group covers, do not depend on the order of
    the groups.  Values are preserved at every point of the box.
    """
    rows = f.rows
    if len(rows) == 1 and len(rows[0]) == 1:
        return f

    # Intern distinct pieces to small integers, in order of first appearance.
    # above[k] is the bit set of the other pieces b >= a = pieces[k] on the
    # box: b0 - a0 + sum(min(0, bi - ai)) >= 0, that is b0 + sum(min(ai, bi))
    # >= a(1, ..., 1); b >= a at the corners 0 and (1, ..., 1) is tested first.
    pieces = list(dict.fromkeys(itertools.chain.from_iterable(rows)))
    index = {row: k for k, row in enumerate(pieces)}
    ends = [(b[0], sum(b), b[1:]) for b in pieces]
    above = []
    for k, (a0, top, slope) in enumerate(ends):
        bits = 0
        for j, (b0, btop, bs) in enumerate(ends):
            if b0 >= a0 and btop >= top and b0 + sum(map(min, slope, bs)) >= top:
                bits |= 1 << j
        above.append(bits ^ 1 << k)

    # A piece leaves its group when another member lies below it; each kept
    # group maps to the pieces above one of its members (its own included).
    slimmed = {}
    for group in rows:
        over = own = 0
        for k in map(index.__getitem__, group):
            over |= above[k]
            own |= 1 << k
        slimmed[own & ~over] = own | over

    if len(slimmed) <= _COVERAGE_LIMIT:
        # group h covers group g when each piece of h is above a piece of g
        slimmed = [g for g, up in slimmed.items() if not any(h != g and h & ~up == 0 for h in slimmed)]
    # Past the limit, quadratic group comparison would thrash: keep the cheap
    # piece-level result and let the piece cap catch runaway growth.
    return _maxmin(f.n, f.den, [[pieces[k] for k in range(g.bit_length()) if g >> k & 1] for g in slimmed])


# Truncated sums: each operand's polarity (1 negated) and the shift, as they
# are; negated, all three flip (!(a (+) b) = !a (.) !b, !(a -> b) = a (.) !b).
_SUMS = {Oplus: (0, 0, 0), Odot: (0, 0, -1), Implies: (1, 0, 0), Ominus: (0, 1, -1)}
# each polarity's lattice operation; a <-> b is (a -> b) /\ (b -> a)
_LATTICE = {Join: (mm_join, mm_meet), Meet: (mm_meet, mm_join), Iff: (mm_meet, mm_join)}
_POLARITIES = ((), (0,), (1,), (0, 1))  # those each value of the need bits asks for


def term_pwl(phi, n: int, negate=False) -> MaxMin:
    """The term function of ``phi``, or of ``!phi`` when ``negate``, on
    [0, 1]^n as a Max-Min object: row for row that of its negation normal
    form (the tests' ``nnf`` oracle), read straight from the program.  A
    pass from the root marks the polarities each entry is needed in; one
    pass builds them.  Negation swaps polarities, so only variables are reflected; the
    scalars trade places with their duals; (+), (.), ->, (-) and each side
    of <-> are truncated sums.  Agrees with formula evaluation at every point.
    """
    prog = program(phi)
    need = [0] * len(prog)  # bit 1: the entry itself, bit 2: its negation
    need[-1] = 2 if negate else 1
    for k in reversed(range(len(prog))):
        kind, _, i, j, _ = prog[k]
        m = 3 if kind is Iff else need[k]
        flip = m >> 1 | (m & 1) << 1  # the polarities swapped
        if i is not None:
            need[i] |= flip if kind is Neg or kind is Implies else m
        if j is not None:
            need[j] |= flip if kind is Ominus else m
    out = ([None] * len(prog), [None] * len(prog))

    def tsum(kind, p, i, j):
        qi, qj, s = _SUMS[kind]
        return _trunc_sum(out[qi ^ p][i], out[qj ^ p][j], ~s if p else s)

    for k, (kind, r, i, j, _) in enumerate(prog):
        if kind is Neg:
            out[0][k], out[1][k] = out[1][i], out[0][i]
            continue
        for p in _POLARITIES[need[k]]:
            if kind is Var:
                if r > n:
                    raise ValueError(f"arity mismatch: v{r} in dimension {n}")
                row = [0] * (n + 1)
                row[0], row[r] = p, 1 - 2 * p  # x_r, or 1 - x_r
                f = _maxmin(n, 1, [[tuple(row)]])
            elif kind is RConst:
                f = constant(n, 1 - r if p else r)
            elif kind in _SUMS:
                f = tsum(kind, p, i, j)
            elif kind is Iff:
                f = prune(_LATTICE[Iff][p](tsum(Implies, p, i, j), tsum(Implies, p, j, i)))
            elif kind in _LATTICE:
                f = prune(_LATTICE[kind][p](out[p][i], out[p][j]))
            elif (kind is Nabla) == (p == 0):  # N[r], or D[r] negated
                # 1 - r + r*f; r = 0 and r = 1 collapse to a constant / identity
                if r == 0:
                    f = constant(n, 1)
                elif r == 1:
                    f = out[p][i]
                else:  # a shift and a positive scaling of a pruned function prune nothing
                    f = mm_add(constant(n, 1 - r), mm_scale(r, out[p][i]))
            else:  # r*f
                f = out[p][i] if r == 1 else mm_scale(r, out[p][i])
            out[p][k] = f
    return out[1 if negate else 0][-1]


def linear_combination(fs, cs) -> MaxMin:
    """Truncation of ``sum(c_i * f_i)`` in Max-Min form.

    Negative weights go through the exact reflection, so the contract is
    pointwise equality with ``((sum c_i f_i(x)) v 0) ^ 1``.
    """
    fs = list(fs)
    cs = [_exact(c) for c in cs]
    if len(fs) != len(cs):
        raise ValueError(f"{len(fs)} functions but {len(cs)} coefficients")
    if not fs:
        raise ValueError("empty combination")
    n = fs[0].n
    for f in fs:
        if f.n != n:
            raise ValueError(f"dimension mismatch: {f.n} vs {n}")
    acc = constant(n, 0)
    for c, f in zip(cs, fs):
        if c == 0:
            continue
        term = mm_scale(c, f) if c > 0 else mm_negate(mm_scale(-c, f))
        acc = prune(mm_add(acc, term))
    return trunc(acc)


# ---------------------------------------------------------------------------
# JSON interchange: {"n": int, "groups": [[[c0, ..., cn], ...], ...]}, rationals
# as strings in lowest terms; each reader takes JSON text or its decoded value.


def maxmin_to_json(f: MaxMin) -> dict:
    return {
        "n": f.n,
        "groups": [[[str(Fraction(c, f.den)) for c in row] for row in group] for group in f.rows],
    }


def maxmin_from_json(data) -> MaxMin:
    try:
        data = _json_value(data)
        n = data["n"]
        groups = tuple(
            tuple(Affine(n, tuple(map(_json_number, _json_array(piece)))) for piece in _json_array(group))
            for group in _json_array(data["groups"])
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed piecewise-linear JSON: {exc}") from exc
    return MaxMin(n, groups)
