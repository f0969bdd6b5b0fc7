"""Exact piecewise-linear functions on [0, 1]^n in Max-Min form.

A function is stored as a max over groups of mins of affine pieces.  This
representation is closed under every operation the logic needs: pointwise
sum, nonnegative scaling, the reflection ``c - f``, lattice join/meet and
the unit truncation ``(f v 0) ^ 1``.  The cost is term blowup, contained by
:func:`prune` after each binary operation and a hard cap on piece counts.

Term functions of formulas of any depth are extracted by :func:`term_pwl`,
one loop over :func:`rieszmv.formula.program`; it agrees with
:func:`rieszmv.formula.evaluate` at every rational point, exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import BudgetExceededError
from .formula import Delta, Iff, Implies, Join, Meet, Nabla, Neg, Odot, Oplus, RConst, Var, program
from .kernel import ONE, ZERO

DEFAULT_PIECE_CAP = 100_000
_COVERAGE_LIMIT = 1200


@dataclass(frozen=True)
class Affine:
    """c0 + c1*x1 + ... + cn*xn with exact rational coefficients."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class MaxMin:
    """Max over groups of min over each group's affine members.

    Construction normalizes: pieces are deduplicated and sorted inside each
    group, and groups are deduplicated and sorted, so equal representations
    compare equal and every downstream computation is order-independent.
    """

    n: int
    groups: tuple
    # (D, integer rows of D * coeffs per group), built by the first
    # maxmin_eval call; derived from ``groups``, so not part of equality
    _rows: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.groups:
            raise ValueError("MaxMin needs at least one group")
        norm = []
        for group in self.groups:
            if not group:
                raise ValueError("empty group in MaxMin")
            for a in group:
                if a.n != self.n:
                    raise ValueError(f"dimension mismatch: affine of dim {a.n} in MaxMin of dim {self.n}")
            ordered = sorted(group, key=lambda a: a.coeffs)
            # adjacent dedup avoids hashing rational tuples
            norm.append(
                tuple(
                    a
                    for i, a in enumerate(ordered)
                    if i == 0 or a.coeffs != ordered[i - 1].coeffs
                )
            )
        norm.sort(key=lambda g: tuple(a.coeffs for a in g))
        deduped = tuple(
            g
            for i, g in enumerate(norm)
            if i == 0
            or tuple(a.coeffs for a in g) != tuple(a.coeffs for a in norm[i - 1])
        )
        object.__setattr__(self, "groups", deduped)

    @property
    def piece_count(self):
        return sum(len(g) for g in self.groups)


def constant(n: int, c) -> MaxMin:
    """The constant function c on [0, 1]^n."""
    return MaxMin(n, ((Affine(n, (Fraction(c),) + (ZERO,) * n),),))


def projection(n: int, i: int) -> MaxMin:
    """The i-th coordinate projection (1-based)."""
    if not 1 <= i <= n:
        raise ValueError(f"projection index {i} out of range for dimension {n}")
    coeffs = [ZERO] * (n + 1)
    coeffs[i] = ONE
    return MaxMin(n, ((Affine(n, tuple(coeffs)),),))


def affine_eval(a: Affine, x) -> Fraction:
    """Value of the affine piece at ``x`` (extra coordinates ignored)."""
    if len(x) < a.n:
        raise ValueError(f"point of length {len(x)} for affine of dimension {a.n}")
    out = a.coeffs[0]
    for c, xi in zip(a.coeffs[1:], x):
        if c:
            out += c * xi
    return out


def maxmin_eval(f: MaxMin, x) -> Fraction:
    """Exact value of ``f`` at ``x``: max over groups of min within group.

    The pieces are put once over a common denominator ``D`` and the point
    over the lcm ``q`` of its coordinate denominators, so the max-min runs
    on integers and only the result becomes a :class:`Fraction`.
    Coordinates must be ``int`` or ``Fraction``; extra ones are ignored.
    """
    n = f.n
    if len(x) < n:
        raise ValueError(f"point of length {len(x)} for MaxMin of dimension {n}")
    if f._rows is None:
        den = math.lcm(*(c.denominator for group in f.groups for a in group for c in a.coeffs))
        rows = tuple(
            tuple(tuple(c.numerator * (den // c.denominator) for c in a.coeffs) for a in group)
            for group in f.groups
        )
        object.__setattr__(f, "_rows", (den, rows))
    den, rows = f._rows
    coords = x[:n]
    for c in coords:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coordinate {c!r} is not exact; pass Fraction or int coordinates")
    q = math.lcm(*(c.denominator for c in coords))
    point = (q,) + tuple(c.numerator * (q // c.denominator) for c in coords)
    best = max(min([sum(map(mul, row, point)) for row in group]) for group in rows)
    return Fraction(best, den * q)


def components(f: MaxMin):
    """All affine pieces of ``f``, deduplicated, in canonical order."""
    return tuple(sorted(set(itertools.chain.from_iterable(f.groups)), key=lambda a: a.coeffs))


def _check_cap(pieces, cap, what):
    cap = DEFAULT_PIECE_CAP if cap is None else cap
    if pieces > cap:
        raise BudgetExceededError(f"{what} would exceed the piece cap", pieces, cap)


def _affine_add(a: Affine, b: Affine) -> Affine:
    return Affine(a.n, tuple(ca + cb for ca, cb in zip(a.coeffs, b.coeffs)))


def mm_add(f: MaxMin, g: MaxMin, cap=None) -> MaxMin:
    """Pointwise sum.

    Sums of maxima distribute over pairs of groups, and sums of minima over
    independent index sets distribute over pairs of members, so the result
    has one group per group pair, holding all pairwise piece sums.
    """
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    _check_cap(f.piece_count * g.piece_count, cap, "pointwise sum")
    groups = []
    for gf in f.groups:
        for gg in g.groups:
            groups.append(tuple(_affine_add(a, b) for a in gf for b in gg))
    return MaxMin(f.n, tuple(groups))


def mm_scale(r, f: MaxMin) -> MaxMin:
    """Pointwise product by a nonnegative rational; preserves max/min shape."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("mm_scale needs a nonnegative scalar")
    if r == 0:
        return constant(f.n, 0)
    return MaxMin(
        f.n,
        tuple(tuple(Affine(f.n, tuple(r * c for c in a.coeffs)) for a in group) for group in f.groups),
    )


def _reflect(f: MaxMin, c, cap=None) -> MaxMin:
    """Max-Min form of the reflection ``c - f``.

    ``c - max min`` is a min of maxes; redistributing the min over the
    maxes enumerates one group per choice function picking a piece from
    every original group, exponential in the group count.  The product is
    built one factor at a time with pruning in between, which is sound
    because the value of the extended product depends only on the pointwise
    values of the partial one.  The cap aborts a single step loudly.
    """
    f = prune(f)
    reflected = [
        tuple(Affine(f.n, (c - a.coeffs[0],) + tuple(-ci for ci in a.coeffs[1:])) for a in group)
        for group in f.groups
    ]
    reflected.sort(key=lambda factor: (len(factor), tuple(a.coeffs for a in factor)))
    _check_cap(len(reflected[0]), cap, "reflection")
    groups = [(piece,) for piece in reflected[0]]
    for factor in reflected[1:]:
        pieces = sum(len(g) + 1 for g in groups) * len(factor)
        _check_cap(pieces, cap, "reflection")
        groups = [g + (piece,) for g in groups for piece in factor]
        if len(reflected) > 2:
            groups = list(prune(MaxMin(f.n, tuple(groups))).groups)
    return MaxMin(f.n, tuple(groups))


def mm_neg_affine(f: MaxMin, cap=None) -> MaxMin:
    """Pointwise 1 - f."""
    return _reflect(f, ONE, cap)


def mm_negate(f: MaxMin, cap=None) -> MaxMin:
    """Pointwise -f."""
    return _reflect(f, ZERO, cap)


def mm_join(f: MaxMin, g: MaxMin) -> MaxMin:
    """Pointwise max: the union of the group lists."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    return MaxMin(f.n, f.groups + g.groups)


def mm_meet(f: MaxMin, g: MaxMin, cap=None) -> MaxMin:
    """Pointwise min: min distributes over the maxes, giving merged groups."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    pieces = len(g.groups) * f.piece_count + len(f.groups) * g.piece_count
    _check_cap(pieces, cap, "pointwise min")
    groups = [gf + gg for gf in f.groups for gg in g.groups]
    return MaxMin(f.n, tuple(groups))


def trunc(f: MaxMin, cap=None) -> MaxMin:
    """Unit truncation ``(f v 0) ^ 1``, clamping values into [0, 1]."""
    clamped = mm_meet(mm_join(f, constant(f.n, 0)), constant(f.n, 1), cap)
    return prune(clamped)


@lru_cache(maxsize=None)
def _corners(n):
    return tuple(itertools.product((ZERO, ONE), repeat=n))


def _le(u, v):
    for a, b in zip(u, v):
        if a > b:
            return False
    return True


def prune(f: MaxMin) -> MaxMin:
    """Drop pieces and groups that can never decide the max-min value.

    Inside a group (a min), a piece dominated from below by another member
    is redundant; a whole group whose min is dominated from above by some
    other group's min is redundant under the max.  Affine comparisons are
    decided exactly at the box corners (the difference of two pieces is
    affine, so its sign at the corners extends to their convex hull).
    Values are preserved at every point of the box.  More corners than the
    default piece cap is a :class:`BudgetExceededError`.
    """
    if len(f.groups) == 1 and len(f.groups[0]) == 1:
        return f
    _check_cap(2**f.n, None, "box corner table for pruning")
    corners = _corners(f.n)
    ncol = len(corners)

    # Intern distinct pieces to small integers, with one exact corner-value
    # vector each; every corner column is then rescaled to integers so all
    # later comparisons are integer-only.  Pieces are first keyed by object
    # identity (cheap), then merged by their integer vectors, which
    # determine an affine function completely.
    by_id = {}
    for group in f.groups:
        for a in group:
            by_id.setdefault(id(a), a)
    distinct = list(by_id.values())
    exact = [tuple(affine_eval(a, c) for c in corners) for a in distinct]
    scale = [1] * ncol
    for vec in exact:
        for col in range(ncol):
            scale[col] = math.lcm(scale[col], vec[col].denominator)
    raw_ivecs = [
        tuple(v.numerator * (scale[col] // v.denominator) for col, v in enumerate(vec))
        for vec in exact
    ]
    canonical = {}
    pieces = []
    ivecs = []
    id_to_index = {}
    for a, vec in zip(distinct, raw_ivecs):
        i = canonical.get(vec)
        if i is None:
            i = len(pieces)
            canonical[vec] = i
            pieces.append(a)
            ivecs.append(vec)
        id_to_index[id(a)] = i
    grouped = [[id_to_index[id(a)] for a in group] for group in f.groups]

    dom_cache = {}

    def dominated(a, b):
        # piece a <= piece b everywhere on the box
        pair = a * len(pieces) + b
        hit = dom_cache.get(pair)
        if hit is None:
            hit = _le(ivecs[a], ivecs[b])
            dom_cache[pair] = hit
        return hit

    slimmed = set()
    for row in grouped:
        kept = tuple(
            sorted(a for a in row if not any(b != a and dominated(b, a) for b in row))
        )
        slimmed.add(kept)

    if len(slimmed) > _COVERAGE_LIMIT:
        # Quadratic group comparison would thrash here; keep the cheap
        # piece-level result and let the piece cap catch runaway growth.
        return MaxMin(f.n, tuple(tuple(pieces[a] for a in g) for g in slimmed))

    # A group may only be dropped in favor of one earlier in this order:
    # corner minima descending, then structure.  Coverage implies order, so
    # drop chains always end at a surviving group and no cluster of groups
    # with one shared minimum can eliminate itself.
    def group_key(g):
        min_vec = tuple(map(min, zip(*(ivecs[a] for a in g))))
        return tuple(-m for m in min_vec), g

    slimmed = sorted(slimmed, key=group_key)
    min_vecs = [tuple(map(min, zip(*(ivecs[a] for a in g)))) for g in slimmed]

    def covers(j, i):
        # min of group i <= min of group j pointwise; the corner minima give
        # a cheap necessary filter before the piecewise witness search.
        if not _le(min_vecs[i], min_vecs[j]):
            return False
        lower = slimmed[i]
        return all(any(dominated(a, b) for a in lower) for b in slimmed[j])

    final = []
    for i, group in enumerate(slimmed):
        if not any(covers(j, i) for j in range(i)):
            final.append(tuple(pieces[a] for a in group))
    return MaxMin(f.n, tuple(final))


def term_pwl(phi, n: int, cap=None) -> MaxMin:
    """The term function of ``phi`` on [0, 1]^n as a Max-Min object.

    One pass over :func:`rieszmv.formula.program`: variables become
    projections, negation reflects, implication is the truncation of
    ``1 - f + g``, the scalar connectives are affine reshapings, and the
    derived connectives follow their defining expansions.  Agrees with
    formula evaluation at every point.
    """
    out = []
    append = out.append
    for kind, r, i, j, _ in program(phi):
        if kind is Var:
            if r > n:
                raise ValueError(f"arity mismatch: v{r} in dimension {n}")
            f = projection(n, r)
        elif kind is RConst:
            f = constant(n, r)
        elif kind is Neg:
            f = prune(mm_neg_affine(out[i], cap))
        elif kind is Implies:
            f = trunc(mm_add(mm_neg_affine(out[i], cap), out[j], cap), cap)
        elif kind is Nabla:
            # 1 - r + r*f; r = 0 and r = 1 collapse to a constant / identity
            if r == 0:
                f = constant(n, 1)
            elif r == ONE:
                f = out[i]
            else:
                f = prune(mm_add(constant(n, ONE - r), mm_scale(r, out[i]), cap))
        elif kind is Delta:
            f = out[i] if r == ONE else mm_scale(r, out[i])
        elif kind is Oplus:
            f = trunc(mm_add(out[i], out[j], cap), cap)
        elif kind is Odot:
            f = trunc(mm_add(mm_add(out[i], out[j], cap), constant(n, -1), cap), cap)
        elif kind is Join:
            f = prune(mm_join(out[i], out[j]))
        elif kind is Meet:
            f = prune(mm_meet(out[i], out[j], cap))
        elif kind is Iff:
            fwd = trunc(mm_add(mm_neg_affine(out[i], cap), out[j], cap), cap)
            bwd = trunc(mm_add(mm_neg_affine(out[j], cap), out[i], cap), cap)
            f = prune(mm_meet(fwd, bwd, cap))
        else:  # Ominus
            f = trunc(mm_add(out[i], mm_negate(out[j], cap), cap), cap)
        append(f)
    return out[-1]


def linear_combination(fs, cs, cap=None) -> MaxMin:
    """Truncation of ``sum(c_i * f_i)`` in Max-Min form.

    Negative weights go through the exact reflection, so the contract is
    pointwise equality with ``((sum c_i f_i(x)) v 0) ^ 1``.
    """
    fs = list(fs)
    cs = [Fraction(c) for c in cs]
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
        term = mm_scale(c, f) if c > 0 else mm_negate(mm_scale(-c, f), cap)
        acc = prune(mm_add(acc, term, cap))
    return trunc(acc, cap)


# ---------------------------------------------------------------------------
# JSON interchange: {"n": int, "groups": [[[c0, ..., cn], ...], ...]} with
# rationals as strings in lowest terms.


def maxmin_to_json(f: MaxMin) -> dict:
    return {
        "n": f.n,
        "groups": [[[str(c) for c in a.coeffs] for a in group] for group in f.groups],
    }


def maxmin_from_json(data: dict) -> MaxMin:
    try:
        n = int(data["n"])
        groups = tuple(
            tuple(Affine(n, tuple(Fraction(str(c)) for c in piece)) for piece in group)
            for group in data["groups"]
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed piecewise-linear JSON: {exc}") from exc
    return MaxMin(n, groups)
