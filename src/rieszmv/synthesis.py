"""Formula synthesis from piecewise-linear data.

Given an affine f, :func:`synth_trunc_affine` builds a formula whose term
function is the unit truncation of f; :func:`synth_pwl` lifts this to any
Max-Min function with range in [0, 1] by synthesizing each affine piece and
joining the groups back with the lattice connectives.

The affine construction uses the scalars only to scale.  Write f = P - N
with P and N having nonnegative coefficients, constant included, and let
m = ceil(max(sum of P's coefficients, largest coefficient of N)).  Then P/m
and every coefficient of N/m lie in [0, 1], and

    h = (C[p0/m] (+) D[p1/m] v1 (+) ...) (-) (C[n0/m] (+) D[n1/m] v1 (+) ...)

is max(0, f)/m: the P-chain never truncates, and where the N-chain does,
f < 0 and the difference is 0 either way.  So trunc(f) is h (+) ... (+) h,
m copies of one shared node, and its printed size is linear in m.  No
formula does better in general: on the box a term's slope in x_i is at most
the number of occurrences of x_i in its printed tree, so trunc(f) has at
least |c_i| of them wherever it takes slope c_i.
"""

from __future__ import annotations

import math
from functools import reduce

from .formula import Delta, Formula, Join, Meet, Ominus, Oplus, RConst, Var
from .geometry import _check_unit_range
# unused here, but perfbench/tracing.py wraps maxmin_eval at this attribute
from .pwl import Affine, MaxMin, _check_cap, maxmin_eval  # noqa: F401


def _chain(coeffs, m) -> Formula | None:
    # C[c0/m] (+) D[c1/m] v1 (+) ... over the nonzero coefficients; None if all are 0
    out = None
    for i, c in enumerate(coeffs):
        if c:
            r = c / m
            term = RConst(r) if i == 0 else Var(i) if r == 1 else Delta(r, Var(i))
            out = term if out is None else Oplus(out, term)
    return out


def synth_trunc_affine(f: Affine) -> Formula:
    """A formula whose term function is ``((f v 0) ^ 1)`` on the box.

    Total on rational affine functions, and mentions only the variables
    that f does; f at least 1 (at most 0) on the whole box gives ``C[1]``
    (``C[0]``).  Raises :class:`BudgetExceededError` when the number of
    copies m exceeds ``pwl.DEFAULT_PIECE_CAP``.
    """
    positive = [max(c, 0) for c in f.coeffs]
    negative = [max(-c, 0) for c in f.coeffs]
    if positive[0] - sum(negative) >= 1:  # f's minimum on the box
        return RConst(1)
    if sum(positive) - negative[0] <= 0:  # f's maximum on the box
        return RConst(0)
    m = math.ceil(max(sum(positive), max(negative)))
    _check_cap(m, "synthesis of a truncated affine piece")
    h = _chain(positive, m)
    subtrahend = _chain(negative, m)
    if subtrahend is not None:
        h = Ominus(h, subtrahend)
    out = h
    for _ in range(m - 1):
        out = Oplus(out, h)
    return out


def synth_pwl(f: MaxMin, budget=None) -> Formula:
    """A formula whose term function equals ``f`` pointwise on the box.

    Requires the range of ``f`` to stay inside [0, 1] (then f is fixed by
    the unit truncation and the per-piece syntheses can be joined back
    exactly).  Otherwise raises :class:`RangeViolationError` at the witness
    of the minimum (below 0) or else of the maximum (above 1), as
    :func:`rieszmv.geometry.extrema` gives them.  An extremum, whose pivots
    ``budget`` caps, is computed only where the bounds read off the rows
    leave [0, 1], never for a function the package builds.
    """
    _check_unit_range(f, budget)

    # every formula lies in [0, 1], so a C[1] member leaves its meet
    # unchanged and a group holding a C[0] leaves the join unchanged
    pieces = []
    for group in f.groups:
        members = [synth_trunc_affine(a) for a in group]
        if not any(_is_constant(phi, 0) for phi in members):
            pieces.append(reduce(Meet, [phi for phi in members if not _is_constant(phi, 1)] or members[:1]))
    return reduce(Join, pieces) if pieces else RConst(0)


def _is_constant(phi, r):
    return type(phi) is RConst and phi.r == r  # by type: Formula == compares programs
