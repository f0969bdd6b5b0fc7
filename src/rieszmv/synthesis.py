"""Formula synthesis from piecewise-linear data.

Given an affine f, :func:`synth_trunc_affine` builds a formula whose term
function is the unit truncation of f; :func:`synth_pwl` lifts this to any
Max-Min function with range in [0, 1] by synthesizing each affine piece and
joining the groups back with the lattice connectives.

The affine construction works by induction on a decomposition of f into
summands of magnitude at most 1 (each either a constant or a multiple of
one variable), peeling one summand per step and recombining with the MV
identities for truncated sums.  Where a peeled summand is negative the
remainder is rebalanced against the constant -1, which is what the three
inner subcases below handle.
"""

from __future__ import annotations

import math

from .errors import RangeViolationError
from .formula import Delta, Formula, Join, Meet, Neg, Odot, Oplus, RConst, Var
from .geometry import extrema
from .kernel import ONE, ZERO
# unused here, but perfbench/tracing.py wraps maxmin_eval at this attribute
from .pwl import Affine, MaxMin, maxmin_eval  # noqa: F401

# Summands are (coefficient, variable index or None for the constant part);
# coefficients are nonzero rationals in [-1, 1].  Constant summands come
# first, then variable summands in variable order.

ZERO_FORMULA = Odot(Var(1), Neg(Var(1)))


def decompose_unit_summands(f: Affine):
    """Split an affine function into unit summands, exactly.

    Every coefficient c becomes ceil(|c|) equal parts, so each part has
    magnitude at most 1 and the parts add back to c.  The zero affine has
    no summands.
    """
    summands = []
    c0 = f.coeffs[0]
    if c0 != 0:
        parts = math.ceil(abs(c0))
        summands.extend([(c0 / parts, None)] * parts)
    for i, c in enumerate(f.coeffs[1:], start=1):
        if c != 0:
            parts = math.ceil(abs(c))
            summands.extend([(c / parts, i)] * parts)
    return tuple(summands)


def reassemble(summands, n: int) -> Affine:
    """Inverse of :func:`decompose_unit_summands`, for checking."""
    coeffs = [ZERO] * (n + 1)
    for r, y in summands:
        coeffs[0 if y is None else y] += r
    return Affine(n, tuple(coeffs))


def _const_value(phi):
    if isinstance(phi, RConst):
        return phi.r
    if type(phi) is Odot and phi == ZERO_FORMULA:  # the type test skips the walk of ==
        return ZERO
    return None


def _neg(phi):
    c = _const_value(phi)
    if c is not None:
        return RConst(ONE - c)
    if isinstance(phi, Neg):
        return phi.child
    return Neg(phi)


def _oplus(a, b):
    ca, cb = _const_value(a), _const_value(b)
    if ca == ZERO:
        return b
    if cb == ZERO:
        return a
    if ca == ONE or cb == ONE:
        return RConst(1)
    if ca is not None and cb is not None:
        return RConst(min(ONE, ca + cb))
    return Oplus(a, b)


def _odot(a, b):
    ca, cb = _const_value(a), _const_value(b)
    if ca == ONE:
        return b
    if cb == ONE:
        return a
    if ca == ZERO or cb == ZERO:
        return ZERO_FORMULA
    if ca is not None and cb is not None:
        return RConst(max(ZERO, ca + cb - ONE))
    return Odot(a, b)


def _initial(summand) -> Formula:
    # One-summand case: positive parts are realized directly by the scalar
    # connective, nonpositive truncations are the constant 0.
    r, y = summand
    if r < 0:
        return ZERO_FORMULA
    if y is None:
        return RConst(r)
    if r == 1:
        return Var(y)
    return Delta(r, Var(y))


def _negated(summands):
    return tuple((-r, y) for r, y in summands)


def _case1(rest, last, synth):
    # trunc(g + h) = ((trunc g) (+) h) (.) trunc(g + 1) for h in [0, 1];
    # trunc(g + 1) = 1 - trunc(-g).
    phi = synth(rest)
    psi = _initial(last)
    chi = synth(_negated(rest))
    return _odot(_oplus(phi, psi), _neg(chi))


def _synth_minus_one(g, synth) -> Formula:
    """Formula for trunc(g - 1), given the summands of g."""
    if all(r < 0 for r, _ in g):
        return ZERO_FORMULA
    for idx, (r, y) in enumerate(g):
        if y is None and r > 0:
            # Fold the -1 into the first positive constant summand.
            flipped = r - ONE
            if flipped == 0:
                return synth(g[:idx] + g[idx + 1 :])
            return synth(g[:idx] + ((flipped, None),) + g[idx + 1 :])
    for idx, (r, y) in enumerate(g):
        if r > 0:
            # Peel the first positive variable summand and recombine it with
            # the rebalanced remainder as in the positive-summand case.
            rest = g[:idx] + g[idx + 1 :]
            constants = tuple(s for s in rest if s[1] is None) + ((-ONE, None),)
            variables = tuple(s for s in rest if s[1] is not None)
            g0 = constants + variables
            assert len(g0) <= len(g)
            return _case1(g0, (r, y), synth)
    raise AssertionError("unreachable: some summand must be positive here")


def synth_trunc_affine(f: Affine) -> Formula:
    """A formula whose term function is ``((f v 0) ^ 1)`` on the box.

    Total on rational affine functions; the result may mention v1 even for
    constant inputs, so evaluate it at points of dimension >= max(1, f.n).
    """
    memo = {}

    def synth(summands):
        cached = memo.get(summands)
        if cached is not None:
            return cached
        if not summands:
            out = ZERO_FORMULA
        elif len(summands) == 1:
            out = _initial(summands[0])
        else:
            rest, last = summands[:-1], summands[-1]
            assert len(rest) < len(summands)
            if last[0] > 0:
                out = _case1(rest, last, synth)
            else:
                # trunc(g + h) = (trunc(g - 1) (+) !psi) (.) trunc(g) where
                # psi stands for -h, which is a positive summand.
                psi = _initial((-last[0], last[1]))
                phi = synth(rest)
                chi = _synth_minus_one(rest, synth)
                out = _odot(_oplus(chi, _neg(psi)), phi)
        memo[summands] = out
        return out

    return synth(decompose_unit_summands(f))


def synth_pwl(f: MaxMin, budget=None) -> Formula:
    """A formula whose term function equals ``f`` pointwise on the box.

    Requires the range of ``f`` to stay inside [0, 1] (then f is fixed by
    the unit truncation and the per-piece syntheses can be joined back
    exactly); raises :class:`RangeViolationError` with a witness otherwise.
    """
    lo, lo_at, hi, hi_at = extrema(f, budget)
    if lo < 0:
        raise RangeViolationError("function drops below 0", lo_at, lo)
    if hi > 1:
        raise RangeViolationError("function exceeds 1", hi_at, hi)

    result = None
    for group in f.groups:
        piece = None
        for a in group:
            phi = synth_trunc_affine(a)
            piece = phi if piece is None else Meet(piece, phi)
        result = piece if result is None else Join(result, piece)
    return result
