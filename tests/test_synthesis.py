import math
import random
from fractions import Fraction

import pytest

from rieszmv import (
    Affine,
    BudgetExceededError,
    MaxMin,
    RangeViolationError,
    constant,
    evaluate,
    format_formula,
    is_valid,
    linear_combination,
    maxmin_eval,
    parse,
    projection,
    semantic_equiv,
    synth_pwl,
    synth_trunc_affine,
    term_pwl,
    trunc,
)
from rieszmv import geometry

from helpers import (
    candidate_vertices,
    clamp,
    grid_points,
    rand_affine,
    rand_formula,
    rand_maxmin,
    rand_point,
    rand_signed,
)

F = Fraction


def test_synth_constant_half():
    phi = synth_trunc_affine(Affine(1, (F(1, 2), F(0))))
    for x in grid_points(1, 8):
        assert evaluate(phi, x) == F(1, 2)


def test_synth_x_minus_one_is_zero():
    phi = synth_trunc_affine(Affine(1, (F(-1), F(1))))
    for x in grid_points(1):
        assert evaluate(phi, x) == 0


def test_synth_one_minus_x_is_negation():
    phi = synth_trunc_affine(Affine(1, (F(1), F(-1))))
    assert semantic_equiv(phi, parse("!v1"))


def test_synth_affine_round_trip_random():
    rng = random.Random(109)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = rand_affine(rng, n)
        phi = synth_trunc_affine(f)
        clamped = trunc(MaxMin(n, ((f,),)))
        for v in candidate_vertices(clamped):
            assert evaluate(phi, v) == maxmin_eval(clamped, v)
        for _ in range(30):
            x = rand_point(rng, n)
            want = clamp(sum(c * xi for c, xi in zip(f.coeffs[1:], x)) + f.coeffs[0])
            assert evaluate(phi, x) == want


def test_synth_affine_size_is_linear_in_the_coefficients():
    # m copies of one summand that names each variable at most once, where
    # m = ceil(max(positive part's sum, largest negative magnitude))
    rng = random.Random(131)
    for _ in range(100):
        n = rng.randint(1, 4)
        f = rand_affine(rng, n, bound=64, max_den=8)
        m = math.ceil(max(sum(max(c, 0) for c in f.coeffs), max(max(-c, 0) for c in f.coeffs)))
        phi = synth_trunc_affine(f)
        assert format_formula(phi).count("v") <= m * n
        for _ in range(20):
            x = rand_point(rng, n)
            assert evaluate(phi, x) == clamp(f.coeffs[0] + sum(c * xi for c, xi in zip(f.coeffs[1:], x)))


def test_synth_pwl_examples():
    hat = MaxMin(1, ((Affine(1, (F(0), F(1))),), (Affine(1, (F(1), F(-1))),)))
    assert semantic_equiv(synth_pwl(hat), parse("v1 \\/ !v1"))
    assert semantic_equiv(synth_pwl(projection(1, 1)), parse("v1"))
    assert is_valid(synth_pwl(constant(1, 1)))


def test_synth_pwl_range_check():
    with pytest.raises(RangeViolationError) as err:
        synth_pwl(constant(1, 2))
    assert err.value.value == 2
    with pytest.raises(RangeViolationError) as err:
        synth_pwl(MaxMin(1, ((Affine(1, (F(-1, 4), F(1, 2))),),)))
    assert maxmin_eval(MaxMin(1, ((Affine(1, (F(-1, 4), F(1, 2))),),)), err.value.point) < 0


def test_synth_pwl_round_trip_random():
    rng = random.Random(113)
    for _ in range(25):
        n = rng.randint(1, 2)
        f = trunc(rand_maxmin(rng, n))
        phi = synth_pwl(f)
        for v in candidate_vertices(f):
            assert evaluate(phi, v) == maxmin_eval(f, v)
        for _ in range(30):
            x = rand_point(rng, n)
            assert evaluate(phi, x) == maxmin_eval(f, x)


def test_free_algebra_round_trip_random():
    # synthesizing the term function of a formula gives back an equivalent one
    rng = random.Random(127)
    for _ in range(15):
        n = rng.randint(1, 2)
        phi = rand_formula(rng, n, 3)
        f = term_pwl(phi, n)
        assert semantic_equiv(synth_pwl(f), phi)


def test_row_bounds_settle_the_range_of_every_function_the_package_builds(monkeypatch):
    # term functions, truncations and linear combinations with signed
    # weights all have row bounds 0 <= L <= f <= U <= 1, so synthesizing
    # them solves no LP and builds no reflection
    rng = random.Random(137)
    built, negative = [], 0
    for trial in range(600):
        n = trial % 4 + 1
        kind = trial // 4 % 3
        if kind == 0:
            f = term_pwl(rand_formula(rng, n, 3), n)
        elif kind == 1:
            f = trunc(rand_maxmin(rng, n, bound=3))
        else:
            fs = [term_pwl(rand_formula(rng, min(n, 2), 2), n) for _ in range(rng.randint(1, 3))]
            cs = [rand_signed(rng, 2, 4) for _ in fs]
            negative += min(cs) < 0
            f = linear_combination(fs, cs)
        points = [rand_point(rng, n) for _ in range(6)]
        lower, upper = geometry._row_bounds(f)
        assert 0 <= lower and upper <= f.den, f
        assert all(lower <= maxmin_eval(f, x) * f.den <= upper for x in points), f
        built.append((f, points))
    assert negative > 100, negative

    def forbidden(*args):
        raise AssertionError("synthesis solved an extremum")

    monkeypatch.setattr(geometry, "solve_lp", forbidden)
    monkeypatch.setattr(geometry, "mm_negate", forbidden)
    for f, points in built:
        phi = synth_pwl(f)
        assert all(evaluate(phi, x) == maxmin_eval(f, x) for x in points), f


def test_a_range_the_rows_do_not_settle_costs_the_exact_minimum():
    # max(x1 - 1/2, 1/2 - x1) stays in [0, 1/2], but its lower row bound is
    # -1/2; its truncation is the same function with lower row bound 0
    f = MaxMin(1, [[Affine(1, (F(-1, 2), F(1)))], [Affine(1, (F(1, 2), F(-1)))]])
    settled = trunc(f)
    assert geometry._row_bounds(f) == (-1, 1) and f.den == 2
    assert geometry._row_bounds(settled)[0] == 0
    with pytest.raises(BudgetExceededError, match="^simplex pivots of the group maxima in dimension 1: "):
        synth_pwl(f, budget=0)
    phi, psi = synth_pwl(f), synth_pwl(settled, budget=0)
    for x in grid_points(1, 8):
        assert evaluate(phi, x) == evaluate(psi, x) == maxmin_eval(f, x)
