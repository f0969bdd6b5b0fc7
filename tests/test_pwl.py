import itertools
import random
from fractions import Fraction

import pytest

from rieszmv import (
    Affine,
    BudgetExceededError,
    MaxMin,
    affine_eval,
    components,
    constant,
    evaluate,
    linear_combination,
    maxmin_eval,
    maxmin_from_json,
    maxmin_to_json,
    mm_add,
    mm_join,
    mm_meet,
    mm_neg_affine,
    mm_negate,
    mm_scale,
    parse,
    projection,
    prune,
    term_pwl,
    trunc,
)

from helpers import clamp, rand_formula, rand_maxmin, rand_point, rand_signed

F = Fraction


def _mm(n, *groups):
    return MaxMin(n, tuple(tuple(Affine(n, c) for c in g) for g in groups))


X = (F(0), F(1))          # x on [0,1]
ONE_MINUS_X = (F(1), F(-1))


def test_affine_eval_examples():
    assert affine_eval(Affine(2, (F(1, 2), F(0), F(0))), (F(1, 3), F(1))) == F(1, 2)
    assert affine_eval(Affine(1, X), (F(3, 10),)) == F(3, 10)
    assert affine_eval(Affine(2, (F(1), F(-1), F(1))), (F(3, 10), F(1, 10))) == F(4, 5)


def test_maxmin_eval_examples():
    f = _mm(1, (X,), (ONE_MINUS_X,))
    assert maxmin_eval(f, (F(1, 2),)) == F(1, 2)
    assert maxmin_eval(_mm(1, (X,)), (F(7, 10),)) == F(7, 10)
    assert maxmin_eval(_mm(1, (X, ONE_MINUS_X)), (F(1, 4),)) == F(1, 4)
    # coprime coefficient denominators, negative coefficients
    g = _mm(2, ((F(1, 3), F(-2, 7), F(5, 11)),), ((F(-1, 5), F(3, 4), F(0)),))
    assert maxmin_eval(g, (F(1, 2), F(2, 3))) == F(38, 77)  # 1/3 - 1/7 + 10/33 > 7/40
    assert maxmin_eval(g, (F(0), F(0))) == F(1, 3)
    # int coordinates, and coordinates past n are ignored
    assert maxmin_eval(g, (0, 1)) == F(1, 3) + F(5, 11)
    assert maxmin_eval(g, (1, 0, F(1, 13), 7)) == F(11, 20)
    assert isinstance(maxmin_eval(g, (1, 1)), Fraction)
    with pytest.raises(TypeError):
        maxmin_eval(g, (F(1, 2), 0.5))
    with pytest.raises(ValueError):
        maxmin_eval(g, (F(1, 2),))


def test_trunc_examples():
    low = constant(1, F(-1, 2))
    assert trunc(low) == constant(1, 0)
    x = projection(1, 1)
    for i in range(5):
        p = (F(i, 4),)
        assert maxmin_eval(trunc(x), p) == maxmin_eval(x, p)
    assert trunc(constant(1, 2)) == constant(1, 1)


def test_trunc_of_doubled_projection_keeps_kink():
    doubled = mm_scale(2, projection(1, 1))
    clamped = trunc(doubled)
    assert any(a.coeffs == (F(1), F(0)) for a in components(clamped))
    for i in range(9):
        p = (F(i, 8),)
        assert maxmin_eval(clamped, p) == min(1, 2 * p[0])


def test_mm_add_examples():
    total = mm_add(_mm(1, (X,)), _mm(1, (ONE_MINUS_X,)))
    for i in range(5):
        assert maxmin_eval(total, (F(i, 4),)) == 1


def test_mm_neg_affine_examples():
    f = mm_neg_affine(_mm(1, (X,), (ONE_MINUS_X,)))
    assert maxmin_eval(f, (F(1, 2),)) == F(1, 2)
    assert maxmin_eval(f, (F(0),)) == 0


def test_mm_scale_examples():
    f = mm_scale(F(1, 2), _mm(1, (X,)))
    assert maxmin_eval(f, (F(4, 5),)) == F(2, 5)
    with pytest.raises(ValueError):
        mm_scale(F(-1), f)
    assert mm_scale(0, f) == constant(1, 0)


def test_mm_ops_pointwise_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = rand_maxmin(rng, n)
        g = rand_maxmin(rng, n)
        r = abs(rand_signed(rng, 2, 8))
        points = [rand_point(rng, n) for _ in range(20)]
        total = mm_add(f, g)
        scaled = mm_scale(r, f)
        reflected = mm_neg_affine(f)
        negated = mm_negate(f)
        joined = mm_join(f, g)
        met = mm_meet(f, g)
        for x in points:
            fv, gv = maxmin_eval(f, x), maxmin_eval(g, x)
            assert maxmin_eval(total, x) == fv + gv
            assert maxmin_eval(scaled, x) == r * fv
            assert maxmin_eval(reflected, x) == 1 - fv
            assert maxmin_eval(negated, x) == -fv
            assert maxmin_eval(joined, x) == max(fv, gv)
            assert maxmin_eval(met, x) == min(fv, gv)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        mm_add(constant(1, 0), constant(2, 0))
    with pytest.raises(ValueError):
        maxmin_eval(constant(2, 0), (F(1, 2),))


def test_term_pwl_implication_components():
    f = term_pwl(parse("v1 -> v2"), 2)
    assert {a.coeffs for a in components(f)} == {
        (F(1), F(0), F(0)),
        (F(1), F(-1), F(1)),
    }


def test_term_pwl_negation_components():
    f = term_pwl(parse("!v1"), 1)
    assert [a.coeffs for a in components(f)] == [(F(1), F(-1))]


def test_term_pwl_scalar_examples():
    f = term_pwl(parse("D[1/2] v1"), 1)
    expected = {F(0): F(0), F(1, 2): F(1, 4), F(1): F(1, 2)}
    for x, want in expected.items():
        assert maxmin_eval(f, (x,)) == want
        assert evaluate(parse("D[1/2] v1"), (x,)) == want
    g = term_pwl(parse("N[1/3] v1"), 1)
    assert {a.coeffs for a in components(g)} == {(F(2, 3), F(1, 3))}


def test_components_examples():
    f = _mm(1, (X, ONE_MINUS_X), ((F(1), F(0)),))
    assert {a.coeffs for a in components(f)} == {X, ONE_MINUS_X, (F(1), F(0))}
    assert [a.coeffs for a in components(projection(2, 1))] == [(F(0), F(1), F(0))]
    assert any(a.coeffs == (F(1), F(0)) for a in components(trunc(constant(1, 2))))


def test_term_pwl_matches_eval_random():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 3)
        phi = rand_formula(rng, n, 5)
        f = term_pwl(phi, n)
        for _ in range(25):
            x = rand_point(rng, n)
            assert maxmin_eval(f, x) == evaluate(phi, x)


def test_component_soundness_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 2)
        phi = rand_formula(rng, n, 4)
        f = term_pwl(phi, n)
        comps = components(f)
        for _ in range(20):
            x = rand_point(rng, n)
            value = maxmin_eval(f, x)
            assert any(affine_eval(a, x) == value for a in comps)


def test_truncated_sum_identity_random():
    # trunc(g + h) == (trunc(g) oplus h) odot trunc(g + 1) for h in [0, 1],
    # with every side built out of Max-Min operations.
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(1, 2)
        g = rand_maxmin(rng, n)
        h = trunc(rand_maxmin(rng, n))
        left = trunc(mm_add(g, h))
        tg = trunc(g)
        g_plus_one = trunc(mm_add(g, constant(n, 1)))
        oplus_part = trunc(mm_add(tg, h))
        right = trunc(mm_add(mm_add(oplus_part, g_plus_one), constant(n, -1)))
        for _ in range(25):
            x = rand_point(rng, n)
            lv = maxmin_eval(left, x)
            assert lv == maxmin_eval(right, x)
            assert lv == clamp(maxmin_eval(g, x) + maxmin_eval(h, x))


def test_truncated_reflection_identity_random():
    # trunc(1 - g) == 1 - trunc(g) pointwise.
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 2)
        g = rand_maxmin(rng, n)
        left = trunc(mm_neg_affine(g))
        right = mm_neg_affine(trunc(g))
        for _ in range(25):
            x = rand_point(rng, n)
            lv = maxmin_eval(left, x)
            assert lv == maxmin_eval(right, x)
            assert lv == clamp(1 - maxmin_eval(g, x))


def test_clamp_scalar_facts_random():
    rng = random.Random(43)
    for _ in range(300):
        x = rand_signed(rng)
        y = rand_signed(rng)
        assert (x >= 0) == (clamp(-x) == 0)
        assert clamp(x) == clamp(max(x, F(0)))
        assert max(x, F(0)) + max(y, F(0)) >= max(x + y, F(0))


def test_prune_examples():
    x_plus_one = (F(1), F(1))
    assert prune(_mm(1, (X, x_plus_one))) == _mm(1, (X,))
    assert prune(_mm(1, (X,))) == _mm(1, (X,))
    assert prune(_mm(1, (X, ONE_MINUS_X))) == _mm(1, (X, ONE_MINUS_X))


def test_prune_preserves_values_random():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = rand_maxmin(rng, n, max_groups=4, max_group_size=4)
        slim = prune(f)
        for corner in itertools.product((F(0), F(1)), repeat=n):
            assert maxmin_eval(slim, corner) == maxmin_eval(f, corner)
        for _ in range(25):
            x = rand_point(rng, n)
            assert maxmin_eval(slim, x) == maxmin_eval(f, x)


def test_linear_combination_examples():
    x = projection(1, 1)
    one_minus_x = _mm(1, (ONE_MINUS_X,))
    same = linear_combination([x], [F(1)])
    for i in range(5):
        assert maxmin_eval(same, (F(i, 4),)) == F(i, 4)
    assert linear_combination([x, one_minus_x], [F(1), F(1)]) == constant(1, 1)
    shifted = _mm(1, ((F(-1, 2), F(1)),))           # x - 1/2
    flipped = linear_combination([shifted], [F(-1)])  # trunc(1/2 - x)
    assert maxmin_eval(flipped, (F(0),)) == F(1, 2)
    assert maxmin_eval(flipped, (F(1),)) == 0
    for i in range(9):
        x0 = F(i, 8)
        assert maxmin_eval(flipped, (x0,)) == clamp(F(1, 2) - x0)


def test_linear_combination_random():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 2)
        k = rng.randint(1, 3)
        fs = [rand_maxmin(rng, n, max_groups=2, max_group_size=2) for _ in range(k)]
        cs = [rand_signed(rng, 2, 4) for _ in range(k)]
        combo = linear_combination(fs, cs)
        for _ in range(20):
            x = rand_point(rng, n)
            want = clamp(sum(c * maxmin_eval(f, x) for c, f in zip(cs, fs)))
            assert maxmin_eval(combo, x) == want


def test_linear_combination_validation():
    with pytest.raises(ValueError):
        linear_combination([projection(1, 1)], [F(1), F(2)])
    with pytest.raises(ValueError):
        linear_combination([projection(1, 1), projection(2, 1)], [F(1), F(1)])


def test_piece_cap_aborts_loudly():
    f = _mm(2, ((F(0), F(1), F(0)), (F(0), F(0), F(1))), ((F(1), F(-1), F(0)), (F(1), F(0), F(-1))))
    with pytest.raises(BudgetExceededError) as err:
        mm_neg_affine(f, cap=1)
    assert err.value.budget == 1
    assert err.value.size > 1
    with pytest.raises(BudgetExceededError):
        mm_add(f, f, cap=2)
    # pruning compares pieces at all 2**n box corners; a high variable
    # index aborts before that table is built
    with pytest.raises(BudgetExceededError) as err:
        prune(mm_join(projection(30, 1), projection(30, 30)))
    assert err.value.size == 2**30
    with pytest.raises(BudgetExceededError):
        term_pwl(parse("v1 \\/ v30"), 30)


def test_json_round_trip():
    rng = random.Random(61)
    for _ in range(20):
        f = rand_maxmin(rng, rng.randint(1, 3))
        assert maxmin_from_json(maxmin_to_json(f)) == f
    data = maxmin_to_json(projection(2, 2))
    assert data == {"n": 2, "groups": [[["0", "0", "1"]]]}
    with pytest.raises(ValueError):
        maxmin_from_json({"n": 1})
