import hashlib
import itertools
import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

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
from rieszmv import pwl

from helpers import (
    candidate_vertices,
    clamp,
    corner_order,
    covers,
    fraction_groups,
    fraction_linear_combination,
    fraction_maxmin,
    fraction_prune,
    fraction_term_pwl,
    nnf,
    rand_formula,
    rand_maxmin,
    rand_point,
    rand_signed,
    rand_unit,
)

F = Fraction


def _mm(n, *groups):
    return MaxMin(n, tuple(tuple(Affine(n, c) for c in g) for g in groups))


X = (F(0), F(1))          # x on [0,1]
ONE_MINUS_X = (F(1), F(-1))


def test_affine_eval_examples():
    assert affine_eval(Affine(2, (F(1, 2), F(0), F(0))), (F(1, 3), F(1))) == F(1, 2)
    assert affine_eval(Affine(1, X), (F(3, 10),)) == F(3, 10)
    assert affine_eval(Affine(2, (F(1), F(-1), F(1))), (F(3, 10), F(1, 10))) == F(4, 5)


def test_affine_eval_reads_points_as_maxmin_eval_does():
    # a float coordinate once gave the float 1.3 here
    with pytest.raises(TypeError, match="is not exact"):
        affine_eval(Affine(1, (F(1), F(1))), (0.3,))
    with pytest.raises(TypeError, match="is not exact"):
        affine_eval(Affine(2, (F(1), F(1), F(1))), (F(1), 0.5))
    with pytest.raises(ValueError, match="point of length 1"):
        affine_eval(Affine(2, (F(1), F(1), F(1))), (F(1),))
    assert affine_eval(Affine(0, (F(2, 3),)), ()) == F(2, 3)


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
    # max(0, min(x, 1 - x)): the group {x, 1 - x} covers {0}, though their
    # minima tie at both box corners
    assert prune(_mm(1, ((F(0), F(0)),), (X, ONE_MINUS_X))) == _mm(1, (X, ONE_MINUS_X))


def _literal_maxmin(rng, n):
    # groups of the pieces 0, 1, x_i and 1 - x_i: group minima often tie at
    # every box corner
    literals = [(F(0),) * (n + 1), (F(1),) + (F(0),) * n]
    for i in range(1, n + 1):
        literals.append(tuple(F(int(j == i)) for j in range(n + 1)))
        literals.append((F(1),) + tuple(F(-int(j == i)) for j in range(1, n + 1)))
    groups = [[rng.choice(literals) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 4))]
    return _mm(n, *groups)


def test_prune_preserves_values_random():
    def check(f, rng):
        slim = prune(f)
        for corner in itertools.product((F(0), F(1)), repeat=f.n):
            assert maxmin_eval(slim, corner) == maxmin_eval(f, corner)
        # no surviving group is covered by another
        pieces = [a.coeffs for a in components(slim)]
        groups = [tuple(map(pieces.index, g)) for g in fraction_groups(slim)]
        below = corner_order(pieces)
        assert not any(h != g and covers(below, h, g) for g in groups for h in groups), f
        for _ in range(25):
            x = rand_point(rng, f.n)
            assert maxmin_eval(slim, x) == maxmin_eval(f, x)

    rng = random.Random(47)
    for _ in range(60):
        check(rand_maxmin(rng, rng.randint(1, 3), max_groups=4, max_group_size=4), rng)
    rng = random.Random(48)
    for _ in range(60):
        check(_literal_maxmin(rng, rng.randint(1, 3)), rng)


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


def test_piece_cap_aborts_loudly(monkeypatch):
    f = _mm(2, ((F(0), F(1), F(0)), (F(0), F(0), F(1))), ((F(1), F(-1), F(0)), (F(1), F(0), F(-1))))
    monkeypatch.setattr(pwl, "DEFAULT_PIECE_CAP", 1)
    with pytest.raises(BudgetExceededError) as err:
        mm_neg_affine(f)
    assert err.value.budget == 1
    assert err.value.size > 1
    monkeypatch.setattr(pwl, "DEFAULT_PIECE_CAP", 2)
    with pytest.raises(BudgetExceededError):
        mm_add(f, f)
    monkeypatch.undo()
    # pruning compares pieces in O(n), so a high variable index is no budget
    assert prune(mm_join(projection(30, 1), projection(30, 30))).piece_count == 2
    assert term_pwl(parse("v1 \\/ v30"), 30).piece_count == 2


def test_json_round_trip():
    rng = random.Random(61)
    for _ in range(20):
        f = rand_maxmin(rng, rng.randint(1, 3))
        assert maxmin_from_json(maxmin_to_json(f)) == f
    data = maxmin_to_json(projection(2, 2))
    assert data == {"n": 2, "groups": [[["0", "0", "1"]]]}
    with pytest.raises(ValueError):
        maxmin_from_json({"n": 1})
    # JSON text is decoded once, so a string holding JSON text is no function
    assert maxmin_from_json(json.dumps(data)) == projection(2, 2)
    with pytest.raises(ValueError, match="malformed piecewise-linear JSON"):
        maxmin_from_json(json.dumps(json.dumps(data)))


def test_inexact_numbers_are_rejected():
    # a float used to be stored as its binary expansion, 0.1 as
    # 3602879701896397/36028797018963968
    x = projection(1, 1)
    for bad in (0.1, Decimal("0.1"), "1/10"):
        with pytest.raises(TypeError):
            Affine(1, (bad, 1))
        with pytest.raises(TypeError):
            constant(1, bad)
        with pytest.raises(TypeError):
            mm_scale(bad, x)
        with pytest.raises(TypeError):
            linear_combination([x], [bad])
    assert Affine(1, (1, F(1, 10))).coeffs == (F(1), F(1, 10))
    assert mm_scale(3, x) == mm_scale(F(3), x)


def test_json_arity_must_be_an_integer():
    for n in (1.9, True, "1", None):
        with pytest.raises(ValueError, match="malformed piecewise-linear JSON"):
            maxmin_from_json({"n": n, "groups": [[["0", "1"]]]})
    assert maxmin_from_json({"n": 1, "groups": [[["0", "1"]]]}) == projection(1, 1)


def test_affine_dimension_is_a_nonnegative_integer():
    # n = -1 with no coefficients once passed the length check
    for n in (-1, -2, True, 1.0, "1"):
        with pytest.raises(ValueError, match=f"^n must be a nonnegative integer, got {n!r}$"):
            Affine(n, (F(0),) * 2)
    with pytest.raises(ValueError, match="^n must be a nonnegative integer, got -1$"):
        Affine(-1, ())
    with pytest.raises(ValueError, match="^malformed piecewise-linear JSON: n must be a nonnegative integer, got -1$"):
        maxmin_from_json({"n": -1, "groups": [[[]]]})
    assert Affine(0, (F(1),)).coeffs == (F(1),)


def test_equal_functions_have_equal_rows_however_built():
    # max(x1 / 2, 1/3 + x2 / 4), built by the operations ...
    ops = mm_join(
        mm_scale(F(1, 2), projection(2, 1)),
        mm_add(constant(2, F(1, 3)), mm_scale(F(1, 4), projection(2, 2))),
    )
    # ... and from unsorted, repeated groups of mixed-denominator pieces
    direct = MaxMin(
        2,
        (
            (Affine(2, (F(4, 12), 0, F(3, 12))), Affine(2, (F(1, 3), F(0), F(1, 4)))),
            (Affine(2, (0, F(1, 2), 0)),),
            (Affine(2, (F(0), F(5, 10), F(0))),),
        ),
    )
    assert direct == ops and hash(direct) == hash(ops)
    assert (ops.den, ops.rows) == (12, (((0, 6, 0),), ((4, 0, 3),)))
    assert [a.coeffs for g in ops.groups for a in g] == [(0, F(1, 2), 0), (F(1, 3), 0, F(1, 4))]
    # a common factor of the rows and the denominator is divided out
    twelve = mm_scale(12, ops)
    assert (twelve.den, twelve.rows) == (1, (((0, 6, 0),), ((4, 0, 3),)))
    assert twelve == MaxMin(2, ((Affine(2, (4, 0, 3)),), (Affine(2, (0, 6, 0)),)))
    assert mm_add(constant(1, F(1, 2)), constant(1, F(1, 2))).rows == (((1, 0),),)


def test_components_and_json_are_pinned():
    # sha256 of components text and maxmin_to_json of the term functions
    # through negation normal form; every 5th formula is a DAG sharing a
    # subformula
    rng = random.Random(131)
    comps, data = hashlib.sha256(), hashlib.sha256()
    for k in range(3000):
        n = rng.randint(1, 4)
        phi = rand_formula(rng, n, rng.randint(0, 4), scalars=bool(k % 2))
        if k % 5 == 0:
            phi = Join(phi, Neg(phi))
        f = term_pwl(phi, n)
        text = "".join(" ".join(map(str, a.coeffs)) + "\n" for a in components(f)) + "\n"
        comps.update(text.encode())
        data.update(json.dumps(maxmin_to_json(f)).encode() + b"\n")
    assert comps.hexdigest() == "d8600cdc55919d02fea40a41b027470bf8055435c04d0f786372a43c5339e2df"
    assert data.hexdigest() == "a7c938770da926c26f6da12165f20ecefde436f5eea155e6a112695efc76c86c"


def _nnf_cases():
    # seeded formulas, every 5th a Join(phi, Neg(phi)) DAG, and the deep
    # chains of test_formula.py
    rng = random.Random(137)
    for k in range(2000):
        n = rng.randint(1, 4)
        phi = rand_formula(rng, n, rng.randint(0, 4), scalars=bool(k % 2))
        yield (Join(phi, Neg(phi)) if k % 5 == 0 else phi), n
    negs = psi = Var(1)
    for k in range(10**4):
        negs = Neg(negs)
        psi = Neg(psi) if k % 3 else Delta(F(1, 2), psi) if k % 2 else Nabla(F(2, 3), psi)
    chain = Var(2)
    for k in range(10**3):
        chain = Oplus(chain, Var(1)) if k % 2 else Meet(Var(1), chain)
    yield from ((negs, 1), (psi, 1), (chain, 2))


def test_term_functions_are_those_of_negation_normal_form(monkeypatch):
    # both polarities, row for row, and no reflection on either route
    def reflect(*args):
        raise AssertionError("term_pwl reflected a function")

    monkeypatch.setattr(pwl, "_reflect", reflect)
    cases = 0
    for phi, n in _nnf_cases():
        for negate in (False, True):
            f, g = term_pwl(phi, n, negate), term_pwl(nnf(phi)[negate], n)
            assert (f.n, f.den, f.rows) == (g.n, g.den, g.rows), (phi, negate)
        cases += 1
    assert cases == 2003


_COPRIME = (7, 11, 13, 17, 19, 23)


def _oracle_scalar(rng, shape):
    if shape == "coprime":
        q = rng.choice(_COPRIME)
        return F(rng.randint(0, q), q)
    if shape == "digits":
        p = rng.randint(10**29, 10**30 - 1)
        return F(p, rng.randint(p, 10**30))
    return rand_unit(rng, 8)


def _oracle_formula(rng, n, depth, shape, pool):
    """A random formula whose subformulas are often shared through ``pool``."""
    if pool and rng.random() < 0.25:
        return rng.choice(pool)
    if depth <= 0 or rng.random() < 0.2:
        phi = RConst(_oracle_scalar(rng, shape)) if rng.random() < 0.15 else Var(rng.randint(1, n))
    elif rng.random() < 0.3:
        kind = rng.choice((Neg, Delta, Nabla))
        child = _oracle_formula(rng, n, depth - 1, shape, pool)
        phi = Neg(child) if kind is Neg else kind(_oracle_scalar(rng, shape), child)
    else:
        kind = rng.choice((Implies, Oplus, Odot, Join, Meet, Ominus, Iff))
        phi = kind(
            _oracle_formula(rng, n, depth - 1, shape, pool),
            _oracle_formula(rng, n, depth - 1, shape, pool),
        )
    pool.append(phi)
    return phi


def _outcome(call, *args):
    try:
        return call(*args)
    except BudgetExceededError as err:
        return ("cap", str(err), err.size, err.budget)


@pytest.mark.parametrize("shape", ["small", "coprime", "digits", "cap"])
def test_integer_rows_match_the_fraction_oracle(shape, monkeypatch):
    # term_pwl (through negation normal form) and linear_combination take the
    # Fraction pipeline's steps on integer rows, so every result, and every
    # piece-cap error, is equal;
    # the oracle takes the cap as an argument, the package as its constant
    rng = random.Random(f"pwl-oracle:{shape}")
    hits = 0
    for _ in range(125):
        n = rng.randint(1, 5)
        # below the default cap, so that a runaway formula stops early
        cap = rng.choice((4, 8, 16)) if shape == "cap" else 2000
        pool = []
        fs = []
        for _ in range(4):
            phi = _oracle_formula(rng, n, rng.randint(1, 4), shape, pool)
            monkeypatch.setattr(pwl, "DEFAULT_PIECE_CAP", cap)
            got = _outcome(term_pwl, phi, n)
            assert got == _outcome(fraction_term_pwl, phi, n, cap), (phi, n, cap)
            if isinstance(got, tuple):
                hits += 1
                continue
            assert hash(got) == hash(fraction_maxmin(n, fraction_groups(got)))
            assert MaxMin(n, got.groups[::-1]) == got
            fs.append(got)
        if not fs:
            continue
        if shape == "digits":
            cs = [F(rng.choice((-1, 1)) * rng.randint(10**29, 10**30), rng.choice(_COPRIME))
                  for _ in fs]
        else:
            cs = [F(rng.randint(-40, 40), rng.choice(_COPRIME)) for _ in fs]
        cap = min(cap, 500)  # a reflected sum of large functions grows fast
        monkeypatch.setattr(pwl, "DEFAULT_PIECE_CAP", cap)
        got = _outcome(linear_combination, fs, cs)
        assert got == _outcome(fraction_linear_combination, fs, cs, cap), (fs, cs, cap)
        hits += isinstance(got, tuple)
    assert hits > 50 if shape == "cap" else hits < 25, hits


def test_prune_keeps_values_when_too_many_groups_to_compare():
    # More than 1,200 groups left after the piece-level pass: prune skips
    # the group comparison.  Lines through (1/2, 1/2) with distinct slopes
    # cross there, so none dominates another, and every 5 of 13 make a
    # group; each group also holds the constant 4, dominated by its lines.
    lines = [(F(1, 2) - F(k, 8), F(k, 4)) for k in range(-6, 7)]
    four = (F(4), F(0))
    f = _mm(1, *(subset + (four,) for subset in itertools.combinations(lines, 5)))
    slim = prune(f)
    assert len(slim.rows) == 1287 and four not in {a.coeffs for a in components(slim)}
    assert slim == fraction_maxmin(1, fraction_prune(fraction_groups(f)))
    vertices = candidate_vertices(f)
    assert vertices == ((F(0),), (F(1, 2),), (F(1),))
    for v in vertices:
        assert maxmin_eval(slim, v) == maxmin_eval(f, v)
