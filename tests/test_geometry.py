import random
from fractions import Fraction

import pytest

from rieszmv import (
    Affine,
    BudgetExceededError,
    MaxMin,
    candidate_vertices,
    constant,
    delta_norm,
    evaluate,
    extrema,
    is_invalid,
    is_valid,
    maximum,
    maxmin_eval,
    minimum,
    mm_scale,
    parse,
    projection,
    semantic_equiv,
    term_pwl,
    trunc,
    unit_norm,
)

from helpers import grid_points, rand_formula, rand_point, rand_unit

F = Fraction


def test_candidate_vertices_examples():
    hat = MaxMin(1, ((Affine(1, (F(0), F(1))),), (Affine(1, (F(1), F(-1))),)))
    assert candidate_vertices(hat) == ((F(0),), (F(1, 2),), (F(1),))
    assert candidate_vertices(constant(1, F(2, 7))) == ((F(0),), (F(1),))
    kinked = trunc(mm_scale(2, projection(1, 1)))
    assert (F(1, 2),) in candidate_vertices(kinked)


def test_candidate_vertices_contains_corners():
    rng = random.Random(67)
    for _ in range(10):
        n = rng.randint(1, 3)
        f = term_pwl(rand_formula(rng, n, 3), n)
        vertices = set(candidate_vertices(f))
        for corner in grid_points(n, 1):
            assert corner in vertices


def test_minimum_examples():
    value, witness = minimum(parse("v1 \\/ !v1"))
    assert (value, witness) == (F(1, 2), (F(1, 2),))
    value, witness = minimum(parse("v1 (.) !v1"))
    assert value == 0
    value, witness = maximum(parse("D[2/3] v1"))
    assert (value, witness) == (F(2, 3), (F(1),))


def test_minimum_on_grid_oracle():
    phi = parse("v1 \\/ !v1")
    vmin, witness = minimum(phi)
    assert all(vmin <= evaluate(phi, g) for g in grid_points(1))
    assert evaluate(phi, witness) == vmin


def test_extrema_breaks_ties_at_the_first_vertex():
    # max(0, 2 min(1, 2x) - 1): 0 on [0, 1/4], 1 on [1/2, 1]
    phi = parse("(v1 (+) v1) (.) (v1 (+) v1)")
    f = term_pwl(phi, 1)
    lo, lo_at, hi, hi_at = extrema(f)
    vertices = candidate_vertices(f)
    lows = [v for v in vertices if maxmin_eval(f, v) == lo]
    highs = [v for v in vertices if maxmin_eval(f, v) == hi]
    assert (lo, hi) == (0, 1)
    assert lows == [(F(0),), (F(1, 4),)] and highs == [(F(1, 2),), (F(1),)]
    assert (lo_at, hi_at) == (lows[0], highs[0])
    assert minimum(phi) == (lo, lo_at)
    assert maximum(phi) == (hi, hi_at)


def test_extrema_matches_a_formula_scan_of_the_vertices():
    # the value and the first witness that evaluating the formula at every
    # candidate vertex gives
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(1, 3)
        phi = rand_formula(rng, n, 3)
        f = term_pwl(phi, n)
        values = [(evaluate(phi, v), v) for v in candidate_vertices(f)]
        lo = min(value for value, _ in values)
        hi = max(value for value, _ in values)
        lo_at = next(v for value, v in values if value == lo)
        hi_at = next(v for value, v in values if value == hi)
        assert extrema(f) == (lo, lo_at, hi, hi_at)


def test_arity_zero_formulas():
    assert minimum(parse("C[1/2]")) == (F(1, 2), ())
    assert maximum(parse("C[1/2]")) == (F(1, 2), ())
    assert unit_norm(parse("C[1/2] (+) C[1/4]")) == F(3, 4)


def test_is_valid_examples():
    assert is_valid(parse("v1 -> v1"))
    assert not is_valid(parse("v1 \\/ !v1"))
    assert is_valid(parse("N[1/2](v1->v2) <-> (N[1/2]v1 -> N[1/2]v2)"))


def test_scalar_axiom_schemes_are_valid():
    # instances of the four scalar axiom schemes
    for text in (
        "N[2/5](v1->v2) <-> (N[2/5]v1 -> N[2/5]v2)",
        "N[1/2]N[2/3]v1 <-> N[1/3]v1",
        "N[1]v1 <-> v1",
    ):
        assert is_valid(parse(text)), text
    # N[r (.) !q] phi <-> (N[q] phi -> N[r] phi)
    r, q = F(3, 4), F(1, 4)
    lhs = f"N[{max(F(0), r - q)}]v1"
    rhs = f"(N[{q}]v1 -> N[{r}]v1)"
    assert is_valid(parse(f"{lhs} <-> {rhs}"))


def test_is_invalid_examples():
    verdict, witness = is_invalid(parse("v1"))
    assert verdict and witness == (F(0),)
    assert evaluate(parse("v1"), witness) == 0
    assert is_invalid(parse("v1 -> v1")) == (False, None)
    assert is_invalid(parse("C[1/2]")) == (False, None)


def test_semantic_equiv_examples():
    phi = parse("v1 -> v2 (+) v1")
    assert semantic_equiv(phi, phi)
    assert semantic_equiv(parse("D[1/2]D[1/2]v1"), parse("D[1/4]v1"))
    assert not semantic_equiv(parse("v1"), parse("!v1"))


def test_semantic_equiv_is_congruence_sampled():
    rng = random.Random(71)
    pairs = []
    for _ in range(12):
        phi = rand_formula(rng, 2, 3)
        pairs.append((phi, parse(str(phi))))  # structurally equal copy
    for phi, psi in pairs:
        assert semantic_equiv(phi, psi)
        assert semantic_equiv(parse(f"!({phi})"), parse(f"!({psi})"))
        r = rand_unit(rng, 6)
        assert semantic_equiv(parse(f"N[{r}]({phi})"), parse(f"N[{r}]({psi})"))


def test_unit_norm_examples():
    assert unit_norm(parse("D[2/3] v1")) == F(2, 3)
    assert unit_norm(parse("v1 -> v1")) == 1
    rng = random.Random(73)
    for _ in range(10):
        phi = rand_formula(rng, 2, 3)
        r = rand_unit(rng, 6)
        assert unit_norm(parse(f"D[{r}]({phi})")) == r * unit_norm(phi)


def test_delta_norm_examples():
    phi = parse("v1 (+) v2")
    assert delta_norm(phi, phi) == 0
    assert delta_norm(parse("v1"), parse("!v1")) == 1


def test_delta_norm_pseudometric_sampled():
    rng = random.Random(79)
    for _ in range(6):
        phi = rand_formula(rng, 2, 2)
        psi = rand_formula(rng, 2, 2)
        chi = rand_formula(rng, 2, 2)
        d_ab = delta_norm(phi, psi)
        assert d_ab == delta_norm(psi, phi)
        assert d_ab <= delta_norm(phi, chi) + delta_norm(chi, psi)


def test_vertex_optimization_against_grid_random():
    rng = random.Random(83)
    for _ in range(15):
        n = rng.randint(1, 2)
        phi = rand_formula(rng, n, 4)
        vmin, wmin = minimum(phi)
        vmax, wmax = maximum(phi)
        assert evaluate(phi, wmin) == vmin
        assert evaluate(phi, wmax) == vmax
        for g in grid_points(n, 8):
            value = evaluate(phi, g)
            assert vmin <= value <= vmax


def test_valid_implies_one_everywhere_sampled():
    rng = random.Random(89)
    checked = 0
    for _ in range(40):
        phi = rand_formula(rng, 2, 4)
        if is_valid(phi):
            checked += 1
            for _ in range(50):
                assert evaluate(phi, rand_point(rng, 2)) == 1
    # the modus-ponens-shaped scheme below guarantees at least one valid case
    assert is_valid(parse("v1 (.) (v1 -> v2) -> v2"))


def test_budget_error_is_loud():
    phi = parse("(v1 (+) v2 (+) v3) <-> (v1 (.) v2 (.) v3)")
    with pytest.raises(BudgetExceededError) as err:
        minimum(phi, budget=3)
    assert err.value.size > 3
    assert err.value.budget == 3
