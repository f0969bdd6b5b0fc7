import math
import random
import time
from fractions import Fraction

import pytest

from rieszmv import (
    Affine,
    BudgetExceededError,
    Delta,
    Join,
    MaxMin,
    Meet,
    Odot,
    Ominus,
    Oplus,
    RConst,
    RangeViolationError,
    arity,
    components,
    constant,
    delta_norm,
    evaluate,
    expand,
    extrema,
    is_invalid,
    is_valid,
    maximum,
    maxmin_eval,
    minimum,
    mm_add,
    mm_join,
    mm_negate,
    mm_scale,
    parse,
    projection,
    semantic_equiv,
    synth_pwl,
    term_pwl,
    trunc,
    unit_norm,
    vertices_from_components,
)
from rieszmv import geometry
from rieszmv.geometry import _differences, _hyperplanes, _is_facet

from helpers import (
    brute_vertices,
    candidate_vertices,
    grid_points,
    rand_affine,
    rand_formula,
    rand_maxmin,
    rand_point,
    rand_signed,
    rand_unit,
    vertex_extrema,
)

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


# Most pieces per component set by dimension, so the Fraction oracle stays quick.
_MAX_PIECES = {1: 8, 2: 6, 3: 4, 4: 3, 5: 2}


def _piece(rng, n):
    return rand_affine(rng, n, bound=2, max_den=6).coeffs


def _component_set(rng, n, kind):
    """Affine pieces in dimension n shaped to hit one corner of the hyperplane family."""
    count = rng.randint(1, _MAX_PIECES[n])
    if kind == "constant":
        pieces = [(rng.choice([F(0), F(1, 3), F(1)]),) + (F(0),) * n for _ in range(count)]
    elif kind == "coprime":
        dens = (7, 11, 13, 17, 19, 23)
        pieces = [
            tuple(F(rng.randint(-40, 40), rng.choice(dens)) for _ in range(n + 1))
            for _ in range(count)
        ]
    elif kind == "huge":
        big = 10**29
        pieces = [
            tuple(F(rng.randint(-big, big), rng.randint(1, 9)) for _ in range(n + 1))
            for _ in range(count)
        ]
    else:
        pieces = [_piece(rng, n) for _ in range(count)]
    if kind in ("duplicates", "proportional", "parallel", "flat") and len(pieces) < _MAX_PIECES[n]:
        a = pieces[0]
        b = pieces[-1] if len(pieces) > 1 else _piece(rng, n)
        t = F(rng.randint(-3, 3), rng.randint(1, 4))
        if kind == "duplicates":
            extra = a
        elif kind == "proportional":
            # a + t (b - a) - a is a multiple of b - a: one hyperplane twice
            extra = tuple(ca + t * (cb - ca) for ca, cb in zip(a, b))
        elif kind == "parallel":
            # same linear part as b - a, shifted constant
            extra = (b[0] + t,) + b[1:]
        else:
            # differs from a by a constant only
            extra = (a[0] + t,) + a[1:]
        pieces.append(extra)
    rng.shuffle(pieces)
    return [Affine(n, piece) for piece in pieces]


_KINDS = ("plain", "duplicates", "proportional", "parallel", "flat", "constant", "coprime", "huge")


def test_vertex_enumeration_matches_the_fraction_oracle():
    rng = random.Random(97)
    for trial in range(320):
        n = trial % 5 + 1
        kind = _KINDS[trial // 5 % len(_KINDS)]
        affines = _component_set(rng, n, kind)
        assert vertices_from_components(n, affines) == brute_vertices(n, affines), (n, kind)
        # the same hyperplane count, so the same budget error
        with pytest.raises(BudgetExceededError) as ours:
            vertices_from_components(n, affines, budget=0)
        with pytest.raises(BudgetExceededError) as oracle:
            brute_vertices(n, affines, budget=0)
        assert str(ours.value) == str(oracle.value)


def test_hyperplanes_are_counted_before_they_are_built():
    # the budget check counts the facets among the difference rows; the rows
    # it counts are the ones the walk then builds
    rng = random.Random(109)
    cases = []
    for trial in range(160):
        n = trial % 5 + 1
        cases.append((n, _component_set(rng, n, _KINDS[trial // 5 % len(_KINDS)])))
    # differences x1, x1 - 1 (facets), 2 x1 - 1 and x2 + 1/2 (not facets)
    pieces = ((0, 0, 0), (0, 1, 0), (-1, 1, 0), (-1, 2, 0), (F(1, 2), 0, 1))
    cases.append((2, [Affine(2, tuple(map(F, c))) for c in pieces]))
    facets = 0
    for n, affines in cases:
        differences = _differences(affines)
        facets += sum(map(_is_facet, differences))
        with pytest.raises(BudgetExceededError) as err:
            vertices_from_components(n, affines, budget=0)
        assert err.value.size == math.comb(len(_hyperplanes(n, differences)), n), (n, affines)
    assert facets > 10


def test_vertex_enumeration_matches_the_oracle_on_term_functions():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 4)
        pieces = components(term_pwl(rand_formula(rng, n, 3), n))
        assert vertices_from_components(n, pieces) == brute_vertices(n, pieces)


def test_vertex_enumeration_edge_cases():
    # no pieces, one piece, and only constants: the box corners
    for n in (1, 2, 3):
        corners = tuple(grid_points(n, 1))
        assert vertices_from_components(n, []) == corners
        x1 = Affine(n, (F(0), F(1)) + (F(0),) * (n - 1))
        assert vertices_from_components(n, [x1]) == corners
        flat = [Affine(n, (F(k, 3),) + (F(0),) * n) for k in range(3)]
        assert vertices_from_components(n, flat) == corners
    # x = 1/3 three times over: coincident hyperplanes from scaled pieces
    pieces = [Affine(1, (F(0), F(0))), Affine(1, (F(-1), F(3))), Affine(1, (F(-2), F(6)))]
    assert vertices_from_components(1, pieces) == ((F(0),), (F(1, 3),), (F(1),))
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension >= 1"):
            vertices_from_components(n, [])
        with pytest.raises(ValueError, match="dimension >= 1"):
            brute_vertices(n, [])


def test_vertex_budget_matches_the_oracle_count():
    rng = random.Random(103)
    n = 3
    affines = _component_set(rng, n, "plain") + _component_set(rng, n, "parallel")
    with pytest.raises(BudgetExceededError) as expected:
        brute_vertices(n, affines, budget=0)
    systems = expected.value.size
    assert systems > 1
    with pytest.raises(BudgetExceededError) as oracle:
        brute_vertices(n, affines, budget=systems - 1)
    with pytest.raises(BudgetExceededError) as err:
        vertices_from_components(n, affines, budget=systems - 1)
    assert (err.value.size, err.value.budget) == (systems, systems - 1)
    assert str(err.value) == str(oracle.value)
    exact = vertices_from_components(n, affines, budget=systems)
    assert exact == brute_vertices(n, affines, budget=systems)


def test_vertex_budget_is_checked_before_any_system():
    # about 2.6e19 five-row systems: this returns only if nothing is solved
    n = 5
    rng = random.Random(107)
    affines = [rand_affine(rng, n, bound=50, max_den=50) for _ in range(200)]
    with pytest.raises(BudgetExceededError) as expected:
        brute_vertices(n, affines, budget=0)
    systems = expected.value.size
    assert systems > 10**18
    with pytest.raises(BudgetExceededError) as err:
        vertices_from_components(n, affines, budget=systems - 1)
    assert err.value.size == systems


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


# Shapes with plateaus, where the witness is decided by the tie rule; the
# first is that of test_extrema_breaks_ties_at_the_first_vertex
_TIE_SHAPES = (
    lambda a, b, r: Odot(Oplus(a, a), Oplus(a, a)),
    lambda a, b, r: Meet(a, RConst(r)),
    lambda a, b, r: Join(a, RConst(r)),
    lambda a, b, r: Join(Odot(a, b), Odot(b, a)),
    lambda a, b, r: Delta(r, Oplus(a, b)),
    lambda a, b, r: Ominus(Oplus(a, b), RConst(r)),
)


def _vertex_extrema(phi):
    n = arity(phi)
    if n == 0:
        value = evaluate(phi, ())
        return value, (), value, ()
    return vertex_extrema(term_pwl(phi, n))


def test_lp_extrema_match_the_vertex_scan():
    # minimum and maximum (values and witnesses) and the four verdicts, each
    # against extrema() on the term function
    rng = random.Random(113)
    shaped = equivalent = beyond = 0
    for trial in range(640):
        n = trial % 4 + 1
        scalars = trial % 2 == 0
        phi = rand_formula(rng, n, 3, scalars)
        if trial % 3 == 0:
            shape = _TIE_SHAPES[trial // 3 % len(_TIE_SHAPES)]
            phi = shape(phi, rand_formula(rng, n, 2, scalars), rand_unit(rng, 6))
            shaped += 1
        try:
            lo, lo_at, hi, hi_at = _vertex_extrema(phi)
        except BudgetExceededError:
            # beyond the vertex scan: the witnesses still give the values
            for value, at in (minimum(phi), maximum(phi)):
                assert evaluate(phi, at) == value
            beyond += 1
            continue
        assert minimum(phi) == (lo, lo_at), phi
        assert maximum(phi) == (hi, hi_at), phi
        assert is_valid(phi) == (lo == 1)
        assert is_invalid(phi) == ((True, lo_at) if lo == 0 else (False, None))
        assert unit_norm(phi) == hi
        # the expansion is equivalent by construction (its own term function
        # may exceed the piece cap); a random formula is equivalent when the
        # two term functions agree at every vertex of their common arrangement
        if trial % 2:
            assert semantic_equiv(phi, expand(phi)), phi
            continue
        psi = rand_formula(rng, n, 2, scalars)
        m = max(1, arity(phi), arity(psi))
        f, g = term_pwl(phi, m), term_pwl(psi, m)
        vertices = vertices_from_components(m, components(f) + components(g))
        same = all(maxmin_eval(f, v) == maxmin_eval(g, v) for v in vertices)
        assert semantic_equiv(phi, psi) == same, (phi, psi)
        equivalent += same
    assert shaped > 200 and equivalent > 10 and beyond < 20


def test_formula_budget_counts_simplex_pivots(monkeypatch):
    phi = parse("(v1 (+) v2 (+) v3) <-> (v1 (.) v2 (.) v3)")
    spent = []

    def counted(*args):
        result = solve_lp(*args)
        spent.append(sum(spent[-1:]) + result.pivots)
        return result

    solve_lp = geometry.solve_lp
    monkeypatch.setattr(geometry, "solve_lp", counted)
    expected = minimum(phi)
    monkeypatch.undo()
    assert len(spent) >= 2
    # checked after every LP: the first total above the budget is the size.
    # The negation's term function is one group of three pieces, so the
    # first LP is its maximum and the others fix the witness.
    for k, total in enumerate(spent):
        with pytest.raises(BudgetExceededError) as err:
            minimum(phi, budget=total - 1)
        assert (err.value.size, err.value.budget) == (total, total - 1)
        stage = "group maxima" if k == 0 else "lexicographic witness"
        assert str(err.value).startswith(f"simplex pivots of the {stage} in dimension 3: ")
    assert minimum(phi, budget=spent[-1]) == expected
    # the value alone needs no witness LPs
    assert is_valid(phi, budget=spent[0]) is False


def test_transitivity_instance_is_quick():
    # the vertex scan took 7.7 s on a 2-core x86 box (145 s with Fraction
    # solves); the term function of the negation's normal form prunes to 0
    phi = parse("((!v2 <-> !v1) -> (v3 \\/ !v2)) -> (((v3 \\/ !v2) -> v2) -> ((!v2 <-> !v1) -> v2))")
    started = time.perf_counter()
    assert is_valid(phi)
    assert minimum(phi) == (1, (0, 0, 0))
    assert time.perf_counter() - started < 2


def _tents(rng, n, count):
    """The max of ``count`` pyramids h - s * max_i |x_i - c_i|, one group of 2n
    pieces each, centred in distinct cells of a k^n grid; each is the max at
    its own centre, so no group is redundant."""
    k = {1: 64, 2: 3, 3: 2}[n]
    cells = rng.sample(sorted(grid_points(n, k - 1)), count)
    groups = []
    for cell in cells:
        h = F(rng.randint(2, 12), 8)  # 1/4 to 3/2: some pyramids leave [0, 1]
        centre = [(k - 1) * c / k + F(1, 2 * k) for c in cell]
        pieces = []
        for i, c in enumerate(centre, 1):
            for sign in (1, -1):
                linear = [F(0)] * n
                linear[i - 1] = F(-2 * k * sign)
                pieces.append(Affine(n, (h + 2 * k * sign * c, *linear)))
        groups.append(pieces)
    return MaxMin(n, groups)


def test_maxmin_extrema_and_the_synthesis_range_check_match_the_vertex_scan():
    # truncations as in criterion 5, tents of up to 64 groups, the plateau
    # shapes of _TIE_SHAPES, and functions that leave [0, 1]
    rng = random.Random(127)
    kinds = {"truncated": 0, "raw": 0, "tent": 0, "shape": 0}
    below = above = 0
    for trial in range(560):
        kind = tuple(kinds)[trial % 4]
        n = trial // 4 % 4 if kind in ("truncated", "raw") else trial // 4 % 3 + 1
        if kind == "truncated":
            f = trunc(rand_maxmin(rng, n, max_groups=3, max_group_size=3, bound=3, max_den=8))
        elif kind == "raw":
            f = rand_maxmin(rng, n, max_groups=4, max_group_size=3, bound=2, max_den=8)
        elif kind == "tent":
            count = 64 if trial % 96 == 2 else rng.randint(1, {1: 40, 2: 6, 3: 2}[n])
            f = _tents(rng, n, count)
            if trial % 3 == 0:
                f = mm_join(f, constant(n, 0))  # only the top can leave [0, 1]
        else:
            shape = _TIE_SHAPES[trial // 4 % len(_TIE_SHAPES)]
            phi = shape(rand_formula(rng, n, 2), rand_formula(rng, n, 2), rand_unit(rng, 6))
            # plateaus at the extremes, sometimes shifted out of [0, 1]
            f = mm_add(term_pwl(phi, n), constant(n, rng.choice((0, 0, F(1, 2), F(-1, 2)))))
        kinds[kind] += 1
        lo, lo_at, hi, hi_at = expected = vertex_extrema(f)
        assert extrema(f) == expected, (kind, f)
        if lo < 0 or hi > 1:
            with pytest.raises(RangeViolationError) as err:
                synth_pwl(f)
            value, point = (lo, lo_at) if lo < 0 else (hi, hi_at)
            assert (err.value.value, err.value.point) == (value, point), (kind, f)
            below += lo < 0
            above += lo >= 0
    assert min(kinds.values()) == 140 and below > 100 and above > 30, (kinds, below, above)


def test_synthesis_budget_counts_the_pivots_of_each_extremum(monkeypatch):
    # max(x1 - 1/2, x2 - 1/2, 1/4 - x1 - x2): one-piece groups, so the
    # maximum is closed form; the minimum is one LP on the single group of
    # the reflection, and its witness (it drops below 0) takes more
    pieces = ((F(-1, 2), 1, 0), (F(-1, 2), 0, 1), (F(1, 4), -1, -1))
    f = MaxMin(2, [[Affine(2, piece)] for piece in pieces])
    spent = []

    def counted(*args):
        result = solve_lp(*args)
        spent.append(sum(spent[-1:]) + result.pivots)
        return result

    solve_lp = geometry.solve_lp
    monkeypatch.setattr(geometry, "solve_lp", counted)
    with pytest.raises(RangeViolationError) as expected:
        synth_pwl(f)
    monkeypatch.undo()
    assert str(expected.value) == "function drops below 0 at 1/4,1/4: value -1/4"
    assert len(spent) >= 2
    for k, total in enumerate(spent):
        with pytest.raises(BudgetExceededError) as err:
            synth_pwl(f, budget=total - 1)
        assert (err.value.size, err.value.budget) == (total, total - 1)
        stage = "group maxima" if k == 0 else "lexicographic witness"
        assert str(err.value).startswith(f"simplex pivots of the {stage} in dimension 2: ")
    with pytest.raises(RangeViolationError) as err:
        synth_pwl(f, budget=spent[-1])
    assert str(err.value) == str(expected.value)


def test_minimum_past_the_piece_cap_of_the_reflection_comes_from_the_vertex_scan():
    # n = 1, 13 groups of up to 10 pieces: -f outgrows the piece cap, so the
    # minimum is the scan's, and the budget counts its hyperplane subsets
    a = "(C[2/5] \\/ !v1) (.) (!v1 (+) !v1)"
    f = term_pwl(parse(f"({a} (+) {a}) (.) ({a} (+) {a})"), 1)
    with pytest.raises(BudgetExceededError, match="^reflection would exceed the piece cap"):
        mm_negate(f)
    assert extrema(f) == vertex_extrema(f)
    with pytest.raises(BudgetExceededError, match="^vertex enumeration over"):
        extrema(f, budget=1)


def test_the_library_reads_no_budget_from_the_environment(monkeypatch):
    # RIESZ_BUDGET=3 makes the CLI's min of this formula a budget error
    # (tests/test_cli.py::test_budget_env_var); the library takes the default
    monkeypatch.setenv("RIESZ_BUDGET", "3")
    assert minimum(parse("(v1 (+) v2 (+) v3) <-> (v1 (.) v2 (.) v3)")) == (0, (0, 0, 1))
