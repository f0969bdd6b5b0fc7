import random
from fractions import Fraction

from rieszmv.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

F = Fraction


def test_simple_feasible_lp():
    # min -x - y  s.t.  x + y + s = 1
    result = solve_lp([[F(1), F(1), F(1)]], [F(1)], [F(-1), F(-1), F(0)])
    assert result.status == OPTIMAL
    assert result.objective == -1
    assert sum(result.x[:2]) == 1


def test_two_constraint_lp():
    # min -2x - 3y  s.t.  x + y + s1 = 4,  x + 2y + s2 = 5
    rows = [[F(1), F(1), F(1), F(0)], [F(1), F(2), F(0), F(1)]]
    result = solve_lp(rows, [F(4), F(5)], [F(-2), F(-3), F(0), F(0)])
    assert result.status == OPTIMAL
    assert result.x[:2] == (F(3), F(1))
    assert result.objective == -9


def test_fractional_solution_is_exact():
    # x = 1/3 forced by 3x = 1
    result = solve_lp([[F(3)]], [F(1)], [F(1)])
    assert result.status == OPTIMAL
    assert result.x == (F(1, 3),)


def test_infeasible_gives_farkas():
    # x + y = 1 and x + y = 2 cannot both hold
    rows = [[F(1), F(1)], [F(1), F(1)]]
    rhs = [F(1), F(2)]
    result = solve_lp(rows, rhs, [F(0), F(0)])
    assert result.status == INFEASIBLE
    y = result.farkas
    for col in range(2):
        assert sum(y[i] * rows[i][col] for i in range(2)) <= 0
    assert sum(yi * bi for yi, bi in zip(y, rhs)) > 0


def test_infeasible_negative_rhs_gives_farkas():
    # x >= 0 with x = -1
    result = solve_lp([[F(1)]], [F(-1)], [F(0)])
    assert result.status == INFEASIBLE
    y = result.farkas
    assert y[0] * 1 <= 0
    assert y[0] * F(-1) > 0


def test_unbounded():
    # min -x  s.t.  x - s = 0 lets x grow without bound
    result = solve_lp([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])
    assert result.status == UNBOUNDED


def test_degenerate_feasibility():
    # redundant equalities keep a zero-value artificial basic; still feasible
    rows = [[F(1), F(1)], [F(2), F(2)]]
    result = solve_lp(rows, [F(1), F(2)], [F(0), F(0)])
    assert result.status == OPTIMAL
    assert sum(result.x) == 1


def test_random_feasibility_matches_construction():
    # Build Ax = b with a known nonnegative solution; the solver must agree,
    # and its solution must satisfy the system exactly.
    rng = random.Random(97)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        hidden = [F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n)]
        rhs = [sum(row[j] * hidden[j] for j in range(n)) for row in rows]
        result = solve_lp(rows, rhs, [F(0)] * n)
        assert result.status == OPTIMAL
        for row, b in zip(rows, rhs):
            assert sum(rij * xj for rij, xj in zip(row, result.x)) == b
        assert all(xj >= 0 for xj in result.x)


def test_random_infeasible_certificates_verify():
    rng = random.Random(103)
    found = 0
    for _ in range(60):
        m = rng.randint(2, 3)
        n = rng.randint(1, 3)
        rows = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-2, 2)) for _ in range(m)]
        result = solve_lp(rows, rhs, [F(0)] * n)
        if result.status != INFEASIBLE:
            continue
        found += 1
        y = result.farkas
        for col in range(n):
            assert sum(y[i] * rows[i][col] for i in range(m)) <= 0
        assert sum(yi * bi for yi, bi in zip(y, rhs)) > 0
    assert found > 5


def test_deterministic_over_repeat_runs():
    rows = [[F(1), F(2), F(0), F(1)], [F(0), F(1), F(1), F(3)]]
    rhs = [F(2), F(1)]
    cost = [F(1), F(-1), F(0), F(2)]
    first = solve_lp(rows, rhs, cost)
    for _ in range(3):
        again = solve_lp(rows, rhs, cost)
        assert again == first


def _satisfies(rows, rhs, x):
    return all(xj >= 0 for xj in x) and all(
        sum(rij * xj for rij, xj in zip(row, x)) == b for row, b in zip(rows, rhs)
    )


def test_artificial_left_basic_after_phase_one_cannot_rise():
    # columns x0, z, s1..s6; every feasible point has z = 1 (row 4 forces
    # z >= 1, rows 1, 2 and 6 force z <= 1), and phase 1 ends with an
    # artificial basic at level 0
    rows = [
        [0, 1, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0],
        [0, -1, 0, 0, 1, 0, 0, 0],
        [0, -1, 0, 0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0, 0, 1],
    ]
    rows = [[F(v) for v in row] for row in rows]
    rhs = [F(1), F(1), F(0), F(-1), F(1), F(1)]
    cost = [F(0), F(1)] + [F(0)] * 6
    result = solve_lp(rows, rhs, cost)
    assert result.status == OPTIMAL
    assert _satisfies(rows, rhs, result.x)
    assert result.x[1] == 1
    assert result.objective == 1


def test_random_degenerate_optima_are_feasible():
    # Duplicated (scaled) rows and a sparse hidden solution leave artificial
    # variables basic at level 0 after phase 1; every optimum must still
    # satisfy A x = b and x >= 0 and report its objective c*x.
    rng = random.Random(211)
    optimal = 0
    for _ in range(300):
        m = rng.randint(2, 5)
        n = rng.randint(2, 6)
        rows = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(1, 2)):
            source = rng.choice(rows)
            rows.append([F(rng.choice((-2, -1, 1, 2))) * v for v in source])
        hidden = [F(rng.randint(0, 3), rng.randint(1, 3)) if rng.random() < 0.4 else F(0) for _ in range(n)]
        rhs = [sum(row[j] * hidden[j] for j in range(n)) for row in rows]
        cost = [F(rng.randint(-3, 3)) for _ in range(n)]
        if not any(cost):
            cost[0] = F(1)
        result = solve_lp(rows, rhs, cost)
        assert result.status != INFEASIBLE
        if result.status != OPTIMAL:
            continue
        optimal += 1
        assert _satisfies(rows, rhs, result.x)
        assert result.objective == sum(ci * xi for ci, xi in zip(cost, result.x))
        assert result.objective <= sum(ci * hi for ci, hi in zip(cost, hidden))
    assert optimal > 100
