import gc
import random
import time
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest

from rieszmv import (
    Delta,
    Iff,
    Implies,
    Join,
    Meet,
    Nabla,
    Neg,
    Odot,
    Ominus,
    Oplus,
    ParseError,
    RConst,
    Var,
    arity,
    evaluate,
    expand,
    format_formula,
    maxmin_eval,
    parse,
    program,
    scalar_mul,
    term_pwl,
)

from helpers import luk_eval, rand_formula, rand_point, rand_unit

F = Fraction


def test_parse_examples():
    assert parse("v1 -> v1") == Implies(Var(1), Var(1))
    assert parse("D[1/2] v1") == Delta(F(1, 2), Var(1))
    assert parse("!v1 (+) v2") == Oplus(Neg(Var(1)), Var(2))


def test_parse_precedence_and_associativity():
    assert parse("v1 -> v2 -> v3") == Implies(Var(1), Implies(Var(2), Var(3)))
    assert parse("v1 (+) v2 (-) v3") == Ominus(Oplus(Var(1), Var(2)), Var(3))
    assert parse("v1 \\/ v2 /\\ v3") == Join(Var(1), Meet(Var(2), Var(3)))
    assert parse("v1 <-> v2 <-> v3") == Iff(Iff(Var(1), Var(2)), Var(3))
    assert parse("!v1 (.) v2") == Odot(Neg(Var(1)), Var(2))
    assert parse("D[0.5] v1") == Delta(F(1, 2), Var(1))
    assert parse("(v1 -> v2) -> v3") == Implies(Implies(Var(1), Var(2)), Var(3))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("v1 -> ")
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse("v0")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("D[3/2] v1")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("v1 @ v2")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse("D[1/0] v1")
    with pytest.raises(ParseError):
        parse("v1 v2")


def test_print_round_trips_examples():
    for text in ("v1 -> v1", "D[1/2] v1", "!v1 (+) v2"):
        phi = parse(text)
        assert parse(format_formula(phi)) == phi
        assert format_formula(phi) == text


def test_print_round_trips_random():
    rng = random.Random(7)
    for _ in range(300):
        phi = rand_formula(rng, 3, 5)
        assert parse(format_formula(phi)) == phi


def test_print_round_trips_exhaustive_small():
    leaves = [Var(1), Var(2), RConst(F(1, 2))]
    unary = [Neg, lambda c: Delta(F(1, 3), c), lambda c: Nabla(F(2, 3), c)]
    binary = [Implies, Oplus, Odot, Join, Meet, Iff, Ominus]
    depth1 = list(leaves)
    depth1 += [u(c) for u in unary for c in leaves]
    depth1 += [b(l, r) for b in binary for l in leaves for r in leaves]
    depth2 = [u(c) for u in unary for c in depth1]
    depth2 += [b(l, r) for b in binary for l in depth1 for r in leaves]
    depth2 += [b(l, r) for b in binary for l in leaves for r in depth1]
    for phi in depth1 + depth2:
        assert parse(format_formula(phi)) == phi


def test_eval_examples():
    phi = parse("v1 -> v1")
    for x in (F(0), F(1, 3), F(1)):
        assert evaluate(phi, (x,)) == 1
    assert evaluate(parse("N[1/2] v1"), (F(3, 5),)) == F(4, 5)
    assert evaluate(parse("D[1/2] v1"), (F(3, 5),)) == F(3, 10)
    assert evaluate(parse("D[1/3] D[1/2] v1"), (F(3, 5),)) == F(1, 10)
    assert evaluate(parse("N[0] v1"), (F(3, 5),)) == 1
    assert evaluate(parse("N[1] v1"), (F(3, 5),)) == F(3, 5)
    assert evaluate(parse("C[3/7]"), (F(1, 2),)) == F(3, 7)
    # int coordinates, and coordinates with coprime denominators
    assert evaluate(parse("v1 (+) v2"), (0, 1)) == 1
    assert evaluate(parse("v1 -> v2"), (1, 0)) == 0
    assert evaluate(parse("v1 (+) D[1/5] v2"), (F(1, 3), F(3, 7))) == F(1, 3) + F(3, 35)


def test_eval_all_connectives():
    x, y = F(3, 10), F(4, 5)
    point = (x, y)
    assert evaluate(parse("v1 (+) v2"), point) == min(1, x + y)
    assert evaluate(parse("v1 (.) v2"), point) == max(0, x + y - 1)
    assert evaluate(parse("v1 \\/ v2"), point) == max(x, y)
    assert evaluate(parse("v1 /\\ v2"), point) == min(x, y)
    assert evaluate(parse("v1 <-> v2"), point) == 1 - abs(x - y)
    assert evaluate(parse("v1 (-) v2"), point) == max(0, x - y)
    assert evaluate(parse("v2 (-) v1"), point) == max(0, y - x)
    assert evaluate(parse("C[2/7]"), ()) == F(2, 7)


def test_arity_examples():
    assert arity(parse("v3")) == 3
    assert arity(parse("C[1/2]")) == 0
    assert arity(parse("v1 /\\ v2")) == 2


def test_eval_arity_mismatch():
    with pytest.raises(ValueError):
        evaluate(parse("v2"), (F(1, 2),))
    with pytest.raises(ValueError):
        evaluate(parse("v1"), (F(3, 2),))
    with pytest.raises(TypeError):
        evaluate(parse("v1"), (0.3,))
    with pytest.raises(TypeError):
        evaluate(parse("v1"), (Decimal("0.5"),))
    with pytest.raises(TypeError):
        evaluate(Neg("v1"), (F(1, 2),))
    # a mismatch names the first offending variable from the left
    with pytest.raises(ValueError, match="v3"):
        evaluate(parse("v3 -> v2 \\/ v4"), (F(1, 2),))


def test_eval_accepts_longer_points():
    assert evaluate(parse("v1"), (F(1, 4), F(1), F(0))) == F(1, 4)


def test_scalar_connective_identities_random():
    rng = random.Random(11)
    for _ in range(200):
        phi = rand_formula(rng, 2, 3)
        r = rand_unit(rng)
        x = rand_point(rng, 2)
        value = evaluate(phi, x)
        assert evaluate(Neg(Neg(phi)), x) == value
        assert evaluate(Delta(r, phi), x) == scalar_mul(r, value)
        assert evaluate(Nabla(r, phi), x) == 1 - r + r * value


def test_eval_agrees_with_expansion_random():
    rng = random.Random(13)
    for _ in range(200):
        phi = rand_formula(rng, 3, 4)
        expanded = expand(phi)
        x = rand_point(rng, 3)
        assert evaluate(phi, x) == evaluate(expanded, x)


def test_expand_uses_only_primitives():
    rng = random.Random(17)
    primitives = (Var, Neg, Implies, Nabla)

    def check(node):
        assert type(node) in primitives
        if type(node) is Neg:
            check(node.child)
        elif type(node) is Implies:
            check(node.left)
            check(node.right)
        elif type(node) is Nabla:
            check(node.child)

    for _ in range(50):
        check(expand(rand_formula(rng, 3, 4)))
    check(expand(RConst(F(2, 5))))


def test_rconst_expansion_value():
    phi = RConst(F(2, 5))
    assert evaluate(phi, ()) == F(2, 5)
    assert evaluate(expand(phi), (F(0),)) == F(2, 5)
    assert evaluate(expand(phi), (F(1, 3),)) == F(2, 5)


def test_conservative_over_lukasiewicz_random():
    rng = random.Random(19)
    for _ in range(200):
        phi = rand_formula(rng, 3, 4, scalars=False)
        x = rand_point(rng, 3)
        assert evaluate(phi, x) == luk_eval(phi, x)


def test_node_validation():
    with pytest.raises(ValueError):
        Var(0)
    with pytest.raises(ValueError):
        Delta(F(3, 2), Var(1))
    with pytest.raises(ValueError):
        RConst(F(-1, 2))


def test_program_lists_each_distinct_node_once_children_first():
    shared = parse("D[1/3] D[1/2] v1")
    phi = Join(shared, Nabla(F(1, 4), Neg(shared)))
    entries = program(phi)
    assert [e[0] for e in entries] == [Var, Delta, Delta, Neg, Nabla, Join]
    assert entries[-1][2:4] == (2, 4)
    # value denominators: lcm over paths of the scalar denominators' product
    assert [e[4] for e in entries] == [1, 2, 6, 6, 24, 24]
    assert program(phi) is entries
    assert program(RConst(F(2, 9)))[-1][4] == 9


def test_shared_subformulas_evaluate_like_their_tree():
    shared = parse("v1 (.) D[2/3] v2")
    dag = Implies(shared, Oplus(shared, Neg(shared)))
    tree = parse("v1 (.) D[2/3] v2 -> (v1 (.) D[2/3] v2) (+) !(v1 (.) D[2/3] v2)")
    assert dag == tree
    assert arity(dag) == 2
    assert expand(dag) == expand(tree)
    for x in ((F(1, 2), F(3, 4)), (F(1), F(1)), (0, F(2, 5))):
        assert evaluate(dag, x) == evaluate(tree, x) == maxmin_eval(term_pwl(dag, 2), x)


def test_evaluate_leaves_equality_hash_and_repr_alone_and_makes_no_cycle():
    phi = parse("v1 -> N[1/2] v2 \\/ C[1/3]")
    before = (hash(phi), repr(phi))
    evaluate(phi, (F(1, 2), F(1, 3)))
    assert (hash(phi), repr(phi)) == before
    assert phi == parse("v1 -> N[1/2] v2 \\/ C[1/3]")
    gc.disable()
    try:
        ref = weakref.ref(phi)
        del phi
        assert ref() is None
    finally:
        gc.enable()


def test_deep_formulas_built_in_code():
    phi = Var(1)
    for _ in range(10**5):
        phi = Neg(phi)
    assert arity(phi) == 1
    assert evaluate(phi, (F(1, 3),)) == F(1, 3)
    assert evaluate(expand(phi), (F(1, 4),)) == F(1, 4)
    psi = Var(1)
    for k in range(10**4):
        psi = Neg(psi) if k % 3 else Delta(F(1, 2), psi) if k % 2 else Nabla(F(2, 3), psi)
    f = term_pwl(psi, 1)
    for x in ((F(0),), (F(1, 3),), (F(1),)):
        assert maxmin_eval(f, x) == evaluate(psi, x)
    chain = Var(2)
    for k in range(10**3):
        chain = Oplus(chain, Var(1)) if k % 2 else Meet(Var(1), chain)
    f = term_pwl(chain, 2)
    for x in ((F(0), F(1, 5)), (F(1, 3), F(1, 7)), (F(1), F(0))):
        assert maxmin_eval(f, x) == evaluate(chain, x)


def test_wide_join_with_large_denominators_is_fast():
    r = F(1, 10**400 + 7)
    phi = Delta(r, Var(1))
    for _ in range(2000):
        phi = Join(phi, Delta(r, Var(1)))
    start = time.perf_counter()
    assert evaluate(phi, (F(1, 2),)) == r / 2
    assert time.perf_counter() - start < 1.0
