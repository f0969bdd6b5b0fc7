import gc
import hashlib
import math
import random
import re
import sys
import threading
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
    synth_pwl,
    term_pwl,
    trunc,
)

from helpers import luk_eval, nnf, rand_formula, rand_maxmin, rand_point, rand_unit

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


_SYMBOLS = ("<->", "->", "\\/", "/\\", "(+)", "(-)", "(.)")
_PREFIXES = ("!", "D[1/3] ", "N[2/5] ")
_LEAVES = ("v1", "v2", "v3", "C[1/2]", "C[0]", "C[1]")
_TOKENS = _SYMBOLS + _LEAVES + ("v0", "C[", "D[", "N[", "]", "(", ")", "!")
_TOKENS += ("1/2", "3/2", "1/0", "0.25", "7", "@", "<-", "-")


def _chain(rng, depth):
    # 1-4 prefixed operands joined by random connectives, some parenthesized
    sep = rng.choice(("", " ", " "))
    operands = []
    for _ in range(rng.randint(1, 4)):
        operand = "(" + _chain(rng, depth - 1) + ")" if depth and rng.random() < 0.3 else rng.choice(_LEAVES)
        operands.append("".join(rng.choices(_PREFIXES, k=rng.choice((0, 0, 1, 2)))) + operand)
    return operands[0] + "".join(f"{sep}{rng.choice(_SYMBOLS)}{sep}{o}" for o in operands[1:])


def _error_text(text):
    try:
        parse(text)
    except ParseError as exc:
        return str(exc)
    return "ok"


def test_parsed_trees_are_pinned():
    # sha256 of the trees that the one-method-per-precedence-level parser built
    rng = random.Random(131)
    text = "\n".join(repr(parse(_chain(rng, 2))) for _ in range(20_000))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c00a64816332716a38ef216ec252065dc3fc756dc7a5fa2ccca30079a128bf69"
    )


def test_parse_errors_are_pinned():
    # sha256 of the error texts (positions included) that the same parser gave
    rng = random.Random(137)
    texts = [rng.choice(("", " ")).join(rng.choices(_TOKENS, k=rng.randint(1, 8))) for _ in range(20_000)]
    errors = [_error_text(t) for t in texts]
    assert sum(e != "ok" for e in errors) == 19_449
    assert hashlib.sha256("\n".join(errors).encode()).hexdigest() == (
        "8e84c3a5a9f9dae4e780480b881fa5bfbbe43c5a16f2270ef3746ae024cd51ea"
    )


def _tree_walk(phi, entries, index):
    # the program by plain recursion, apart from formula._intern: position of
    # phi's entry, equal subformulas sharing one, den the lcm of the
    # children's times the scalar's denominator
    children = [getattr(phi, name) for name in ("left", "right", "child") if hasattr(phi, name)]
    positions = [_tree_walk(child, entries, index) for child in children]
    payload = phi.index if type(phi) is Var else getattr(phi, "r", None)
    key = (type(phi), payload, *positions, *[None] * (2 - len(positions)))
    if key not in index:
        den = math.lcm(1, *[entries[k][4] for k in positions]) * getattr(payload, "denominator", 1)
        index[key] = len(entries)
        entries.append(key + (den,))
    return index[key]


def _spelled(rng, match):
    # an equal spelling of the scalar p/q: p/q, 2p/2q, or a decimal
    r = F(match[1])
    spellings = [f"{r.numerator}/{r.denominator}", f"{2 * r.numerator}/{2 * r.denominator}"]
    if 1000 % r.denominator == 0:
        decimal = Decimal(r.numerator) / r.denominator
        spellings += [str(decimal), f"{decimal:.3f}"]
    return f"[{rng.choice(spellings)}]"


def _noisy(rng, text):
    # redundant parentheses around variables, and other whitespace between tokens
    text = re.sub(r"v\d+", lambda m: f"({m[0]})" if rng.random() < 0.3 else m[0], text)
    return re.sub(r" |(?<=\()(?![+.-])", lambda _: rng.choice(("", " ", "\t", "\n", "  ", "\r\n", "\u00a0")), text)


def test_parsed_program_equals_the_tree_walk():
    rng = random.Random(149)
    for k in range(5400):
        n = rng.randint(1, 4)
        phi = rand_formula(rng, n, rng.randint(0, 7), scalars=bool(k % 2))
        if k % 3 == 1:  # a DAG: one subformula occurs many times in its text
            shared = rand_formula(rng, n, 3)
            for _ in range(rng.randint(2, 6)):
                phi = rng.choice((Join, Oplus, Implies, Iff))(shared, Neg(phi) if rng.random() < 0.3 else phi)
        text = format_formula(phi)
        if k % 3 == 2:  # scalars respelled, such as 0.5, 1/2 and 2/4 for 1/2
            text = re.sub(r"\[([^]]*)\]", lambda m: _spelled(rng, m), text)
            wraps = rng.randint(0, 2)
            text = "(" * wraps + _noisy(rng, text) + ")" * wraps
        parsed = parse(text)
        cached = parsed._program
        object.__setattr__(parsed, "_program", None)
        assert program(parsed) == cached, text
        entries = []
        _tree_walk(parsed, entries, {})
        assert cached == tuple(entries), text
        assert parsed == phi and hash(parsed) == hash(phi), text
    assert parse("D[0.5] v1 (+) D[1/2] v1 (+) D[2/4] v1")._program == (
        (Var, 1, None, None, 1),
        (Delta, F(1, 2), 0, None, 2),
        (Oplus, None, 1, 1, 2),
        (Oplus, None, 2, 1, 2),
    )


def test_tokens_the_digests_do_not_reach_are_pinned():
    # literal expectations taken from the per-token tokenizer this one replaced:
    # every Unicode whitespace separates tokens
    assert parse("v1\u00a0->\tv2\n(+)\r\nv3") == Implies(Var(1), Oplus(Var(2), Var(3)))
    assert parse("\u00a0\u2003v1\u3000/\\\x0bv2\x1c") == Meet(Var(1), Var(2))
    assert parse("N[1/2]\u00a0(v1)") == Nabla(F(1, 2), Var(1))
    # \d matches every Unicode decimal digit, and int() and Fraction() read them
    assert parse("v\u0663") == Var(3)
    assert parse("D[\u0661/\u0662] v1") == Delta(F(1, 2), Var(1))
    assert parse("C[\u0660.\u0665]") == RConst(F(1, 2))
    long_scalar = "D[1/" + "7" * 400 + "] v1"  # LONG_SCALAR of test_cli.py
    phi = parse(long_scalar)
    assert phi == Delta(F(1, int("7" * 400)), Var(1)) and str(phi) == long_scalar
    assert program(phi)[-1][4] == int("7" * 400)
    for text, message, position in (
        ("v1 ->\t\n @ v2", "unexpected character '@'", 8),
        ("v1 (+)\u00a0 v2 \u00a0#", "unexpected character '#'", 12),
        ("v1 \u200b-> v2", "unexpected character '\\u200b'", 3),  # a zero-width space is no whitespace
        ("v\u00b2", "unexpected character 'v'", 0),  # a superscript is no decimal digit
        ("v1 -> v2\u00a0)", "trailing input ')'", 9),
        ("\u00a0", "expected a formula, found 'end of input'", 1),
        (long_scalar + " @", "unexpected character '@'", 409),
        ("D[" + "7" * 400 + "/1] v1", f"scalar {'7' * 400}/1 outside [0, 1]", 2),
        ("D[1/" + "0" * 400 + "] v1", "zero denominator", 2),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)


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


def test_negation_normal_form_keeps_values_and_negates_only_variables():
    rng = random.Random(139)
    for trial in range(520):
        n = trial % 4 + 1
        phi = rand_formula(rng, n, 4, scalars=trial % 3 != 0)
        pos, neg = nnf(phi)
        for form in (pos, neg):
            for kind, _, i, _, _ in program(form):
                assert kind not in (Implies, Iff, Ominus)
                if kind is Neg:
                    assert program(form)[i][0] is Var, phi
        # term functions on [0, 1]^n: !phi's through the negated form, phi's
        # through the positive one
        f_pos, f_neg = term_pwl(pos, n), term_pwl(neg, n)
        for _ in range(20):
            x = rand_point(rng, n)
            assert maxmin_eval(f_neg, x) == evaluate(Neg(phi), x), (phi, x)
            assert maxmin_eval(f_pos, x) == evaluate(phi, x), (phi, x)


def test_negation_normal_form_scalar_dualities():
    v1 = Var(1)
    r = F(2, 7)
    # !N[r]a = D[r]!a and !D[r]a = N[r]!a
    assert nnf(Nabla(r, v1)) == (Nabla(r, v1), Delta(r, Neg(v1)))
    assert nnf(Delta(r, v1)) == (Delta(r, v1), Nabla(r, Neg(v1)))
    # N[r]a = !D[r]!a, read left to right
    assert nnf(Neg(Delta(r, Neg(v1))))[0] == Nabla(r, v1)
    # !C[r] = C[1 - r]
    assert nnf(RConst(r)) == (RConst(r), RConst(F(5, 7)))
    assert nnf(Neg(RConst(F(1))))[0] == RConst(F(0))
    # connectives read through their definitions
    assert nnf(parse("v1 -> v2")) == (parse("!v1 (+) v2"), parse("v1 (.) !v2"))
    assert nnf(parse("v1 (-) v2")) == (parse("v1 (.) !v2"), parse("!v1 (+) v2"))
    assert nnf(parse("v1 <-> v2")) == (
        parse("(!v1 (+) v2) /\\ (!v2 (+) v1)"),
        parse("v1 (.) !v2 \\/ v2 (.) !v1"),
    )


def test_conservative_over_lukasiewicz_random():
    rng = random.Random(19)
    for _ in range(200):
        phi = rand_formula(rng, 3, 4, scalars=False)
        x = rand_point(rng, 3)
        assert evaluate(phi, x) == luk_eval(phi, x)


@pytest.mark.parametrize(
    "make", [lambda r: Nabla(r, Var(1)), lambda r: Delta(r, Var(1)), RConst], ids=["Nabla", "Delta", "RConst"]
)
@pytest.mark.parametrize(
    "r, error", [(F(3, 2), ValueError), (F(-1, 2), ValueError), (0.5, TypeError)], ids=["3/2", "-1/2", "float"]
)
def test_scalar_nodes_check_their_range(make, r, error):
    with pytest.raises(error):
        make(r)
    assert make(F(1, 2)).r == F(1, 2)


def test_node_validation():
    with pytest.raises(ValueError):
        Var(0)
    # the printer's stack holds text too; a text child is still no formula
    for bad in (Neg("v1"), Implies(Var(1), ")")):
        with pytest.raises(TypeError, match="not a formula node"):
            format_formula(bad)


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


def test_program_gives_equal_subformulas_one_entry():
    # v1, v2, v1 -> v2 and the sum: the parser's two copies share one entry
    assert len(program(parse("(v1 -> v2) (+) (v1 -> v2)"))) == 4
    # the formulas of the printer pin: joined with its parsed copy, a
    # formula gains only the join's entry
    rng = random.Random(113)
    for k in range(3000):
        phi = rand_formula(rng, rng.randint(1, 4), rng.randint(0, 7), scalars=bool(k % 2))
        assert len(program(Join(phi, parse(format_formula(phi))))) == len(program(phi)) + 1
    # synthesis shares one summand m times; its printed tree parses back to
    # the same program
    rng = random.Random(139)
    for _ in range(50):
        phi = synth_pwl(trunc(rand_maxmin(rng, rng.randint(1, 2))))
        assert program(parse(format_formula(phi))) == program(phi)


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


def _parse_nested(text, frames):
    # The parser recurses once per nesting level (nine frames per pair of
    # parentheses): run it on a thread with room for ``frames`` frames, and
    # restore the limits afterwards.
    result = []

    def run():
        try:
            result.append(parse(text))
        except Exception as exc:  # re-raised below, on the test's thread
            result.append(exc)

    limit = sys.getrecursionlimit()
    stack_size = threading.stack_size(512 * 2**20)
    sys.setrecursionlimit(frames + 1000)
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(stack_size)
    (phi,) = result
    if isinstance(phi, Exception):
        raise phi
    return phi


def test_deep_formulas_print_and_parse_back():
    neg = Var(1)
    for _ in range(10**5):
        neg = Neg(neg)
    text = format_formula(neg)
    assert text == "!" * 10**5 + "v1"
    assert program(_parse_nested(text, 10**5)) == program(neg)
    # right-nested -> prints bare; left-nested needs one pair per level
    right = left = Var(1)
    for k in range(2, 10**4 + 1):
        right = Implies(Var(k % 7 + 1), right)
        left = Implies(left, Var(k % 7 + 1))
    text = format_formula(right)
    assert text.count(" -> ") == 10**4 - 1 and "(" not in text
    assert program(_parse_nested(text, 10**4)) == program(right)
    text = format_formula(left)
    assert text.startswith("(" * (10**4 - 2) + "v1 -> v3) -> v4) -> ")
    assert program(_parse_nested(text, 10 * 10**4)) == program(left)


def test_printer_output_is_pinned():
    # sha256 of the output of the recursive printer this one replaced
    rng = random.Random(113)
    phis = [
        rand_formula(rng, rng.randint(1, 4), rng.randint(0, 7), scalars=bool(k % 2))
        for k in range(3000)
    ]
    text = "\n".join(format_formula(phi) for phi in phis)
    digest = "01b371dde73d94e02b77776d49d42286fe8b19f890407f1559def73c41db8aa0"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_wide_join_with_large_denominators_is_fast():
    r = F(1, 10**400 + 7)
    phi = Delta(r, Var(1))
    for _ in range(2000):
        phi = Join(phi, Delta(r, Var(1)))
    start = time.perf_counter()
    assert evaluate(phi, (F(1, 2),)) == r / 2
    assert time.perf_counter() - start < 1.0


def test_repr_is_pinned_and_equal_trees_hash_equally():
    # sha256 of the repr texts that the dataclass-generated method gave;
    # every 7th formula is a DAG sharing one subformula twice
    rng = random.Random(127)
    phis = []
    for k in range(3000):
        phi = rand_formula(rng, rng.randint(1, 4), rng.randint(0, 7), scalars=bool(k % 2))
        phis.append(Join(phi, phi) if k % 7 == 0 else phi)
    text = "\n".join(map(repr, phis))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "be206a17ab644cfb51403a9e71a5a2537eef13b44e40de374f30de00c96ff4cc"
    )
    for phi in phis:
        tree = parse(format_formula(phi))  # the parser builds a tree, never a DAG
        assert tree == phi and phi == tree and hash(tree) == hash(phi)
        assert not tree != phi


def test_equality_is_structural():
    scaled = Delta(F(1, 3), Var(2))
    shared = Oplus(Var(1), scaled)
    assert Join(shared, shared) == Join(Oplus(Var(1), scaled), Oplus(Var(1), Delta(F(1, 3), Var(2))))
    assert Odot(Var(1), Var(2)) != Oplus(Var(1), Var(2))
    assert hash(Odot(Var(1), Var(2))) == hash(Oplus(Var(1), Var(2)))  # as the dataclass had it
    assert Nabla(F(1, 2), Var(1)) != Delta(F(1, 2), Var(1))
    assert Nabla(F(1, 2), Var(1)) != Nabla(F(1, 3), Var(1))
    assert Var(1) != 1 and Var(1) != "v1"
    # a node with a non-formula child is no formula; only repr() prints it
    with pytest.raises(TypeError, match="not a formula node"):
        Neg(Var(1)) != Neg("x")
    with pytest.raises(TypeError, match="not a formula node"):
        hash(Neg("x"))
    assert repr(Neg("x")) == "Neg(child='x')"
    assert {Join(shared, shared): 1}[parse("(v1 (+) D[1/3] v2) \\/ (v1 (+) D[1/3] v2)")] == 1
    # 2^40 leaves as a tree: equality and hashing read one program entry per
    # distinct subformula
    left, right, other = Var(1), Var(1), Var(1)
    for k in range(40):
        left, right = Join(left, left), Join(right, right)
        other = Join(other, other if k else Var(2))
    start = time.perf_counter()
    assert left == right and hash(left) == hash(right)
    assert left != other and hash(left) != hash(other)
    assert time.perf_counter() - start < 1.0


def test_deep_formulas_compare_hash_and_print():
    def nest(k, leaf):
        for _ in range(k):
            leaf = Neg(leaf)
        return leaf

    phi, psi, chi = nest(10**5, Var(1)), nest(10**5, Var(1)), nest(10**5, Var(2))
    assert phi == psi and phi != chi and psi != chi
    assert hash(phi) == hash(psi) != hash(chi)
    assert repr(phi) == "Neg(child=" * 10**5 + "Var(index=1)" + ")" * 10**5
    deep = nest(10**5, Nabla(F(1, 2), Var(3)))
    assert repr(deep).endswith("Neg(child=Nabla(r=UnitRational(1, 2), child=Var(index=3))" + ")" * 10**5)
