import hashlib
import json
import random
from fractions import Fraction

import pytest

from rieszmv import (
    Book,
    BudgetExceededError,
    DutchBook,
    StateWitness,
    book_from_json,
    book_to_json,
    certificate_from_json,
    certificate_to_json,
    check_coherent,
    evaluate,
    event_image,
    is_invalid,
    maximum,
    maxmin_eval,
    minimum,
    nabla_combination,
    parse,
    semantic_equiv,
    shortfall_span_member,
    signed_difference,
    span_combination,
    span_member,
    state_eval,
    term_pwl,
    verify_certificate,
)
from rieszmv import Delta, Iff, Implies, Join, Meet, Nabla, Neg, Odot, Ominus, Oplus, RConst, Var, coherence
from rieszmv.lp import solve_lp

from helpers import clamp, rand_formula, rand_point, rand_signed, rand_unit
from helpers import fraction_image, pooled_event_image

F = Fraction

V1 = parse("v1")
NOT_V1 = parse("!v1")


def _book(*pairs):
    return Book(tuple((parse(text), F(odd)) for text, odd in pairs))


def test_event_image_examples():
    image = fraction_image(event_image(_book(("v1", "1/2"))))
    points = [p for p, _ in image]
    assert (F(0),) in points and (F(1),) in points
    values = {p: v for p, v in image}
    assert values[(F(0),)] == (F(0),)
    assert values[(F(1),)] == (F(1),)

    image = fraction_image(event_image(_book(("v1 (+) v1", "1/2"), ("v1", "1/2"))))
    assert [p for p, _ in image] == [(F(0),), (F(1, 2),), (F(1),)]
    assert [v for _, v in image] == [(F(0), F(0)), (F(1), F(1, 2)), (F(1), F(1))]

    image = fraction_image(event_image(_book(("C[1/2]", "1/2"))))
    assert all(v == (F(1, 2),) for _, v in image)


def test_coherent_book_two_sided():
    book = _book(("v1", "1/2"), ("!v1", "1/2"))
    result = check_coherent(book)
    assert isinstance(result, StateWitness)
    support = result.support
    assert len(support) <= 3
    for (phi, r) in book.events:
        assert sum(w * evaluate(phi, p) for p, w in support) == r
    assert verify_certificate(book, result)


def test_incoherent_book_complement_mispriced():
    book = _book(("v1", "1/2"), ("!v1", "3/10"))
    result = check_coherent(book)
    assert isinstance(result, DutchBook)
    assert result.stakes == (F(1), F(1))
    assert result.margin == F(1, 5)
    assert verify_certificate(book, result)
    # the loss is uniform: (1/2 - x) + (3/10 - (1 - x)) = -1/5 at every x
    for x in (F(0), F(1, 3), F(1)):
        losses = F(1, 2) - x + F(3, 10) - (1 - x)
        assert losses == -F(1, 5)


def test_incoherent_book_below_hull_edge():
    book = _book(("v1 (+) v1", "9/10"), ("v1", "2/5"))
    result = check_coherent(book)
    assert isinstance(result, DutchBook)
    assert verify_certificate(book, result)


def test_tampered_certificates_fail_verification():
    book = _book(("v1", "1/2"), ("!v1", "3/10"))
    result = check_coherent(book)
    weaker = DutchBook(result.stakes, result.margin * 2)
    assert not verify_certificate(book, weaker)
    # the margin is tight: the true loss bound passes, just above it fails
    assert verify_certificate(book, result)
    above = DutchBook(result.stakes, result.margin + F(1, 1000))
    assert not verify_certificate(book, above)
    flipped = DutchBook(tuple(-c for c in result.stakes), F(1, 5))
    assert not verify_certificate(book, flipped)

    ok_book = _book(("v1", "1/2"), ("!v1", "1/2"))
    witness = check_coherent(ok_book)
    bogus = StateWitness(((witness.support[0][0], F(1)),))
    if witness.support[0][0] != (F(1, 2),):
        assert not verify_certificate(ok_book, bogus)
    crowded = StateWitness((((F(0),), F(1, 4)), ((F(1, 3),), F(1, 4)), ((F(2, 3),), F(1, 4)), ((F(1),), F(1, 4))))
    assert not verify_certificate(ok_book, crowded)  # support exceeds k + 1


def test_single_event_interval_criterion_random():
    rng = random.Random(131)
    for _ in range(40):
        phi = rand_formula(rng, 2, 3)
        r = rand_unit(rng, 8)
        book = Book(((phi, r),))
        lo, _ = minimum(phi)
        hi, _ = maximum(phi)
        result = check_coherent(book)
        assert isinstance(result, StateWitness) == (lo <= r <= hi)
        assert verify_certificate(book, result)


def test_state_eval_laws():
    book = _book(("v1", "1/2"), ("!v1", "1/2"))
    witness = check_coherent(book)
    for phi, r in book.events:
        assert state_eval(witness, phi) == r
    assert state_eval(witness, parse("v1 -> v1")) == 1
    rng = random.Random(137)
    for _ in range(20):
        psi = rand_formula(rng, 1, 3)
        value = state_eval(witness, psi)
        assert 0 <= value <= 1
        r = rand_unit(rng, 8)
        assert state_eval(witness, parse(f"D[{r}]({psi})")) == r * value
        chi = rand_formula(rng, 1, 3)
        # additivity on pointwise-disjoint pairs
        if maximum(parse(f"({psi}) (.) ({chi})"))[0] == 0:
            total = state_eval(witness, parse(f"({psi}) (+) ({chi})"))
            assert total == value + state_eval(witness, chi)


def test_span_member_examples():
    book = _book(("v1", "1/2"))
    psi = span_member(book, [F(1)])
    assert evaluate(psi, (F(0),)) == 0
    for x in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
        assert evaluate(psi, (x,)) == clamp(x - F(1, 2))

    zero = span_member(book, [F(0)])
    assert maximum(zero)[0] == 0

    ground = span_member(_book(("v1", "0")), [F(-1)])
    assert maximum(ground)[0] == 0


def test_span_member_evaluation_identity_random():
    rng = random.Random(139)
    for _ in range(10):
        k = rng.randint(1, 2)
        events = [(rand_formula(rng, 2, 2), rand_unit(rng, 4)) for _ in range(k)]
        book = Book(tuple(events))
        cs = [rand_signed(rng, 2, 4) for _ in range(k)]
        psi = span_member(book, cs)
        shortfall = shortfall_span_member(book, cs)
        for _ in range(15):
            x = rand_point(rng, 2)
            want = clamp(sum(c * (evaluate(phi, x) - r) for c, (phi, r) in zip(cs, events)))
            assert evaluate(psi, x) == want
            want = clamp(sum(c * clamp(r - evaluate(phi, x)) for c, (phi, r) in zip(cs, events)))
            assert evaluate(shortfall, x) == want


def test_nabla_combination_examples():
    phi = parse("v1 (+) v2")
    assert semantic_equiv(nabla_combination([phi], [F(1)]), phi)

    damped = nabla_combination([V1], [F(1, 2)])
    for x in (F(0), F(1, 2), F(1)):
        assert evaluate(damped, (x,)) == F(1, 2) + x / 2

    psi = parse("!v1")
    combo = nabla_combination([V1, psi], [F(1, 3), F(1, 4)])
    for x in (F(0), F(1, 3), F(1)):
        want = clamp((1 - F(1, 3) + F(1, 3) * x) + (1 - F(1, 4) + F(1, 4) * (1 - x)))
        assert evaluate(combo, (x,)) == want


def test_shortfall_span_members_invalid_for_coherent_books():
    rng = random.Random(149)
    tried = 0
    for _ in range(30):
        k = rng.randint(1, 2)
        events = [(rand_formula(rng, 2, 2), rand_unit(rng, 4)) for _ in range(k)]
        book = Book(tuple(events))
        if not isinstance(check_coherent(book), StateWitness):
            continue
        tried += 1
        cs = [rand_signed(rng, 2, 4) for _ in range(k)]
        psi = shortfall_span_member(book, cs)
        verdict, witness = is_invalid(psi)
        assert verdict
        assert evaluate(psi, witness) == 0
        if tried >= 8:
            break
    assert tried >= 3


def test_signed_difference_examples():
    assert str(signed_difference(V1, F(1, 2), F(1))) == "v1 (-) C[1/2]"
    assert str(signed_difference(V1, F(1, 2), F(-1))) == "C[1/2] (-) v1"
    assert str(signed_difference(V1, F(1, 2), F(0))) == "v1 (-) C[1/2]"
    clamped = signed_difference(V1, F(1, 2), F(1))
    for x in (F(0), F(1, 2), F(3, 4), F(1)):
        assert evaluate(clamped, (x,)) == clamp(x - F(1, 2))


def test_sufficient_condition_cross_check_random():
    # When both one-sided spans are sampled-invalid but the solver says
    # incoherent, the Dutch book must still verify; certified incoherence
    # with a verified certificate never coexists with a genuine
    # all-invalid span (sampling can only overreport invalidity).
    rng = random.Random(151)
    for _ in range(15):
        k = rng.randint(1, 2)
        events = [(rand_formula(rng, 2, 2), rand_unit(rng, 4)) for _ in range(k)]
        book = Book(tuple(events))
        result = check_coherent(book)
        assert verify_certificate(book, result)
        if isinstance(result, DutchBook):
            stakes = result.stakes
            both = [signed_difference(phi, r, c) for (phi, r), c in zip(book.events, stakes)]
            combo = span_member(
                Book(tuple((phi, F(0)) for phi in both)), [abs(c) for c in stakes]
            )
            verdict, _ = is_invalid(combo)
            assert not verdict


def test_book_validation():
    with pytest.raises(ValueError):
        Book(())
    with pytest.raises(ValueError):
        Book(((V1, F(3, 2)),))
    with pytest.raises(ValueError):
        span_member(_book(("v1", "1/2")), [F(1), F(2)])


def test_witness_validation():
    with pytest.raises(ValueError):
        StateWitness((((F(0),), F(1, 2)),))  # weights sum to 1/2
    with pytest.raises(ValueError):
        DutchBook((F(1),), F(0))


def test_a_support_point_lies_in_the_unit_box():
    # verify_certificate once raised out of evaluate on such a point
    for point in ((F(1), F(1), F(2)), (F(-1, 2),), (F(1, 2), F(3, 2))):
        with pytest.raises(ValueError, match=r"^support coordinates must lie in \[0, 1\]$"):
            StateWitness(((point, F(1)),))
    data = {"kind": "coherent", "support": [{"point": ["1", "1", "2"], "weight": "1"}]}
    with pytest.raises(ValueError, match="^support coordinates"):
        certificate_from_json(data)
    assert StateWitness((((F(0), F(1)), F(1)),)).support == (((F(0), F(1)), F(1)),)


@pytest.mark.parametrize(
    "build",
    [
        lambda book: span_combination(book, [0.1]),
        lambda book: shortfall_span_member(book, [0.1]),
        lambda book: nabla_combination([V1], [0.1]),
        lambda book: StateWitness((((F(1, 2),), 1.0),)),
        lambda book: DutchBook((0.1,), F(1, 5)),
    ],
    ids=["span_combination", "shortfall_span_member", "nabla_combination", "StateWitness", "DutchBook"],
)
def test_float_weights_are_rejected(build):
    # a float is its binary expansion (0.1 has denominator 2**55), never 1/10
    with pytest.raises(TypeError):
        build(_book(("v1", "1/2")))


def test_book_json_round_trip():
    book = _book(("v1 (+) v2", "9/10"), ("!v1", "1/3"))
    data = book_to_json(book)
    again = book_from_json(json.dumps(data))
    assert again == book
    with pytest.raises(ValueError):
        book_from_json({"events": [{"formula": "v1"}]})
    # JSON text is decoded once: a string holding JSON text is no book
    with pytest.raises(ValueError, match="^malformed book JSON"):
        book_from_json(json.dumps(json.dumps(data)))


def test_certificate_json_round_trip():
    book = _book(("v1", "1/2"), ("!v1", "3/10"))
    result = check_coherent(book)
    data = certificate_to_json(result)
    assert data["kind"] == "incoherent"
    again = certificate_from_json(json.dumps(data))
    assert again == result
    assert verify_certificate(book, again)
    with pytest.raises(ValueError, match="^malformed certificate JSON"):
        certificate_from_json(json.dumps(json.dumps(data)))

    ok = check_coherent(_book(("v1", "1/2"), ("!v1", "1/2")))
    data = certificate_to_json(ok)
    assert data["kind"] == "coherent"
    assert certificate_from_json(data) == ok


def test_a_support_point_may_carry_coordinates_the_book_does_not_use():
    # a point of a larger box is an evaluation of the book's variables with
    # the rest unused; a point missing a variable the book uses is an error
    book = _book(("v1", "1"))
    for point in ((F(1),), (F(1), F(0), F(1, 2))):
        assert verify_certificate(book, StateWitness(((point, F(1)),))), point
    with pytest.raises(ValueError, match="^arity mismatch"):
        verify_certificate(_book(("v1 (.) v2", "1")), StateWitness((((F(1),), F(1)),)))


def test_event_image_skips_the_differences_across_events():
    # x1 - 1/2 and x1 - 2/3 are each event's own; x1 - 1/3, between the
    # pieces x1 and 1/3 of two different events, cuts only the pooled image
    book = _book(("v1 /\\ C[1/2]", "1/2"), ("!v1 \\/ C[1/3]", "1/2"))
    image = fraction_image(event_image(book))
    assert [p for p, _ in image] == [(F(0),), (F(1, 2),), (F(2, 3),), (F(1),)]
    assert [v for _, v in image] == [(F(0), F(1)), (F(1, 2), F(1, 2)), (F(1, 2), F(1, 3)), (F(1, 2), F(1, 3))]
    assert [p for p, _ in fraction_image(pooled_event_image(book))] == [(F(0),), (F(1, 3),), (F(1, 2),), (F(2, 3),), (F(1),)]


# (n, largest k, binary connectives per event), the book shapes of the
# perfbench ``books`` workload
_BOOK_SHAPES = ((1, 8, 2), (2, 5, 1), (3, 3, 1))


def _event(rng, n, binaries, scalars):
    # a random event with exactly ``binaries`` binary connectives
    if binaries == 0:
        phi = RConst(rand_unit(rng, 8)) if scalars and rng.random() < 0.1 else Var(rng.randint(1, n))
    else:
        left = rng.randint(0, binaries - 1)
        kind = rng.choice((Implies, Oplus, Odot, Join, Meet, Ominus, Iff))
        phi = kind(_event(rng, n, left, scalars), _event(rng, n, binaries - 1 - left, scalars))
    if rng.random() < 0.3:
        if scalars and rng.random() < 0.55:
            return rng.choice((Delta, Nabla))(F(rng.randint(1, 8), 8), phi)
        return Neg(phi)
    return phi


def _shaped_book(rng, shape, kind):
    # kind 0: odds from a convex combination of points (coherent); kind 1:
    # some phi and !phi with odds not summing to 1 (incoherent); kind 2:
    # random odds
    n, most, binaries = shape
    k = rng.randint(2 if kind == 1 else 1, most)
    scalars = rng.random() < 0.5
    events = [_event(rng, n, binaries, scalars) for _ in range(k)]
    odds = [rand_unit(rng, 8) for _ in range(k)]
    if kind == 0:
        points = [rand_point(rng, n, 8) for _ in range(rng.randint(1, 3))]
        raw = [rng.randint(1, 6) for _ in points]
        odds = [sum(F(w, sum(raw)) * evaluate(phi, p) for w, p in zip(raw, points)) for phi in events]
    elif kind == 1:
        i, j = rng.sample(range(k), 2)
        events[j] = Neg(events[i])
        while odds[i] + odds[j] == 1:
            odds[j] = rand_unit(rng, 8)
    return Book(tuple(zip(events, odds)))


def test_per_event_image_agrees_with_the_pooled_oracle(monkeypatch):
    rng = random.Random(181)
    books = [_shaped_book(rng, _BOOK_SHAPES[i % 3], i // 3 % 3) for i in range(540)]
    with monkeypatch.context() as m:
        m.setattr(coherence, "event_image", pooled_event_image)
        oracle = [check_coherent(book) for book in books]
    verdicts = {StateWitness: 0, DutchBook: 0}
    for book, expected in zip(books, oracle):
        result = check_coherent(book)
        assert type(result) is type(expected), book
        verdicts[type(result)] += 1
        pooled = fraction_image(pooled_event_image(book))
        assert {p for p, _ in fraction_image(event_image(book))} <= {p for p, _ in pooled}
        odds = [r for _, r in book.events]
        if isinstance(result, StateWitness):
            assert len(result.support) <= book.k + 1
            assert all(state_eval(result, phi) == r for phi, r in book.events), book
        else:
            stakes = result.stakes
            payoffs = [sum(c * (r - v) for c, r, v in zip(stakes, odds, values)) for _, values in pooled]
            assert result.margin == -max(payoffs), book
        assert verify_certificate(book, result), book
    assert min(verdicts.values()) > 150, verdicts


def test_certificates_of_seeded_books_are_pinned():
    # the certificates of 600 seeded books of the books workload's shapes, as
    # the Fraction image and columns (values, 1) gave them
    rng = random.Random(191)
    digest = hashlib.sha256()
    kinds = {"coherent": 0, "incoherent": 0}
    for i in range(600):
        book = _shaped_book(rng, _BOOK_SHAPES[i % 3], i // 3 % 3)
        certificate = certificate_to_json(check_coherent(book))
        kinds[certificate["kind"]] += 1
        digest.update(json.dumps(certificate, sort_keys=True).encode() + b"\n")
    assert kinds == {"coherent": 260, "incoherent": 340}
    assert digest.hexdigest() == "5bc228a51384efa5ab3073f6d05fa0eddd9a64908eb4b2a089fe45792b0add1d"


def test_image_values_are_the_term_functions_at_the_points():
    rng = random.Random(197)
    for i in range(150):
        book = _shaped_book(rng, _BOOK_SHAPES[i % 3], i // 3 % 3)
        terms = [term_pwl(phi, book.dimension) for phi, _ in book.events]
        image = event_image(book)
        assert all(w[0] > 0 for w, _ in image)
        for point, values in fraction_image(image):
            assert values == tuple(maxmin_eval(f, point) for f in terms), book


def test_a_dutch_book_is_verified_on_its_staked_events_alone():
    # v1 and !v1 have one piece each, so their image needs only the two
    # facets, C(2, 1) = 2 systems; v1 (+) v1 adds the hyperplane x1 = 1/2
    book = _book(("v1", "1/2"), ("!v1", "3/10"), ("v1 (+) v1", "1/2"))
    with pytest.raises(BudgetExceededError):
        event_image(book, budget=2)
    assert verify_certificate(book, DutchBook((F(1), F(1), F(0)), F(1, 5)), budget=2)
    assert not verify_certificate(book, DutchBook((F(1), F(1), F(0)), F(1, 4)), budget=2)
    # no stake at all: no payoff to lose, and no image to build even at budget 0
    assert not verify_certificate(book, DutchBook((F(0),) * 3, F(1, 5)), budget=0)


def test_a_book_past_the_budget_only_when_pooled_is_decided():
    # each event's own differences give H = 4 (x1 = 1/2, x1 = 2/3 and the
    # two facets); pooling adds x1 = 1/3, so C(5, 1) = 5 systems
    for odd, verdict in (("1/2", StateWitness), ("1/4", DutchBook)):
        book = _book(("v1 /\\ C[1/2]", "1/2"), ("!v1 \\/ C[1/3]", odd))
        with pytest.raises(BudgetExceededError) as err:
            pooled_event_image(book, budget=4)
        assert err.value.size == 5
        result = check_coherent(book, budget=4)
        assert isinstance(result, verdict)
        assert verify_certificate(book, result, budget=4)


def test_the_lp_gets_one_column_per_distinct_value_vector(monkeypatch):
    # v1 \/ v2 and v1 (.) v2 take the values (1, 0) at both (0, 1) and (1, 0):
    # five image vertices, four distinct value vectors
    columns = []

    def spy(rows, rhs, costs):
        # column j as an image pair: ((w0,), (u_1, ..., u_k))
        pairs = [((rows[-1][j],), tuple(row[j] for row in rows[:-1])) for j in range(len(costs))]
        columns.append([values for _, values in fraction_image(pairs)])
        return solve_lp(rows, rhs, costs)

    monkeypatch.setattr(coherence, "solve_lp", spy)
    pinned = {  # the certificates from before the repeated columns were dropped
        "1/5": {"kind": "coherent", "support": [
            {"point": ["0", "0"], "weight": "1/2"},
            {"point": ["0", "1"], "weight": "3/10"},
            {"point": ["1", "1"], "weight": "1/5"},
        ]},
        "3/5": {"kind": "incoherent", "stakes": ["1", "-1"], "margin": "1/10"},
    }
    for odd, certificate in pinned.items():
        book = _book(("v1 \\/ v2", "1/2"), ("v1 (.) v2", odd))
        image = fraction_image(event_image(book))
        assert len(image) == 5
        first = list(dict.fromkeys(values for _, values in image))
        result = check_coherent(book)
        assert columns.pop() == first and len(first) == 4
        assert certificate_to_json(result) == certificate
        assert verify_certificate(book, result)


def test_check_coherent_returns_the_certificate_itself():
    assert check_coherent(_book(("v1", "1/2"), ("!v1", "3/10"))) == DutchBook((1, 1), F(1, 5))
    assert type(check_coherent(_book(("v1", "1/2"), ("!v1", "1/2")))) is StateWitness
