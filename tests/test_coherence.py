import json
import random
from fractions import Fraction

import pytest

from rieszmv import (
    Book,
    Coherent,
    DutchBook,
    Incoherent,
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
    minimum,
    nabla_combination,
    parse,
    semantic_equiv,
    shortfall_span_member,
    signed_difference,
    span_member,
    state_eval,
    verify_certificate,
)

from helpers import clamp, rand_formula, rand_point, rand_signed, rand_unit

F = Fraction

V1 = parse("v1")
NOT_V1 = parse("!v1")


def _book(*pairs):
    return Book(tuple((parse(text), F(odd)) for text, odd in pairs))


def test_event_image_examples():
    image = event_image(_book(("v1", "1/2")))
    points = [p for p, _ in image]
    assert (F(0),) in points and (F(1),) in points
    values = {p: v for p, v in image}
    assert values[(F(0),)] == (F(0),)
    assert values[(F(1),)] == (F(1),)

    image = event_image(_book(("v1 (+) v1", "1/2"), ("v1", "1/2")))
    assert [p for p, _ in image] == [(F(0),), (F(1, 2),), (F(1),)]
    assert [v for _, v in image] == [(F(0), F(0)), (F(1), F(1, 2)), (F(1), F(1))]

    image = event_image(_book(("C[1/2]", "1/2")))
    assert all(v == (F(1, 2),) for _, v in image)


def test_coherent_book_two_sided():
    book = _book(("v1", "1/2"), ("!v1", "1/2"))
    result = check_coherent(book)
    assert isinstance(result, Coherent)
    support = result.witness.support
    assert len(support) <= 3
    for (phi, r) in book.events:
        assert sum(w * evaluate(phi, p) for p, w in support) == r
    assert verify_certificate(book, result)


def test_incoherent_book_complement_mispriced():
    book = _book(("v1", "1/2"), ("!v1", "3/10"))
    result = check_coherent(book)
    assert isinstance(result, Incoherent)
    assert result.dutch_book.stakes == (F(1), F(1))
    assert result.dutch_book.margin == F(1, 5)
    assert verify_certificate(book, result)
    # the loss is uniform: (1/2 - x) + (3/10 - (1 - x)) = -1/5 at every x
    for x in (F(0), F(1, 3), F(1)):
        losses = F(1, 2) - x + F(3, 10) - (1 - x)
        assert losses == -F(1, 5)


def test_incoherent_book_below_hull_edge():
    book = _book(("v1 (+) v1", "9/10"), ("v1", "2/5"))
    result = check_coherent(book)
    assert isinstance(result, Incoherent)
    assert verify_certificate(book, result)


def test_tampered_certificates_fail_verification():
    book = _book(("v1", "1/2"), ("!v1", "3/10"))
    result = check_coherent(book)
    weaker = Incoherent(DutchBook(result.dutch_book.stakes, result.dutch_book.margin * 2))
    assert not verify_certificate(book, weaker)
    # the margin is tight: the true loss bound passes, just above it fails
    assert verify_certificate(book, result)
    above = Incoherent(DutchBook(result.dutch_book.stakes, result.dutch_book.margin + F(1, 1000)))
    assert not verify_certificate(book, above)
    flipped = Incoherent(DutchBook(tuple(-c for c in result.dutch_book.stakes), F(1, 5)))
    assert not verify_certificate(book, flipped)

    ok_book = _book(("v1", "1/2"), ("!v1", "1/2"))
    witness = check_coherent(ok_book).witness
    bogus = Coherent(StateWitness(((witness.support[0][0], F(1)),)))
    if witness.support[0][0] != (F(1, 2),):
        assert not verify_certificate(ok_book, bogus)
    crowded = Coherent(
        StateWitness((((F(0),), F(1, 4)), ((F(1, 3),), F(1, 4)), ((F(2, 3),), F(1, 4)), ((F(1),), F(1, 4))))
    )
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
        assert isinstance(result, Coherent) == (lo <= r <= hi)
        assert verify_certificate(book, result)


def test_state_eval_laws():
    book = _book(("v1", "1/2"), ("!v1", "1/2"))
    witness = check_coherent(book).witness
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
        for _ in range(15):
            x = rand_point(rng, 2)
            want = clamp(sum(c * (evaluate(phi, x) - r) for c, (phi, r) in zip(cs, events)))
            assert evaluate(psi, x) == want


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
        if not isinstance(check_coherent(book), Coherent):
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
        if isinstance(result, Incoherent):
            stakes = result.dutch_book.stakes
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


def test_book_json_round_trip():
    book = _book(("v1 (+) v2", "9/10"), ("!v1", "1/3"))
    data = book_to_json(book)
    again = book_from_json(json.dumps(data))
    assert again == book
    with pytest.raises(ValueError):
        book_from_json({"events": [{"formula": "v1"}]})


def test_certificate_json_round_trip():
    book = _book(("v1", "1/2"), ("!v1", "3/10"))
    result = check_coherent(book)
    data = certificate_to_json(result)
    assert data["kind"] == "incoherent"
    again = certificate_from_json(json.dumps(data))
    assert again == result
    assert verify_certificate(book, again)

    ok = check_coherent(_book(("v1", "1/2"), ("!v1", "1/2")))
    data = certificate_to_json(ok)
    assert data["kind"] == "coherent"
    assert certificate_from_json(data) == ok
