"""Books of many-valued events and the de Finetti coherence decision.

A book assigns a rational betting odd to each event formula.  Coherence —
no stake vector gives the bettor a guaranteed strict win against the
bookmaker — is equivalent to the odds vector lying in the convex hull of
the evaluation image of the events, which is spanned by finitely many
arrangement vertices.  That membership is decided by an exact LP; both
outcomes come with machine-checkable certificates:

* a state witness: a convex combination of at most k+1 evaluations whose
  barycenter reproduces every odd exactly, or
* a Dutch book: stakes with a positive margin of guaranteed loss, certified
  at every candidate vertex (hence at every evaluation, the stake payoff
  being piecewise linear with extrema on the vertex set).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .formula import Formula, Ominus, Oplus, Nabla, RConst, arity, evaluate, format_formula, parse
from .geometry import vertices_from_components
from .kernel import ONE, UnitRational, ZERO
from .lp import INFEASIBLE, solve_lp
from .pwl import MaxMin, components, constant, linear_combination, maxmin_eval, mm_add, term_pwl
from .synthesis import synth_pwl


@dataclass(frozen=True)
class Book:
    """Events with betting odds: ((formula, odd), ...), odds in [0, 1]."""

    events: tuple

    def __post_init__(self):
        events = tuple((phi, UnitRational(r)) for phi, r in self.events)
        if not events:
            raise ValueError("a book needs at least one event")
        object.__setattr__(self, "events", events)

    @property
    def k(self):
        return len(self.events)

    @property
    def dimension(self):
        # Constant-only books still live on a 1-dimensional box.
        return max(1, max(arity(phi) for phi, _ in self.events))


@dataclass(frozen=True)
class StateWitness:
    """Convex combination of evaluations: ((point, weight), ...)."""

    support: tuple

    def __post_init__(self):
        support = tuple(
            (tuple(Fraction(c) for c in point), Fraction(w)) for point, w in self.support
        )
        if not support:
            raise ValueError("empty support")
        if any(w <= 0 for _, w in support):
            raise ValueError("support weights must be positive")
        if sum(w for _, w in support) != 1:
            raise ValueError("support weights must sum to 1")
        object.__setattr__(self, "support", support)


@dataclass(frozen=True)
class DutchBook:
    """Stakes guaranteeing the bookmaker loses at least ``margin``."""

    stakes: tuple
    margin: Fraction

    def __post_init__(self):
        object.__setattr__(self, "stakes", tuple(Fraction(c) for c in self.stakes))
        object.__setattr__(self, "margin", Fraction(self.margin))
        if self.margin <= 0:
            raise ValueError("a Dutch book needs a positive margin")


@dataclass(frozen=True)
class Coherent:
    witness: StateWitness


@dataclass(frozen=True)
class Incoherent:
    dutch_book: DutchBook


def event_image(book: Book, budget=None):
    """Arrangement vertices with the per-event value vectors at each.

    The union of all events' affine pieces refines every event's linearity
    regions, so the value map is affine on each cell and the convex hull of
    the returned vectors equals the hull of the full evaluation image.
    """
    n = book.dimension
    terms = [term_pwl(phi, n) for phi, _ in book.events]
    pooled = [a for f in terms for a in components(f)]
    vertices = vertices_from_components(n, pooled, budget)
    return [(v, tuple(maxmin_eval(f, v) for f in terms)) for v in vertices]


def _max_payoff(stakes, odds, image):
    # the largest stake payoff over the image; a Dutch book's margin is its negation
    return max(sum(c * (r - v) for c, r, v in zip(stakes, odds, values)) for _, values in image)


def check_coherent(book: Book, budget=None):
    """Decide coherence, returning :class:`Coherent` or :class:`Incoherent`.

    Feasibility of ``sum a_v F(v) = odds, sum a_v = 1, a >= 0`` is decided
    by exact simplex.  A basic feasible solution has at most k+1 positive
    weights; an infeasibility certificate flips into Dutch-book stakes,
    normalized so the largest absolute stake is 1.
    """
    image = event_image(book, budget)
    odds = [r for _, r in book.events]
    rows = [[values[i] for _, values in image] for i in range(book.k)]
    rows.append([ONE] * len(image))
    rhs = odds + [ONE]
    result = solve_lp(rows, rhs, [ZERO] * len(image))

    if result.status == INFEASIBLE:
        stakes = [-y for y in result.farkas[: book.k]]
        scale = max(abs(c) for c in stakes)
        stakes = [c / scale for c in stakes]
        return Incoherent(DutchBook(tuple(stakes), -_max_payoff(stakes, odds, image)))

    support = tuple(
        (point, weight) for (point, _), weight in zip(image, result.x) if weight > 0
    )
    return Coherent(StateWitness(support))


def verify_certificate(book: Book, result, budget=None) -> bool:
    """Re-check a coherence certificate exactly, without re-solving.

    A state witness must reproduce every odd as a convex combination of at
    most k+1 evaluations; Dutch-book stakes must lose at least the margin
    at every candidate vertex of the book's arrangement.
    """
    if isinstance(result, Coherent):
        if len(result.witness.support) > book.k + 1:
            return False
        return all(state_eval(result.witness, phi) == r for phi, r in book.events)
    if isinstance(result, Incoherent):
        stakes = result.dutch_book.stakes
        margin = result.dutch_book.margin
        if len(stakes) != book.k or margin <= 0:
            return False
        odds = [r for _, r in book.events]
        return _max_payoff(stakes, odds, event_image(book, budget)) <= -margin
    raise TypeError(f"not a coherence result: {result!r}")


def state_eval(witness: StateWitness, phi: Formula) -> Fraction:
    """The induced state: the weighted average of ``phi`` over the support."""
    return sum((w * evaluate(phi, point) for point, w in witness.support), ZERO)


def span_combination(book: Book, cs) -> MaxMin:
    """``trunc(sum c_i (event_i - odd_i))`` as an exact Max-Min function."""
    cs = [Fraction(c) for c in cs]
    if len(cs) != book.k:
        raise ValueError(f"expected {book.k} coefficients, got {len(cs)}")
    n = book.dimension
    shifted = [
        mm_add(term_pwl(phi, n), constant(n, -r)) for phi, r in book.events
    ]
    return linear_combination(shifted, cs)


def span_member(book: Book, cs, budget=None) -> Formula:
    """The quasi-linear combination ``trunc(sum c_i (event_i - odd_i))``.

    Built by exact Max-Min arithmetic on the shifted term functions and then
    synthesized back into a formula, so its evaluation at any point equals
    the truncated weighted sum of the shifted event values there.
    """
    return synth_pwl(span_combination(book, cs), budget)


def shortfall_span_member(book: Book, cs, budget=None) -> Formula:
    """Quasi-linear combination of the clamped shortfalls ``odd_i (-) event_i``.

    For a coherent book every such combination is an invalid formula; this
    is the certificate-side construction for that necessary condition.
    """
    cs = [Fraction(c) for c in cs]
    if len(cs) != book.k:
        raise ValueError(f"expected {book.k} coefficients, got {len(cs)}")
    n = book.dimension
    shortfalls = [
        term_pwl(Ominus(RConst(r), phi), n) for phi, r in book.events
    ]
    return synth_pwl(linear_combination(shortfalls, cs), budget)


def nabla_combination(formulas, rs) -> Formula:
    """The truncated sum of scalar-dampened events ``N[r1]f1 (+) ...``.

    Its value at any point is the truncated total ``min(1, sum (1 - r_i +
    r_i * e_i))``, a quasi-linear combination of the events extended with
    the constant-1 event.
    """
    formulas = list(formulas)
    rs = [Fraction(r) for r in rs]
    if len(formulas) != len(rs) or not formulas:
        raise ValueError("need equally many formulas and scalars, at least one")
    out = None
    for phi, r in zip(formulas, rs):
        term = Nabla(r, phi)
        out = term if out is None else Oplus(out, term)
    return out


def signed_difference(phi: Formula, r, c) -> Formula:
    """``phi (-) C[r]`` when the stake c is nonnegative, else ``C[r] (-) phi``."""
    r = UnitRational(r)
    if c >= 0:
        return Ominus(phi, RConst(r))
    return Ominus(RConst(r), phi)


# ---------------------------------------------------------------------------
# JSON interchange


def book_from_json(data) -> Book:
    """Book file format: {"events": [{"formula": str, "odd": "p/q"}, ...]}."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        events = tuple(
            (parse(entry["formula"]), Fraction(str(entry["odd"])))
            for entry in data["events"]
        )
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed book JSON: {exc}") from exc
    return Book(events)


def book_to_json(book: Book) -> dict:
    return {
        "events": [
            {"formula": format_formula(phi), "odd": str(r)} for phi, r in book.events
        ]
    }


def certificate_to_json(result) -> dict:
    if isinstance(result, Coherent):
        return {
            "kind": "coherent",
            "support": [
                {"point": [str(c) for c in point], "weight": str(w)}
                for point, w in result.witness.support
            ],
        }
    if isinstance(result, Incoherent):
        return {
            "kind": "incoherent",
            "stakes": [str(c) for c in result.dutch_book.stakes],
            "margin": str(result.dutch_book.margin),
        }
    raise TypeError(f"not a coherence result: {result!r}")


def certificate_from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    try:
        if data["kind"] == "coherent":
            support = tuple(
                (tuple(Fraction(c) for c in entry["point"]), Fraction(entry["weight"]))
                for entry in data["support"]
            )
            return Coherent(StateWitness(support))
        if data["kind"] == "incoherent":
            return Incoherent(
                DutchBook(
                    tuple(Fraction(c) for c in data["stakes"]), Fraction(data["margin"])
                )
            )
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
    raise ValueError(f"unknown certificate kind: {data.get('kind')!r}")
