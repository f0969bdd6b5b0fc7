"""Books of many-valued events and the de Finetti coherence decision.

A book assigns a rational betting odd to each event formula.  Coherence —
no stake vector gives the bettor a guaranteed strict win against the
bookmaker — is equivalent to the odds vector lying in the convex hull of
the evaluation image of the events: the hull of its values at the vertices
of the arrangement of the box facets and each event's own piece differences.
That membership is decided by an exact LP, and ``check_coherent`` returns
the machine-checkable certificate of the outcome itself:

* a :class:`StateWitness`: a convex combination of at most k+1 evaluations
  whose barycenter reproduces every odd exactly, or
* a :class:`DutchBook`: stakes with a positive margin of guaranteed loss,
  certified at every vertex of the staked events' arrangement (hence at
  every evaluation, the payoff being piecewise linear with extrema there).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .formula import Formula, Ominus, Oplus, Nabla, ParseError, RConst, arity, evaluate, format_formula, parse
from .geometry import _primitive, vertices_from_components
from .kernel import ONE, Record, UnitRational, ZERO
from .lp import INFEASIBLE, solve_lp
from .pwl import MaxMin, _exact, _json_array, _json_number, _json_value, _maxmin_at, _pieces, _rows_over, constant, linear_combination, mm_add, term_pwl
from .synthesis import synth_pwl


class Book(Record):
    """Events with betting odds: ((formula, odd), ...), odds in [0, 1]."""

    __match_args__ = ("events",)

    def __init__(self, events):
        events = tuple((phi, UnitRational(r)) for phi, r in events)
        if not events:
            raise ValueError("a book needs at least one event")
        self.__dict__["events"] = events

    @property
    def k(self):
        return len(self.events)

    @property
    def dimension(self):
        # Constant-only books still live on a 1-dimensional box.
        return max(1, max(arity(phi) for phi, _ in self.events))


class StateWitness(Record):
    """Convex combination of evaluations: ((point, weight), ...)."""

    __match_args__ = ("support",)

    def __init__(self, support):
        support = tuple((tuple(map(_exact, point)), _exact(w)) for point, w in support)
        if not support:
            raise ValueError("empty support")
        if any(w <= 0 for _, w in support):
            raise ValueError("support weights must be positive")
        if any(not 0 <= c <= 1 for point, _ in support for c in point):
            raise ValueError("support coordinates must lie in [0, 1]")
        if sum(w for _, w in support) != 1:
            raise ValueError("support weights must sum to 1")
        self.__dict__["support"] = support


class DutchBook(Record):
    """Stakes guaranteeing the bookmaker loses at least ``margin``."""

    __match_args__ = ("stakes", "margin")

    def __init__(self, stakes, margin):
        stakes = tuple(map(_exact, stakes))
        margin = _exact(margin)
        if margin <= 0:
            raise ValueError("a Dutch book needs a positive margin")
        self.__dict__.update(stakes=stakes, margin=margin)


def event_image(book: Book, budget=None):
    """Arrangement vertices with the per-event values at each, in integers.

    Each event is affine on every cell cut by its own pairwise piece
    differences, so the value map is affine on each cell of the arrangement
    of all events' own differences and the box facets (never the differences
    across events): the returned vectors span the evaluation image's hull.
    One pair ``(w, u)`` per vertex, in point order: the vertex (w1/w0, ...,
    wn/w0) in homogeneous integers, w0 > 0, and the event values u_i/w0.
    """
    n = book.dimension
    terms = [term_pwl(phi, n) for phi, _ in book.events]
    den = math.lcm(*(f.den for f in terms))
    rows = [_rows_over(f, den) for f in terms]
    points = vertices_from_components(n, *map(_pieces, terms), budget=budget, homogeneous=True)
    # rows over den give numerators over den * w0, so the vertex is given as den * w
    return [
        (tuple(den * c for c in w) if den > 1 else w, tuple(_maxmin_at(g, w) for g in rows)) for w in points
    ]


def _max_payoff(stakes, odds, columns):
    # the largest stake payoff sum c_i (r_i - u_i / w0) over the columns
    # (u_1, ..., u_k, w0), one Fraction each; a Dutch book's margin is its negation
    scale = math.lcm(*(c.denominator for c in stakes))
    weights = [c.numerator * (scale // c.denominator) for c in stakes]
    least = min(Fraction(sum(map(operator.mul, weights, col)), scale * col[-1]) for col in columns)
    return sum(map(operator.mul, stakes, odds)) - least


def check_coherent(book: Book, budget=None):
    """Decide coherence and return its certificate: a StateWitness or a DutchBook.

    Feasibility of ``sum a_v F(v) = odds, sum a_v = 1, a >= 0`` is decided
    by exact simplex.  A basic feasible solution has at most k+1 positive
    weights; an infeasibility certificate flips into Dutch-book stakes,
    normalized so the largest absolute stake is 1.  Vertices that repeat a
    value vector repeat a column, which Bland's rule never lets enter after
    the first, so only the first of each is passed to the LP.

    A column is the primitive form of ``(u, w0)`` (:func:`event_image`), s > 0
    times ``(F(v), 1)``.  That multiplies its reduced cost and its entry in
    each row by s, so neither Bland's sign test nor the order of the ratios
    within the column changes: the pivot path, the basis and the Farkas
    vector are those of the unscaled LP, and a_v is s times the column's x.
    """
    columns = {}
    for w, u in event_image(book, budget):
        columns.setdefault(_primitive(u + (w[0],)), w)
    odds = [r for _, r in book.events]
    rows = [[col[i] for col in columns] for i in range(book.k + 1)]
    result = solve_lp(rows, odds + [ONE], [0] * len(columns))

    if result.status == INFEASIBLE:
        stakes = [-y for y in result.farkas[: book.k]]
        scale = max(abs(c) for c in stakes)
        stakes = [c / scale for c in stakes]
        return DutchBook(tuple(stakes), -_max_payoff(stakes, odds, columns))

    support = tuple(
        (tuple(Fraction(c, w[0]) for c in w[1:]), col[-1] * x)
        for (col, w), x in zip(columns.items(), result.x)
        if x > 0
    )
    return StateWitness(support)


def verify_certificate(book: Book, result, budget=None) -> bool:
    """Re-check a coherence certificate exactly, without re-solving.

    The certificate's class picks the check: a state witness must reproduce
    every odd as a convex combination of at most k+1 evaluations; a Dutch
    book's stakes must lose at least the margin at every vertex of the image
    of the staked events (a zero stake adds nothing to the payoff), and some
    stake must be nonzero.
    """
    if isinstance(result, StateWitness):
        if len(result.support) > book.k + 1:
            return False
        return all(state_eval(result, phi) == r for phi, r in book.events)
    if isinstance(result, DutchBook):
        stakes = result.stakes
        margin = result.margin
        if len(stakes) != book.k or margin <= 0:
            return False
        staked = [(event, c) for event, c in zip(book.events, stakes) if c]
        if not staked:
            return False
        events, stakes = zip(*staked)
        image = event_image(Book(events), budget)
        return _max_payoff(stakes, [r for _, r in events], [u + (w[0],) for w, u in image]) <= -margin
    raise TypeError(f"not a coherence result: {result!r}")


def state_eval(witness: StateWitness, phi: Formula) -> Fraction:
    """The induced state: the weighted average of ``phi`` over the support."""
    return sum((w * evaluate(phi, point) for point, w in witness.support), ZERO)


def span_combination(book: Book, cs) -> MaxMin:
    """``trunc(sum c_i (event_i - odd_i))`` as an exact Max-Min function."""
    cs = list(cs)
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
    is the certificate-side construction for that necessary condition: the
    span member of the book of shortfall events ``(C[r_i] (-) phi_i, 0)``.
    """
    shortfalls = Book((Ominus(RConst(r), phi), ZERO) for phi, r in book.events)
    return span_member(shortfalls, cs, budget)


def nabla_combination(formulas, rs) -> Formula:
    """The truncated sum of scalar-dampened events ``N[r1]f1 (+) ...``.

    Its value at any point is the truncated total ``min(1, sum (1 - r_i +
    r_i * e_i))``, a quasi-linear combination of the events extended with
    the constant-1 event.
    """
    formulas = list(formulas)
    rs = list(rs)
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
    try:
        events = tuple(
            (parse(entry["formula"]), _json_number(entry["odd"]))
            for entry in _json_array(_json_value(data)["events"])
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed book JSON: {exc}") from exc
    return Book(events)


def book_to_json(book: Book) -> dict:
    return {
        "events": [
            {"formula": format_formula(phi), "odd": str(r)} for phi, r in book.events
        ]
    }


def certificate_to_json(result) -> dict:
    if isinstance(result, StateWitness):
        return {
            "kind": "coherent",
            "support": [
                {"point": [str(c) for c in point], "weight": str(w)}
                for point, w in result.support
            ],
        }
    if isinstance(result, DutchBook):
        return {
            "kind": "incoherent",
            "stakes": [str(c) for c in result.stakes],
            "margin": str(result.margin),
        }
    raise TypeError(f"not a coherence result: {result!r}")


def certificate_from_json(data):
    try:
        data = _json_value(data)
        kind = data["kind"]
        if kind == "coherent":
            support = tuple(
                (tuple(map(_json_number, _json_array(entry["point"]))), _json_number(entry["weight"]))
                for entry in _json_array(data["support"])
            )
        elif kind == "incoherent":
            stakes = tuple(map(_json_number, _json_array(data["stakes"])))
            margin = _json_number(data["margin"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
    # built outside the try: a certificate that breaks its own rules (weights,
    # margin) is reported in their words, not as malformed JSON
    if kind == "coherent":
        return StateWitness(support)
    if kind == "incoherent":
        return DutchBook(stakes, margin)
    raise ValueError(f"unknown certificate kind: {kind!r}")
