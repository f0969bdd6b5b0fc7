"""The four workloads: their queries, their input files and their output checks.

A workload is a number of *rounds*; every round has the same make-up (the
same subcommands, dimensions and sizes, in the same order), drawn afresh
from the seeded generator.  ``--seconds`` fixes the number of rounds, so a
seed and a run length give one fixed query set.

Each query carries a check that reads the program's stdout and raises
:class:`CheckError` when it is wrong.  The checks use :mod:`ref` and facts
known by construction, never the package under test.
"""

from __future__ import annotations

import json
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import gen
import ref

# Rounds per second of run length: sized so that one run's queries take
# about ``--seconds`` on a 2-core x86 box with Python 3.11.
ROUNDS_PER_SECOND = {"eval": 4.3, "decide": 7.5, "synth": 5.0, "books": 7.5}

# Deeply nested inputs that ``formula._Parser`` (recursive descent) cannot
# read today: each raises RecursionError out of ``cli.main``.  They do not
# depend on the seed, so every round fails on exactly these.
DEEP_INPUTS = (
    "(" * 150 + "v1" + ")" * 150,
    "!" * 1200 + "v1",
    " -> ".join(["v1"] * 1200),
    "D[1/2] " * 1200 + "v1",
)
DEEP_POINT = "1/3"


class CheckError(AssertionError):
    """The program printed something other than what the check requires."""


class Query:
    """One ``cli.main`` call: its argv, and the check of what it prints."""

    __slots__ = ("kind", "argv", "check", "may_fail")

    def __init__(self, kind, argv, check, may_fail=False):
        self.kind = kind
        self.argv = argv
        self.check = check
        self.may_fail = may_fail


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _lines(out, count=None):
    lines = out.splitlines()
    if count is not None:
        _require(len(lines) == count, f"expected {count} output lines, got {len(lines)}")
    return lines


def _point(text):
    return tuple(Fraction(c) for c in text.split(",")) if text.strip() else ()


def _grid_numerators(prog):
    return ref.grid_values(prog, prog.arity) if prog.arity else ([ref.evaluate(prog, ())], 1)


# ---------------------------------------------------------------------------
# eval


def check_value(formula, point):
    prog = ref.compile_formula(formula)
    expected = ref.evaluate(prog, point)

    def check(out):
        _require(out == f"{expected}\n", f"value {out.strip()!r}, reference {expected}")

    return check


def build_eval(rng, rounds, inputs):
    queries = []
    deep = [(text, check_value(text, _point(DEEP_POINT))) for text in DEEP_INPUTS]
    for _ in range(rounds):
        for i in range(56):
            n = 1 + i % 4
            text = gen.formula(rng, n, rng.randint(1, 10), scalars=i % 2 == 0)
            pt = gen.point(rng, n)
            queries.append(Query("eval", ["eval", text, "--at", gen.point_arg(pt)], check_value(text, pt)))
        for i in range(8):
            n = 1 + i % 4
            text = gen.chain(rng, n, rng.randint(40, 160), 4, scalars=i % 2 == 0)
            pt = gen.point(rng, n)
            queries.append(Query("eval_long", ["eval", text, "--at", gen.point_arg(pt)], check_value(text, pt)))
        for text, check in deep:
            queries.append(Query("eval_deep", ["eval", text, "--at", DEEP_POINT], check, may_fail=True))
    return queries


# ---------------------------------------------------------------------------
# decide

# random formulas per dimension: binary connectives drawn from 1..SIZE[n];
# vertex enumeration grows as C(hyperplanes, n), so larger n gets smaller
# formulas (with 4 connectives at n = 4 single queries took 8 s)
SIZE = {1: 6, 2: 5, 3: 3, 4: 3}


def _sub(rng, n, max_binaries=1):
    return gen.formula(rng, n, rng.randint(0, max_binaries), scalars=rng.random() < 0.5)


def _width(n):
    # binary connectives in each subformula of a scheme.  With one
    # connective, instances over <-> subformulas took 145 s (a transitivity
    # axiom at n = 3) and 3.3 s (an inequivalent pair at n = 2), so only
    # n = 1 gets them; larger n gets literals
    return 1 if n == 1 else 0


def _scalar(rng):
    return gen.unit(rng, positive=True)


# valid schemes: (a, b, c subformulas, r, s scalars) -> formula with value 1
# everywhere; the Lukasiewicz axioms, prelinearity and the scalar axioms
VALID_SCHEMES = (
    lambda a, b, c, r, s: f"{a} -> ({b} -> {a})",
    lambda a, b, c, r, s: f"({a} -> {b}) -> (({b} -> {c}) -> ({a} -> {c}))",
    lambda a, b, c, r, s: f"(({a} -> {b}) -> {b}) -> (({b} -> {a}) -> {a})",
    lambda a, b, c, r, s: f"(!{a} -> !{b}) -> ({b} -> {a})",
    lambda a, b, c, r, s: f"(({a} -> {b}) \\/ ({b} -> {a}))",
    lambda a, b, c, r, s: f"N[{r}]({a} -> {b}) <-> (N[{r}]{a} -> N[{r}]{b})",
    lambda a, b, c, r, s: f"D[{r}]D[{s}]{a} <-> D[{r * s}]{a}",
    lambda a, b, c, r, s: f"D[{r}]({a} (+) {b}) -> (D[{r}]{a} (+) D[{r}]{b})",
    lambda a, b, c, r, s: f"N[{r}]{a} <-> !D[{r}]!{a}",
)

# equivalent pairs: the definitions of the derived connectives and the
# scalar identities
EQUIV_SCHEMES = (
    lambda a, b, r, s: (f"D[{r}]D[{s}]{a}", f"D[{r * s}]{a}"),
    lambda a, b, r, s: (f"{a} (+) {b}", f"!{a} -> {b}"),
    lambda a, b, r, s: (f"{a} \\/ {b}", f"({a} -> {b}) -> {b}"),
    lambda a, b, r, s: (f"{a} /\\ {b}", f"!(!{a} \\/ !{b})"),
    lambda a, b, r, s: (f"{a} (.) {b}", f"!(!{a} (+) !{b})"),
    lambda a, b, r, s: (f"{a} (-) {b}", f"{a} (.) !{b}"),
    lambda a, b, r, s: (f"{a} <-> {b}", f"({a} -> {b}) /\\ ({b} -> {a})"),
    lambda a, b, r, s: (f"N[{r}]{a}", f"!D[{r}]!{a}"),
)


# inequivalent pairs: the same shapes with one part changed; each drawn pair
# is kept only once the reference finds a point where the two differ
INEQUIV_SCHEMES = (
    lambda a, b, r, s: (f"D[{r}]D[{s}]{a}", f"D[{r * s / 2}]{a}"),
    lambda a, b, r, s: (f"{a} (+) {b}", f"{a} -> {b}"),
    lambda a, b, r, s: (f"{a} \\/ {b}", f"({a} -> {b}) -> {a}"),
    lambda a, b, r, s: (f"{a} /\\ {b}", f"!(!{a} (+) !{b})"),
    lambda a, b, r, s: (f"{a} (-) {b}", f"{b} (-) {a}"),
    lambda a, b, r, s: (f"{a} <-> {b}", f"({a} -> {b}) \\/ ({b} -> {a})"),
    lambda a, b, r, s: (f"N[{r}]{a}", f"D[{r}]{a}"),
)


def _differ(rng, n, left, right):
    """True when the reference values of the two formulas differ at one of
    a few random points."""
    points = [gen.point(rng, n, 16) for _ in range(12)]
    lv = ref.evaluate_many(ref.compile_formula(left), points)
    return lv != ref.evaluate_many(ref.compile_formula(right), points)


def check_extremum(formula, is_min):
    prog = ref.compile_formula(formula)

    def check(out):
        value_text, witness_text = _lines(out, 2)
        value = Fraction(value_text)
        witness = _point(witness_text)
        _require(len(witness) == prog.arity, f"witness {witness_text!r} has the wrong dimension")
        _require(all(0 <= c <= 1 for c in witness), f"witness {witness_text!r} outside the box")
        _require(ref.evaluate(prog, witness) == value, f"witness {witness_text} does not give {value}")
        nums, den = _grid_numerators(prog)
        bound = value * den
        if is_min:
            _require(min(nums) >= bound, f"a grid point goes below the minimum {value}")
        else:
            _require(max(nums) <= bound, f"a grid point goes above the maximum {value}")

    return check


def check_verdict(expected):
    text = "true\n" if expected else "false\n"

    def check(out):
        _require(out == text, f"verdict {out.strip()!r}, known answer {text.strip()}")

    return check


def check_invalid(formula, known=None):
    prog = ref.compile_formula(formula)

    def check(out):
        lines = _lines(out)
        _require(lines and lines[0] in ("true", "false"), f"bad invalid output {out!r}")
        verdict = lines[0] == "true"
        if known is not None:
            _require(verdict == known, f"invalid says {verdict}, known answer {known}")
        if verdict:
            _require(len(lines) == 2, "invalid: true without a witness")
            witness = _point(lines[1])
            _require(ref.evaluate(prog, witness) == 0, f"witness {lines[1]} does not give 0")
        else:
            _require(len(lines) == 1, "invalid: false with extra output")
            nums, _ = _grid_numerators(prog)
            _require(min(nums) > 0, "invalid: false, but a grid point gives 0")

    return check


def check_norm(expected):
    def check(out):
        _require(out == f"{expected}\n", f"norm {out.strip()!r}, known answer {expected}")

    return check


def check_components(formula, points):
    prog = ref.compile_formula(formula)
    n = max(1, prog.arity)
    values = ref.evaluate_many(prog, points)

    def check(out):
        pieces = [tuple(Fraction(c) for c in line.split()) for line in _lines(out)]
        _require(pieces, "no components")
        _require(all(len(p) == n + 1 for p in pieces), "a component has the wrong dimension")
        for pt, value in zip(points, values):
            at = {p[0] + sum(c * x for c, x in zip(p[1:], pt)) for p in pieces}
            if value not in at:
                raise CheckError(f"no component takes the value {value} at {pt}")

    return check


def build_decide(rng, rounds, inputs):
    queries = []

    def random_formula(n):
        return gen.formula(rng, n, rng.randint(1, SIZE[n]), scalars=rng.random() < 0.5)

    for _ in range(rounds):
        for n in (1, 2, 3, 4):
            text = random_formula(n)
            queries.append(Query("min", ["min", text], check_extremum(text, True)))
            text = random_formula(n)
            queries.append(Query("max", ["max", text], check_extremum(text, False)))
            text = random_formula(n)
            points = [gen.point(rng, n) for _ in range(8)]
            queries.append(Query("components", ["components", text], check_components(text, points)))

        # valid: axiom instances (true) and formulas below 1 at a point (false)
        for n in (2, 3, 4):
            a, b, c = (_sub(rng, n, _width(n)) for _ in range(3))
            text = rng.choice(VALID_SCHEMES)(a, b, c, _scalar(rng), _scalar(rng))
            queries.append(Query("valid", ["valid", text], check_verdict(True)))
        while True:
            n = rng.randint(1, 3)
            text = random_formula(n)
            pt = gen.point(rng, n)
            if ref.evaluate(ref.compile_formula(text), pt) < 1:
                break
        queries.append(Query("valid", ["valid", text], check_verdict(False)))

        # invalid: random (n <= 3), and known answers by construction
        text = random_formula(rng.randint(1, 3))
        queries.append(Query("invalid", ["invalid", text], check_invalid(text)))
        n = rng.randint(2, 4)
        i = rng.randint(1, n)
        text = f"v{i} (.) {_sub(rng, n)}" if rng.random() < 0.5 else f"D[{_scalar(rng)}]v{i} /\\ {_sub(rng, n)}"
        queries.append(Query("invalid", ["invalid", text], check_invalid(text, known=True)))
        n = rng.randint(1, 3)
        r = _scalar(rng)
        r = r if r < 1 else Fraction(1, 2)
        text = f"N[{r}]{_sub(rng, n, 2)}"
        queries.append(Query("invalid", ["invalid", text], check_invalid(text, known=False)))

        # norm: sup is exactly r by construction, attained where v_i = 1
        for n in (2, 4):
            i = rng.randint(1, n)
            r = _scalar(rng)
            inner = f"(v{i} \\/ {_sub(rng, n, _width(n))})"
            text = rng.choice((f"D[{r}]{inner}", f"{inner} /\\ C[{r}]", f"{inner} (.) C[{r}]"))
            queries.append(Query("norm", ["norm", text], check_norm(r)))

        # equiv: definitional pairs (true) and changed pairs that differ at a
        # point (false)
        for n, schemes, known in ((1, EQUIV_SCHEMES, True), (2, INEQUIV_SCHEMES, False), (3, EQUIV_SCHEMES, True), (4, INEQUIV_SCHEMES, False)):
            while True:
                left, right = rng.choice(schemes)(_sub(rng, n, _width(n)), _sub(rng, n, _width(n)), _scalar(rng), _scalar(rng))
                if known or _differ(rng, n, left, right):
                    break
            queries.append(Query("equiv", ["equiv", left, right], check_verdict(known)))
    return queries


# ---------------------------------------------------------------------------
# synth


def _pwl_json(n, groups):
    return {"n": n, "groups": [[[str(c) for c in piece] for piece in group] for group in groups]}


def truncated(n, groups):
    """Groups of ``(f v 0) ^ 1`` for f = max of mins of ``groups``."""
    one = [Fraction(1)] + [Fraction(0)] * n
    zero = [Fraction(0)] * (n + 1)
    return [list(g) + [one] for g in groups] + [[zero]]


def check_pwl_formula(n, groups, extra_points):
    """The printed formula equals the Max-Min function ``groups`` at the
    arrangement vertices of its pieces, at ``extra_points`` and on a grid
    (1/16 for n <= 2, 1/8 for n = 3)."""
    pieces = [tuple(p) for g in groups for p in g]
    points = ref.arrangement_vertices(n, pieces) + list(extra_points)
    expected = ref.maxmin_values(groups, points)
    steps = 16 if n <= 2 else 8
    grid_expected, grid_den = ref.maxmin_grid_values(groups, n, steps)

    def check(out):
        prog = ref.compile_formula(_lines(out, 1)[0])
        _require(prog.arity <= n, f"formula uses v{prog.arity} in dimension {n}")
        for p, x, y in zip(points, ref.evaluate_many(prog, points), expected):
            if x != y:
                raise CheckError(f"formula gives {x} at {p}, function value {y}")
        nums, den = ref.grid_values(prog, n, steps)
        for i, (x, y) in enumerate(zip(nums, grid_expected)):
            if x * grid_den != y * den:
                raise CheckError(f"formula differs from the function at grid point {ref.grid(n, steps)[i]}")

    return check


# one round of synth: (kind, unit-summand magnitudes of the linear
# coefficients, groups, pieces per group).  Magnitudes are fixed per slot
# and every piece crosses the box, because random coefficients mostly give
# constant truncations plus a rare output of megabytes (|c| <= 6 at n = 3
# printed up to 1.9 MB), which no run-to-run comparison survives.
SYNTH_ROUND = (
    ("affine", (6,), 1, 1),
    ("affine", (3, 3), 1, 1),
    ("affine", (3, 3, 3), 1, 1),
    ("maxmin", (2,), 3, 2),
    ("maxmin", (2, 2), 2, 2),
    ("maxmin", (1, 2, 2), 2, 2),
)


def build_synth(rng, rounds, inputs):
    queries = []
    for r in range(rounds):
        for i, (kind, magnitudes, ngroups, npieces) in enumerate(SYNTH_ROUND):
            n = len(magnitudes)
            raw = [[gen.crossing_affine(rng, magnitudes) for _ in range(npieces)] for _ in range(ngroups)]
            groups = truncated(n, raw)
            path = inputs / f"pwl{r}-{i}.json"
            path.write_text(json.dumps(_pwl_json(n, groups)))
            extra = [gen.point(rng, n) for _ in range(4)]
            argv = ["synth", str(path.relative_to(inputs.parent))]
            queries.append(Query(f"synth_{kind}", argv, check_pwl_formula(n, groups, extra)))
    return queries


# ---------------------------------------------------------------------------
# books


def _events(rng, n, k, binaries):
    return [gen.formula(rng, n, binaries, scalars=rng.random() < 0.5) for _ in range(k)]


def coherent_book(rng, n, k, binaries=1):
    """Events, with odds the reference values of a convex combination of at
    most k+1 points, and that combination (a coherence certificate)."""
    events = _events(rng, n, k, binaries)
    support = []
    size = rng.randint(1, min(3, k + 1))
    raw = [rng.randint(1, 6) for _ in range(size)]
    points = []
    for w in raw:
        pt = gen.point(rng, n, 8)
        while pt in points:
            pt = gen.point(rng, n, 8)
        points.append(pt)
        support.append((pt, Fraction(w, sum(raw))))
    odds = [
        sum((w * v for (_, w), v in zip(support, ref.evaluate_many(ref.compile_formula(e), points))), Fraction(0))
        for e in events
    ]
    return events, odds, support


def incoherent_book(rng, n, k, binaries=1):
    """A book holding some phi and !phi whose odds do not sum to 1, and the
    Dutch book on that pair (stakes -1,-1 or 1,1; margin |r + r' - 1|)."""
    events = _events(rng, n, k, binaries)
    odds = [gen.unit(rng) for _ in range(k)]
    i, j = rng.sample(range(k), 2)
    events[j] = f"!({events[i]})"
    while odds[i] + odds[j] == 1:
        odds[j] = gen.unit(rng)
    excess = odds[i] + odds[j] - 1
    stakes = [Fraction(0)] * k
    stakes[i] = stakes[j] = Fraction(-1 if excess > 0 else 1)
    return events, odds, stakes, abs(excess)


def _book_json(events, odds):
    return {"events": [{"formula": e, "odd": str(r)} for e, r in zip(events, odds)]}


def check_coherent(n, events, odds, coherent):
    progs = [ref.compile_formula(e) for e in events]
    k = len(events)

    def check(out):
        cert = json.loads(out)
        if coherent:
            _require(cert.get("kind") == "coherent", f"certificate kind {cert.get('kind')!r}, known coherent")
            support = [(_point(",".join(s["point"])), Fraction(s["weight"])) for s in cert["support"]]
            _require(len(support) <= k + 1, f"{len(support)} support points for k = {k}")
            _require(all(w > 0 for _, w in support), "a support weight is not positive")
            _require(sum(w for _, w in support) == 1, "support weights do not sum to 1")
            points = [p for p, _ in support]
            for prog, r in zip(progs, odds):
                values = ref.evaluate_many(prog, points)
                total = sum((w * v for (_, w), v in zip(support, values)), Fraction(0))
                if total != r:
                    raise CheckError(f"support gives {total} for an event with odd {r}")
        else:
            _require(cert.get("kind") == "incoherent", f"certificate kind {cert.get('kind')!r}, known incoherent")
            stakes = [Fraction(c) for c in cert["stakes"]]
            margin = Fraction(cert["margin"])
            _require(len(stakes) == k, "wrong number of stakes")
            _require(margin > 0, f"margin {margin} is not positive")
            # loss(x) = sum_i c_i (r_i - e_i(x)) on the grid, in integers
            # over the common denominator d
            terms = [(c, r) + ref.grid_values(prog, n) for prog, c, r in zip(progs, stakes, odds) if c]
            _require(terms, "all stakes are zero")
            d = math.lcm(*(c.denominator * r.denominator * den for c, r, _, den in terms))
            const = int(sum(c * r * d for c, r, _, _ in terms))
            weights = [int(c * d / den) for c, _, _, den in terms]
            worst = max(const - sum(map(operator.mul, weights, values)) for values in zip(*(t[2] for t in terms)))
            _require(Fraction(worst, d) <= -margin, "a grid point loses less than the margin")

    return check


def check_verified(out):
    _require(out == "verified\n", f"verify printed {out.strip()!r}")


def check_span(n, events, odds, stakes, extra_points):
    progs = [ref.compile_formula(e) for e in events]
    points = ref.grid(n) + list(extra_points)
    columns = [ref.evaluate_many(p, points) for p in progs]
    combo = []
    for i in range(len(points)):
        total = sum(c * (col[i] - r) for c, col, r in zip(stakes, columns, odds))
        combo.append(min(Fraction(1), max(Fraction(0), total)))
    hits_zero = any(v == 0 for v in combo)

    def check(out):
        lines = _lines(out)
        _require(len(lines) in (2, 3), f"span printed {len(lines)} lines")
        prog = ref.compile_formula(lines[0])
        for p, x, y in zip(points, ref.evaluate_many(prog, points), combo):
            if x != y:
                raise CheckError(f"span member gives {x} at {p}, combination {y}")
        if lines[1] == "invalid":
            _require(len(lines) == 3, "invalid without a witness")
            witness = _point(lines[2])
            _require(ref.evaluate(prog, witness) == 0, f"witness {lines[2]} does not give 0")
        else:
            _require(lines[1] == "not invalid" and len(lines) == 2, f"bad verdict {lines[1]!r}")
            _require(not hits_zero, "not invalid, but the combination is 0 at a grid point")

    return check


# one round of books: (query, n, k, binary connectives per event).  Image
# size grows as C(hyperplanes, n): one k = 8, n = 3 book had 3,783 image
# points and took 47 s, and a k = 6, n = 2 book with two connectives per
# event took 1.9 s, so events get simpler as n grows.  Span members stay at
# n = 2 (one n = 3 combination needed 2.5e7 vertex systems) with stakes
# +-1 or +-1/2; quarter stakes up to 2 made member sizes vary 2x more.
BOOKS_ROUND = (
    ("coherent", 1, 8, 2),
    ("coherent", 2, 5, 1),
    ("coherent", 3, 3, 1),
    ("incoherent", 1, 8, 2),
    ("incoherent", 2, 5, 1),
    ("incoherent", 3, 3, 1),
    ("verify_coherent", 2, 4, 1),
    ("verify_incoherent", 2, 3, 1),
    ("span", 2, 2, 1),
    ("span", 2, 3, 1),
)


def build_books(rng, rounds, inputs):
    queries = []
    count = 0

    def write(data):
        nonlocal count
        path = inputs / f"book{count}.json"
        count += 1
        path.write_text(json.dumps(data))
        return str(path.relative_to(inputs.parent))

    for _ in range(rounds):
        for kind, n, k, binaries in BOOKS_ROUND:
            if kind == "coherent":
                events, odds, _ = coherent_book(rng, n, k, binaries)
                argv = ["coherent", write(_book_json(events, odds))]
                queries.append(Query(kind, argv, check_coherent(n, events, odds, True)))
            elif kind == "incoherent":
                events, odds, _, _ = incoherent_book(rng, n, k, binaries)
                argv = ["coherent", write(_book_json(events, odds))]
                queries.append(Query(kind, argv, check_coherent(n, events, odds, False)))
            elif kind == "verify_coherent":
                # --verify on a certificate known by construction
                events, odds, support = coherent_book(rng, n, k, binaries)
                cert = {"kind": "coherent", "support": [{"point": [str(c) for c in p], "weight": str(w)} for p, w in support]}
                argv = ["coherent", write(_book_json(events, odds)), "--verify", write(cert)]
                queries.append(Query(kind, argv, check_verified))
            elif kind == "verify_incoherent":
                events, odds, stakes, margin = incoherent_book(rng, n, k, binaries)
                cert = {"kind": "incoherent", "stakes": [str(c) for c in stakes], "margin": str(margin)}
                argv = ["coherent", write(_book_json(events, odds)), "--verify", write(cert)]
                queries.append(Query(kind, argv, check_verified))
            else:
                events = _events(rng, n, k, binaries)
                odds = [gen.unit(rng) for _ in range(k)]
                stakes = [Fraction(rng.choice((1, -1)), rng.randint(1, 2)) for _ in range(k)]
                extra = [gen.point(rng, n) for _ in range(4)]
                # "--" keeps argparse from reading a negative stake as an option
                argv = ["span", write(_book_json(events, odds)), "--"] + [str(c) for c in stakes]
                queries.append(Query(kind, argv, check_span(n, events, odds, stakes, extra)))
    return queries


BY_NAME = {"eval": build_eval, "decide": build_decide, "synth": build_synth, "books": build_books}


def build(workload, seed, seconds, inputs: Path):
    """The query list of one run; input files are written under ``inputs``."""
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND[workload]))
    return BY_NAME[workload](rng, rounds, inputs)
