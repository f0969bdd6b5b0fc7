"""Formulas of many-valued logic with scalar connectives.

Abstract syntax, parsing, printing and evaluation over the standard
Riesz MV-algebra [0, 1].  The primitive connectives are negation,
implication and the scalar family ``N[r]`` (semantics 1 - r + r*x); the
scalar ``D[r]`` (semantics r*x), truncated sum/product, lattice join/meet,
equivalence, truncated difference and rational constants are kept as
distinct nodes so printing preserves the input, but their meaning is fixed
by expansion into the primitives.

:func:`arity`, :func:`evaluate`, :func:`expand` and ``pwl.term_pwl`` are each
one loop over the cached node list of :func:`program`, so formulas built in
code may be of any depth; only the parser and the printer recurse.

Concrete grammar (ASCII, precedence low to high, ``->`` right-associative)::

    formula := iff
    iff     := imp ("<->" imp)*
    imp     := disj ("->" imp)?
    disj    := conj ("\\/" conj)*
    conj    := sum ("/\\" sum)*
    sum     := prod (("(+)" | "(-)") prod)*
    prod    := unary ("(.)" unary)*
    unary   := "!" unary | "D[" rat "]" unary | "N[" rat "]" unary | atom
    atom    := "v" INT | "C[" rat "]" | "(" formula ")"

Rational literals are ``p/q`` or exact decimals (``0.3`` means 3/10).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

# The k_* names are not called here: perfbench/tracing.py patches them by name.
from .kernel import UnitRational, implies as k_implies, join as k_join, meet as k_meet, neg as k_neg, odot as k_odot, oplus as k_oplus  # noqa: F401


class ParseError(ValueError):
    """Syntax or range error in formula text, with a 0-based position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Formula:
    """Base class for formula nodes.  Instances are immutable."""

    # node list built by the first program() call; not part of equality
    _program: tuple = field(default=None, init=False, repr=False, compare=False)

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 1:
            raise ValueError(f"variable index must be a positive integer, got {self.index!r}")


@dataclass(frozen=True)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Nabla(Formula):
    """Scalar connective with value 1 - r + r*x."""

    r: Fraction
    child: Formula

    def __post_init__(self):
        object.__setattr__(self, "r", UnitRational(self.r))


@dataclass(frozen=True)
class Delta(Formula):
    """Scalar connective with value r*x; definable as ``!N[r]!``."""

    r: Fraction
    child: Formula

    def __post_init__(self):
        object.__setattr__(self, "r", UnitRational(self.r))


@dataclass(frozen=True)
class RConst(Formula):
    """Constant formula with value r; definable as ``D[r](v1 -> v1)``.

    Stored as a primitive so that a bare constant has arity 0.
    """

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", UnitRational(self.r))


@dataclass(frozen=True)
class Oplus(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Odot(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Join(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Meet(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Ominus(Formula):
    """Truncated difference, sugar for ``left (.) !right``."""

    left: Formula
    right: Formula


# Binary connectives: (symbol, precedence, least precedence printed bare on
# the left, on the right).  ``->`` is right-associative.
_INFIX = {
    Iff: (" <-> ", 0, 0, 1),
    Implies: (" -> ", 1, 2, 1),
    Join: (" \\/ ", 2, 2, 3),
    Meet: (" /\\ ", 3, 3, 4),
    Oplus: (" (+) ", 4, 4, 5),
    Ominus: (" (-) ", 4, 4, 5),
    Odot: (" (.) ", 5, 5, 6),
}


def program(phi: Formula) -> tuple:
    """The distinct nodes of ``phi``, children first and left before right.

    Entries are ``(type, payload, i, j, den)``: the variable index or scalar
    (else None), the positions of the children's entries (else None), and a
    denominator of the node's value at every integer point (the lcm over
    paths to the leaves of the product of their scalar denominators).  The
    walk uses an explicit stack; the tuple holds no nodes and is cached.
    """
    cached = getattr(phi, "_program", None)
    if cached is not None:
        return cached
    entries = []
    position = {}  # id(node) -> entry index; phi keeps every node alive
    stack = [phi]
    while stack:
        node = stack[-1]
        if id(node) in position:
            stack.pop()
            continue
        kind = type(node)
        if kind is Var:
            entry = (Var, node.index, None, None, 1)
        elif kind in _INFIX:
            i = position.get(id(node.left))
            j = position.get(id(node.right))
            if i is None or j is None:
                if j is None:
                    stack.append(node.right)
                if i is None:
                    stack.append(node.left)
                continue
            di = entries[i][4]
            dj = entries[j][4]
            entry = (kind, None, i, j, di if di == dj else math.lcm(di, dj))
        elif kind is Neg or kind is Nabla or kind is Delta:
            i = position.get(id(node.child))
            if i is None:
                stack.append(node.child)
                continue
            r = None if kind is Neg else node.r
            entry = (kind, r, i, None, entries[i][4] * (1 if r is None else r.denominator))
        elif kind is RConst:
            entry = (RConst, node.r, None, None, node.r.denominator)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        position[id(node)] = len(entries)
        entries.append(entry)
        stack.pop()
    entries = tuple(entries)
    object.__setattr__(phi, "_program", entries)
    return entries


def arity(phi: Formula) -> int:
    """Largest variable index occurring in ``phi`` (0 for constants)."""
    return max([e[1] for e in program(phi) if e[0] is Var], default=0)


def evaluate(phi: Formula, point) -> Fraction:
    """Value of ``phi`` at ``point``, a sequence of rationals in [0, 1].

    Points longer than the formula's arity are accepted; the extra
    coordinates are ignored.  A variable index beyond ``len(point)`` is an
    arity mismatch and raises ``ValueError``.  Coordinates must be ``int``
    or ``Fraction``.  The program runs on integer numerators over the common
    denominator ``lcm(coordinate denominators) * den(root)``.
    """
    for c in point:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coordinate {c!r} is not exact; pass Fraction or int coordinates")
        if c < 0 or c > 1:
            raise ValueError(f"evaluation coordinate {c} outside [0, 1]")
    prog = program(phi)
    npoint = len(point)
    d = math.lcm(*[c.denominator for c in point]) * prog[-1][4]
    xs = [c.numerator * (d // c.denominator) for c in point]
    vals = []
    append = vals.append
    for kind, r, i, j, _ in prog:
        if kind is Var:
            if r > npoint:
                raise ValueError(f"arity mismatch: formula uses v{r}, point has {npoint} coordinates")
            v = xs[r - 1]
        elif kind is Neg:
            v = d - vals[i]
        elif kind is Implies:
            v = min(d, d - vals[i] + vals[j])
        elif kind is Nabla:
            v = d - r.numerator * (d - vals[i]) // r.denominator
        elif kind is Delta:
            v = r.numerator * vals[i] // r.denominator
        elif kind is RConst:
            v = r.numerator * (d // r.denominator)
        elif kind is Oplus:
            v = min(d, vals[i] + vals[j])
        elif kind is Odot:
            v = max(0, vals[i] + vals[j] - d)
        elif kind is Join:
            v = max(vals[i], vals[j])
        elif kind is Meet:
            v = min(vals[i], vals[j])
        elif kind is Iff:
            v = d - abs(vals[i] - vals[j])
        else:  # Ominus
            v = max(0, vals[i] - vals[j])
        append(v)
    return Fraction(vals[-1], d)


def _e_odot(left, right):
    return Neg(Implies(left, Neg(right)))


def _e_join(left, right):
    return Implies(Implies(left, right), right)


def _e_meet(left, right):
    return Neg(_e_join(Neg(left), Neg(right)))


def expand(phi: Formula) -> Formula:
    """Rewrite ``phi`` into the primitive connectives Var/Neg/Implies/Nabla.

    Evaluation commutes with expansion; this is the definitional reading of
    the derived nodes.  Shared subformulas stay shared.
    """
    out = []
    append = out.append
    for kind, r, i, j, _ in program(phi):
        if kind is Var:
            e = Var(r)
        elif kind is Neg:
            e = Neg(out[i])
        elif kind is Implies:
            e = Implies(out[i], out[j])
        elif kind is Nabla:
            e = Nabla(r, out[i])
        elif kind is Delta:
            e = Neg(Nabla(r, Neg(out[i])))
        elif kind is RConst:
            e = Neg(Nabla(r, Neg(Implies(Var(1), Var(1)))))
        elif kind is Oplus:
            e = Implies(Neg(out[i]), out[j])
        elif kind is Odot:
            e = _e_odot(out[i], out[j])
        elif kind is Join:
            e = _e_join(out[i], out[j])
        elif kind is Meet:
            e = _e_meet(out[i], out[j])
        elif kind is Iff:
            e = _e_meet(Implies(out[i], out[j]), Implies(out[j], out[i]))
        else:  # Ominus
            e = _e_odot(out[i], Neg(out[j]))
        append(e)
    return out[-1]


# ---------------------------------------------------------------------------
# Tokenizer / parser


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<iff><->)
    | (?P<imp>->)
    | (?P<disj>\\/)
    | (?P<conj>/\\)
    | (?P<oplus>\(\+\))
    | (?P<ominus>\(-\))
    | (?P<odot>\(\.\))
    | (?P<neg>!)
    | (?P<delta>D\[)
    | (?P<nabla>N\[)
    | (?P<const>C\[)
    | (?P<rbrack>\])
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<var>v\d+)
    | (?P<rat>\d+\.\d+|\d+(?:/\d+)?)
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def scalar(self):
        kind, value, pos = self.expect("rat", "a rational literal")
        if "/" in value:
            num, den = value.split("/")
            if int(den) == 0:
                raise ParseError("zero denominator", pos)
            r = Fraction(int(num), int(den))
        else:
            r = Fraction(value)
        if r > 1:
            raise ParseError(f"scalar {value} outside [0, 1]", pos)
        return r

    def formula(self):
        return self.iff()

    def iff(self):
        left = self.imp()
        while self.peek() == "iff":
            self.take()
            left = Iff(left, self.imp())
        return left

    def imp(self):
        left = self.disj()
        if self.peek() == "imp":
            self.take()
            return Implies(left, self.imp())
        return left

    def disj(self):
        left = self.conj()
        while self.peek() == "disj":
            self.take()
            left = Join(left, self.conj())
        return left

    def conj(self):
        left = self.sum()
        while self.peek() == "conj":
            self.take()
            left = Meet(left, self.sum())
        return left

    def sum(self):
        left = self.prod()
        while self.peek() in ("oplus", "ominus"):
            kind, _, _ = self.take()
            right = self.prod()
            left = Oplus(left, right) if kind == "oplus" else Ominus(left, right)
        return left

    def prod(self):
        left = self.unary()
        while self.peek() == "odot":
            self.take()
            left = Odot(left, self.unary())
        return left

    def unary(self):
        kind = self.peek()
        if kind == "neg":
            self.take()
            return Neg(self.unary())
        if kind in ("delta", "nabla"):
            self.take()
            r = self.scalar()
            self.expect("rbrack", "']'")
            child = self.unary()
            return Delta(r, child) if kind == "delta" else Nabla(r, child)
        return self.atom()

    def atom(self):
        kind, value, pos = self.take()
        if kind == "var":
            index = int(value[1:])
            if index == 0:
                raise ParseError("variable index must be at least 1", pos)
            return Var(index)
        if kind == "const":
            r = self.scalar()
            self.expect("rbrack", "']'")
            return RConst(r)
        if kind == "lparen":
            inner = self.formula()
            self.expect("rparen", "')'")
            return inner
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse formula text into its AST; raises :class:`ParseError`."""
    parser = _Parser(text)
    phi = parser.formula()
    tok = parser.tokens[parser.i]
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return phi


# ---------------------------------------------------------------------------
# Printer


def format_formula(phi: Formula) -> str:
    """Render ``phi`` with minimal parentheses; inverse of :func:`parse`."""

    def fmt(node, minimum):
        # unary nodes and atoms bind tightest and never need parentheses
        kind = type(node)
        if kind is Var:
            return f"v{node.index}"
        if kind is RConst:
            return f"C[{node.r}]"
        if kind is Neg:
            return "!" + fmt(node.child, 6)
        if kind is Delta:
            return f"D[{node.r}] " + fmt(node.child, 6)
        if kind is Nabla:
            return f"N[{node.r}] " + fmt(node.child, 6)
        if kind not in _INFIX:
            raise TypeError(f"not a formula node: {node!r}")
        symbol, level, left, right = _INFIX[kind]
        s = fmt(node.left, left) + symbol + fmt(node.right, right)
        return "(" + s + ")" if level < minimum else s

    return fmt(phi, 0)
