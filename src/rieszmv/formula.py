"""Formulas of many-valued logic with scalar connectives.

Abstract syntax, parsing, printing and evaluation over the standard
Riesz MV-algebra [0, 1].  The primitive connectives are negation,
implication and the scalar family ``N[r]`` (semantics 1 - r + r*x); the
scalar ``D[r]`` (semantics r*x), truncated sum/product, lattice join/meet,
equivalence, truncated difference and rational constants are kept as
distinct nodes so printing preserves the input, but their meaning is fixed
by expansion into the primitives.

:func:`program` is the one formula walk: a cached node list in which equal
subformulas share one entry.  :func:`arity`, :func:`evaluate`, :func:`expand`
and ``pwl.term_pwl`` (the term function of the negation normal form, built
without its nodes) loop over it, and ``==`` and ``hash()`` read it.  :func:`format_formula` and ``repr()`` keep explicit stacks of their
own, so formulas built in code may be of any depth; only the parser
recurses.  :func:`parse` takes its tokens from one regex scan and interns
each node into the program as it builds it, through the helper
:func:`program` uses, so a parsed formula is never walked again.

Nodes are immutable :class:`~rieszmv.kernel.Record` values: each node class
names its fields, in order, in ``__match_args__``; ``repr()`` prints them,
and ``==`` compares them between nodes of one class.

Concrete grammar (precedence low to high, ``->`` right-associative)::

    formula := iff
    iff     := imp ("<->" imp)*
    imp     := disj ("->" imp)?
    disj    := conj ("\\/" conj)*
    conj    := sum ("/\\" sum)*
    sum     := prod (("(+)" | "(-)") prod)*
    prod    := unary ("(.)" unary)*
    unary   := "!" unary | "D[" rat "]" unary | "N[" rat "]" unary | atom
    atom    := "v" INT | "C[" rat "]" | "(" formula ")"

The binary rules are one table, ``_INFIX`` (symbol, precedence and the least
precedence printed bare on each side): the tokenizer, the parser's one
``binary(level)`` method and the printer all read it.

Rational literals are ``p/q`` or exact decimals (``0.3`` means 3/10).  A digit
is any Unicode decimal digit (``v\u0663`` is v3), printed back in ASCII.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import bounded
# The k_* names are not called here: perfbench/tracing.py patches them by name.
from .kernel import Record, UnitRational, implies as k_implies, join as k_join, meet as k_meet, neg as k_neg, odot as k_odot, oplus as k_oplus  # noqa: F401


class ParseError(ValueError):
    """Syntax or range error in formula text, with a 0-based position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula(Record):
    """Base class for formula nodes.  Instances are immutable.

    Each node class names its fields in ``__match_args__``, as every
    :class:`~rieszmv.kernel.Record` does.  ``==`` is structural over those
    fields, between nodes of one class, and ``hash()`` agrees with it; both
    read :func:`program`, so formulas of any depth compare and hash.
    ``repr()`` prints ``Class(field=value, ...)`` in field order and keeps
    an explicit stack.
    """

    # node list built by the first program() call; not a field
    _program = None

    def __str__(self):
        return format_formula(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return program(self) == program(other)

    def __hash__(self):
        # payloads and child positions only, so Odot and Oplus over the same
        # operands hash alike
        return hash(tuple(entry[1:4] for entry in program(self)))


# One __init__ per node shape, each writing the instance dict directly: the
# parser and expand build one node per step, so construction stays cheap.


class Var(Formula):
    __match_args__ = ("index",)

    def __init__(self, index):
        if not isinstance(index, int) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        self.__dict__["index"] = index


class Neg(Formula):
    __match_args__ = ("child",)

    def __init__(self, child):
        self.__dict__["child"] = child


class _Binary(Formula):
    """Base of the binary connectives."""

    __match_args__ = ("left", "right")

    def __init__(self, left, right):
        d = self.__dict__
        d["left"] = left
        d["right"] = right


class Implies(_Binary):
    pass


class _Scaled(Formula):
    """Base of the nodes whose scalar ``r`` must lie in [0, 1]."""

    __match_args__ = ("r", "child")

    def __init__(self, r, child):
        d = self.__dict__
        d["r"] = UnitRational(r)
        d["child"] = child


class Nabla(_Scaled):
    """Scalar connective with value 1 - r + r*x."""


class Delta(_Scaled):
    """Scalar connective with value r*x; definable as ``!N[r]!``."""


class RConst(_Scaled):
    """Constant formula with value r; definable as ``D[r](v1 -> v1)``.

    Stored as a primitive so that a bare constant has arity 0.
    """

    __match_args__ = ("r",)

    def __init__(self, r):
        self.__dict__["r"] = UnitRational(r)


class Oplus(_Binary):
    pass


class Odot(_Binary):
    pass


class Join(_Binary):
    pass


class Meet(_Binary):
    pass


class Iff(_Binary):
    pass


class Ominus(_Binary):
    """Truncated difference, sugar for ``left (.) !right``."""


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
# Unary connectives and atoms bind tighter than every binary connective.
_UNARY = 1 + max(level for _, level, _, _ in _INFIX.values())
# The parser's view of _INFIX: symbol -> (precedence, class, least
# precedence of the right operand).
_BINARY = {symbol.strip(): (level, kind, right) for kind, (symbol, level, _, right) in _INFIX.items()}


def program(phi: Formula) -> tuple:
    """The distinct subformulas of ``phi``, children first and left before right.

    Entries are ``(type, payload, i, j, den)``: the variable index or scalar
    (else None), the positions of the children's entries (else None), and a
    denominator of the node's value at every integer point (the lcm over
    paths to the leaves of the product of their scalar denominators).  Equal
    subformulas share one entry, one node or not, so equal formulas have
    equal programs.  The walk keeps an explicit stack; the tuple is cached.
    """
    cached = getattr(phi, "_program", None)
    if cached is not None:
        return cached
    entries = []
    index = {}  # (type, payload, i, j) -> position: equal subformulas share one entry
    position = {}  # id(node) -> entry index; phi keeps every node alive
    stack = [phi]
    while stack:
        node = stack[-1]
        if id(node) in position:
            stack.pop()
            continue
        kind = type(node)
        if kind is Var:
            key = (Var, node.index, None, None)
        elif kind in _INFIX:
            i = position.get(id(node.left))
            j = position.get(id(node.right))
            if i is None or j is None:
                if j is None:
                    stack.append(node.right)
                if i is None:
                    stack.append(node.left)
                continue
            key = (kind, None, i, j)
        elif kind is Neg or kind is Nabla or kind is Delta:
            i = position.get(id(node.child))
            if i is None:
                stack.append(node.child)
                continue
            key = (kind, None if kind is Neg else node.r, i, None)
        elif kind is RConst:
            key = (RConst, node.r, None, None)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        position[id(node)] = _intern(entries, index, key)
        stack.pop()
    entries = tuple(entries)
    object.__setattr__(phi, "_program", entries)
    return entries


def _intern(entries, index, key):
    """Position of ``key`` in ``entries``, appended with its den when new."""
    k = index.setdefault(key, len(entries))
    if k == len(entries):  # a new subformula: find its den
        _, r, i, j = key
        if j is None:  # a leaf or unary node; an int payload has denominator 1
            den = (1 if i is None else entries[i][4]) * (1 if r is None else r.denominator)
        else:
            di, dj = entries[i][4], entries[j][4]
            den = di if di == dj else math.lcm(di, dj)
        entries.append(key + (den,))
    return k


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
            raise ValueError(f"evaluation coordinate {bounded(c)} outside [0, 1]")
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
    the derived nodes.  Equal subformulas expand to one shared node.
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


# One alternative per token, the binary symbols first so that "(+)" is not "(".
_TOKEN_RE = re.compile(
    "|".join(re.escape(op) for op in sorted(_BINARY, key=len, reverse=True))
    + r"|!|[DNC]\[|\]|\(|\)|v\d+|\d+\.\d+|\d+(?:/\d+)?"
)


def _tokenize(text):
    # One scan; a character that no token covers shows as a shortfall against
    # the non-whitespace characters, and only then is it looked for.
    tokens = _TOKEN_RE.findall(text)
    if sum(map(len, tokens)) != sum(map(len, text.split())):
        rest = _TOKEN_RE.sub(lambda match: " " * len(match[0]), text)
        pos = len(rest) - len(rest.lstrip())
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append("")  # the end of input
    return tokens


class _Parser:
    """Recursive descent that interns each node into the program as it builds it.

    Every grammar method returns the node and the position of its entry.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.entries = []
        self.index = {}

    def fail(self, message):
        # the current token's position, found only for an error
        starts = [match.start() for match in _TOKEN_RE.finditer(self.text)]
        raise ParseError(message, (starts + [len(self.text)])[self.i])

    def intern(self, node, r, i=None, j=None):
        return node, _intern(self.entries, self.index, (type(node), r, i, j))

    def expect(self, token):
        found = self.tokens[self.i]
        if found != token:
            self.fail(f"expected {token!r}, found {found or 'end of input'!r}")
        self.i += 1

    def scalar(self):
        value = self.tokens[self.i]
        if not value[:1].isdecimal():
            self.fail(f"expected a rational literal, found {value or 'end of input'!r}")
        if "/" in value:
            num, den = value.split("/")
            if int(den) == 0:
                self.fail("zero denominator")
            r = Fraction(int(num), int(den))
        else:
            r = Fraction(value)
        if r > 1:
            self.fail(f"scalar {value} outside [0, 1]")
        self.i += 1
        return r

    def binary(self, level):
        # A formula whose connectives bind at ``level`` or tighter: one frame
        # per precedence level, left-associative unless _INFIX says otherwise.
        if level == _UNARY:
            return self.unary()
        left, i = self.binary(level + 1)
        while True:
            row = _BINARY.get(self.tokens[self.i])
            if row is None or row[0] != level:
                return left, i
            self.i += 1
            right, j = self.binary(row[2])
            left, i = self.intern(row[1](left, right), None, i, j)

    def unary(self):
        token = self.tokens[self.i]
        if token == "!":
            self.i += 1
            child, i = self.unary()
            return self.intern(Neg(child), None, i)
        if token == "D[" or token == "N[":
            self.i += 1
            r = self.scalar()
            self.expect("]")
            child, i = self.unary()
            node = (Delta if token == "D[" else Nabla)(r, child)
            return self.intern(node, node.r, i)
        return self.atom()

    def atom(self):
        token = self.tokens[self.i]
        if token[:1] == "v":
            index = int(token[1:])
            if index == 0:
                self.fail("variable index must be at least 1")
            self.i += 1
            return self.intern(Var(index), index)
        if token != "C[" and token != "(":
            self.fail(f"expected a formula, found {token or 'end of input'!r}")
        self.i += 1
        if token == "C[":
            node = RConst(self.scalar())
            self.expect("]")
            return self.intern(node, node.r)
        inner = self.binary(0)
        self.expect(")")
        return inner


def parse(text: str) -> Formula:
    """Parse formula text into its AST, its :func:`program` filled in; raises :class:`ParseError`."""
    parser = _Parser(text)
    phi, _ = parser.binary(0)
    if parser.tokens[parser.i]:
        parser.fail(f"trailing input {parser.tokens[parser.i]!r}")
    object.__setattr__(phi, "_program", tuple(parser.entries))
    return phi


# ---------------------------------------------------------------------------
# Printer


def format_formula(phi: Formula) -> str:
    """Render ``phi`` with minimal parentheses; inverse of :func:`parse`.

    The walk keeps an explicit stack of pending nodes and literal text, so
    formulas of any depth print.
    """
    out = []
    stack = [(phi, 0)]
    while stack:
        node, minimum = stack.pop()
        kind = type(node)
        # unary nodes and atoms bind tightest and never need parentheses
        if minimum is None:
            out.append(node)  # literal text
        elif kind is Var:
            out.append(f"v{node.index}")
        elif kind is RConst:
            out.append(f"C[{node.r}]")
        elif kind is Neg:
            out.append("!")
            stack.append((node.child, _UNARY))
        elif kind is Delta or kind is Nabla:
            out.append(f"{'D' if kind is Delta else 'N'}[{node.r}] ")
            stack.append((node.child, _UNARY))
        elif kind in _INFIX:
            symbol, level, left, right = _INFIX[kind]
            if level < minimum:
                out.append("(")
                stack.append((")", None))
            stack += ((node.right, right), (symbol, None), (node.left, left))
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return "".join(out)
