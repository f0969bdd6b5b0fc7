"""Reference semantics for checking the program's outputs, apart from the package.

Nothing here imports ``rieszmv``.  Formulas are read by an explicit-stack
operator-precedence parser (no recursion, so any nesting depth works) into a
hash-consed DAG: identical subformulas become one node, which makes the large
tree-printed formulas that synthesis emits cheap to evaluate.  Each connective
is read in its closed form over [0, 1] (see ``_vector_op``), not through the
package's expansion into primitives.

Evaluation is exact and iterative: :func:`evaluate_many` walks the DAG once
for a whole batch of points, carrying exact rationals as integer numerators
over one common denominator, and returns ``Fraction`` values.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction

try:
    import numpy
except ImportError:  # grid_values then takes the pure-Python path
    numpy = None

# binary connectives: token -> (op, precedence, right-associative)
_BINARY = {
    "<->": ("iff", 0, False),
    "->": ("imp", 1, True),
    "\\/": ("join", 2, False),
    "/\\": ("meet", 3, False),
    "(+)": ("oplus", 4, False),
    "(-)": ("ominus", 4, False),
    "(.)": ("odot", 5, False),
}
_UNARY_PREC = 6

_TOKEN = re.compile(
    r"\s*(?:(<->|->|\\/|/\\|\(\+\)|\(-\)|\(\.\))|(!)|([DNC])\[(\d+(?:\.\d+|/\d+)?)\]"
    r"|v(\d+)|(\()|(\)))"
)


class Program:
    """A formula as a DAG in topological order.

    ``nodes[i]`` is ``(op, arg, left, right)``: ``arg`` is the variable index
    or the scalar, ``left``/``right`` are indices of earlier nodes (or None).
    The last node is the root.
    """

    __slots__ = ("nodes", "arity", "scalar_den")

    def __init__(self, nodes):
        self.nodes = nodes
        self.arity = max((arg for op, arg, _, _ in nodes if op == "var"), default=0)
        den = 1
        for op, arg, _, _ in nodes:
            if op in ("delta", "nabla", "const"):
                den *= arg.denominator
        self.scalar_den = den


def compile_formula(text: str) -> Program:
    """Parse formula text (the grammar of the package README) into a DAG."""
    nodes = []
    index = {}

    def node(op, arg=None, left=None, right=None):
        key = (op, arg, left, right)
        i = index.get(key)
        if i is None:
            i = index[key] = len(nodes)
            nodes.append(key)
        return i

    operands = []
    # stack entries: ("(",) | ("bin", op, prec) | ("un", op, scalar)
    ops = []

    def reduce_top():
        entry = ops.pop()
        if entry[0] == "un":
            operands.append(node(entry[1], entry[2], operands.pop()))
        else:
            right = operands.pop()
            left = operands.pop()
            operands.append(node(entry[1], None, left, right))

    pos = 0
    expect_operand = True
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read formula at position {pos}: {text[pos:pos + 20]!r}")
        pos = m.end()
        binop, bang, scalar_kind, scalar, var, lparen, rparen = m.groups()
        if expect_operand:
            if bang:
                ops.append(("un", "neg", None))
            elif scalar_kind in ("D", "N"):
                ops.append(("un", "delta" if scalar_kind == "D" else "nabla", Fraction(scalar)))
            elif scalar_kind == "C":
                operands.append(node("const", Fraction(scalar)))
                expect_operand = False
            elif var:
                operands.append(node("var", int(var)))
                expect_operand = False
            elif lparen:
                ops.append(("(",))
            else:
                raise ValueError(f"expected an operand at position {m.start()}")
        elif binop:
            op, prec, right_assoc = _BINARY[binop]
            while ops and ops[-1][0] != "(":
                top = ops[-1]
                top_prec = _UNARY_PREC if top[0] == "un" else top[2]
                if top_prec > prec or (top_prec == prec and not right_assoc):
                    reduce_top()
                else:
                    break
            ops.append(("bin", op, prec))
            expect_operand = True
        elif rparen:
            while ops and ops[-1][0] != "(":
                reduce_top()
            if not ops:
                raise ValueError(f"unbalanced ')' at position {m.start()}")
            ops.pop()
        else:
            raise ValueError(f"expected a connective at position {m.start()}")
    if expect_operand:
        raise ValueError("formula ends where an operand is expected")
    while ops:
        if ops[-1][0] == "(":
            raise ValueError("unbalanced '('")
        reduce_top()
    if len(operands) != 1:
        raise ValueError("malformed formula")
    # the root may not be the last node created when it was hash-consed
    # earlier; re-append it so that nodes[-1] is always the root
    root = operands[0]
    if root != len(nodes) - 1:
        nodes.append(nodes[root])
    return Program(nodes)


def _vector_op(op, r, xs, ys, one):
    """Values of one node over the batch, from its children's values.

    Values are integer numerators over the common denominator ``one``;
    each connective is read in its closed form over [0, 1].
    """
    if op == "neg":
        return [one - x for x in xs]
    if op == "imp":  # min(1, 1 - x + y)
        return [one if y >= x else one - x + y for x, y in zip(xs, ys)]
    if op == "oplus":  # min(1, x + y)
        return [min(one, x + y) for x, y in zip(xs, ys)]
    if op == "odot":  # max(0, x + y - 1)
        return [max(0, x + y - one) for x, y in zip(xs, ys)]
    if op == "join":
        return [x if x >= y else y for x, y in zip(xs, ys)]
    if op == "meet":
        return [x if x <= y else y for x, y in zip(xs, ys)]
    if op == "iff":  # 1 - |x - y|
        return [one - abs(x - y) for x, y in zip(xs, ys)]
    if op == "ominus":  # max(0, x - y)
        return [x - y if x > y else 0 for x, y in zip(xs, ys)]
    p, q = r.numerator, r.denominator
    if op == "delta":  # r * x
        return [p * x // q for x in xs]
    if op == "nabla":  # 1 - r + r * x
        return [one - p * (one - x) // q for x in xs]
    raise ValueError(f"unknown connective {op}")


def _array_op(op, r, xs, ys, one):
    """:func:`_vector_op` on int64 arrays: the same readings, elementwise."""
    if op == "neg":
        return one - xs
    if op == "imp":
        return numpy.minimum(one, one - xs + ys)
    if op == "oplus":
        return numpy.minimum(one, xs + ys)
    if op == "odot":
        return numpy.maximum(0, xs + ys - one)
    if op == "join":
        return numpy.maximum(xs, ys)
    if op == "meet":
        return numpy.minimum(xs, ys)
    if op == "iff":
        return one - numpy.abs(xs - ys)
    if op == "ominus":
        return numpy.maximum(0, xs - ys)
    p, q = r.numerator, r.denominator
    if op == "delta":
        return p * xs // q
    if op == "nabla":
        return one - p * (one - xs) // q
    raise ValueError(f"unknown connective {op}")


def _run(prog: Program, columns, one, constant, vector_op):
    # columns[i]: numerators of coordinate i+1 over ``one``, one per point;
    # constant(c) is the batch with c at every point
    values = []
    for op, arg, left, right in prog.nodes:
        if op == "var":
            values.append(columns[arg - 1])
        elif op == "const":
            values.append(constant(arg.numerator * one // arg.denominator))
        else:
            ys = values[right] if right is not None else None
            values.append(vector_op(op, arg, values[left], ys, one))
    return values[-1]


def evaluate_many(prog: Program, points) -> list:
    """Exact values of the formula at each of ``points`` (Fraction or int
    coordinates), as Fractions.

    All nodes are evaluated over the whole batch at once, on integer
    numerators over one common denominator: the lcm of the coordinates'
    denominators times the product of the scalars' denominators.  That
    denominator is exact for every node, because a node's value has a
    denominator dividing the points' lcm times the denominators of the
    scalars below it, so each ``p * x // q`` divides evenly.
    """
    if not points:
        return []
    n = prog.arity
    pden = math.lcm(*(Fraction(c).denominator for p in points for c in p[:n]))
    one = pden * prog.scalar_den
    columns = [
        [p[i].numerator * (one // p[i].denominator) for p in points] for i in range(n)
    ]
    size = len(points)
    return [Fraction(v, one) for v in _run(prog, columns, one, lambda c: [c] * size, _vector_op)]


def evaluate(prog: Program, point) -> Fraction:
    """Exact value of the formula at one point."""
    return evaluate_many(prog, [point])[0]


def grid(n: int, steps: int = 16):
    """All points of the 1/steps grid on [0, 1]^n, in ``itertools.product`` order."""
    axis = [Fraction(i, steps) for i in range(steps + 1)]
    return list(itertools.product(axis, repeat=n))


def grid_values(prog: Program, n: int, steps: int = 16):
    """Values on the 1/steps grid of [0, 1]^n, in the order of :func:`grid`.

    Returned as ``(numerators, denominator)``, so that a check over tens of
    thousands of points compares integers.  When every intermediate value
    fits in int64 (values lie in [0, one], sums in [-one, 2 one], scalar
    products below p * one) the walk runs on numpy arrays.
    """
    one = steps * prog.scalar_den
    unit = one // steps
    size = (steps + 1) ** n
    max_p = max((arg.numerator for op, arg, _, _ in prog.nodes if op in ("delta", "nabla")), default=1)
    if numpy is not None and one * max(2, max_p) < 2**62:
        columns = list(numpy.indices((steps + 1,) * n, dtype=numpy.int64).reshape(n, size) * unit)
        out = _run(prog, columns, one, lambda c: numpy.full(size, c, dtype=numpy.int64), _array_op)
        return out.tolist(), one
    coords = list(itertools.product(range(steps + 1), repeat=n))
    columns = [[c[i] * unit for c in coords] for i in range(n)]
    return _run(prog, columns, one, lambda c: [c] * size, _vector_op), one


# ---------------------------------------------------------------------------
# Max-Min functions: groups of pieces (c0, c1, .., cn), coefficients as Fractions


def maxmin_values(groups, points) -> list:
    """max over groups of min over pieces of c0 + c1*x1 + ... + cn*xn, at
    each point: on integer rows over the pieces' common denominator and each
    point's own, with one Fraction per point."""
    d, _ = _integer_rows([p for g in groups for p in g])
    int_groups = [[_scaled(p, d) for p in g] for g in groups]
    out = []
    for point in points:
        q = math.lcm(*(Fraction(c).denominator for c in point))
        x = (q,) + tuple(Fraction(c).numerator * (q // Fraction(c).denominator) for c in point)
        best = max(min(sum(map(operator.mul, row, x)) for row in g) for g in int_groups)
        out.append(Fraction(best, d * q))
    return out


def _integer_rows(pieces):
    """Pieces scaled by the lcm ``d`` of their denominators: (d, int rows)."""
    d = math.lcm(*(c.denominator for piece in pieces for c in piece))
    return d, [_scaled(piece, d) for piece in pieces]


def _scaled(piece, d):
    return tuple(c.numerator * (d // c.denominator) for c in piece)


def maxmin_grid_values(groups, n: int, steps: int = 16):
    """Values of the Max-Min function on the 1/steps grid, in the order of
    :func:`grid`, as ``(numerators, denominator)``."""
    d, _ = _integer_rows([p for g in groups for p in g])
    int_groups = [[_scaled(p, d) for p in g] for g in groups]
    out = []
    for k in itertools.product(range(steps + 1), repeat=n):
        out.append(
            max(min(row[0] * steps + sum(c * x for c, x in zip(row[1:], k)) for row in g) for g in int_groups)
        )
    return out, d * steps


def arrangement_vertices(n, pieces):
    """Vertices of the arrangement of pairwise piece differences and box facets.

    A Max-Min function is affine on every cell of this arrangement, so its
    values there are fixed by these vertices.  Each system of n hyperplanes
    is solved by Cramer's rule on integer rows.
    """
    _, rows = _integer_rows(sorted(set(pieces)))
    planes = set()
    for a, b in itertools.combinations(rows, 2):
        planes.add(_normal(tuple(x - y for x, y in zip(a, b))))
    for i in range(1, n + 1):
        unit = tuple(int(j == i) for j in range(n + 1))
        planes.add(unit)
        planes.add((-1,) + unit[1:])
    planes.discard(None)
    found = set()
    for system in itertools.combinations(sorted(planes), n):
        matrix = [row[1:] for row in system]
        det = _det(matrix)
        if det == 0:
            continue
        x = []
        for i in range(n):
            # column i replaced by -c0
            num = _det([r[:i] + (-row[0],) + r[i + 1 :] for r, row in zip(matrix, system)])
            if det > 0 and not 0 <= num <= det or det < 0 and not det <= num <= 0:
                break
            x.append(Fraction(num, det))
        else:
            found.add(tuple(x))
    return sorted(found)


def _normal(row):
    # scaled so the first nonzero linear coefficient is positive and the
    # row is primitive; None for rows with no linear part
    lead = next((c for c in row[1:] if c), 0)
    if lead == 0:
        return None
    g = math.gcd(*row) * (1 if lead > 0 else -1)
    return tuple(c // g for c in row)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )
