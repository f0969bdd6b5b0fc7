"""Random inputs for the workloads, drawn from a seeded ``random.Random``.

Everything here is text or JSON that a CLI user would write.  Nothing
imports ``rieszmv``: the inputs depend on the seed alone, never on what the
program under test computes.
"""

from __future__ import annotations

from fractions import Fraction

_BINARY_WEIGHTS = (
    ("->", 20),
    ("(+)", 16),
    ("(.)", 16),
    ("\\/", 16),
    ("/\\", 16),
    ("(-)", 10),
    ("<->", 6),
)
_BINARY_OPS = [op for op, w in _BINARY_WEIGHTS for _ in range(w)]
_UNARY_P = 0.3


def unit(rng, max_den=8, positive=False) -> Fraction:
    """A rational in [0, 1] (in (0, 1] when ``positive``) with a small denominator."""
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(1 if positive else 0, q), q)


def point(rng, n, max_den=32):
    return tuple(unit(rng, max_den) for _ in range(n))


def point_arg(pt) -> str:
    return ",".join(str(c) for c in pt)


def formula(rng, n, binaries, scalars=True) -> str:
    """Random formula text with exactly ``binaries`` binary connectives.

    Variables are drawn from v1..v<n>; unary connectives (``!``,
    and ``D[r]``/``N[r]`` when ``scalars``) wrap subformulas with
    probability 0.3.  Every binary subformula is parenthesized, so
    any result is a valid operand of a unary connective, and parenthesis
    nesting stays at most ``binaries`` deep.
    """
    if binaries == 0:
        if scalars and rng.random() < 0.1:
            text = f"C[{unit(rng)}]"
        else:
            text = f"v{rng.randint(1, n)}"
    else:
        left = rng.randint(0, binaries - 1)
        a = formula(rng, n, left, scalars)
        b = formula(rng, n, binaries - 1 - left, scalars)
        text = f"({a} {rng.choice(_BINARY_OPS)} {b})"
    if rng.random() < _UNARY_P:
        if scalars and rng.random() < 0.55:
            kind = rng.choice("DN")
            text = f"{kind}[{unit(rng, positive=True)}] {text}"
        else:
            text = "!" + text
    return text


def chain(rng, n, terms, term_binaries, scalars=True) -> str:
    """A long formula: ``terms`` random subformulas joined by one flat
    left-associative connective chain (parsed by a loop, not by nesting)."""
    op = rng.choice(("(+)", "(.)", "\\/", "/\\"))
    return f" {op} ".join(
        formula(rng, n, rng.randint(0, term_binaries), scalars) for _ in range(terms)
    )


def crossing_affine(rng, magnitudes, max_den=4):
    """Coefficients c0, c1..cn of an affine function whose truncation is not
    constant on the box.

    Each linear coefficient has a random sign and ``ceil(|ci|)`` equal to
    the given magnitude (the number of unit summands synthesis splits it
    into); c0 puts the value at a random point of the box inside (0, 1).
    """
    linear = []
    for m in magnitudes:
        q = rng.randint(1, max_den)
        linear.append(rng.choice((1, -1)) * Fraction(rng.randint((m - 1) * q + 1, m * q), q))
    x = [Fraction(rng.randint(1, 7), 8) for _ in magnitudes]
    t = Fraction(rng.randint(1, 7), 8)
    return [t - sum(c * xi for c, xi in zip(linear, x))] + linear
