"""Exact arithmetic on the unit interval.

The standard MV-algebra operations on [0, 1] together with scalar
multiplication, which make the rational unit interval a Riesz MV-algebra.
Everything is computed with :class:`fractions.Fraction`; no rounding ever
occurs.  :class:`Record` is the base of the package's immutable values.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import bounded

ZERO = Fraction(0)
ONE = Fraction(1)


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields, in order, in ``__match_args__``, and its
    ``__init__`` writes them into the instance dict; after that, assigning
    or deleting an attribute raises ``AttributeError``.  ``==`` (between
    instances of one class), ``hash()`` and ``repr()`` read the fields in
    that order; a subclass whose equality skips a field overrides ``_key``.
    """

    __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class UnitRational(Fraction):
    """An exact rational constrained to [0, 1].

    The range is checked once, at construction.  The operations below assume
    in-range inputs and are closed over [0, 1], so they never re-validate.
    Floats are rejected: converting them would smuggle in binary rounding.
    """

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("floats are not exact; pass a Fraction, int or string")
        value = super().__new__(cls, numerator, denominator)
        if value < ZERO or value > ONE:
            raise ValueError(f"{bounded(value)} is outside [0, 1]")
        return value


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, integer or decimal literals into an exact rational.

    Decimal literals convert exactly (``"0.3"`` is 3/10, not a float).
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def oplus(x, y):
    """Truncated addition: min(1, x + y)."""
    s = x + y
    return s if s <= ONE else ONE


def neg(x):
    """Involutive complement: 1 - x."""
    return ONE - x


def odot(x, y):
    """Truncated product: max(0, x + y - 1), the De Morgan dual of oplus."""
    s = x + y - ONE
    return s if s >= ZERO else ZERO


def implies(x, y):
    """Residuum: min(1, 1 - x + y)."""
    s = ONE - x + y
    return s if s <= ONE else ONE


def join(x, y):
    """Lattice join max(x, y).

    In MV-algebra terms it is ``x oplus (y odot not x)``, which equals
    max(x, y) on [0, 1]; the tests check that identity.
    """
    return max(x, y)


def meet(x, y):
    """Lattice meet min(x, y), the MV term ``x odot (not x oplus y)``."""
    return min(x, y)


def dist(x, y):
    """Internal distance ``(x odot not y) oplus (not x odot y)`` = |x - y|."""
    return oplus(odot(x, ONE - y), odot(ONE - x, y))


def scalar_mul(r, x):
    """Scalar action of r in [0, 1] on x: the plain rational product."""
    return r * x
