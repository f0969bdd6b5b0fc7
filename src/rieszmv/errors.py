"""Exceptions shared across the package, and how their numbers print."""


def bounded(x):
    """An int or Fraction as text; past 100 bits in either part, a power-of-two
    bound (2**20000 has 6,021 digits, and printing is quadratic in them)."""
    p, q = x.numerator, x.denominator
    if max(p.bit_length(), q.bit_length()) <= 100:
        return str(x)
    e = p.bit_length() - q.bit_length()
    e -= abs(p) << max(-e, 0) < q << max(e, 0)  # now 2**e <= |x| < 2**(e + 1)
    return f"at least 2^{e}" if p > 0 else f"at most -2^{e}"


class BudgetExceededError(RuntimeError):
    """A combinatorial bound was hit before the computation finished.

    Carries the offending size so callers can report it and retry with a
    larger budget instead of silently approximating.
    """

    def __init__(self, message, size, budget):
        super().__init__(f"{message}: required {bounded(size)}, budget {budget}")
        self.size = size
        self.budget = budget


class RangeViolationError(ValueError):
    """A piecewise-linear function leaves [0, 1] where it must not.

    ``point`` is a witness where the range constraint fails; the message
    prints it as comma-separated rationals, like the CLI's witness lines.
    """

    def __init__(self, message, point, value):
        super().__init__(f"{message} at {','.join(map(str, point))}: value {value}")
        self.point = point
        self.value = value
