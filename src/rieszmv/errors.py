"""Exceptions shared across the package."""


class BudgetExceededError(RuntimeError):
    """A combinatorial bound was hit before the computation finished.

    Carries the offending size so callers can report it and retry with a
    larger budget instead of silently approximating.
    """

    def __init__(self, message, size, budget):
        # a size past about 30 digits prints as a power-of-two bound, never as
        # its digits: 2**20000 alone has 6,021
        shown = f"at least 2^{size.bit_length() - 1}" if isinstance(size, int) and size.bit_length() > 100 else size
        super().__init__(f"{message}: required {shown}, budget {budget}")
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
