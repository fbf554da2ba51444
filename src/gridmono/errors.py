"""Exception types shared across the package."""

import math


class CapacityError(Exception):
    """An exact computation was requested on a grid too large for it.

    The message names the operation, the requested size and the limit.
    """

    def __init__(self, operation: str, requested: int, limit: int, unit: str = "points"):
        super().__init__(f"{operation} needs {_size(requested)} {unit}, "
                         f"above the limit of {_size(limit)}")
        self.operation = operation
        self.requested = requested
        self.limit = limit
        self.unit = unit

    def __reduce__(self):
        # Exception pickles as cls(*args), and args holds only the message
        return type(self), (self.operation, self.requested, self.limit, self.unit)


def _size(value: int) -> str:
    """value in decimal below 2^64, else as a power of two.

    str() of an int refuses more than 4300 digits, and a size that long
    cannot be read anyway; one that is not a power of two is written with
    its rounded base-2 logarithm.
    """
    if value < 1 << 64:
        return str(value)
    if value & (value - 1) == 0:
        return f"2^{value.bit_length() - 1}"
    return f"about 2^{math.log2(value):.1f}"


class IntegrityError(Exception):
    """An internal invariant that should be unbreakable was broken.

    Raised instead of silently repairing: it indicates a construction bug
    (or a falsified combinatorial claim) and must surface.
    """


class NotGoodError(ValueError):
    """A routing operation was invoked on a pair that is not layered."""


class FormatError(ValueError):
    """A serialized function file is malformed."""
