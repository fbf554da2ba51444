"""Exception types shared across the package."""


class CapacityError(Exception):
    """An exact computation was requested on a grid too large for it.

    The message names the operation, the requested size and the limit.
    """

    def __init__(self, operation: str, requested: int, limit: int, unit: str = "points"):
        super().__init__(f"{operation} needs {requested} {unit}, above the limit of {limit}")
        self.operation = operation
        self.requested = requested
        self.limit = limit


class IntegrityError(Exception):
    """An internal invariant that should be unbreakable was broken.

    Raised instead of silently repairing: it indicates a construction bug
    (or a falsified combinatorial claim) and must surface.
    """


class NotGoodError(ValueError):
    """A routing operation was invoked on a pair that is not layered."""


class FormatError(ValueError):
    """A serialized function file is malformed."""
