"""Exception types shared across the package, and a count's range check."""


class CapExceededError(RuntimeError):
    """A size/depth parameter exceeds the documented cap for an operation."""


class DuplicateCoordinateError(ValueError):
    """Input points violate general position (repeated x or y coordinate)."""


class AxisMismatchError(ValueError):
    """A 2-d tree cost flavor was requested with the wrong root split axis."""


class GridTooCoarseError(ValueError):
    """A grid operation was given fewer points than its accuracy contract needs."""


def _check_count(name: str, n: int, cap: int, least: int = 0) -> None:
    """Refuses a count ``name`` below ``least`` or above ``cap``."""
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    if n > cap:
        raise CapExceededError(f"{name} {n} exceeds cap {cap}")
