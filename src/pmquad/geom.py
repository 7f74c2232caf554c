"""Points, cells, and the exact step-function representation of cost profiles."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["Point2", "Cell", "StepProfile"]


@dataclass(frozen=True)
class Point2:
    """A data point in the unit square with its insertion rank."""

    x: float
    y: float
    index: int = 0

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"point ({self.x}, {self.y}) outside the unit square")


@dataclass(frozen=True)
class Cell:
    """An axis-aligned rectangle; the x-extent is [x0, x1), closed at x1 = 1.

    The half-open convention makes the cost profile right-continuous: the
    query line at a split coordinate belongs to the right-hand cells.
    """

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("degenerate cell")

    def crosses_line(self, s: float) -> bool:
        """Whether the vertical line x = s meets this cell's x-extent."""
        return self.x0 <= s < self.x1 or (s == self.x1 == 1.0)

    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


class StepProfile:
    """Canonical cadlag step function: value v_i on [b_i, b_{i+1}), closed at 1.

    Breakpoints start at 0 and are strictly increasing; adjacent values
    always differ (merged form).
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values)
        if b.ndim != 1 or b.shape != v.shape or not b.size:
            raise ValueError("breakpoints and values must be equal-length, nonempty")
        if b[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not np.all(b[:-1] < b[1:]):
            raise ValueError("breakpoints must be strictly increasing")
        if b[-1] > 1.0:
            raise ValueError("breakpoints must lie in [0, 1]")
        if np.any(v[:-1] == v[1:]):
            raise ValueError("profile not canonical: adjacent values equal")
        self.breakpoints = b.tolist()
        self.values = v.tolist()

    @classmethod
    def from_extents(cls, x0, x1):
        """The count of cells [x0[i], x1[i]) meeting each position: +1 at every
        x0 and -1 at every x1, so ``x0`` and ``x1`` may differ in length.

        Positions at or beyond 1.0 are dropped (cells touching the right edge
        are closed there, so nothing ends before s = 1); jumps at equal
        positions merge, and merged jumps of zero vanish.
        """
        x0 = np.asarray(x0, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        x0 = x0[~(x0 >= 1.0)]
        x1 = x1[~(x1 >= 1.0)]
        pos, at = np.unique(np.concatenate([x0, x1]), return_inverse=True)
        jump = np.bincount(at[: x0.size], minlength=pos.size)
        jump -= np.bincount(at[x0.size :], minlength=pos.size)
        zero = pos == 0.0
        step = ~zero & (jump != 0)
        values = np.cumsum(np.concatenate([[jump[zero].sum()], jump[step]]))
        return cls(np.concatenate([[0.0], pos[step]]), values)

    def eval(self, s: float) -> int:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"profile defined on [0, 1], got {s!r}")
        return self.values[bisect_right(self.breakpoints, s) - 1]

    def max_segment(self):
        """(value, (lo, hi)) for the first segment attaining the maximum."""
        best = max(self.values)
        i = self.values.index(best)
        hi = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else 1.0
        return best, (self.breakpoints[i], hi)

    def __eq__(self, other):
        return (
            isinstance(other, StepProfile)
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def __repr__(self):
        return f"StepProfile({self.breakpoints!r}, {self.values!r})"
