"""Axis-aligned box domains used as bounding sets for fitting and integration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_GRID_POINTS = 10_000_000


def check_grid_size(count: int, dimension: int, what: str = "tensor grid") -> None:
    """Refuse a tensor grid of count^dimension points over MAX_GRID_POINTS."""
    total = count**dimension
    if total > MAX_GRID_POINTS:
        raise ValueError(f"{what} would hold {total} points (limit {MAX_GRID_POINTS})")


def grid_axes(lower, upper, count: int, what: str = "tensor grid") -> list[np.ndarray]:
    """count evenly spaced coordinates per axis from lower[d] to upper[d],
    both included: the axes whose product tensor_grid lays out.  A product
    of more than MAX_GRID_POINTS points is refused before anything is built."""
    check_grid_size(count, len(lower), what)
    return [np.linspace(lo, up, count) for lo, up in zip(lower, upper)]


def tensor_grid(lower, upper, count: int) -> np.ndarray:
    """(count**n, n) array of the tensor grid on grid_axes(lower, upper,
    count), laid out row-major in the axis order."""
    mesh = np.meshgrid(*grid_axes(lower, upper, count), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box given by per-axis lower and upper bounds.

    The box plays two roles: it bounds the region on which nonnegativity of a
    fitted polynomial is enforced, and it is the integration domain for the
    closed-form Lebesgue moments that drive the fit objective.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) == 0 or len(lower) != len(upper):
            raise ValueError("lower and upper must have the same nonzero length")
        if not all(np.isfinite(v) for v in lower + upper):
            raise ValueError("box bounds must be finite")
        if any(lo >= up for lo, up in zip(lower, upper)):
            raise ValueError("each lower bound must be strictly below its upper bound")

    @classmethod
    def symmetric(cls, dimension: int, half_width: float = 1.0) -> "BoxDomain":
        """Centered box [-half_width, half_width]^dimension."""
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        return cls(lower=(-half_width,) * dimension, upper=(half_width,) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def lower_array(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @property
    def upper_array(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    @property
    def widths(self) -> np.ndarray:
        return self.upper_array - self.lower_array

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower_array + self.upper_array)

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    def scale_unit(self, unit: np.ndarray) -> np.ndarray:
        """Map points of [0, 1)^n onto the box in place, as lower + u * widths
        with scipy.stats.qmc.scale's bits, and return them.  Column by column:
        a scalar per column runs faster than broadcasting a row of n."""
        for column, lo, width in zip(unit.T, self.lower, self.widths):
            column *= width
            column += lo
        return unit

    def contains_all(self, points: np.ndarray) -> bool:
        """Whether every point lies in the box (boundary included)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, box has {self.dimension}"
            )
        return bool(np.all((pts >= self.lower_array) & (pts <= self.upper_array)))

    def inflate(self, factor: float) -> "BoxDomain":
        """Scale the box about its center; factor 1.0 is the identity."""
        if not np.isfinite(factor) or factor <= 0:
            raise ValueError("inflation factor must be positive and finite")
        if factor == 1.0:
            return self
        c = self.center
        half = 0.5 * factor * self.widths
        return BoxDomain(lower=tuple(c - half), upper=tuple(c + half))
