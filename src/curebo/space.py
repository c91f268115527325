"""Bounded design spaces, unit-box normalization, and Latin hypercube pools."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class DesignSpace:
    """Axis-aligned box of raw design variables (e.g. minutes, deg C).

    lower, upper and width = upper - lower are finite, read-only float
    copies made at construction, so the width that normalize and denormalize
    use cannot go stale: writing to the caller's arrays leaves the space
    unchanged. Two spaces are equal, and hash, by identity."""

    lower: np.ndarray
    upper: np.ndarray
    names: tuple[str, ...] = ()
    width: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lower = np.atleast_1d(np.array(self.lower, dtype=float))
        upper = np.atleast_1d(np.array(self.upper, dtype=float))
        if lower.ndim != 1 or lower.size < 1:
            raise ValueError("design space needs at least one dimension")
        if lower.shape != upper.shape:
            raise ValueError("lower and upper bounds differ in length")
        with np.errstate(over="ignore", invalid="ignore"):
            width = upper - lower  # not finite where a bound is not, or where it overflows
        finite = np.isfinite(width)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"bounds and their width must be finite in dimension {bad}")
        if not np.all(lower < upper):
            bad = int(np.argmin(width))
            raise ValueError(f"lower bound must be strictly below upper in dimension {bad}")
        for name, bound in (("lower", lower), ("upper", upper), ("width", width)):
            bound.flags.writeable = False
            object.__setattr__(self, name, bound)
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{i}" for i in range(lower.size)))
        elif len(self.names) != lower.size:
            raise ValueError("number of names does not match dimensionality")

    @property
    def dims(self) -> int:
        return self.lower.size

    def normalize(self, raw) -> np.ndarray:
        """Map raw coordinates to the unit box. Rejects out-of-bounds and
        non-finite input."""
        raw = np.asarray(raw, dtype=float)
        if raw.shape[-1] != self.dims:
            raise ValueError(f"expected {self.dims} coordinates, got {raw.shape[-1]}")
        for i in range(self.dims):
            col = raw[..., i]
            if not np.all(np.isfinite(col)):
                raise ValueError(f"{self.names[i]} is not finite")
            if np.any(col < self.lower[i]) or np.any(col > self.upper[i]):
                raise ValueError(
                    f"{self.names[i]} out of bounds "
                    f"[{self.lower[i]}, {self.upper[i]}]"
                )
        return (raw - self.lower) / self.width

    def denormalize(self, unit) -> np.ndarray:
        """Inverse of normalize; exact round trip up to float rounding."""
        unit = np.asarray(unit, dtype=float)
        if unit.shape[-1] != self.dims:
            raise ValueError(f"expected {self.dims} coordinates, got {unit.shape[-1]}")
        return self.lower + unit * self.width


def lhs_sample(space: DesignSpace, m: int, seed=None) -> np.ndarray:
    """Latin hypercube sample of m points over the unit box, as an (m, d) array.

    Each dimension is split into m equal strata and receives exactly one
    point per stratum, placed uniformly at random within the stratum.
    Deterministic for a given seed.
    """
    if m < 1:
        raise ValueError("sample count m must be at least 1")
    rng = np.random.default_rng(seed)
    d = space.dims
    offsets = rng.random((m, d))
    strata = np.empty((m, d))
    for h in range(d):
        strata[:, h] = rng.permutation(m)
    return (strata + offsets) / m


def sieve(
    points: np.ndarray,
    predicate: Callable[[np.ndarray], np.ndarray],
    space: DesignSpace,
) -> np.ndarray:
    """Keep the normalized (k, d) candidates passing a deterministic predicate,
    order preserved.

    The predicate is called once, dimension first, on raw coordinates:
    raw[h] is the column of coordinate h over the whole pool. It returns one
    boolean per candidate, or a single boolean for all of them. Written with
    elementwise operations, the same predicate also accepts one point, where
    raw[h] is a scalar. An empty result is a valid (0, d) array.
    """
    if len(points) == 0:
        return points
    keep = np.broadcast_to(
        np.asarray(predicate(space.denormalize(points).T), dtype=bool), (len(points),)
    )
    return points[keep]


def drop_near_duplicates(points: np.ndarray, evaluated, tol: float = 1e-9) -> np.ndarray:
    """Remove candidates within L-inf distance tol of any evaluated point.

    Keeps the correlation matrix of the surrogates well conditioned. The
    (k, n, d) differences are formed at once, which suits the one candidate
    at a time that run_cbo offers.
    """
    evaluated = np.atleast_2d(np.asarray(evaluated, dtype=float))
    if len(points) == 0 or evaluated.size == 0:
        return points
    if evaluated.shape[1] != points.shape[1]:
        raise ValueError(f"expected {points.shape[1]} coordinates, got {evaluated.shape[1]}")
    gaps = np.abs(points[:, None, :] - evaluated[None, :, :]).max(axis=2)
    return points[gaps.min(axis=1) > tol]
