"""Proximal machinery: prox evaluation, one proximal point runner (exact
prox, or a grid argmin for nonconvex f), and Moreau envelope values and
gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CapabilityError, DeskScaleLimitError, InnerSolveError,
                     InvalidInputError, NumericalFailureError)
from .objective import euclidean_norm

INNER_MAX_ITERS = 100_000

MAX_GRID_POINTS = 10 ** 6


@dataclass
class PpaRun:
    """One proximal point trajectory.

    ``points[k]`` is the k-th iterate (``points[0]`` the start),
    ``values[k]`` its objective value, and ``step_norms[k]`` the distance
    from the previous iterate (0 at k = 0). Values are checked to be
    nonincreasing up to inner-solve noise.
    """

    tau: float
    points: list
    values: list
    step_norms: list

    def __post_init__(self):
        n = len(self.points)
        if n == 0 or len(self.values) != n or len(self.step_norms) != n:
            raise InvalidInputError("points, values, and step_norms must share a length >= 1")
        slack = 1e-9 * (1.0 + abs(self.values[0]))
        for k in range(1, n):
            if self.values[k] > self.values[k - 1] + slack:
                raise NumericalFailureError(
                    k, f"objective increased at proximal step {k}")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid for the nonconvex proximal search.

    ``lo`` and ``hi`` may be scalars (shared by every axis) or per-axis
    sequences. The total point count is capped at 10^6.
    """

    dim: int
    lo: tuple
    hi: tuple
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidInputError("grid search supports dim 1 or 2 only")
        lo = np.broadcast_to(np.asarray(self.lo, dtype=float), (self.dim,))
        hi = np.broadcast_to(np.asarray(self.hi, dtype=float), (self.dim,))
        if np.any(lo >= hi):
            raise InvalidInputError("each lo must be strictly below its hi")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))
        if self.points_per_axis < 2:
            raise InvalidInputError("points_per_axis must be at least 2")
        if self.points_per_axis ** self.dim > MAX_GRID_POINTS:
            raise DeskScaleLimitError(
                f"grid would hold {self.points_per_axis ** self.dim} points; "
                f"the cap is {MAX_GRID_POINTS}")

    def points(self) -> np.ndarray:
        """All grid points, ordered by lexicographic axis index."""
        axes = [np.linspace(self.lo[a], self.hi[a], self.points_per_axis)
                for a in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([g0.ravel(), g1.ravel()])


def prox_point(obj, tau, x) -> np.ndarray:
    """Minimizer of f(z) + |z - x|^2 / (2 tau).

    Uses the objective's exact prox when registered. Otherwise, for a
    smooth convex objective with a Lipschitz bound, runs constant-step
    gradient descent on the strongly convex inner problem (step
    1/(L + 1/tau)) until the inner gradient norm falls below
    1e-12 * (1 + |x|) / tau.
    """
    tau = float(tau)
    if not tau > 0:
        raise InvalidInputError("tau must be positive")
    x = np.asarray(x, dtype=float)
    if obj.prox_fn is not None:
        return obj.prox(tau, x)
    if not (obj.convex_flag and obj.gradient_fn is not None and obj.lipschitz is not None):
        raise CapabilityError(
            "prox_fn", "need an exact prox, or a smooth convex objective "
            "with a Lipschitz bound for the inner solve")
    step = 1.0 / (obj.lipschitz + 1.0 / tau)
    tol = 1e-12 * (1.0 + euclidean_norm(x)) / tau
    z = x.copy()
    for _ in range(INNER_MAX_ITERS):
        g = obj.gradient(z) + (z - x) / tau
        if euclidean_norm(g) <= tol:
            return z
        z = z - step * g
    raise InnerSolveError(
        f"prox inner solve missed tolerance {tol:g} in {INNER_MAX_ITERS} iterations")


def ppa_run(obj, tau, x0, num_steps, grid=None) -> PpaRun:
    """Iterate the proximal point map num_steps times.

    Without a grid the map is the exact ``prox_point``, which needs a
    convex objective. With a ``GridSpec`` the inner argmin runs over the
    grid and the current iterate, which serves a nonconvex objective.
    """
    tau = float(tau)
    if not tau > 0:
        raise InvalidInputError("tau must be positive")
    num_steps = int(num_steps)
    if num_steps < 0:
        raise InvalidInputError("num_steps must be nonnegative")
    x = np.array(x0, dtype=float)
    if grid is not None:
        step = _grid_step(obj, tau, x, grid)
    elif not obj.convex_flag:
        raise InvalidInputError("the exact proximal point run expects a convex "
                                "objective; pass a grid otherwise")
    points = [x]
    for _ in range(num_steps):
        points.append(prox_point(obj, tau, points[-1]) if grid is None else step(points[-1]))
    values = [obj.value(p) for p in points]
    step_norms = [0.0] + [euclidean_norm(b - a) for a, b in zip(points[:-1], points[1:])]
    return PpaRun(tau=tau, points=points, values=values, step_norms=step_norms)


def _grid_step(obj, tau, x0, grid):
    """The grid argmin of f(z) + |z - x|^2 / (2 tau) as a map x -> x+.

    f is evaluated on the grid once. A grid point replaces x only when its
    inner value is at most f(x), so f never increases on a finite grid;
    ties go to the lowest (lexicographic) index."""
    pts = grid.points()
    if x0.size != grid.dim:
        raise InvalidInputError("x0 dimension does not match the grid")
    fvals = np.array([obj.value(p) for p in pts])
    if not np.all(fvals > -np.inf):
        raise InvalidInputError("objective is unbounded below on the grid")

    def step(x):
        q = fvals + np.sum((pts - x) ** 2, axis=1) / (2.0 * tau)
        best = int(np.argmin(q))
        return pts[best].copy() if q[best] <= obj.value(x) else x.copy()

    return step


def moreau_value(obj, lam, x) -> float:
    """Moreau envelope value: f at the prox point plus the quadratic
    penalty that produced it."""
    p = prox_point(obj, lam, x)
    x = np.asarray(x, dtype=float)
    d = p - x
    return obj.value(p) + float(d.dot(d)) / (2.0 * float(lam))


def moreau_gradient(obj, lam, x) -> np.ndarray:
    """Envelope gradient (x - prox(lam, x)) / lam; 1/lam-Lipschitz."""
    x = np.asarray(x, dtype=float)
    return (x - prox_point(obj, lam, x)) / float(lam)
