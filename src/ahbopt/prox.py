"""Proximal machinery: prox evaluation, one proximal point runner whose
inner map is ``prox_point`` (a nonconvex objective brings its own
``prox_fn``), and Moreau envelope values and gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CapabilityError, InnerSolveError, InvalidInputError, NumericalFailureError,
                     as_int, as_positive)
from .objective import as_point, euclidean_norm

INNER_MAX_ITERS = 100_000


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


def prox_point(obj, tau, x) -> np.ndarray:
    """Minimizer of f(z) + |z - x|^2 / (2 tau).

    Uses the objective's exact prox when registered. Otherwise, for a
    smooth convex objective with a Lipschitz bound, runs constant-step
    gradient descent on the strongly convex inner problem (step
    1/(L + 1/tau)) until the inner gradient norm falls below
    1e-12 * (1 + |x|) / tau.
    """
    tau = as_positive("tau", tau)
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


def ppa_run(obj, tau, x0, num_steps) -> PpaRun:
    """Iterate the proximal point map ``prox_point`` num_steps times.

    A nonconvex objective needs its own ``prox_fn``; without one the first
    step raises ``CapabilityError("prox_fn")``.
    """
    tau = as_positive("tau", tau)
    num_steps = as_int("num_steps", num_steps, low=0)
    points = [as_point(obj, "x0", x0).copy()]
    for _ in range(num_steps):
        points.append(prox_point(obj, tau, points[-1]))
    values = [obj.value(p) for p in points]
    step_norms = [0.0] + [euclidean_norm(b - a) for a, b in zip(points[:-1], points[1:])]
    return PpaRun(tau=tau, points=points, values=values, step_norms=step_norms)


def moreau_value(obj, lam, x) -> float:
    """Moreau envelope value: f at the prox point plus the quadratic
    penalty that produced it."""
    lam = as_positive("lam", lam)
    p = prox_point(obj, lam, x)
    x = np.asarray(x, dtype=float)
    d = p - x
    return obj.value(p) + float(d.dot(d)) / (2.0 * lam)


def moreau_gradient(obj, lam, x) -> np.ndarray:
    """Envelope gradient (x - prox(lam, x)) / lam; 1/lam-Lipschitz."""
    lam = as_positive("lam", lam)
    x = np.asarray(x, dtype=float)
    return (x - prox_point(obj, lam, x)) / lam
