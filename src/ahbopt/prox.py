"""Proximal machinery: one proximal point runner that steps through the
objective's exact ``prox_fn``, and Moreau envelope values and gradients
through ``Objective.prox``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InvalidInputError, NumericalFailureError, as_int, as_real
from .objective import as_point, euclidean_norm


@dataclass
class PpaRun:
    """One proximal point trajectory.

    ``points[k]`` is the k-th iterate (``points[0]`` the start),
    ``values[k]`` its objective value, and ``step_norms[k]`` the distance
    from the previous iterate (0 at k = 0). Values are checked to be
    nonincreasing up to rounding.
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


def ppa_run(obj, tau, x0, num_steps) -> PpaRun:
    """Iterate the objective's exact prox num_steps times from x0. τ and x0
    are checked once, and an objective without a ``prox_fn`` raises
    CapabilityError("prox_fn") before the first step."""
    tau = as_real("tau", tau, "(0, inf)")
    num_steps = as_int("num_steps", num_steps, low=0)
    points = [as_point(obj, "x0", x0).copy()]
    if num_steps and obj.prox_fn is None:
        raise CapabilityError("prox_fn")
    for _ in range(num_steps):
        points.append(np.asarray(obj.prox_fn(tau, points[-1]), dtype=float))
    values = [float(obj.value_fn(p)) for p in points]
    step_norms = [0.0] + [euclidean_norm(b - a) for a, b in zip(points[:-1], points[1:])]
    return PpaRun(tau=tau, points=points, values=values, step_norms=step_norms)


def moreau_value(obj, lam, x) -> float:
    """Moreau envelope value: f at the prox point plus the quadratic
    penalty that produced it."""
    p = obj.prox(lam, x)  # checks lam and x; float(lam) is then the float it checked
    d = p - x
    return float(obj.value_fn(p)) + float(d.dot(d)) / (2.0 * float(lam))


def moreau_gradient(obj, lam, x) -> np.ndarray:
    """Envelope gradient (x - prox(lam, x)) / lam; 1/lam-Lipschitz."""
    return (x - obj.prox(lam, x)) / float(lam)
