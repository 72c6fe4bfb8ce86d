import numpy as np
from hypothesis import settings

# every run draws the same examples and replays none kept from an earlier run,
# so a tier-1 result depends on the code alone
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def central_difference_gradient(fn, x):
    """Two-sided difference quotient with the step scaled to the point."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return grad
