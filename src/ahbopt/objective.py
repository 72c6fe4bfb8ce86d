"""Objective abstraction, built-in test problems, and the maps over their prox.

Each factory returns an immutable :class:`Objective` carrying whatever
exact side information the problem admits: minimum value, gradient
Lipschitz bound, distance-to-solution oracle, closed-form prox, Holder
growth exponent. Consumers check for the fields they need instead of
assuming them. One proximal point runner steps through the exact
``prox_fn``; Moreau envelope values and gradients go through ``prox``."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (CapabilityError, DeskScaleLimitError, InvalidInputError,
                     NumericalFailureError, as_int, as_object, as_real)

Array = np.ndarray

PROBLEM_KINDS = ("quadratic", "least_squares", "power", "abs_value", "radon")

PHANTOMS = ("blocks", "disks")

MAX_RADON_GRID = 64

# a ray crosses at most 2 * grid_n - 1 pixels, so this cap on the ray count keeps
# the system matrix's nnz far inside its int32 CSR index range
MAX_RADON_RAYS = 4 * MAX_RADON_GRID ** 2


class PowerIterationWarning(UserWarning):
    """Power iteration stopped on its iteration cap, not its tolerance."""


# each shortcut oracle field and the fields whose work it does
_SHORTCUT_PARTNERS = {"value_and_gradient_fn": ("value_fn", "gradient_fn"),
                      "values_fn": ("value_fn",),
                      "slopes_fn": ("gradient_fn", "subgrad_min_norm"),
                      "distances_fn": ("solution_oracle",)}


def euclidean_norm(v) -> float:
    """|v| of a real 1-d array: where v.v lies in [1e-290, 1e290], sqrt(v.v),
    the expression ``np.linalg.norm`` evaluates; elsewhere ``math.hypot``, which
    does not underflow and overflows only where |v| lies beyond the float range.
    NaN gives NaN and inf gives inf."""
    # vdot sums as dot does, bit for bit, without dot's overflow warning
    square = float(np.vdot(v, v))
    if 1e-290 <= square <= 1e290:
        return math.sqrt(square)
    top = float(np.abs(v).max())
    if not 0.0 < top < math.inf:
        return top
    return math.hypot(*v.tolist())


def _row_norms(xs):
    """|x| at each row of ``xs``, or NaN below 1e-140, where the squares that
    an exact norm sums may underflow and no relative error bound holds."""
    norms = np.linalg.norm(xs, axis=1)
    return np.where(norms >= 1e-140, norms, np.nan)


_row_norms.partners = (euclidean_norm,)


def as_point(obj, name, x) -> Array:
    """``x`` as a float array of shape ``(obj.dim,)``. A ragged list, an entry
    that is not a finite float or 64-bit integer (a bool, a string, None, NaN,
    +-inf) or another shape raises InvalidInputError naming ``name``."""
    try:
        point = np.asarray(x)
    except ValueError:  # a ragged list
        point = np.asarray(None)
    # numpy reads a bool among numbers as a number, so a list's entries are checked too
    if (point.dtype.kind not in "fiu" or not np.isfinite(point).all()
            or isinstance(x, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in x)):
        raise InvalidInputError(f"{name} must hold finite floats or 64-bit integers only")
    if point.shape != (obj.dim,):
        raise InvalidInputError(f"{name} must have shape ({obj.dim},), got {point.shape}")
    return point.astype(float, copy=False)


def _as_sequence(name, value):
    """``value`` as a 1-d object array; refuses any other shape or no entries."""
    seq = np.asarray(value, dtype=object)
    if seq.ndim != 1 or seq.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-d sequence")
    return seq


@dataclass(frozen=True)
class Objective:
    """A finite-dimensional objective with optional exact side information.

    Parameters
    ----------
    dim : problem dimension; every callable takes/returns 1-d arrays of
        this length.
    value_fn : maps a point to the objective value.
    gradient_fn : gradient map, absent for nonsmooth problems.
    value_and_gradient_fn : the floats ``(value_fn(x), gradient_fn(x))`` in one call,
        g computed before f is checked; its ``partners`` attribute is
        ``(value_fn, gradient_fn)``.
    values_fn : ``values_fn(X)`` returns f at each row of a 2-d array. Unlike the
        other oracles it need not be bitwise equal to ``value_fn``: wherever
        ``value_fn(x)`` is finite, the entry for x is non-finite or lies within
        1e-10 * |value_fn(x)| of it (up to underflow). Its ``partners``
        attribute is ``(value_fn,)``.
    slopes_fn, distances_fn : the same for the norm of ``gradient_fn(x)`` (else
        ``subgrad_min_norm(x)``) and for ``solution_oracle(x)``, with
        ``partners`` ``(gradient_fn, subgrad_min_norm)`` and ``(solution_oracle,)``.

    ``value_and_gradient_fn`` and the batched oracles are shortcuts: consumers
    use one only while its ``partners`` still names this objective's own
    oracles (see :meth:`shortcut`), so a ``dataclasses.replace`` that swaps
    an oracle is never bypassed.
    lipschitz : bound on the gradient's Lipschitz constant, global when
        ``domain_radius`` is None and valid on the centered ball of that
        radius otherwise.
    min_value : exact infimum when known.
    solution_oracle : exact distance to the solution set.
    prox_fn : ``prox_fn(lam, x)`` returns argmin_z f(z) + |z-x|^2/(2 lam).
    domain_radius : radius of validity for ``lipschitz``.
    matrix, target : the pair (A, y) when f(x) = 0.5 |A x - y|^2; exposes
        matrix-vector products for spectral estimation.
    x_true : an exact minimizer when one is embedded.
    growth_exponent : Holder exponent a with dist <= C * gap^a near the
        solution set, when known.
    subgrad_min_norm : norm of the minimal-norm subgradient, for
        nonsmooth built-ins with a registered subdifferential.
    """

    dim: int
    value_fn: Callable[[Array], float]
    gradient_fn: Optional[Callable[[Array], Array]] = None
    lipschitz: Optional[float] = None
    min_value: Optional[float] = None
    solution_oracle: Optional[Callable[[Array], float]] = None
    prox_fn: Optional[Callable[[float, Array], Array]] = None
    domain_radius: Optional[float] = None
    matrix: object = None
    target: Optional[Array] = None
    x_true: Optional[Array] = None
    growth_exponent: Optional[float] = None
    subgrad_min_norm: Optional[Callable[[Array], float]] = None
    value_and_gradient_fn: Optional[Callable[[Array], tuple]] = None
    values_fn: Optional[Callable[[Array], Array]] = None
    slopes_fn: Optional[Callable[[Array], Array]] = None
    distances_fn: Optional[Callable[[Array], Array]] = None

    def shortcut(self, name) -> Optional[Callable]:
        """The shortcut field ``name`` while its ``partners`` attribute names
        this objective's own oracles it stands in for, else None."""
        fn = getattr(self, name)
        partners = tuple(getattr(self, field) for field in _SHORTCUT_PARTNERS[name])
        return fn if getattr(fn, "partners", None) == partners else None

    # the checked doors to the oracles: x goes through as_point, lam through
    # as_real; loops over iterates or sampled rows call the fields
    def value(self, x) -> float:
        return float(self.value_fn(as_point(self, "x", x)))

    def gradient(self, x) -> Array:
        if self.gradient_fn is None:
            raise CapabilityError("gradient_fn")
        return np.asarray(self.gradient_fn(as_point(self, "x", x)), dtype=float)

    def prox(self, lam, x) -> Array:
        if self.prox_fn is None:
            raise CapabilityError("prox_fn")
        lam = as_real("lam", lam, "(0, inf)")
        return np.asarray(self.prox_fn(lam, as_point(self, "x", x)), dtype=float)

    def distance(self, x) -> float:
        if self.solution_oracle is None:
            raise CapabilityError("solution_oracle")
        return float(self.solution_oracle(as_point(self, "x", x)))


@dataclass(frozen=True)
class ProblemSpec:
    """Serializable recipe for a built-in problem.

    ``kind`` picks the factory, ``params`` its keyword arguments, and
    ``seed`` feeds the factory RNG where one is used. Identical specs
    rebuild bitwise-identical problem data.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise InvalidInputError(
                f"unknown problem kind '{self.kind}'; expected one of {PROBLEM_KINDS}")
        if not isinstance(self.params, dict):
            raise InvalidInputError("params must be a mapping")
        seed = as_int("problem seed", self.seed, low=0)
        # frozen: the copy and the int go in through object.__setattr__
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "seed", seed)

    def build(self) -> Objective:
        try:
            if self.kind == "quadratic":
                return make_quadratic(**self.params)
            if self.kind == "least_squares":
                return make_least_squares(seed=self.seed, **self.params)
            if self.kind == "power":
                return make_power(**self.params)
            if self.kind == "abs_value":
                return make_abs_value(**self.params)
            return make_radon(**self.params)
        except TypeError as exc:
            raise InvalidInputError(f"bad parameters for '{self.kind}': {exc}") from exc

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed}

    @classmethod
    def from_dict(cls, data) -> "ProblemSpec":
        as_object("problem spec", data, cls.__dataclass_fields__)
        if "kind" not in data:
            raise InvalidInputError("problem spec needs a 'kind'")
        return cls(kind=data["kind"], params=data.get("params", {}), seed=data.get("seed", 0))


def make_quadratic(spectrum) -> Objective:
    """Diagonal quadratic f(x) = 0.5 * sum(lam_i * x_i^2), minimized at 0.

    The prox is componentwise x_i / (1 + lam * lam_i) and the gradient
    Lipschitz constant is max(lam).
    """
    lam = np.array([as_real("spectrum entries", v, "(0, inf)")
                    for v in _as_sequence("spectrum", spectrum)])
    dim = int(lam.size)

    def value(x):
        return 0.5 * float(lam.dot(x * x))

    def values(xs):
        return 0.5 * ((xs * xs) @ lam)

    def gradient(x):
        return lam * x

    def slopes(xs):
        return _row_norms(xs * lam)

    values.partners, slopes.partners = (value,), (gradient, None)

    def prox(t, x):
        return x / (1.0 + t * lam)

    return Objective(
        dim=dim,
        value_fn=value,
        # each batched oracle sums dim positive terms in another order: it differs
        # by at most about dim * 2^-52 relative, within 1e-10 up to this bound
        **(dict(values_fn=values, slopes_fn=slopes, distances_fn=_row_norms)
           if dim <= 10 ** 5 else {}),
        gradient_fn=gradient,
        lipschitz=float(lam.max()),
        min_value=0.0,
        solution_oracle=euclidean_norm,
        prox_fn=prox,
        x_true=np.zeros(dim),
        growth_exponent=0.5,
    )


def _orthonormal_columns(rng, n, r):
    # QR sign fix keeps the factor unique, hence reproducible.
    q, rfac = np.linalg.qr(rng.standard_normal((n, r)))
    signs = np.sign(np.diag(rfac))
    signs[signs == 0] = 1.0
    return q * signs


def _data_fit(a, y):
    # the oracle fields of 0.5 * |a x - y|^2, the fused one in the same expressions
    # .dot makes the products of @, on an ndarray with less call overhead; a.T
    # is a view of a, dense or CSR, taken once
    at = a.T

    def value(x):
        res = a.dot(x) - y
        return 0.5 * float(res.dot(res))

    def gradient(x):
        return at.dot(a.dot(x) - y)

    def value_and_gradient(x):
        res = a.dot(x) - y
        return 0.5 * float(res.dot(res)), at.dot(res)

    value_and_gradient.partners = (value, gradient)
    return dict(value_fn=value, gradient_fn=gradient, value_and_gradient_fn=value_and_gradient)


def make_least_squares(rows, cols, singular_values, seed) -> Objective:
    """Consistent linear least squares f(x) = 0.5 * |A x - y|^2.

    A = U diag(s) V^T with U, V drawn as seeded random orthonormal
    factors (QR with sign-fixed diagonal, U before V). The embedded
    solution is a seeded random direction scaled to norm 10 and
    y = A @ x_true, so min_value is exactly 0. With rows >= cols the
    minimizer is unique and the distance oracle is |x - x_true|.

    Parameters
    ----------
    singular_values : nonincreasing positive sequence of length
        min(rows, cols), whose first entry squared is finite and nonzero.
    """
    rows, cols = as_int("rows", rows, low=1), as_int("cols", cols, low=1)
    sv = _as_sequence("singular_values", singular_values)
    r = min(rows, cols)
    if sv.size != r:
        raise InvalidInputError(
            f"singular_values must have length min(rows, cols) = {r}, got {sv.size}")
    sv = np.array([as_real("singular values", v, "(0, inf)") for v in sv])
    if np.any(np.diff(sv) > 0):
        raise InvalidInputError("singular values must be nonincreasing")

    rng = np.random.default_rng(as_int("seed", seed, low=0))
    u = _orthonormal_columns(rng, rows, r)
    v = _orthonormal_columns(rng, cols, r)
    x_true = rng.standard_normal(cols)
    x_true *= 10.0 / np.linalg.norm(x_true)
    # huge singular values overflow the bound or the data and tiny ones underflow
    # the bound to 0: a spec error, not a warning or a division by zero
    with np.errstate(over="ignore", invalid="ignore"):
        a = (u * sv) @ v.T
        y = a @ x_true
        aty = a.T @ y
        lipschitz = float(sv[0] ** 2)
    if not (math.isfinite(lipschitz) and lipschitz > 0
            and np.all(np.isfinite(y)) and np.all(np.isfinite(aty))):
        raise InvalidInputError("the gradient Lipschitz bound singular_values[0]^2 must be "
                                "finite and positive and A x_true and A^T y finite, got "
                                f"singular_values[0] = {sv[0]:g}")
    ssq = sv * sv

    def prox(t, x):
        # (I + t A^T A)^{-1} (x + t A^T y) through the stored SVD factors.
        w = x + t * aty
        shrink = (t * ssq) / (1.0 + t * ssq)
        return w - v @ (shrink * (v.T @ w))

    full_column_rank = rows >= cols
    return Objective(
        dim=cols,
        **_data_fit(a, y),
        lipschitz=lipschitz,
        min_value=0.0,
        solution_oracle=(lambda x: euclidean_norm(x - x_true)) if full_column_rank else None,
        prox_fn=prox,
        matrix=a,
        target=y,
        x_true=x_true,
        growth_exponent=0.5 if full_column_rank else None,
    )


def make_power(p, dim, ball_radius) -> Objective:
    """Radial power objective f(x) = (1/p) * |x|^p on a centered ball.

    Requires p >= 2 so the gradient |x|^(p-2) x is Lipschitz on the ball,
    with constant (p-1) * ball_radius^(p-2). The growth exponent is 1/p.
    The prox scales x by s / |x|, where s solves s + lam * s^(p-1) = |x|.
    """
    p = as_real("p", p, "[2, inf)")
    dim = as_int("dim", dim, low=1)
    radius = as_real("ball_radius", ball_radius, "(0, inf)")
    try:
        lipschitz = (p - 1.0) * radius ** (p - 2.0)
    except OverflowError:
        lipschitz = math.inf
    # a bound that underflows to 0 would divide the gd and nesterov step by zero
    if not (math.isfinite(lipschitz) and lipschitz > 0):
        raise InvalidInputError("the gradient Lipschitz bound (p - 1) * ball_radius^(p - 2) "
                                f"must be finite and positive, got p = {p:g}, "
                                f"ball_radius = {radius:g}")

    # |x| as a numpy float, whose power beyond the float range is inf, not OverflowError
    def value(x):
        return float(np.float64(euclidean_norm(x)) ** p) / p

    def values(xs):
        return np.linalg.norm(xs, axis=1) ** p / p

    def gradient(x):
        r = np.float64(euclidean_norm(x))
        if r == 0.0:
            return np.zeros_like(x)
        return (r ** (p - 2.0)) * x

    def slopes(xs):
        # the norm of each row's gradient |x|^(p-2) x, as ``gradient`` forms it
        return _row_norms(xs * (np.linalg.norm(xs, axis=1) ** (p - 2.0))[:, None])

    values.partners, slopes.partners = (value,), (gradient, None)

    def prox(t, x):
        # (s / |x|) x, s in [0, |x|] the root of the increasing, convex h(s) = s + t s^(p-1) - |x|:
        # Newton's method from min(|x|, (|x| / t)^(1/(p-1))), at or above the root, bisecting
        # whenever a step leaves the bracket or s^(p-1) overflows
        r = euclidean_norm(x)
        if not 0.0 < r < math.inf:  # 0 is its own prox; a non-finite |x| leaves no s to find
            return x.copy()
        c = t ** (1.0 / (p - 1.0))  # t s^(p-1) = (c s)^(p-1) overflows only where h does
        lo, hi = 0.0, r
        s = min(r, r ** (1.0 / (p - 1.0)) / c)
        for _ in range(2200):  # about 2,100 halvings close a bracket across every float
            try:
                grow = (c * s) ** (p - 2.0) * c  # t s^(p-2): h'(s) = 1 + (p - 1) grow
            except OverflowError:
                grow = math.inf
            h = s + grow * s - r
            if h == 0.0:
                break
            lo, hi = (lo, s) if h > 0.0 else (s, hi)
            slope = 1.0 + (p - 1.0) * grow
            step = s - h / slope
            if step == s and slope < math.inf:
                break
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
                if step in (lo, hi):
                    break
            s = step
        return (s / r) * x

    return Objective(
        dim=dim,
        value_fn=value,
        # the norms differ by at most about (dim + 1) * 2^-53 relative and a power
        # of at most p multiplies that by p: within 1e-10 up to this bound
        **(dict(values_fn=values, slopes_fn=slopes, distances_fn=_row_norms)
           if p * (dim + 1) <= 10 ** 5 else {}),
        gradient_fn=gradient,
        lipschitz=lipschitz,
        min_value=0.0,
        solution_oracle=euclidean_norm,
        prox_fn=prox,
        domain_radius=radius,
        x_true=np.zeros(dim),
        growth_exponent=1.0 / p,
    )


def make_abs_value() -> Objective:
    """Scalar f(x) = |x|: nonsmooth, prox is soft thresholding.

    No gradient is exposed; the registered minimal-norm subgradient is 1
    away from the origin and 0 at it.
    """

    def value(x):
        return float(abs(x[0]))

    def values(xs):
        return np.abs(xs[:, 0])

    def slope(x):
        return 0.0 if x[0] == 0.0 else 1.0

    def slopes(xs):
        return (xs[:, 0] != 0.0).astype(float)

    values.partners, slopes.partners = (value,), (None, slope)

    def prox(t, x):
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    return Objective(
        dim=1,
        value_fn=value,
        values_fn=values,
        slopes_fn=slopes,
        distances_fn=values,  # |x| is also the distance to the solution set {0}
        min_value=0.0,
        solution_oracle=value,
        prox_fn=prox,
        x_true=np.zeros(1),
        growth_exponent=1.0,
        subgrad_min_norm=slope,
    )


def make_radon(grid_n, num_angles, rays_per_angle, phantom) -> Objective:
    """Parallel-beam tomography data-fit f(x) = 0.5 * |A x - y|^2.

    A holds exact ray/pixel intersection lengths for equally spaced
    angles in [0, pi); y is the sinogram of a deterministic phantom, so
    the minimum is 0 and the phantom itself is an embedded solution.
    The Lipschitz bound comes from power iteration on A^T A with a 1.01
    upper bias.
    """
    grid_n = as_int("grid_n", grid_n, low=1)
    num_angles = as_int("num_angles", num_angles, low=1)
    rays_per_angle = as_int("rays_per_angle", rays_per_angle, low=1)
    if grid_n > MAX_RADON_GRID:
        raise DeskScaleLimitError(
            f"grid_n = {grid_n} exceeds the desk-scale cap of {MAX_RADON_GRID}")
    if num_angles * rays_per_angle > MAX_RADON_RAYS:
        raise DeskScaleLimitError(
            f"num_angles * rays_per_angle = {num_angles * rays_per_angle} exceeds the "
            f"desk-scale cap of {MAX_RADON_RAYS} rays")
    if phantom not in PHANTOMS:
        raise InvalidInputError(f"unknown phantom '{phantom}'; expected one of {PHANTOMS}")

    from . import _radon  # scipy loads only for radon problems

    a = _radon.system_matrix(grid_n, num_angles, rays_per_angle)
    x_true = _radon.phantom_image(phantom, grid_n).ravel()
    y = a @ x_true
    return Objective(
        dim=grid_n * grid_n,
        **_data_fit(a, y),
        lipschitz=_power_iteration(a, iters=5000, tol=1e-12, seed=0),
        min_value=0.0,
        matrix=a,
        target=y,
        x_true=x_true,
    )


def _power_iteration(matrix, iters, tol, seed) -> float:
    # the estimate behind lipschitz_estimate, which documents it
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(matrix.shape[1])
    v /= np.linalg.norm(v)
    prev = np.inf
    est = 0.0
    for _ in range(iters):
        w = matrix @ v
        est = float(w @ w)
        if est == 0.0 or abs(est - prev) <= tol * est:
            return est * 1.01
        prev = est
        u = matrix.T @ w
        v = u / np.linalg.norm(u)
    warnings.warn(f"power iteration did not meet tol={tol:g} in {iters} iterations",
                  PowerIterationWarning)
    return est * 1.01


def lipschitz_estimate(obj, iters=500, tol=1e-10, seed=0) -> float:
    """Upper-biased estimate of |A|^2 for matrix-backed objectives.

    Runs power iteration on A^T A from a seeded random start until the
    Rayleigh quotient's relative change drops below ``tol``, then scales
    by 1.01 so downstream step sizes stay admissible. If the iteration
    cap is hit first, the best estimate is returned and a
    :class:`PowerIterationWarning` is issued.
    """
    if obj.matrix is None:
        raise CapabilityError("matrix")
    iters, seed = as_int("iters", iters, low=1), as_int("seed", seed, low=0)
    return _power_iteration(obj.matrix, iters, as_real("tol", tol, "(0, inf)"), seed)


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
