"""Objective abstraction and built-in test problems.

Each factory returns an immutable :class:`Objective` carrying whatever
exact side information the problem admits: minimum value, gradient
Lipschitz bound, distance-to-solution oracle, closed-form prox, Holder
growth exponent. Consumers check for the fields they need instead of
assuming them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, DeskScaleLimitError, InvalidInputError, InvalidSpecError

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
                      "values_fn": ("value_fn",)}


def euclidean_norm(v) -> float:
    """|v| of a real 1-d array, the expression ``np.linalg.norm`` evaluates."""
    return math.sqrt(float(v.dot(v)))


def _as_int(name, value) -> int:
    # a JSON int or an integral float: no bool, string or fraction
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)) or value % 1:
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        1e-10 * |value_fn(x)| of it (up to underflow). The certify samplers use
        it only to rule rows out and confirm every survivor with ``value_fn``.
        Its ``partners`` attribute is ``(value_fn,)``.

    ``value_and_gradient_fn`` and ``values_fn`` are shortcuts: consumers use
    one only while its ``partners`` still names this objective's own oracles
    (see :meth:`shortcut`), so a ``dataclasses.replace`` that swaps an oracle
    is never bypassed.
    lipschitz : bound on the gradient's Lipschitz constant, global when
        ``domain_radius`` is None and valid on the centered ball of that
        radius otherwise.
    min_value : exact infimum when known.
    solution_oracle : exact distance to the solution set.
    prox_fn : ``prox_fn(lam, x)`` returns argmin_z f(z) + |z-x|^2/(2 lam).
    convex_flag : True when f is convex.
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
    convex_flag: bool = False
    domain_radius: Optional[float] = None
    matrix: object = None
    target: Optional[Array] = None
    x_true: Optional[Array] = None
    growth_exponent: Optional[float] = None
    subgrad_min_norm: Optional[Callable[[Array], float]] = None
    value_and_gradient_fn: Optional[Callable[[Array], tuple]] = None
    values_fn: Optional[Callable[[Array], Array]] = None

    def shortcut(self, name) -> Optional[Callable]:
        """The shortcut field ``name`` while its ``partners`` attribute names
        this objective's own oracles it stands in for, else None."""
        fn = getattr(self, name)
        partners = tuple(getattr(self, field) for field in _SHORTCUT_PARTNERS[name])
        return fn if getattr(fn, "partners", None) == partners else None

    def value(self, x) -> float:
        return float(self.value_fn(np.asarray(x, dtype=float)))

    def gradient(self, x) -> Array:
        if self.gradient_fn is None:
            raise CapabilityError("gradient_fn")
        return np.asarray(self.gradient_fn(np.asarray(x, dtype=float)), dtype=float)

    def prox(self, lam, x) -> Array:
        if self.prox_fn is None:
            raise CapabilityError("prox_fn")
        return np.asarray(self.prox_fn(float(lam), np.asarray(x, dtype=float)), dtype=float)

    def distance(self, x) -> float:
        if self.solution_oracle is None:
            raise CapabilityError("solution_oracle")
        return float(self.solution_oracle(np.asarray(x, dtype=float)))


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
            raise InvalidSpecError(
                f"unknown problem kind '{self.kind}'; expected one of {PROBLEM_KINDS}")
        if not isinstance(self.params, dict):
            raise InvalidSpecError("params must be a mapping")
        seed = _as_int("problem seed", self.seed)
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
            raise InvalidSpecError(f"bad parameters for '{self.kind}': {exc}") from exc

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed}

    @classmethod
    def from_dict(cls, data) -> "ProblemSpec":
        if not isinstance(data, dict):
            raise InvalidSpecError("problem spec must be an object")
        extra = set(data) - {"kind", "params", "seed"}
        if extra:
            raise InvalidSpecError(f"unknown problem spec keys: {sorted(extra)}")
        if "kind" not in data:
            raise InvalidSpecError("problem spec needs a 'kind'")
        return cls(kind=data["kind"], params=data.get("params", {}), seed=data.get("seed", 0))


def make_quadratic(spectrum) -> Objective:
    """Diagonal quadratic f(x) = 0.5 * sum(lam_i * x_i^2), minimized at 0.

    The prox is componentwise x_i / (1 + lam * lam_i) and the gradient
    Lipschitz constant is max(lam).
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise InvalidSpecError("spectrum must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
        raise InvalidSpecError("spectrum entries must be finite and positive")
    dim = int(lam.size)

    def value(x):
        return 0.5 * float(lam.dot(x * x))

    def values(xs):
        return 0.5 * ((xs * xs) @ lam)

    values.partners = (value,)

    def gradient(x):
        return lam * x

    def prox(t, x):
        return x / (1.0 + t * lam)

    return Objective(
        dim=dim,
        value_fn=value,
        # a sum of dim positive terms in another order: the two differ by at
        # most about dim * 2^-52 relative, within 1e-10 up to this bound
        values_fn=values if dim <= 10 ** 5 else None,
        gradient_fn=gradient,
        lipschitz=float(lam.max()),
        min_value=0.0,
        solution_oracle=euclidean_norm,
        prox_fn=prox,
        convex_flag=True,
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
    rows, cols = _as_int("rows", rows), _as_int("cols", cols)
    if rows < 1 or cols < 1:
        raise InvalidSpecError("rows and cols must be positive")
    sv = np.asarray(singular_values, dtype=float)
    r = min(rows, cols)
    if sv.ndim != 1 or sv.size != r:
        raise InvalidSpecError(
            f"singular_values must have length min(rows, cols) = {r}, got {sv.size}")
    if not np.all(np.isfinite(sv)) or np.any(sv <= 0):
        raise InvalidSpecError("singular values must be finite and positive")
    if np.any(np.diff(sv) > 0):
        raise InvalidSpecError("singular values must be nonincreasing")

    rng = np.random.default_rng(seed)
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
        raise InvalidSpecError("the gradient Lipschitz bound singular_values[0]^2 must be "
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
        convex_flag=True,
        matrix=a,
        target=y,
        x_true=x_true,
        growth_exponent=0.5 if full_column_rank else None,
    )


def make_power(p, dim, ball_radius) -> Objective:
    """Radial power objective f(x) = (1/p) * |x|^p on a centered ball.

    Requires p >= 2 so the gradient |x|^(p-2) x is Lipschitz on the ball,
    with constant (p-1) * ball_radius^(p-2). The growth exponent is 1/p.
    """
    p = float(p)
    dim = _as_int("dim", dim)
    radius = float(ball_radius)
    if not p >= 2:
        raise InvalidSpecError("power objectives need p >= 2")
    if dim < 1:
        raise InvalidSpecError("dim must be positive")
    if not radius > 0:
        raise InvalidSpecError("ball_radius must be positive")
    try:
        lipschitz = (p - 1.0) * radius ** (p - 2.0)
    except OverflowError:
        lipschitz = math.inf
    # a bound that underflows to 0 would divide the gd and nesterov step by zero
    if not (math.isfinite(lipschitz) and lipschitz > 0):
        raise InvalidSpecError("the gradient Lipschitz bound (p - 1) * ball_radius^(p - 2) "
                               f"must be finite and positive, got p = {p:g}, "
                               f"ball_radius = {radius:g}")

    def value(x):
        return float(np.linalg.norm(x) ** p) / p

    def values(xs):
        return np.linalg.norm(xs, axis=1) ** p / p

    values.partners = (value,)

    def gradient(x):
        r = np.linalg.norm(x)
        if r == 0.0:
            return np.zeros_like(x)
        return (r ** (p - 2.0)) * x

    return Objective(
        dim=dim,
        value_fn=value,
        # the norms differ by at most about (dim + 1) * 2^-53 relative and the
        # p-th power multiplies that by p: within 1e-10 up to this bound
        values_fn=values if p * (dim + 1) <= 10 ** 5 else None,
        gradient_fn=gradient,
        lipschitz=lipschitz,
        min_value=0.0,
        solution_oracle=euclidean_norm,
        convex_flag=True,
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

    values.partners = (value,)

    def prox(t, x):
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    return Objective(
        dim=1,
        value_fn=value,
        values_fn=values,
        min_value=0.0,
        solution_oracle=lambda x: float(abs(x[0])),
        prox_fn=prox,
        convex_flag=True,
        x_true=np.zeros(1),
        growth_exponent=1.0,
        subgrad_min_norm=lambda x: 0.0 if x[0] == 0.0 else 1.0,
    )


def make_radon(grid_n, num_angles, rays_per_angle, phantom) -> Objective:
    """Parallel-beam tomography data-fit f(x) = 0.5 * |A x - y|^2.

    A holds exact ray/pixel intersection lengths for equally spaced
    angles in [0, pi); y is the sinogram of a deterministic phantom, so
    the minimum is 0 and the phantom itself is an embedded solution.
    The Lipschitz bound comes from power iteration on A^T A with a 1.01
    upper bias.
    """
    grid_n = _as_int("grid_n", grid_n)
    num_angles = _as_int("num_angles", num_angles)
    rays_per_angle = _as_int("rays_per_angle", rays_per_angle)
    if grid_n < 1:
        raise InvalidSpecError("grid_n must be positive")
    if grid_n > MAX_RADON_GRID:
        raise DeskScaleLimitError(
            f"grid_n = {grid_n} exceeds the desk-scale cap of {MAX_RADON_GRID}")
    if num_angles < 1 or rays_per_angle < 1:
        raise InvalidSpecError("num_angles and rays_per_angle must be positive")
    if num_angles * rays_per_angle > MAX_RADON_RAYS:
        raise DeskScaleLimitError(
            f"num_angles * rays_per_angle = {num_angles * rays_per_angle} exceeds the "
            f"desk-scale cap of {MAX_RADON_RAYS} rays")
    if phantom not in PHANTOMS:
        raise InvalidSpecError(f"unknown phantom '{phantom}'; expected one of {PHANTOMS}")

    from . import _radon  # scipy loads only for radon problems

    a = _radon.system_matrix(grid_n, num_angles, rays_per_angle)
    x_true = _radon.phantom_image(phantom, grid_n).ravel()
    y = a @ x_true
    return Objective(
        dim=grid_n * grid_n,
        **_data_fit(a, y),
        lipschitz=_power_iteration(a, iters=5000, tol=1e-12, seed=0),
        min_value=0.0,
        convex_flag=True,
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
    iters = int(iters)
    if iters < 1:
        raise InvalidInputError("iters must be positive")
    if not tol > 0:
        raise InvalidInputError("tol must be positive")
    return _power_iteration(obj.matrix, iters, float(tol), seed)
