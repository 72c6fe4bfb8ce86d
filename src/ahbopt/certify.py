"""Numerical certification of growth and sharpness conditions.

Every check samples or constructs concrete points, evaluates both sides
of the claimed inequality, and reports the count of violations together
with the worst observed ratio and the witness achieving it. Checks never
prove a condition; they hunt for counterexamples at desk scale.

The sampling checks draw uniform points of a ball B_r(c) in
d dimensions: each point takes d + 2 standard normals g and is
c + r * g[:d] / |g|, because the first d coordinates of a uniform point
on the sphere S^(d+1) are uniform in the d-ball (Voelker, Gosmann &
Stewart, 2017). One sampler, ``_accepted``, serves every sampling
check: it draws candidates in chunks, keeps those the check's filter
accepts, and stops at the requested count or after 100 trials per
requested sample. The generator fills a chunk row by row, so a report
depends on the seed and not on the chunk size.

The two level-slice checks, ``check_kl`` and ``certify_growth_direct``,
keep only points with tiny <= f(x) - f(xbar) < eta, tiny the smallest
normal float, and most ball points miss that slice. A subnormal gap has
lost bits to underflow, so no relative tolerance could judge it. The
batched oracles of ``Objective`` (on the quadratic, power and abs_value
built-ins) decide rows in bulk, and a row takes the exact per-row calls
only where its batched answer lies within its error bound of a
decision, so a report is the same without them:

- The batched gap v - fbar lies within 1e-9 * (|v| + |fbar|) + tiny of
  the exact gap. With s = 1e-9 * (|v| + |fbar|) + 2 * tiny, a gap in
  (s, eta - s) is in the slice, its exact gap above tiny, one outside
  (-s, eta + s) is out, and any other takes one ``value_fn`` call.
- A batched ratio is proportional to gap^a (a = alpha - 1 for kl, -alpha
  for growth), so it lies within e = 2 * (|a| * s / gap + 1e-10 + 1e-12)
  relative of the exact one: the gap's error raised to a, the oracles'
  1e-10 and ``pow`` rounding, doubled for their products. Where it is
  finite and s / gap and e are below 1e-3, the interval ratio * (1 -+ e)
  decides whether the row breaks the inequality. The exact judge, at the
  exact gap, decides the other rows and those whose interval reaches the
  largest lower bound of all rows, so the worst ratio and witness are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (CapabilityError, EmptyRegionError, InvalidInputError,
                     NumericalFailureError, as_int, as_positive, as_real)
from .objective import as_point, euclidean_norm
from .prox import moreau_value, ppa_run
from .trace import fit_line

REL_TOL = 1e-9

_REJECTION_FACTOR = 100

# ball candidates drawn per generator call, and the cap on the floats one
# chunk holds, so that high-dimensional objectives draw small chunks
_CHUNK_ROWS = 1024
_CHUNK_FLOATS = 1 << 16

_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class HolderFunction:
    """Concave power gauge phi(t) = c * t^alpha with alpha in (0, 1]."""

    c: float
    alpha: float

    def __post_init__(self):
        as_positive("c", self.c)
        as_real("alpha", self.alpha, "(0, 1]")

    def __call__(self, t) -> float:
        if t < 0:
            raise InvalidInputError("phi is defined for nonnegative arguments")
        return self.c * float(t) ** self.alpha

    def derivative(self, t) -> float:
        if t <= 0:
            # the one-sided limit; callers sample strictly positive gaps
            return math.inf
        try:
            return self.c * self.alpha * float(t) ** (self.alpha - 1.0)
        except OverflowError:
            # t^(alpha - 1) beyond the float range, at a subnormal t
            return math.inf


@dataclass
class CertReport:
    """Outcome of one certification check.

    ``checked`` counts evaluated samples, ``violations`` how many broke
    the inequality beyond tolerance, ``worst_ratio`` the largest
    left/right ratio seen, and ``witness`` the sample achieving it.
    ``fitted`` carries (C, alpha, residual) when the check fits a power
    law. ``trials`` counts the ball points a sampling check drew.
    ``per_tau`` and ``notes`` hold check-specific extras.
    """

    checked: int
    violations: int
    worst_ratio: float
    witness: list
    fitted: Optional[tuple] = None
    per_tau: Optional[list] = None
    notes: tuple = ()
    trials: Optional[int] = None

    def to_json_dict(self) -> dict:
        out = {
            "checked": self.checked,
            "violations": self.violations,
            "worst_ratio": self.worst_ratio,
            "witness": [float(w) for w in self.witness],
            "fitted": None if self.fitted is None else {
                "C": self.fitted[0], "alpha": self.fitted[1], "residual": self.fitted[2],
            },
        }
        if self.trials is not None:
            out["trials"] = self.trials
        if self.per_tau is not None:
            out["per_tau"] = self.per_tau
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _ball_points(rng, center, radius, count):
    """Draw ``count`` uniform points of the ball B_radius(center), one per
    row, from a single ``standard_normal`` call.

    Returns the points and a mask of the rows whose normal draw had a
    nonzero norm; the other rows hold no point.
    """
    d = center.size
    g = rng.standard_normal((count, d + 2))
    norms = np.linalg.norm(g, axis=1)
    drawn = norms > 0.0
    scale = radius / np.where(drawn, norms, 1.0)
    return center + scale[:, None] * g[:, :d], drawn


def _accepted(xbar, r, num_samples, seed, take):
    """Draw uniform points of B_r(xbar) in chunks and pass each to
    ``take(points, drawn, need)``, with the mask of rows that hold a point:
    it returns at most ``need`` kept values and the rows it consumed, all of
    them unless it kept ``need``. Stops at ``num_samples`` kept values or
    after 100 trials per requested sample, and draws no chunk it does not
    consume. Returns the kept values of each chunk and the trial count."""
    r = as_positive("r", r)
    rng = np.random.default_rng(seed)
    rows = max(1, min(_CHUNK_ROWS, _CHUNK_FLOATS // (xbar.size + 2)))
    chunks, count, trials, cap = [], 0, 0, _REJECTION_FACTOR * num_samples
    while trials < cap and count < num_samples:
        points, drawn = _ball_points(rng, xbar, r, min(rows, cap - trials))
        kept, used = take(points, drawn, num_samples - count)
        chunks.append(kept)
        count += len(kept)
        trials += used
    return chunks, trials


def _shortfall_notes(checked, requested, trials):
    if checked >= requested:
        return ()
    return (f"only {checked} of {requested} requested samples were accepted "
            f"in {trials} trials",)


def _slice_rows(values, points, fbar, eta):
    """The batched gaps v - fbar of ``points``, their slack s and the masks of
    rows inside the slice [tiny, eta) and of undecided rows; the rest lie out.
    s = 1e-9 * (|v| + |fbar|) + 2 * tiny exceeds the error of ``values_fn``
    plus the rounding of both subtractions by tiny, so a gap above s is at
    least tiny exactly. With ``values`` None all are undecided."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.full(len(points), np.nan) if values is None else values(points)
        gap, slack = v - fbar, 1e-9 * (np.abs(v) + abs(fbar)) + 2.0 * _TINY
    inside = (gap > slack) & (gap < eta - slack)
    outside = np.isfinite(gap) & ((gap <= -slack) | (gap >= eta + slack))
    return gap, slack, inside, ~(inside | outside)


def _slice_check(obj, xbar, r, eta, num_samples, seed, judge, ratios, power, limit):
    """Sample B_r(xbar) for points whose gap f(x) - f(xbar) lies in
    [tiny, eta) and judge each: ``judge(x, gap)`` returns the
    left/right ratio and whether the inequality broke, as a ratio above
    ``limit`` does. ``ratios(xs, gaps)``, or None, is the batched judge, with
    ratios proportional to gap^power (see the module docstring). The
    witness is the first point of the worst ratio."""
    eta = as_positive("eta", eta)
    num_samples = as_int("num_samples", num_samples, low=1)
    xbar = as_point(obj, "xbar", xbar)
    fbar = obj.value(xbar)
    value_fn, values = obj.value_fn, obj.shortcut("values_fn")

    def take(points, drawn, need):
        gap, slack, inside, undecided = _slice_rows(values, points, fbar, eta)
        inside &= drawn
        before, found = np.cumsum(inside) - inside, 0  # rows kept ahead of each row
        for i in np.flatnonzero(undecided & drawn).tolist():
            if before[i] + found >= need:
                break
            # a float row of a chunk, so the oracle needs no conversion
            exact = float(value_fn(points[i])) - fbar
            if _TINY <= exact < eta:
                inside[i], gap[i], slack[i] = True, exact, 0.0
                found += 1
        rows = np.flatnonzero(inside)[:need]
        used = int(rows[-1]) + 1 if len(rows) == need else len(points)
        return np.column_stack((points[rows], gap[rows], slack[rows])), used

    chunks, trials = _accepted(xbar, r, num_samples, seed, take)
    kept = np.concatenate(chunks)
    if not len(kept):
        raise EmptyRegionError(f"no sample of {trials} landed in the level slice "
                               f"[{_TINY:g}, {eta:g}) within radius {r:g}")
    xs, gaps, slacks = kept[:, :-2], kept[:, -2], kept[:, -1]
    with np.errstate(all="ignore"):
        rel = slacks / gaps
        ratio = np.full(len(kept), np.nan) if ratios is None else ratios(xs, gaps)
        error = 2.0 * (abs(power) * rel + 1e-10 + 1e-12)
        decided = np.isfinite(ratio) & (np.maximum(rel, error) < 1e-3)
        low, high = ratio * (1.0 - error), ratio * (1.0 + error)
    floor = np.max(low, where=decided, initial=-np.inf)  # the largest lower bound
    judged = ~decided | ((low <= limit) & (limit <= high)) | (high >= floor)
    violations = int(np.count_nonzero(~judged & (low > limit)))
    worst, witness = -math.inf, xs[0]
    for i in np.flatnonzero(judged).tolist():
        gap = float(gaps[i]) if slacks[i] == 0.0 else float(value_fn(xs[i])) - fbar
        ratio_i, violated = judge(xs[i], gap)
        violations += bool(violated)
        if ratio_i > worst:
            worst, witness = ratio_i, xs[i]
    return CertReport(checked=len(kept), violations=violations,
                      worst_ratio=worst, witness=[float(w) for w in witness],
                      trials=trials, notes=_shortfall_notes(len(kept), num_samples, trials))


def _min_subgradient_norm_fn(obj):
    # called on the float rows the sampler keeps
    if obj.gradient_fn is not None:
        gradient_fn = obj.gradient_fn
        return lambda x: euclidean_norm(np.asarray(gradient_fn(x), dtype=float))
    if obj.subgrad_min_norm is not None:
        return lambda x: float(obj.subgrad_min_norm(x))
    raise CapabilityError("gradient_fn", "need a gradient or a registered subdifferential")


def check_kl(obj, xbar, r, eta, phi, num_samples=200, seed=0) -> CertReport:
    """Sample the level slice and test the sharpness inequality
    phi'(f(x) - f(xbar)) * dist(0, df(x)) >= 1."""
    slope_at = _min_subgradient_norm_fn(obj)

    def judge(x, gap):
        product = phi.derivative(gap) * slope_at(x)
        return math.inf if product == 0.0 else 1.0 / product, product < 1.0 - REL_TOL

    def ratios(xs, gaps):
        return 1.0 / (phi.c * phi.alpha * gaps ** (phi.alpha - 1.0) * obj.slopes_fn(xs))

    return _slice_check(obj, xbar, r, eta, num_samples, seed, judge,
                        obj.shortcut("slopes_fn") and ratios, phi.alpha - 1.0,
                        1.0 / (1.0 - REL_TOL))


def certify_growth_direct(obj, xbar, r, eta, phi, num_samples=200, seed=0) -> CertReport:
    """Sample the level slice and test dist(x, S) <= phi(gap)."""
    if obj.solution_oracle is None:
        raise CapabilityError("solution_oracle")

    def judge(x, gap):
        dist = obj.distance(x)
        bound = phi(gap)
        ratio = dist / bound if bound > 0 else (math.inf if dist > 0 else 0.0)
        return ratio, ratio > 1.0 + REL_TOL

    def ratios(xs, gaps):
        return obj.distances_fn(xs) / (phi.c * gaps ** phi.alpha)

    return _slice_check(obj, xbar, r, eta, num_samples, seed, judge,
                        obj.shortcut("distances_fn") and ratios, -phi.alpha, 1.0 + REL_TOL)


def certify_growth_via_ppa(obj, x, phi, tau_list, num_steps=200) -> CertReport:
    """Certify growth through proximal point trajectories.

    For each tau the run from x must keep its total path length within
    2 * |x_1 - x_0| + 2 * phi(f(x) - f_*); ``violations`` counts the tau
    whose path is longer. The report also carries, per tau, the slack of
    the derived distance bound 2 * sqrt(2 tau gap) + 2 phi(gap) - dist(x, S),
    with the traveled distance standing in for dist(x, S) when there is
    no distance oracle. A start gap, path length, bound or slack that is
    not finite raises NumericalFailureError.
    """
    taus = [as_positive("tau", t) for t in tau_list]
    if not taus:
        raise InvalidInputError("tau_list must not be empty")
    if len(set(taus)) < len(taus):
        raise InvalidInputError("tau_list must not repeat a value")
    num_steps = as_int("num_steps", num_steps, low=1)
    if obj.min_value is None:
        raise CapabilityError("min_value")
    x0 = as_point(obj, "x", x)
    gap0 = max(obj.value(x0) - obj.min_value, 0.0)
    if not math.isfinite(gap0):
        raise NumericalFailureError(0, f"non-finite gap {gap0} at the start point")
    dist0 = obj.distance(x0) if obj.solution_oracle is not None else None

    per_tau, violations = [], 0
    worst, worst_tau = 0.0, taus[0]
    for tau in taus:
        run = ppa_run(obj, tau, x0, num_steps)
        path = float(sum(run.step_norms))
        bound = 2.0 * run.step_norms[1] + 2.0 * phi(gap0)
        if path > bound + REL_TOL:
            violations += 1
        ratio = path / bound if bound > 0 else (math.inf if path > REL_TOL else 1.0)
        if ratio > worst:
            worst, worst_tau = ratio, tau
        dist = dist0 if dist0 is not None else float(np.linalg.norm(run.points[-1] - x0))
        slack = 2.0 * math.sqrt(2.0 * tau * gap0) + 2.0 * phi(gap0) - dist
        if not all(map(math.isfinite, (path, bound, slack))):
            raise NumericalFailureError(
                len(run.step_norms) - 1,
                f"non-finite certificate at tau={tau:g}: path length {path}, "
                f"bound {bound}, slack {slack}")
        per_tau.append({"tau": tau, "path_length": path, "bound": bound,
                        "slack": slack})

    notes = () if dist0 is not None else (
        "no distance oracle: slack uses the traveled distance as a proxy",)
    return CertReport(checked=len(taus), violations=violations, worst_ratio=worst,
                      witness=[worst_tau], per_tau=per_tau, notes=notes)


def fit_growth_exponent(samples) -> tuple:
    """Least squares fit of log dist = log C + alpha * log gap.

    Returns (C, alpha, residual) where residual is the RMS log-domain
    misfit and C is inflated by the largest positive residual so the
    fitted law sits above the samples (to first order).
    """
    pairs = [(as_positive("gap", g), as_positive("dist", d)) for g, d in samples]
    if len(pairs) < 8:
        raise InvalidInputError("need at least 8 (gap, dist) samples")
    log_gap, log_dist = np.log(pairs).T
    coef, rms = fit_line(log_gap, log_dist)
    margin = max(0.0, float((log_dist - np.polyval(coef, log_gap)).max()))
    return math.exp(float(coef[1])) * (1.0 + margin), float(coef[0]), rms


def check_moreau_exponent(obj, lam, xbar, r, num_samples=100, seed=0) -> CertReport:
    """Fit the envelope's growth exponent and compare with
    min(growth_exponent, 1/2).

    Smoothing caps the growth exponent at 1/2: flat objectives keep
    their exponent, sharp ones are rounded off by the quadratic
    infimal convolution.
    """
    lam = as_positive("lam", lam)
    if obj.growth_exponent is None:
        raise CapabilityError("growth_exponent")
    if obj.solution_oracle is None:
        raise CapabilityError("solution_oracle")
    num_samples = as_int("num_samples", num_samples, low=8)
    xbar = as_point(obj, "xbar", xbar)
    env_min = moreau_value(obj, lam, xbar)

    def take(points, drawn, need):
        kept = []
        for i in np.flatnonzero(drawn).tolist():
            gap = moreau_value(obj, lam, points[i]) - env_min
            dist = obj.distance(points[i])
            # an infinite gap or distance has no logarithm to fit
            if 0.0 < gap < math.inf and 0.0 < dist < math.inf:
                kept.append((gap, dist))
                if len(kept) == need:
                    return kept, i + 1
        return kept, len(points)

    chunks, trials = _accepted(xbar, r, num_samples, seed, take)
    samples = [sample for chunk in chunks for sample in chunk]
    if len(samples) < 8:
        raise EmptyRegionError(
            f"only {len(samples)} usable envelope samples in {trials} trials")
    c, alpha_hat, rms = fit_growth_exponent(samples)
    target = min(float(obj.growth_exponent), 0.5)
    deviation = abs(alpha_hat - target)
    return CertReport(checked=len(samples), violations=0 if deviation <= 0.05 else 1,
                      worst_ratio=deviation / 0.05, witness=[alpha_hat],
                      fitted=(c, alpha_hat, rms), trials=trials,
                      notes=_shortfall_notes(len(samples), num_samples, trials))


def _damped_sequence(delta0, c, theta, num_steps) -> np.ndarray:
    """delta_0 .. delta_num_steps of delta_{k+1} = delta_k - c * delta_k^theta.

    Python floats take the same libm pow and IEEE operations as numpy
    float64 scalars, so the terms are bitwise the same. A term that
    overflows, is not finite or is negative (for theta not an integer its
    next power is not real) raises NumericalFailureError naming its step.
    """
    deltas = np.empty(num_steps + 1)
    deltas[0] = d = delta0
    for k in range(1, num_steps + 1):
        try:
            d = d - c * d ** theta
        except OverflowError:
            raise NumericalFailureError(
                k, f"delta_{k - 1}^theta overflows at step {k}") from None
        if not 0.0 <= d < math.inf:
            raise NumericalFailureError(k, f"delta_{k} = {d} left [0, inf) at step {k}")
        deltas[k] = d
    return deltas


def verify_recursive_rate(delta0, c, theta, num_steps) -> CertReport:
    """Generate delta_{k+1} = delta_k - c * delta_k^theta and verify the
    implied sublinear envelope.

    Requires c * delta0^(theta - 1) < 1 so the sequence stays positive.
    ``violations`` counts the terms above the closed-form bound
    delta_k <= (delta0^(1-theta) + c * (theta-1) * k)^(-1/(theta-1)),
    which follows from t^(-theta) >= delta_k^(-theta) on
    [delta_{k+1}, delta_k]; it is checked in log form with a slack of
    1e-12, over the terms at or above the smallest normal float (below
    it the float recursion stalls while the bound keeps falling).
    ``worst_ratio`` is the largest delta_k / bound_k among those terms
    with k >= 1 (the bound is delta0 at k = 0), and ``witness`` the first
    k attaining it; both are 0.0 when there is none. The fitted envelope
    constant C is the observed max of delta_k * (1+k)^(1/(theta-1)), or
    None beyond the float range, and the fitted slope (trailing decade of
    the log-log curve, over its positive terms) is informational.
    ``fitted`` is None when fewer than two positive tail terms remain. A
    term that overflows or leaves [0, inf) raises NumericalFailureError.
    """
    num_steps = as_int("num_steps", num_steps, low=1)
    delta0, c = as_real("delta0", delta0, "[0, inf)"), as_positive("c", c)
    theta = as_real("theta", theta, "(1, inf)")
    try:
        contracting = c * delta0 ** (theta - 1.0) < 1.0
    except OverflowError:
        # delta0^(theta-1) beyond the float range: so is delta0^theta, and the
        # recursion cannot be computed
        contracting = False
    if not contracting:
        raise InvalidInputError(
            "need c * delta0^(theta-1) < 1 for a contracting sequence")
    if delta0 == 0.0:
        return CertReport(checked=num_steps + 1, violations=0, worst_ratio=0.0,
                          witness=[0.0])
    deltas = _damped_sequence(delta0, c, theta, num_steps)
    exponent = 1.0 / (theta - 1.0)
    ks = np.arange(num_steps + 1, dtype=float)
    # (1 + k)^(1/(theta-1)) overflows for theta near 1, and log 0 is -inf
    # at k = 0 and at a zero term, whose envelope is 0 whatever its weight
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weighted = np.where(deltas > 0.0, deltas * (1.0 + ks) ** exponent, 0.0)
        log_deltas, log_ks = np.log(deltas), np.log(ks)
    c_tilde = float(weighted.max())
    # the bound as log delta0 - log(1 + q (theta-1) k) / (theta-1) with
    # q = c * delta0^(theta-1), so that no power overflows for theta near 1
    # or far above it
    log_q = math.log(c) + (theta - 1.0) * math.log(delta0)
    log_bound = (math.log(delta0)
                 - np.logaddexp(0.0, log_q + math.log(theta - 1.0) + log_ks) * exponent)
    counted = deltas >= _TINY
    violations = int(np.sum(counted & (log_deltas > log_bound + 1e-12)))
    # the worst counted term past k = 0, where the bound is delta0 by construction
    with np.errstate(over="ignore"):
        ratios = np.exp(np.where(counted[1:], log_deltas[1:] - log_bound[1:], -np.inf))
    worst, witness = 0.0, 0.0
    if counted[1:].any():
        worst, witness = float(ratios.max()), float(ratios.argmax() + 1)
    # at least two points, so that the slope is defined
    tail_lo = min(max(num_steps // 10, 1), num_steps - 1)
    tail = slice(tail_lo, num_steps + 1)
    positive = deltas[tail] > 0.0
    fitted = None
    if np.count_nonzero(positive) >= 2:
        coef, resid = fit_line(np.log(1.0 + ks[tail][positive]), log_deltas[tail][positive])
        fitted = (c_tilde if math.isfinite(c_tilde) else None, float(coef[0]), resid)
    return CertReport(checked=num_steps + 1, violations=violations, worst_ratio=worst,
                      witness=[witness], fitted=fitted)

