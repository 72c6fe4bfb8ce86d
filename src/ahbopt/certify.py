"""Numerical certification of growth and sharpness conditions.

Every check samples or constructs concrete points, evaluates both sides
of the claimed inequality, and reports the count of violations together
with the worst observed ratio and the witness achieving it. Checks never
prove a condition; they hunt for counterexamples at desk scale.

The sampling checks draw uniform points of a ball B_r(c) in
d dimensions: each point takes d + 2 standard normals g and is
c + r * g[:d] / |g|, because the first d coordinates of a uniform point
on the sphere S^(d+1) are uniform in the d-ball (Voelker, Gosmann &
Stewart, 2017). Candidates are drawn in chunks, and the generator fills
a chunk row by row, so a report depends on the seed and not on the
chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (CapabilityError, EmptyRegionError, InvalidInputError,
                     NumericalFailureError)
from .prox import moreau_value, ppa_run

REL_TOL = 1e-9

_REJECTION_FACTOR = 100

# ball candidates drawn per generator call, and the cap on the floats one
# chunk holds, so that high-dimensional objectives draw small chunks
_CHUNK_ROWS = 1024
_CHUNK_FLOATS = 1 << 16


@dataclass(frozen=True)
class HolderFunction:
    """Concave power gauge phi(t) = c * t^alpha with alpha in (0, 1]."""

    c: float
    alpha: float

    def __post_init__(self):
        if not self.c > 0:
            raise InvalidInputError("c must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidInputError("alpha must lie in (0, 1]")

    def __call__(self, t) -> float:
        if t < 0:
            raise InvalidInputError("phi is defined for nonnegative arguments")
        return self.c * float(t) ** self.alpha

    def derivative(self, t) -> float:
        if t <= 0:
            # the one-sided limit; callers sample strictly positive gaps
            return math.inf
        return self.c * self.alpha * float(t) ** (self.alpha - 1.0)


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


def _ball_candidates(rng, center, radius, max_trials):
    """Yield ``max_trials`` ball points in draw order, ``None`` for a row
    that holds no point. Chunks are only drawn as they are consumed."""
    rows = max(1, min(_CHUNK_ROWS, _CHUNK_FLOATS // (center.size + 2)))
    remaining = max_trials
    while remaining > 0:
        count = min(rows, remaining)
        remaining -= count
        points, drawn = _ball_points(rng, center, radius, count)
        for x, ok in zip(points, drawn):
            yield x if ok else None


def _shortfall_notes(checked, requested, trials):
    if checked >= requested:
        return ()
    return (f"only {checked} of {int(requested)} requested samples were accepted "
            f"in {trials} trials",)


def _sample_level_slice(obj, xbar, r, eta, num_samples, seed):
    """Uniform points of B_r(xbar) with value strictly between f(xbar)
    and f(xbar) + eta, by rejection (at most 100 trials per requested
    point). Returns the points, their gaps and the number of trials."""
    if not r > 0:
        raise InvalidInputError("r must be positive")
    if not (eta > 0 and math.isfinite(eta)):
        raise InvalidInputError("eta must be positive and finite")
    num_samples = int(num_samples)
    if num_samples < 1:
        raise InvalidInputError("num_samples must be positive")
    rng = np.random.default_rng(seed)
    fbar = obj.value(xbar)
    points, gaps = [], []
    trials = 0
    for x in _ball_candidates(rng, xbar, float(r), _REJECTION_FACTOR * num_samples):
        trials += 1
        if x is None:
            continue
        gap = obj.value(x) - fbar
        if 0.0 < gap < eta:
            # a view would keep its whole chunk alive
            points.append(x.copy())
            gaps.append(gap)
            if len(points) == num_samples:
                break
    if not points:
        raise EmptyRegionError(
            f"no sample of {trials} landed in the level slice (0, {eta:g}) "
            f"within radius {r:g}")
    return points, gaps, trials


def _min_subgradient_norm_fn(obj):
    if obj.gradient_fn is not None:
        return lambda x: float(np.linalg.norm(obj.gradient(x)))
    if obj.subgrad_min_norm is not None:
        return lambda x: float(obj.subgrad_min_norm(np.asarray(x, dtype=float)))
    raise CapabilityError("gradient_fn", "need a gradient or a registered subdifferential")


def check_kl(obj, xbar, r, eta, phi, num_samples=200, seed=0) -> CertReport:
    """Sample the level slice and test the sharpness inequality
    phi'(f(x) - f(xbar)) * dist(0, df(x)) >= 1."""
    xbar = np.asarray(xbar, dtype=float)
    slope_at = _min_subgradient_norm_fn(obj)
    points, gaps, trials = _sample_level_slice(obj, xbar, r, eta, num_samples, seed)
    worst, witness, violations = -math.inf, points[0], 0
    for x, gap in zip(points, gaps):
        product = phi.derivative(gap) * slope_at(x)
        if product < 1.0 - REL_TOL:
            violations += 1
        ratio = math.inf if product == 0.0 else 1.0 / product
        if ratio > worst:
            worst, witness = ratio, x
    return CertReport(checked=len(points), violations=violations,
                      worst_ratio=worst, witness=[float(w) for w in witness],
                      trials=trials,
                      notes=_shortfall_notes(len(points), num_samples, trials))


def certify_growth_direct(obj, xbar, r, eta, phi, factor=1.0,
                          num_samples=200, seed=0) -> CertReport:
    """Sample the level slice and test dist(x, S) <= factor * phi(gap).

    ``factor`` absorbs constant slop when phi's coefficient is not
    calibrated; pass 1 to test phi as given.
    """
    if not factor > 0:
        raise InvalidInputError("factor must be positive")
    xbar = np.asarray(xbar, dtype=float)
    if obj.solution_oracle is None:
        raise CapabilityError("solution_oracle")
    points, gaps, trials = _sample_level_slice(obj, xbar, r, eta, num_samples, seed)
    worst, witness, violations = -math.inf, points[0], 0
    for x, gap in zip(points, gaps):
        dist = obj.distance(x)
        bound = factor * phi(gap)
        ratio = dist / bound if bound > 0 else (math.inf if dist > 0 else 0.0)
        if ratio > 1.0 + REL_TOL:
            violations += 1
        if ratio > worst:
            worst, witness = ratio, x
    return CertReport(checked=len(points), violations=violations,
                      worst_ratio=worst, witness=[float(w) for w in witness],
                      trials=trials,
                      notes=_shortfall_notes(len(points), num_samples, trials))


def certify_growth_via_ppa(obj, x, phi, tau_list, num_steps=200) -> CertReport:
    """Certify growth through proximal point trajectories.

    For each tau the run from x must keep its total path length within
    2 * |x_1 - x_0| + 2 * phi(f(x) - f_*). The report also carries, per
    tau, the slack of the derived distance bound
    2 * sqrt(2 tau gap) + 2 phi(gap) - dist(x, S); with an exact
    distance oracle the slacks must shrink monotonically as tau does,
    with their tau-dependent part scaling like sqrt(tau). A start gap,
    path length, bound or slack that is not finite raises
    NumericalFailureError.
    """
    taus = [float(t) for t in tau_list]
    if not taus or any(t <= 0 for t in taus):
        raise InvalidInputError("tau_list must hold positive values")
    num_steps = int(num_steps)
    if num_steps < 1:
        raise InvalidInputError("num_steps must be at least 1")
    if obj.min_value is None:
        raise CapabilityError("min_value")
    x0 = np.asarray(x, dtype=float)
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

    fitted = None
    notes = ()
    if dist0 is not None:
        ordered = sorted(per_tau, key=lambda row: -row["tau"])
        scale = 1e-12 * (1.0 + abs(ordered[0]["slack"]))
        for prev, nxt in zip(ordered[:-1], ordered[1:]):
            if nxt["slack"] > prev["slack"] + scale:
                violations += 1
        if gap0 > 0 and len(taus) >= 2:
            # remove the tau-free part; what is left must scale like sqrt(tau)
            limit = 2.0 * phi(gap0) - dist0
            terms = np.array([row["slack"] - limit for row in per_tau])
            if np.all(terms > 0):
                coef = np.polyfit(np.log([row["tau"] for row in per_tau]),
                                  np.log(terms), 1)
                exponent = float(coef[0])
                resid = float(np.sqrt(np.mean(
                    (np.log(terms) - np.polyval(coef, np.log([row["tau"] for row in per_tau]))) ** 2)))
                fitted = (float(math.exp(coef[1])), exponent, resid)
                if abs(exponent - 0.5) > 0.05:
                    violations += 1
    else:
        notes = ("no distance oracle: slack uses the traveled distance as a proxy "
                 "and its monotonicity is not checked",)

    return CertReport(checked=len(taus), violations=violations, worst_ratio=worst,
                      witness=[worst_tau], fitted=fitted, per_tau=per_tau, notes=notes)


def fit_growth_exponent(samples) -> tuple:
    """Least squares fit of log dist = log C + alpha * log gap.

    Returns (C, alpha, residual) where residual is the RMS log-domain
    misfit and C is inflated by the largest positive residual so the
    fitted law sits above the samples (to first order).
    """
    pairs = [(float(g), float(d)) for g, d in samples]
    if len(pairs) < 8:
        raise InvalidInputError("need at least 8 (gap, dist) samples")
    if any(g <= 0 or d <= 0 for g, d in pairs):
        raise InvalidInputError("gaps and distances must be positive")
    log_gap = np.log([g for g, _ in pairs])
    log_dist = np.log([d for _, d in pairs])
    design = np.column_stack([np.ones_like(log_gap), log_gap])
    coef, *_ = np.linalg.lstsq(design, log_dist, rcond=None)
    residuals = log_dist - design @ coef
    margin = max(0.0, float(residuals.max()))
    c = math.exp(float(coef[0])) * (1.0 + margin)
    rms = float(np.sqrt(np.mean(residuals ** 2)))
    return c, float(coef[1]), rms


def check_moreau_exponent(obj, lam, xbar, r, num_samples=100, seed=0) -> CertReport:
    """Fit the envelope's growth exponent and compare with
    min(growth_exponent, 1/2).

    Smoothing caps the growth exponent at 1/2: flat objectives keep
    their exponent, sharp ones are rounded off by the quadratic
    infimal convolution.
    """
    lam = float(lam)
    if not lam > 0:
        raise InvalidInputError("lam must be positive")
    if not r > 0:
        raise InvalidInputError("r must be positive")
    if obj.growth_exponent is None:
        raise CapabilityError("growth_exponent")
    if obj.solution_oracle is None:
        raise CapabilityError("solution_oracle")
    num_samples = int(num_samples)
    if num_samples < 8:
        raise InvalidInputError("need at least 8 samples to fit")
    xbar = np.asarray(xbar, dtype=float)
    rng = np.random.default_rng(seed)
    env_min = moreau_value(obj, lam, xbar)
    samples = []
    trials = 0
    for x in _ball_candidates(rng, xbar, float(r), _REJECTION_FACTOR * num_samples):
        trials += 1
        if x is None:
            continue
        gap = moreau_value(obj, lam, x) - env_min
        dist = obj.distance(x)
        if gap > 0 and dist > 0:
            samples.append((gap, dist))
            if len(samples) == num_samples:
                break
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


def check_growth_implies_kl(obj, xbar, r, eta, c, alpha,
                            num_samples=200, seed=0) -> CertReport:
    """Test the sharpness consequence of Holder growth:
    gap^(1 - alpha) <= (c / alpha) * dist(0, df(x))."""
    if not c > 0:
        raise InvalidInputError("c must be positive")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError("alpha must lie in (0, 1]")
    xbar = np.asarray(xbar, dtype=float)
    slope_at = _min_subgradient_norm_fn(obj)
    points, gaps, trials = _sample_level_slice(obj, xbar, r, eta, num_samples, seed)
    worst, witness, violations = -math.inf, points[0], 0
    for x, gap in zip(points, gaps):
        lhs = gap ** (1.0 - alpha)
        rhs = (c / alpha) * slope_at(x)
        ratio = lhs / rhs if rhs > 0 else math.inf
        if lhs > rhs * (1.0 + REL_TOL):
            violations += 1
        if ratio > worst:
            worst, witness = ratio, x
    return CertReport(checked=len(points), violations=violations,
                      worst_ratio=worst, witness=[float(w) for w in witness],
                      trials=trials,
                      notes=_shortfall_notes(len(points), num_samples, trials))


def verify_recursive_rate(delta0, c, theta, num_steps) -> CertReport:
    """Generate delta_{k+1} = delta_k - c * delta_k^theta and verify the
    implied sublinear envelope.

    Requires c * delta0^(theta - 1) < 1 so the sequence stays positive.
    The envelope constant is the observed max of
    delta_k * (1+k)^(1/(theta-1)); the witness records where it is
    attained and the fitted slope (trailing decade of the log-log
    curve) is informational.
    """
    delta0, c, theta = float(delta0), float(c), float(theta)
    num_steps = int(num_steps)
    if delta0 < 0:
        raise InvalidInputError("delta0 must be nonnegative")
    if not c > 0:
        raise InvalidInputError("c must be positive")
    if not theta > 1:
        raise InvalidInputError("theta must exceed 1")
    if num_steps < 1:
        raise InvalidInputError("num_steps must be positive")
    if c * delta0 ** (theta - 1.0) >= 1.0:
        raise InvalidInputError(
            "need c * delta0^(theta-1) < 1 for a contracting sequence")
    deltas = np.empty(num_steps + 1)
    deltas[0] = delta0
    for k in range(num_steps):
        deltas[k + 1] = deltas[k] - c * deltas[k] ** theta
    if deltas[0] == 0.0:
        return CertReport(checked=num_steps + 1, violations=0, worst_ratio=0.0,
                          witness=[0.0])
    exponent = 1.0 / (theta - 1.0)
    ks = np.arange(num_steps + 1, dtype=float)
    weighted = deltas * (1.0 + ks) ** exponent
    c_tilde = float(weighted.max())
    k_star = int(weighted.argmax())
    violations = int(np.sum(deltas > c_tilde * (1.0 + ks) ** (-exponent) * (1.0 + 1e-12)))
    tail_lo = max(num_steps // 10, 1)
    tail = slice(tail_lo, num_steps + 1)
    coef = np.polyfit(np.log(1.0 + ks[tail]), np.log(deltas[tail]), 1)
    slope = float(coef[0])
    resid = float(np.sqrt(np.mean(
        (np.log(deltas[tail]) - np.polyval(coef, np.log(1.0 + ks[tail]))) ** 2)))
    return CertReport(checked=num_steps + 1, violations=violations, worst_ratio=1.0,
                      witness=[float(k_star)], fitted=(c_tilde, slope, resid))


def fit_rate_from_trace(trace, model, k_min=None, k_max=None) -> tuple:
    """Fit the dist column of a trace.

    ``model="linear"`` regresses log dist on k and returns the per-step
    contraction factor; ``model="power"`` regresses log dist on
    log(k + 1) and returns the exponent. Both return (value, residual)
    with the RMS log-domain misfit, and need at least 8 records with
    positive finite distances inside [k_min, k_max].
    """
    if model not in ("linear", "power"):
        raise InvalidInputError("model must be 'linear' or 'power'")
    rows = [(r.k, r.dist) for r in trace.records
            if r.dist is not None and math.isfinite(r.dist) and r.dist > 0
            and (k_min is None or r.k >= k_min)
            and (k_max is None or r.k <= k_max)]
    if len(rows) < 8:
        raise InvalidInputError("need at least 8 positive distance records to fit")
    ks = np.array([k for k, _ in rows], dtype=float)
    log_dist = np.log([d for _, d in rows])
    abscissa = ks if model == "linear" else np.log(ks + 1.0)
    coef = np.polyfit(abscissa, log_dist, 1)
    resid = float(np.sqrt(np.mean((log_dist - np.polyval(coef, abscissa)) ** 2)))
    value = math.exp(coef[0]) if model == "linear" else float(coef[0])
    return value, resid
