"""First-order solvers sharing one step, one iteration loop and one trace format.

Every method takes the same step from x with momentum m = x - x_prev,

    x+ = x - alpha * g(y) + beta * m,

and only the rule for (alpha, beta, y) differs (L: gradient Lipschitz
constant, gap: f(x) - min f, k: iteration number):

    method    alpha                               beta                 y
    ahb       (1 + mu0) / L                       ahb_beta, <= cap     x
    gd        gd_mu / L                           0                    x
    nesterov  1 / L                               (k - 1) / (k + nu)   x + beta * m
    alrhb     1/(2L) + (gap + beta <g, m>)/|g|^2  alrhb_beta           x

The centerpiece, ahb, takes the momentum weight that minimizes a certified
bound on the next squared distance to the solution set, clamped to [0, cap].
Nesterov's step is computed as y - alpha * g(y).
On matrix-backed problems a step costs 2 matvecs, since f(x) and g(x) share
one residual, and 3 for Nesterov, which takes f at x but g at y.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .errors import (CapabilityError, InvalidInputError, NumericalFailureError, as_int,
                     as_object, as_real)
from .objective import as_point
from .trace import IterationRecord, Trace

Array = np.ndarray

_STOP_GAP, _STOP_MAX, _STOP_CRITICAL = "gap_tol", "max_iters", "critical_point"

# the interval of each real SolverConfig field; checked, never stored back, so
# a config keeps the numbers it was given
_INTERVALS = {"mu0": "[0, 1)", "beta_cap": "(0, inf]", "gd_mu": "(0, 2)",
              "nesterov_nu": "[2, inf]", "alrhb_beta": "(0, 1)", "gap_tol": "[0, inf]"}


@dataclass(frozen=True)
class SolverConfig:
    """Method selection plus every per-method constant.

    Defaults reproduce the stock comparison setup: momentum-capped
    adaptive heavy ball with mu0 = 0.96 and cap 1, gradient descent step
    1.96/L, Nesterov offset 3, and fixed momentum 0.96 for the adaptive
    learning rate variant.
    """

    method: str = "ahb"
    mu0: float = 0.96
    beta_cap: float = 1.0
    gd_mu: float = 1.96
    nesterov_nu: float = 3.0
    alrhb_beta: float = 0.96
    max_iters: int = 1000
    gap_tol: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method '{self.method}'; expected one of {METHODS}")
        for name, interval in _INTERVALS.items():
            as_real(name, getattr(self, name), interval)
        as_int("max_iters", self.max_iters, low=0)
        as_int("record_every", self.record_every, low=1)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data) -> "SolverConfig":
        return cls(**as_object("solver config", data, cls.__dataclass_fields__))


@dataclass(slots=True)
class SolverState:
    """Mutable loop state at iterate k.

    ``gamma_tilde`` is the distance-decrease surrogate for the current
    iterate, 0 at k = 0. ``record``, when set, holds the measurements of
    the iterate this state was advanced from: its step size, momentum
    weight, optimality gap and gradient norm among them.
    """

    k: int
    x: Array
    x_prev: Array
    gamma_tilde: float = 0.0
    record: Optional[IterationRecord] = None
    stop: Optional[str] = None


def initial_state(x0) -> SolverState:
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError("start point must be a nonempty 1-d vector")
    return SolverState(k=0, x=x, x_prev=x.copy())


def _ahb_beta(alpha_k, g_k, m_k, m_sq, gamma_tilde_k, beta_cap):
    # ahb_beta given m_sq = |m_k|^2
    if m_sq == 0.0:
        return 0.0
    raw = (alpha_k * float(g_k.dot(m_k)) - gamma_tilde_k) / m_sq
    return float(min(max(0.0, raw), beta_cap))


def ahb_beta(alpha_k, g_k, m_k, gamma_tilde_k, beta_cap) -> float:
    """Momentum weight beta* = (alpha_k * <g_k, m_k> - gamma_tilde_k) / |m_k|^2
    clamped to [0, beta_cap], 0 when m_k = 0. beta* minimizes the certified
    bound on the next squared distance: each beta in [0, 2 beta*] keeps the
    decrease d2_{k+1} <= d2_k - (2 (1 - mu0^2) / L) gap_k, and each beta in
    [0, beta*] the sharper one that also subtracts beta^2 |m_k|^2.
    """
    return _ahb_beta(alpha_k, g_k, m_k, float(m_k.dot(m_k)), gamma_tilde_k, beta_cap)


# Each rule maps (state, cfg, L, gap, g, g_sq, m, m_sq) to the step size alpha
# and the momentum weight beta of x+ = x - alpha * g(y) + beta * m.

def _ahb(state, cfg, lipschitz, gap, g, g_sq, m, m_sq):
    alpha = (1.0 + cfg.mu0) / lipschitz
    return alpha, _ahb_beta(alpha, g, m, m_sq, state.gamma_tilde, cfg.beta_cap)


def _gd(state, cfg, lipschitz, gap, g, g_sq, m, m_sq):
    return cfg.gd_mu / lipschitz, 0.0


def _nesterov(state, cfg, lipschitz, gap, g, g_sq, m, m_sq):
    # reads neither g nor |g|^2: it runs before the gradient at y = x + beta * m
    return 1.0 / lipschitz, (state.k - 1.0) / (state.k + cfg.nesterov_nu)


def _alrhb(state, cfg, lipschitz, gap, g, g_sq, m, m_sq):
    if g_sq == 0.0:
        return None, cfg.alrhb_beta  # critical point: the adaptive step is undefined
    return (1.0 / (2.0 * lipschitz) + gap / g_sq
            + cfg.alrhb_beta * float(g.dot(m)) / g_sq), cfg.alrhb_beta


# method: (rule, objective fields it requires, gradient taken at y = x + beta * m)
_RULES = {
    "ahb": (_ahb, ("gradient_fn", "lipschitz", "min_value"), False),
    "alrhb": (_alrhb, ("gradient_fn", "lipschitz", "min_value"), False),
    "nesterov": (_nesterov, ("gradient_fn", "lipschitz"), True),
    "gd": (_gd, ("gradient_fn", "lipschitz"), False),
}

METHODS = tuple(_RULES)


def _plan(method, obj):
    # once per run or step; the fused oracle serves only f and g both taken at x
    rule, needs, at_y = _RULES[method]
    for name in needs:
        if getattr(obj, name) is None:
            raise CapabilityError(name)
    as_real("lipschitz", obj.lipschitz, "(0, inf)")
    return rule, at_y, None if at_y else obj.shortcut("value_and_gradient_fn")


def _measure(plan, state, m, m_sq, obj, cfg):
    # f, gap, y, g(y), |g|^2, alpha and beta at x, given m = x - x_prev and |m|^2,
    # from the oracle fields that _plan found present
    rule, at_y, fused = plan
    x = state.x
    fval, g = (obj.value_fn(x), None) if fused is None else fused(x)
    fval = float(fval)
    if not math.isfinite(fval):
        raise NumericalFailureError(state.k)
    gap = float("nan") if obj.min_value is None else max(fval - obj.min_value, 0.0)
    y = x
    if at_y:
        alpha, beta = rule(state, cfg, obj.lipschitz, gap, None, None, m, m_sq)
        y = x + beta * m
    g = np.asarray(obj.gradient_fn(y) if fused is None else g, dtype=float)
    g_sq = float(g.dot(g))
    # a finite sum of squares has only finite terms
    if not math.isfinite(g_sq) and not np.all(np.isfinite(g)):
        raise NumericalFailureError(state.k)
    if not at_y:
        alpha, beta = rule(state, cfg, obj.lipschitz, gap, g, g_sq, m, m_sq)
    return fval, gap, y, g, g_sq, alpha, beta


def _record(state, obj, fval, gap, g_sq, alpha, beta, m_sq):
    # gnorm is the gradient actually computed, at y for Nesterov
    dist = None if obj.solution_oracle is None else float(obj.solution_oracle(state.x))
    return IterationRecord(k=state.k, fval=fval, gap=gap, gnorm=math.sqrt(g_sq),
                           alpha=0.0 if alpha is None else alpha, beta=beta,
                           step_norm=math.sqrt(m_sq), dist=dist)


def _advance(state, lipschitz, gap, y, g, g_sq, m, alpha, beta):
    # moves state to the next iterate in place; returns its m and |m|^2
    x = state.x
    x_next = y - alpha * g
    if y is x:
        x_next += beta * m
    m_next = x_next - x
    m_next_sq = float(m_next.dot(m_next))
    state.k, state.x, state.x_prev = state.k + 1, x_next, x
    # the surrogate recursion, from the step size, momentum weight, gap and
    # |g|^2 of the iterate just left
    state.gamma_tilde = (m_next_sq - alpha * (gap + g_sq / (2.0 * lipschitz))
                         + beta * state.gamma_tilde)
    return m_next, m_next_sq


def step(state, obj, cfg) -> SolverState:
    """One step of the method ``cfg.method`` from ``state``.

    The returned state's ``record`` holds the measurements of the iterate
    stepped from. When the adaptive learning rate method meets a critical
    point, the returned state stays at that iterate with ``stop`` set.
    ``state`` itself is never changed.
    """
    m = state.x - state.x_prev
    m_sq = float(m.dot(m))
    fval, gap, y, g, g_sq, alpha, beta = _measure(_plan(cfg.method, obj), state, m, m_sq, obj, cfg)
    rec = _record(state, obj, fval, gap, g_sq, alpha, beta, m_sq)
    if alpha is None:
        return replace(state, record=rec, stop=_STOP_CRITICAL)
    nxt = replace(state, record=rec, stop=None)
    _advance(nxt, obj.lipschitz, gap, y, g, g_sq, m, alpha, beta)
    return nxt


def _check_domain(obj, x0, meta):
    # iterate containment argument needs twice the starting distance to fit
    if obj.domain_radius is None or obj.solution_oracle is None:
        return
    reach = 2.0 * float(obj.solution_oracle(x0))
    if reach > obj.domain_radius * (1.0 + 1e-12):
        raise InvalidInputError(
            f"start point needs 2 * dist(x0, S) = {reach:g} within the "
            f"Lipschitz ball of radius {obj.domain_radius:g}")
    meta["growth_radius"] = reach


def run_solver(obj, cfg, x0, problem_spec=None, x0_seed=None) -> Trace:
    """Run a configured method from x0 and return its trace.

    Records are kept every ``record_every`` iterates plus the final one.
    The loop stops when the optimality gap reaches ``gap_tol`` (when the
    minimum value is known), when ``max_iters`` steps have been taken,
    or at a critical point for the adaptive learning rate method.
    """
    state = initial_state(as_point(obj, "x0", x0))
    meta = {
        "problem": problem_spec.to_dict() if problem_spec is not None else None,
        "config": cfg.to_json_dict(),
        "x0_seed": x0_seed,
        "stop_reason": None,
        "wall_ms": None,
    }
    plan = _plan(cfg.method, obj)
    _check_domain(obj, state.x, meta)
    m, m_sq = np.zeros_like(state.x), 0.0
    started = time.perf_counter()
    records = []
    while True:
        fval, gap, y, g, g_sq, alpha, beta = _measure(plan, state, m, m_sq, obj, cfg)
        reason = (_STOP_CRITICAL if alpha is None
                  else _STOP_GAP if obj.min_value is not None and gap <= cfg.gap_tol
                  else _STOP_MAX if state.k >= cfg.max_iters else None)
        if reason is not None or state.k % cfg.record_every == 0:
            records.append(_record(state, obj, fval, gap, g_sq, alpha, beta, m_sq))
        if reason is not None:
            break
        m, m_sq = _advance(state, obj.lipschitz, gap, y, g, g_sq, m, alpha, beta)
    meta["stop_reason"] = reason
    meta["wall_ms"] = (time.perf_counter() - started) * 1e3
    return Trace(records=records, meta=meta)
