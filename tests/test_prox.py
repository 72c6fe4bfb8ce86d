import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahbopt import (
    CapabilityError,
    HolderFunction,
    InvalidInputError,
    NumericalFailureError,
    Objective,
    PpaRun,
    certify_growth_via_ppa,
    make_abs_value,
    make_power,
    make_quadratic,
    moreau_gradient,
    moreau_value,
    ppa_run,
)
from ahbopt import errors, objective
from conftest import central_difference_gradient


def test_prox_quadratic_literals():
    obj = make_quadratic([1.0])
    np.testing.assert_allclose(obj.prox(1.0, [2.0]), [1.0])
    obj = make_quadratic([1.0, 10.0])
    np.testing.assert_allclose(obj.prox(0.1, [1.0, 1.0]),
                               [1.0 / 1.1, 0.5])


def test_prox_abs_soft_threshold():
    obj = make_abs_value()
    assert obj.prox(0.5, [0.2]) == pytest.approx([0.0])
    assert obj.prox(1.0, [2.5]) == pytest.approx([1.5])
    assert obj.prox(1.0, [-2.5]) == pytest.approx([-1.5])


def test_prox_rejects_nonpositive_tau():
    obj = make_quadratic([1.0])
    for tau in (0.0, -1.0):
        with pytest.raises(InvalidInputError):
            obj.prox(tau, [1.0])


def _diag_quadratic_without_prox(diag):
    diag = np.asarray(diag, dtype=float)
    return Objective(
        dim=diag.size,
        value_fn=lambda x: 0.5 * float(x @ (diag * x)),
        gradient_fn=lambda x: diag * x,
        lipschitz=float(diag.max()),
    )


def test_prox_capability_error_without_fallback():
    # without a prox_fn there is no prox, whether f is nonsmooth, nonconvex
    # or a smooth convex quadratic with a Lipschitz bound
    nonsmooth = Objective(dim=1, value_fn=lambda x: abs(float(x[0])))
    nonconvex = Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2,
                          gradient_fn=lambda x: 2.0 * x, lipschitz=2.0)
    for obj in (nonsmooth, nonconvex, _diag_quadratic_without_prox([1.0])):
        with pytest.raises(CapabilityError) as excinfo:
            obj.prox(1.0, [1.0])
        assert excinfo.value.missing == "prox_fn"


def _bisected_radius(p, tau, r):
    """The root of s + tau s^(p-1) = r in [0, r], halving the bracket until
    its midpoint is one of its ends."""
    lo, hi = 0.0, r
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if mid + tau * mid ** (p - 1.0) > r:
            hi = mid
        else:
            lo = mid


def test_power_prox_scales_x_to_the_bisected_radius():
    # half the norms log-uniform from 1e-300, where mostly s = |x| to the last
    # bit, half from 1e-2, where the power term moves s
    rng = np.random.default_rng(20)
    for k in range(400):
        p = float(rng.choice([2.0, 3.0, 4.0, rng.uniform(2.0, 20.0)]))
        dim, radius = int(rng.integers(1, 4)), 10 ** rng.uniform(-1, 1)
        tau = 10 ** rng.uniform(-3, 3)
        direction = rng.standard_normal(dim)
        norm = 10 ** rng.uniform(-300 if k % 2 else -2, math.log10(1e3 * radius))
        x = norm * direction / math.hypot(*direction)
        r = math.hypot(*x)
        got = make_power(p, dim, radius).prox(tau, x)
        np.testing.assert_allclose(got, _bisected_radius(p, tau, r) / r * x, rtol=1e-14)


def test_power_prox_solves_its_radius_equation_at_the_float_extremes():
    # |x| / tau overflows, so the root finder starts at |x|, where tau s^(p-1)
    # overflows too, and bisects down; s + 1e-300 s^3 = 1e300 at s = 1e200 (1 - 1e-100 / 3)
    np.testing.assert_allclose(make_power(4.0, 1, 1.0).prox(1e-300, [1e300]),
                               [1e200], rtol=1e-13)
    np.testing.assert_array_equal(make_power(2.0, 1, 1.0).prox(1e300, [1e300]), [1.0])
    np.testing.assert_array_equal(make_power(3.0, 2, 1.0).prox(1.0, [0.0, 0.0]),
                                  [0.0, 0.0])


def test_power_prox_bisects_where_its_power_term_overflows():
    # (c s)^(p-2) overflows near the start, so the guard takes the slope as
    # infinite and bisection finds the root of s + 1e300 s^19 = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (s,) = make_power(20.0, 1, 1.0).prox(1e300, [1.7e308])
    assert math.log(1e300) + 19.0 * math.log(s) == math.log(1.7e308 - s)


def test_power_prox_far_outside_the_lipschitz_ball_is_exact_and_quiet():
    # |x| = 5.22 is outside the ball of radius 2 that the Lipschitz bound holds on
    x = np.array([3.0, 4.0]) * (5.22 / 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = make_power(4.0, 2, 2.0).prox(7.56, x)
    s = math.hypot(*z)
    assert s + 7.56 * s ** 3 == pytest.approx(5.22, rel=1e-15)
    np.testing.assert_allclose(z / s, x / 5.22, rtol=1e-15)


@pytest.mark.parametrize("call", [Objective.prox, moreau_value, moreau_gradient])
@pytest.mark.parametrize("obj, x", [(make_quadratic([1.0, 10.0]), [1.0]),
                                    (make_abs_value(), [[2.0]])],
                         ids=["short", "two-dimensional"])
def test_prox_maps_reject_a_point_of_the_wrong_shape(call, obj, x):
    with pytest.raises(InvalidInputError, match=r"x must have shape \((2|1),\)"):
        call(obj, 1.0, x)


def test_ppa_run_quadratic_halves_each_step():
    run = ppa_run(make_quadratic([1.0]), 1.0, [4.0], 3)
    np.testing.assert_allclose(run.points, [[4.0], [2.0], [1.0], [0.5]])
    np.testing.assert_allclose(run.values, [8.0, 2.0, 0.5, 0.125])
    np.testing.assert_allclose(run.step_norms, [0.0, 2.0, 1.0, 0.5])


def test_ppa_run_abs_walks_at_constant_speed():
    run = ppa_run(make_abs_value(), 1.0, [2.5], 5)
    np.testing.assert_allclose(
        [p[0] for p in run.points], [2.5, 1.5, 0.5, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(run.values, [2.5, 1.5, 0.5, 0.0, 0.0, 0.0])


def test_ppa_run_fixed_at_minimizer():
    run = ppa_run(make_quadratic([1.0, 10.0]), 0.5, [0.0, 0.0], 4)
    for p in run.points:
        np.testing.assert_array_equal(p, [0.0, 0.0])
    assert run.step_norms == [0.0] * 5


def test_ppa_run_zero_steps_and_bad_counts():
    run = ppa_run(make_quadratic([1.0]), 1.0, [3.0], 0)
    assert len(run.points) == 1
    with pytest.raises(InvalidInputError):
        ppa_run(make_quadratic([1.0]), 1.0, [3.0], -1)


def test_ppa_run_steps_a_nonconvex_objective_through_its_prox_fn():
    # x^2 through its registered prox
    obj = Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2,
                    prox_fn=lambda lam, x: x / (1.0 + 2.0 * lam))
    run = ppa_run(obj, 1.0, [1.0], 2)
    np.testing.assert_allclose(run.points, [[1.0], [1.0 / 3.0], [1.0 / 9.0]])


def test_ppa_record_rejects_mismatched_lengths():
    with pytest.raises(InvalidInputError):
        PpaRun(tau=1.0, points=[np.zeros(1)], values=[], step_norms=[])
    with pytest.raises(InvalidInputError):
        PpaRun(tau=1.0, points=[], values=[], step_norms=[])


def test_ppa_record_rejects_ascent_but_tolerates_noise():
    pts = [np.array([2.0]), np.array([1.0])]
    with pytest.raises(NumericalFailureError) as excinfo:
        PpaRun(tau=1.0, points=pts, values=[1.0, 2.0], step_norms=[0.0, 1.0])
    assert excinfo.value.iteration == 1

    # Rounding noise below the relative slack must not trip the check.
    PpaRun(tau=1.0, points=pts, values=[1.0, 1.0 + 1e-10],
           step_norms=[0.0, 1.0])


def _with_grid_prox(obj, points_per_axis, lo=-2.0, hi=2.0):
    """obj with a prox_fn that searches a grid on [lo, hi]^dim.

    The map takes the argmin of f(z) + |z - x|^2 / (2 lam) over the grid
    (f evaluated there once), moves only when that value is at most f(x),
    so f never increases, and breaks ties by the lowest lexicographic
    index."""
    axes = [np.linspace(lo, hi, points_per_axis)] * obj.dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, obj.dim)
    fvals = np.array([obj.value(p) for p in pts])

    def prox_fn(lam, x):
        q = fvals + np.sum((pts - x) ** 2, axis=1) / (2.0 * lam)
        best = int(np.argmin(q))
        return pts[best].copy() if q[best] <= obj.value(x) else x.copy()

    return dataclasses.replace(obj, prox_fn=prox_fn)


def _double_well():
    # Global minimum 0 at x = 1, local minimum 0.5 at x = -1.
    def f(x):
        t = float(x[0])
        return min((t - 1.0) ** 2, (t + 1.0) ** 2 + 0.5)
    return Objective(dim=1, value_fn=f, min_value=0.0)


def test_nonconvex_run_small_tau_stays_in_local_basin():
    run = ppa_run(_with_grid_prox(_double_well(), 401), 0.2, [-0.6], 60)
    # The run stalls once one grid cell of movement costs more in prox
    # penalty than it gains in descent: radius h/2 + h/(4 tau) = 0.0175.
    assert abs(run.points[-1][0] - (-1.0)) <= 0.02
    assert run.values[-1] == pytest.approx(0.5, abs=1e-3)


def test_nonconvex_run_large_tau_hops_to_global_basin():
    run = ppa_run(_with_grid_prox(_double_well(), 401), 5.0, [-0.1], 5)
    assert abs(run.points[-1][0] - 1.0) <= 0.01 + 1e-12
    assert run.values[-1] == pytest.approx(0.0, abs=1e-3)


def test_nonconvex_run_zero_steps_returns_start():
    run = ppa_run(_with_grid_prox(_double_well(), 5), 1.0, [0.9], 0)
    assert len(run.points) == 1
    np.testing.assert_array_equal(run.points[0], [0.9])
    assert run.values == [pytest.approx(0.01)]


def test_nonconvex_run_keeps_iterate_when_grid_is_worse():
    obj = _with_grid_prox(Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2), 2)
    run = ppa_run(obj, 1.0, [0.1], 3)
    for p in run.points:
        np.testing.assert_array_equal(p, [0.1])
    assert run.step_norms == [0.0] * 4


def test_nonconvex_run_matches_exact_ppa_on_convex_problem():
    obj = make_quadratic([1.0])
    gridded = ppa_run(_with_grid_prox(obj, 401), 1.0, [2.0], 3)
    exact = ppa_run(obj, 1.0, [2.0], 3)
    np.testing.assert_allclose(gridded.points, exact.points, atol=1e-12)
    np.testing.assert_allclose(gridded.values, exact.values, atol=1e-12)


def test_nonconvex_run_input_validation():
    obj = _with_grid_prox(_double_well(), 3)
    with pytest.raises(InvalidInputError, match=r"tau must lie in \(0, inf\)"):
        ppa_run(obj, 0.0, [0.0], 1)
    with pytest.raises(InvalidInputError, match="num_steps"):
        ppa_run(obj, 1.0, [0.0], -1)


def _ring():
    # (|x|^2 - 1)^2: minimal on the whole unit circle, a local maximum at 0.
    return Objective(dim=2, value_fn=lambda x: (float(x.dot(x)) - 1.0) ** 2)


# SHA-256 of the points, values and step_norms bytes (float64) of each grid
# run, taken from the package's former grid runners; _with_grid_prox on
# [-2, 2]^dim reproduces them bit for bit.
GRID_RUNS = {
    "small_tau": ((_double_well, 0.2, [-0.6], 60, 1, 401),
                  "872d7e08e5f13428c356d8228dd23d646ceee62d7a16c0b249880f1683fd4f93"),
    "large_tau": ((_double_well, 5.0, [-0.1], 5, 1, 401),
                  "3e2f9b7e5bccf72fe7c9f050d573a452c462284b17e911d5df7efea08f3f3564"),
    "zero_steps": ((_double_well, 1.0, [0.9], 0, 1, 5),
                   "3f4e5fa11cec582254202c4672ebd4a1f878b5ccd865fdb48d6aaf855ec15c10"),
    "keeps_iterate": ((lambda: Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2),
                       1.0, [0.1], 3, 1, 2),
                      "dcb14bb3556a5229abb150014c037a87dd8a5388d2982b9c507244d433cb19ac"),
    "convex_quadratic": ((lambda: make_quadratic([1.0]), 1.0, [2.0], 3, 1, 401),
                         "f29d7ac3478d0faec41c581f0ab68b0fffc7fa761e44615aa401f18ba5b0d040"),
    "ring_2d": ((_ring, 0.05, [1.7, -0.3], 12, 2, 101),
                "bd354c66cae3cf0f32a1d6d41440d261cf0c458d4dec3574c7dfd8e00227e432"),
    # from 0 the inner values at -1, 0 and 1 all equal f(0) = 1 exactly: the
    # tie goes to the lowest index, and a tie with f(x) still moves
    "exact_tie": ((lambda: Objective(dim=1, value_fn=lambda x: (float(x[0]) ** 2 - 1.0) ** 2),
                   0.5, [0.0], 2, 1, 5),
                  "448e3c25c03182757e959b58ae264f0367b73ecaaf233c3fa38fdb7deceb0484"),
}


@pytest.mark.parametrize("name", sorted(GRID_RUNS))
def test_grid_runs_are_bitwise_golden(name):
    (make, tau, x0, steps, dim, per_axis), digest = GRID_RUNS[name]
    obj = make()
    assert obj.dim == dim
    run = ppa_run(_with_grid_prox(obj, per_axis), tau, x0, steps)
    blob = b"".join(np.array(seq, dtype=float).tobytes()
                    for seq in (run.points, run.values, run.step_norms))
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
def test_ppa_run_rejects_tau_before_any_step(tau):
    with pytest.raises(InvalidInputError, match=r"tau must lie in \(0, inf\)"):
        ppa_run(make_quadratic([1.0]), tau, [1.0], 0)


def test_ppa_run_sends_a_nonconvex_objective_to_its_prox_fn():
    obj = _with_grid_prox(_double_well(), 5)
    assert ppa_run(obj, 1.0, [0.5], 1).points[-1].tolist() == [1.0]

    def refuse(x):
        raise AssertionError("no oracle call before the capability check")

    # no prox_fn: the first step stops before any oracle is called
    bare = Objective(dim=1, value_fn=refuse, gradient_fn=refuse, lipschitz=2.0)
    with pytest.raises(CapabilityError) as excinfo:
        ppa_run(bare, 1.0, [0.5], num_steps=1)
    assert excinfo.value.missing == "prox_fn"


def test_ppa_run_without_a_prox_runs_zero_steps():
    run = ppa_run(Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2), 1.0, [0.5], 0)
    assert (run.points[0].tolist(), run.values, run.step_norms) == ([0.5], [0.25], [0.0])


def test_ppa_run_checks_tau_once(monkeypatch):
    obj, checked = make_quadratic([1.0, 2.0]), []

    def counted(name, value, *args):
        checked.append(name)
        return errors.as_real(name, value, *args)

    monkeypatch.setattr(objective, "as_real", counted)
    run = ppa_run(obj, 0.1, [1.0, -1.0], 50)
    assert len(run.points) == 51
    assert checked == ["tau"]


def test_growth_via_ppa_runs_a_nonconvex_objective_through_its_prox_fn():
    obj = _with_grid_prox(_double_well(), 401)
    taus = [1.0, 0.1, 0.01]
    report = certify_growth_via_ppa(obj, [2.0], HolderFunction(2.0, 0.5), taus,
                                    num_steps=50)
    assert [row["tau"] for row in report.per_tau] == taus
    assert report.checked == 3 and report.violations == 0
    # the largest tau reaches the global minimizer; smaller ones stall
    # short of it on the grid
    assert ppa_run(obj, 1.0, [2.0], 50).points[-1].tolist() == [1.0]


def test_moreau_quadratic_literals():
    obj = make_quadratic([1.0])
    assert moreau_value(obj, 1.0, [2.0]) == pytest.approx(1.0)
    np.testing.assert_allclose(moreau_gradient(obj, 1.0, [2.0]), [1.0])


@pytest.mark.parametrize("envelope", [moreau_value, moreau_gradient])
@pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0, -1.0])
def test_moreau_envelope_names_a_bad_lam(envelope, lam):
    with pytest.raises(InvalidInputError, match=r"lam must lie in \(0, inf\)"):
        envelope(make_quadratic([1.0]), lam, [1.0])


def test_moreau_abs_is_huber():
    obj = make_abs_value()
    assert moreau_value(obj, 1.0, [0.5]) == pytest.approx(0.125)
    assert moreau_value(obj, 1.0, [3.0]) == pytest.approx(2.5)
    np.testing.assert_allclose(moreau_gradient(obj, 1.0, [3.0]), [1.0])
    np.testing.assert_allclose(moreau_gradient(obj, 1.0, [-3.0]), [-1.0])


def test_moreau_at_minimizer_matches_infimum():
    obj = make_quadratic([1.0, 10.0])
    assert moreau_value(obj, 0.7, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(
        moreau_gradient(obj, 0.7, [0.0, 0.0]), [0.0, 0.0], atol=1e-15)


def test_moreau_gradient_matches_finite_differences():
    obj = make_quadratic([1.0, 10.0])
    lam = 0.7
    x = np.array([0.3, -1.2])
    fd = central_difference_gradient(lambda z: moreau_value(obj, lam, z), x)
    np.testing.assert_allclose(moreau_gradient(obj, lam, x), fd, rtol=1e-5)

    obj = make_abs_value()
    for t in (3.0, 0.3):
        fd = central_difference_gradient(
            lambda z: moreau_value(obj, 1.0, z), np.array([t]))
        np.testing.assert_allclose(moreau_gradient(obj, 1.0, [t]), fd,
                                   rtol=1e-5)


def test_moreau_gradient_lipschitz_bound():
    obj = make_quadratic([1.0, 10.0])
    lam = 0.5
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        gap = np.linalg.norm(moreau_gradient(obj, lam, x)
                             - moreau_gradient(obj, lam, y))
        assert gap <= (1.0 / lam) * np.linalg.norm(x - y) * (1.0 + 1e-12)


@settings(deadline=None, max_examples=150)
@given(t=st.floats(-5.0, 5.0), lam=st.floats(0.1, 10.0))
def test_moreau_envelope_of_abs_has_huber_form(t, lam):
    obj = make_abs_value()
    if abs(t) <= lam:
        expected = t * t / (2.0 * lam)
    else:
        expected = abs(t) - lam / 2.0
    got = moreau_value(obj, lam, [t])
    assert got == pytest.approx(expected, abs=1e-12)
    assert got <= obj.value(np.array([t])) + 1e-12
