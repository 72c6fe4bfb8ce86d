import dataclasses
import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ahbopt import (
    CapabilityError,
    CertReport,
    EmptyRegionError,
    HolderFunction,
    InvalidInputError,
    IterationRecord,
    NumericalFailureError,
    Objective,
    Trace,
    certify_growth_direct,
    certify_growth_via_ppa,
    check_kl,
    check_moreau_exponent,
    fit_growth_exponent,
    fit_rate_from_trace,
    make_abs_value,
    make_power,
    make_quadratic,
    verify_recursive_rate,
)
from ahbopt import certify
from ahbopt.cli import main

SQRT2 = math.sqrt(2.0)


def test_holder_function_values_and_derivative():
    phi = HolderFunction(2.0, 0.5)
    assert phi(4.0) == pytest.approx(4.0)
    assert phi(0.0) == 0.0
    assert phi.derivative(4.0) == pytest.approx(0.5)
    assert phi.derivative(0.0) == math.inf

    linear = HolderFunction(3.0, 1.0)
    assert linear(2.0) == pytest.approx(6.0)
    assert linear.derivative(5.0) == pytest.approx(3.0)
    # t^(alpha - 1) beyond the float range at a subnormal t, as a kl sample in
    # a ball of radius 2.2e-309 meets it
    assert HolderFunction(1.0, 2.0 ** -9).derivative(4.2e-310) == math.inf


def test_holder_function_validation():
    with pytest.raises(InvalidInputError):
        HolderFunction(0.0, 0.5)
    with pytest.raises(InvalidInputError):
        HolderFunction(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        HolderFunction(1.0, 1.5)
    for alpha in ("0.5", True, None, 10 ** 400):
        with pytest.raises(InvalidInputError, match=r"^alpha must lie in \(0, 1\]$"):
            HolderFunction(1.0, alpha)
    with pytest.raises(InvalidInputError):
        HolderFunction(1.0, 0.5)(-1.0)


def test_kl_holds_exactly_for_scalar_quadratic():
    # phi(t) = sqrt(2 t) turns the product into |x| / |x| = 1 exactly.
    report = check_kl(make_quadratic([1.0]), [0.0], 1.0, 0.5,
                      HolderFunction(SQRT2, 0.5))
    assert report.violations == 0
    assert report.checked == 200
    assert report.worst_ratio == pytest.approx(1.0)


def test_kl_holds_for_abs_value_with_linear_gauge():
    report = check_kl(make_abs_value(), [0.0], 1.0, 0.5,
                      HolderFunction(1.0, 1.0))
    assert report.violations == 0
    assert report.worst_ratio == pytest.approx(1.0)


def test_kl_flags_wrong_exponent_near_minimum():
    # A linear gauge on a quadratic fails: the gradient vanishes faster
    # than the gap.
    report = check_kl(make_quadratic([1.0]), [0.0], 0.5, 0.1,
                      HolderFunction(1.0, 1.0))
    assert report.violations > 0
    assert report.worst_ratio > 1.0


def test_kl_needs_slope_information():
    bare = Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2)
    with pytest.raises(CapabilityError) as excinfo:
        check_kl(bare, [0.0], 1.0, 0.5, HolderFunction(1.0, 0.5))
    assert excinfo.value.missing == "gradient_fn"


def test_level_slice_can_be_empty():
    with pytest.raises(EmptyRegionError):
        check_kl(make_quadratic([1.0]), [0.0], 1.0, 1e-300,
                 HolderFunction(SQRT2, 0.5))


# each built-in with a batched judge, the gauge under which its level-slice
# inequalities hold with equality somewhere, and a radius at which most gaps
# are subnormal
_TRUE_GAUGES = {
    "quadratic": (make_quadratic([1.0, 4.0]), HolderFunction(SQRT2, 0.5), 1e-160),
    "power": (make_power(3.0, 2, 1.0), HolderFunction(3.0 ** (1.0 / 3.0), 1.0 / 3.0), 1e-106),
    "abs_value": (make_abs_value(), HolderFunction(1.0, 1.0), 1e-310),
}


@pytest.mark.parametrize("kind", sorted(_TRUE_GAUGES))
def test_true_gauges_hold_at_every_radius_down_to_the_float_floor(kind):
    # a subnormal gap has lost bits, so the slice starts at the smallest normal
    # float: below it a check finds no sample rather than a false violation
    obj, phi, floor = _TRUE_GAUGES[kind]
    halved = HolderFunction(phi.c / 2.0, phi.alpha)
    rng = random.Random(28)
    radii = [floor] + [10.0 ** rng.uniform(-300.0, 2.0) for _ in range(30)]
    for seed, r in enumerate(radii):
        for check in (check_kl, certify_growth_direct):
            try:
                report = check(obj, np.zeros(obj.dim), r, 1e300, phi, 20, seed=seed)
            except EmptyRegionError:
                continue
            assert report.violations == 0, (check.__name__, r)
    # at radii whose gaps are normal, a false gauge still breaks
    for seed in range(10):
        r = 10.0 ** rng.uniform(-90.0, 2.0)
        for check in (check_kl, certify_growth_direct):
            assert check(obj, np.zeros(obj.dim), r, 1e300, halved, 20,
                         seed=seed).violations > 0, (check.__name__, r)


def test_level_slice_rejects_bad_region():
    phi = HolderFunction(SQRT2, 0.5)
    obj = make_quadratic([1.0])
    with pytest.raises(InvalidInputError):
        check_kl(obj, [0.0], -1.0, 0.5, phi)
    with pytest.raises(InvalidInputError):
        check_kl(obj, [0.0], 1.0, math.inf, phi)
    with pytest.raises(InvalidInputError):
        check_kl(obj, [0.0], 1.0, 0.5, phi, num_samples=0)


def test_level_slice_shortfall_is_reported():
    # the slice 0 < f < 1e-2 covers 2e-3 of the unit disc, so the cap of
    # 100 trials per requested point leaves about 20 of 100 points
    report = check_kl(make_quadratic([1.0, 100.0]), [0.0, 0.0], 1.0, 1e-2,
                      HolderFunction(SQRT2, 0.5), num_samples=100)
    assert 0 < report.checked < 100
    assert report.trials == 10_000
    assert report.notes == (f"only {report.checked} of 100 requested samples "
                            "were accepted in 10000 trials",)

    full = check_kl(make_quadratic([1.0]), [0.0], 1.0, 0.5, HolderFunction(SQRT2, 0.5))
    assert full.checked == 200 and full.notes == ()
    assert full.trials >= full.checked


def _sampling_reports():
    phi = HolderFunction(SQRT2, 0.5)
    quadratic = make_quadratic([1.0, 10.0])
    return [
        check_kl(quadratic, [0.0, 0.0], 1.0, 0.05, phi, num_samples=60, seed=3),
        check_kl(make_quadratic([1.0, 100.0]), [0.0, 0.0], 1.0, 1e-2, phi,
                 num_samples=20, seed=4),
        certify_growth_direct(quadratic, [0.5, 0.0], 1.0, 0.5, phi,
                              num_samples=60, seed=5),
        check_kl(quadratic, [0.0, 0.0], 1.0, 0.5, phi, num_samples=60, seed=6),
        check_moreau_exponent(make_abs_value(), 1.0, [0.0], 0.5, seed=7),
    ]


@pytest.mark.parametrize("rows", [1, 7])
def test_sampling_reports_do_not_depend_on_the_chunk_size(rows, monkeypatch):
    default = _sampling_reports()
    assert default[1].trials == 2000  # stops at the trial cap
    monkeypatch.setattr(certify, "_CHUNK_ROWS", rows)
    assert _sampling_reports() == default


@pytest.mark.parametrize("rows", [1024, 7])
def test_sampler_draws_only_the_chunks_it_consumes(rows, monkeypatch):
    draws = []
    ball_points = certify._ball_points

    def counted(rng, center, radius, count):
        draws.append(count)
        return ball_points(rng, center, radius, count)

    monkeypatch.setattr(certify, "_CHUNK_ROWS", rows)
    monkeypatch.setattr(certify, "_ball_points", counted)
    report = check_kl(make_quadratic([1.0]), [0.0], 1.0, 0.5, HolderFunction(SQRT2, 0.5))
    assert report.checked == 200
    assert len(draws) == math.ceil(report.trials / rows)
    assert sum(draws) - draws[-1] < report.trials <= sum(draws)


@pytest.mark.parametrize("r", [math.inf, math.nan, 0.0])
def test_sampler_rejects_a_radius_that_is_not_positive_and_finite(r, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew points for a bad radius")

    monkeypatch.setattr(certify, "_ball_points", no_draws)
    phi = HolderFunction(SQRT2, 0.5)
    for check in (lambda: check_kl(make_quadratic([1.0]), [0.0], r, 0.5, phi),
                  lambda: certify_growth_direct(make_quadratic([1.0]), [0.0], r, 0.5, phi),
                  lambda: check_moreau_exponent(make_abs_value(), 1.0, [0.0], r)):
        with pytest.raises(InvalidInputError, match="r must be positive and finite"):
            check()


@pytest.mark.parametrize("d", [1, 2, 5])
def test_ball_points_are_uniform(d):
    n = 20_000
    center = np.linspace(-1.0, 2.0, d)
    radius = 1.5
    points, drawn = certify._ball_points(np.random.default_rng(11), center, radius, n)
    assert points.shape == (n, d) and drawn.all()
    radii = np.linalg.norm(points - center, axis=1) / radius
    assert radii.max() <= 1.0 + 1e-12
    # a uniform point of the d-ball has (|x - c| / r)^d uniform on (0, 1)
    u = np.sort(radii ** d)
    ranks = np.arange(1, n + 1) / n
    ks = max(np.max(ranks - u), np.max(u - (ranks - 1.0 / n)))
    assert ks < 1.63 / math.sqrt(n)
    assert np.all(np.abs(points.mean(axis=0) - center) < 0.03)


@pytest.mark.parametrize("d", [1, 4096])
def test_ball_points_drawn_together_equal_drawn_one_by_one(d):
    center = np.full(d, 0.25)
    together, drawn = certify._ball_points(np.random.default_rng(5), center, 2.0, 50)
    rng = np.random.default_rng(5)
    single = [certify._ball_points(rng, center, 2.0, 1) for _ in range(50)]
    assert np.array_equal(together, np.vstack([p for p, _ in single]))
    assert np.array_equal(drawn, np.concatenate([m for _, m in single]))


def test_growth_direct_abs_value_with_slop_factor():
    report = certify_growth_direct(make_abs_value(), [0.0], 1.0, 0.5,
                                   HolderFunction(2.0, 1.0))
    assert report.violations == 0
    assert report.worst_ratio == pytest.approx(0.5)


def test_growth_direct_quadratic_is_tight():
    report = certify_growth_direct(make_quadratic([1.0]), [0.0], 1.0, 0.5,
                                   HolderFunction(SQRT2, 0.5))
    assert report.violations == 0
    assert report.worst_ratio == pytest.approx(1.0)


def test_growth_direct_witness_reproduces_worst_ratio():
    obj = make_quadratic([1.0, 10.0])
    phi = HolderFunction(SQRT2, 0.5)
    report = certify_growth_direct(obj, [0.0, 0.0], 1.0, 0.5, phi)
    w = np.asarray(report.witness)
    ratio = obj.distance(w) / phi(obj.value(w) - 0.0)
    assert ratio == pytest.approx(report.worst_ratio, rel=1e-12)
    assert report.violations == 0


def test_growth_direct_detects_wrong_gauge_on_quartic():
    obj = make_power(4.0, 1, 2.0)
    bad = certify_growth_direct(obj, [0.0], 1.0, 0.2, HolderFunction(1.0, 0.5))
    assert bad.violations > 0
    # Matching the quartic's own exponent restores the bound: with
    # phi(t) = sqrt(2) t^(1/4) the two sides agree exactly.
    good = certify_growth_direct(obj, [0.0], 1.0, 0.2,
                                 HolderFunction(SQRT2, 0.25))
    assert good.violations == 0
    assert good.worst_ratio == pytest.approx(1.0)


def test_growth_direct_requires_a_solution_oracle():
    bare = Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2)
    with pytest.raises(CapabilityError) as excinfo:
        certify_growth_direct(bare, [0.0], 1.0, 0.5, HolderFunction(1.0, 0.5))
    assert excinfo.value.missing == "solution_oracle"


def test_growth_via_ppa_quadratic_slacks():
    obj = make_quadratic([1.0])
    phi = HolderFunction(SQRT2, 0.5)
    taus = [1.0, 0.1, 0.01]
    report = certify_growth_via_ppa(obj, [2.0], phi, taus)
    assert report.violations == 0
    assert report.checked == 3
    # gap0 = 2 and dist = 2, so the slack reduces to 4 sqrt(tau) + 2.
    for row, tau in zip(report.per_tau, taus):
        assert row["tau"] == tau
        assert row["slack"] == pytest.approx(4.0 * math.sqrt(tau) + 2.0)
        assert row["path_length"] <= row["bound"] + 1e-9
    assert report.fitted is None


def test_growth_via_ppa_counts_only_path_bound_breaks():
    # phi(t) = c * sqrt(t) is a true growth gauge of lam / 2 * x^2 iff
    # c >= sqrt(2 / lam). The two fixed cases are true gauges whose slacks
    # differ from their closed form by rounding alone.
    cases = [(1.0, 2.0, [1e-30, 1e-31], SQRT2, 3), (1.0, 2.0, [1e-14, 1e-16], 1e8, 3)]
    rng = np.random.default_rng(2)
    for _ in range(500):
        lam, x = rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])
        taus = sorted(set(10.0 ** -rng.uniform(0.0, 20.0, size=rng.integers(2, 5))))
        c = math.sqrt(2.0 / lam) * 10.0 ** rng.uniform(-2.0, 8.0)
        cases.append((lam, x, taus, c, 20))
    for lam, x, taus, c, steps in cases:
        report = certify_growth_via_ppa(make_quadratic([lam]), [x], HolderFunction(c, 0.5),
                                        taus, steps)
        broken = sum(row["path_length"] > row["bound"] + 1e-9 for row in report.per_tau)
        assert report.violations == broken <= report.checked
        if c >= math.sqrt(2.0 / lam):
            assert report.violations == 0, (lam, x, taus, c)


def test_growth_via_ppa_from_minimizer_is_trivial():
    report = certify_growth_via_ppa(make_quadratic([1.0]), [0.0],
                                    HolderFunction(SQRT2, 0.5), [1.0, 0.1])
    assert report.violations == 0
    for row in report.per_tau:
        assert row["path_length"] == 0.0
        assert row["slack"] == pytest.approx(0.0)


def test_growth_via_ppa_abs_value():
    report = certify_growth_via_ppa(make_abs_value(), [2.5],
                                    HolderFunction(1.0, 1.0), [1.0, 0.5])
    assert report.violations == 0
    for row in report.per_tau:
        slack = 2.0 * math.sqrt(2.0 * row["tau"] * 2.5) + 5.0 - 2.5
        assert row["slack"] == pytest.approx(slack)


def test_growth_via_ppa_proxy_mode_notes_missing_oracle():
    obj = Objective(
        dim=1,
        value_fn=lambda x: 0.5 * float(x[0]) ** 2,
        gradient_fn=lambda x: x,
        lipschitz=1.0,
        min_value=0.0,
        prox_fn=lambda lam, x: x / (1.0 + lam),
    )
    report = certify_growth_via_ppa(obj, [2.0], HolderFunction(SQRT2, 0.5),
                                    [1.0, 0.1])
    assert report.notes
    assert report.fitted is None


def test_growth_via_ppa_input_validation():
    obj = make_quadratic([1.0])
    phi = HolderFunction(SQRT2, 0.5)
    with pytest.raises(InvalidInputError):
        certify_growth_via_ppa(obj, [1.0], phi, [])
    with pytest.raises(InvalidInputError):
        certify_growth_via_ppa(obj, [1.0], phi, [1.0, -0.5])
    with pytest.raises(InvalidInputError):
        certify_growth_via_ppa(obj, [1.0], phi, [1.0], num_steps=0)
    no_min = Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2,
                       prox_fn=lambda lam, x: x / (1.0 + 2.0 * lam))
    with pytest.raises(CapabilityError) as excinfo:
        certify_growth_via_ppa(no_min, [1.0], phi, [1.0])
    assert excinfo.value.missing == "min_value"


def test_fit_growth_exponent_recovers_exact_power_laws():
    gaps = np.logspace(-3, 0, 24)
    for alpha in (0.25, 0.5):
        samples = [(g, g ** alpha) for g in gaps]
        c, a, resid = fit_growth_exponent(samples)
        assert a == pytest.approx(alpha, abs=1e-6)
        assert c == pytest.approx(1.0, rel=1e-6)
        assert resid < 1e-10


def test_fit_growth_exponent_two_point_clusters():
    e = math.e
    samples = [(1.0, 1.0)] * 4 + [(e, e)] * 4
    c, a, resid = fit_growth_exponent(samples)
    assert a == pytest.approx(1.0)
    assert c == pytest.approx(1.0)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_fit_growth_exponent_validation():
    with pytest.raises(InvalidInputError):
        fit_growth_exponent([(1.0, 1.0)] * 7)
    with pytest.raises(InvalidInputError):
        fit_growth_exponent([(1.0, 1.0)] * 7 + [(0.0, 1.0)])
    with pytest.raises(InvalidInputError):
        fit_growth_exponent([(1.0, 1.0)] * 7 + [(1.0, -2.0)])
    # one gap eight times leaves no slope to fit
    with pytest.raises(InvalidInputError, match="two distinct abscissae"):
        fit_growth_exponent([(2.0, 1.0)] * 8)


def test_moreau_exponent_with_one_distinct_gap_is_an_input_error():
    # a unit ball around 2^52 holds only the floats 2^52 - 1, 2^52 and 2^52 + 1,
    # so every kept sample has one envelope gap and no exponent can be fitted
    with pytest.raises(InvalidInputError, match="two distinct abscissae"):
        check_moreau_exponent(make_quadratic([1.0]), 1.0, [2.0 ** 52], 1.0, num_samples=8)


@settings(deadline=None, max_examples=60)
@given(scale=st.floats(0.1, 10.0))
def test_fit_growth_exponent_distance_scaling(scale):
    gaps = np.logspace(-2, 0, 12)
    base = [(g, g ** 0.5) for g in gaps]
    scaled = [(g, scale * d) for g, d in base]
    c0, a0, _ = fit_growth_exponent(base)
    c1, a1, _ = fit_growth_exponent(scaled)
    assert a1 == pytest.approx(a0, abs=1e-9)
    assert c1 / c0 == pytest.approx(scale, rel=1e-9)


def test_moreau_exponent_certifies_builtin_objectives():
    # Smoothing caps the exponent at 1/2; the quartic keeps its 1/4.
    quartic = check_moreau_exponent(make_power(4.0, 1, 2.0), 1.0, [0.0], 0.3)
    assert quartic.violations == 0
    assert quartic.fitted[1] == pytest.approx(0.25, abs=0.05)

    sharp = check_moreau_exponent(make_abs_value(), 1.0, [0.0], 0.5)
    assert sharp.violations == 0
    assert sharp.fitted[1] == pytest.approx(0.5, abs=0.05)

    smooth = check_moreau_exponent(make_quadratic([1.0, 10.0]), 1.0,
                                   [0.0, 0.0], 0.5)
    assert smooth.violations == 0
    assert smooth.fitted[1] == pytest.approx(0.5, abs=0.05)


def test_moreau_exponent_capability_and_validation():
    no_exponent = Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2,
                            solution_oracle=lambda x: abs(float(x[0])),
                            prox_fn=lambda lam, x: x / (1.0 + 2.0 * lam))
    with pytest.raises(CapabilityError) as excinfo:
        check_moreau_exponent(no_exponent, 1.0, [0.0], 0.5)
    assert excinfo.value.missing == "growth_exponent"

    no_oracle = Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2,
                          growth_exponent=0.5,
                          prox_fn=lambda lam, x: x / (1.0 + 2.0 * lam))
    with pytest.raises(CapabilityError) as excinfo:
        check_moreau_exponent(no_oracle, 1.0, [0.0], 0.5)
    assert excinfo.value.missing == "solution_oracle"

    obj = make_abs_value()
    with pytest.raises(InvalidInputError):
        check_moreau_exponent(obj, 0.0, [0.0], 0.5)
    with pytest.raises(InvalidInputError):
        check_moreau_exponent(obj, 1.0, [0.0], -0.5)
    with pytest.raises(InvalidInputError):
        check_moreau_exponent(obj, 1.0, [0.0], 0.5, num_samples=7)


@pytest.mark.parametrize("delta0, c, theta, message", [
    (math.nan, 0.1, 2.0, "delta0 must lie in [0, inf)"),
    (1.0, 0.1, math.inf, "theta must lie in (1, inf)"),
    (0.0, math.inf, 2.0, "c must be positive and finite"),
    (1.0, math.nan, 2.0, "c must be positive and finite"),
], ids=["nan-0.1-2.0", "1.0-0.1-inf", "0.0-inf-2.0", "1.0-nan-2.0"])
def test_recursive_rate_rejects_non_finite_inputs(delta0, c, theta, message):
    with pytest.raises(InvalidInputError) as excinfo:
        verify_recursive_rate(delta0, c, theta, 100)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("check", [
    lambda: HolderFunction(math.inf, 0.5),
    lambda: check_moreau_exponent(make_abs_value(), math.inf, [0.0], 0.5),
    lambda: certify_growth_via_ppa(make_quadratic([1.0]), [1.0], HolderFunction(1.0, 0.5),
                                   [1.0, math.inf]),
    lambda: certify_growth_via_ppa(make_quadratic([1.0]), [1.0], HolderFunction(1.0, 0.5),
                                   [math.nan]),
], ids=["phi-c", "lam", "tau-inf", "tau-nan"])
def test_non_finite_constants_are_rejected(check):
    with pytest.raises(InvalidInputError, match="finite"):
        check()


def test_recursive_rate_trivial_at_zero():
    report = verify_recursive_rate(0.0, 0.5, 2.0, 100)
    assert report.violations == 0
    assert report.worst_ratio == 0.0
    assert report.checked == 101


@pytest.mark.parametrize("theta,c", [(2.0, 0.1), (3.0, 0.01), (1.5, 0.2)])
def test_recursive_rate_envelope_holds(theta, c):
    report = verify_recursive_rate(1.0, c, theta, 2000)
    assert report.violations == 0
    assert report.checked == 2001
    c_tilde, slope, _ = report.fitted
    assert c_tilde > 0
    assert slope < 0


def test_recursive_rate_known_envelope_constant():
    report = verify_recursive_rate(1.0, 0.1, 2.0, 10_000)
    c_tilde, slope, _ = report.fitted
    assert c_tilde == pytest.approx(9.98, abs=0.05)
    assert slope == pytest.approx(-1.0, abs=0.05)
    assert report.violations == 0


def test_recursive_rate_counts_terms_above_the_closed_form_bound(monkeypatch):
    # a sequence that decays with c / 10 lies above the bound for c at every k > 0
    damped = certify._damped_sequence
    monkeypatch.setattr(certify, "_damped_sequence",
                        lambda delta0, c, theta, n: damped(delta0, c / 10.0, theta, n))
    report = verify_recursive_rate(1.0, 0.1, 2.0, 2000)
    assert report.checked == 2001
    assert report.violations == 2000
    assert report.worst_ratio > 1.0
    assert report.worst_ratio == pytest.approx(9.5575, abs=1e-4)
    assert report.witness == [2000.0]


@pytest.mark.parametrize("delta0, c, theta, num_steps, worst, witness", [
    (1.0, 0.1, 2.0, 10000, 0.999305, 10000.0),
    (0.5, 0.9, 3.0, 10000, 0.999675, 10000.0),
    (2.0, 0.01, 1.5, 10000, 0.999849, 1.0),
    # every term past k = 0 lies below the smallest normal float
    (1e-310, 0.5, 2.0, 10, 0.0, 0.0),
])
def test_recursive_rate_worst_ratio_is_the_largest_term_over_its_bound(delta0, c, theta,
                                                                       num_steps, worst,
                                                                       witness):
    report = verify_recursive_rate(delta0, c, theta, num_steps)
    assert report.violations == 0
    assert report.worst_ratio == pytest.approx(worst, abs=1e-6)
    assert report.witness == [witness]


@pytest.mark.parametrize("delta0, c, theta, num_steps", [
    (1e-300, 0.99, 1.01, 3000),  # (1 + k)^100 overflows from k = 1209
    (1.0, 0.5, 1.0 + 1e-7, 2000),  # (1 + k)^(1e7) overflows from k = 1
])
def test_recursive_rate_near_theta_one_counts_terms_above_the_bound(monkeypatch, delta0, c,
                                                                   theta, num_steps):
    damped = certify._damped_sequence
    monkeypatch.setattr(certify, "_damped_sequence",
                        lambda delta0, c, theta, n: damped(delta0, c / 10.0, theta, n))
    report = verify_recursive_rate(delta0, c, theta, num_steps)
    assert report.checked == num_steps + 1
    assert report.violations == num_steps
    assert report.fitted[0] is None


def test_recursive_rate_validation():
    with pytest.raises(InvalidInputError):
        verify_recursive_rate(-1.0, 0.5, 2.0, 10)
    with pytest.raises(InvalidInputError):
        verify_recursive_rate(1.0, 0.0, 2.0, 10)
    with pytest.raises(InvalidInputError):
        verify_recursive_rate(1.0, 0.5, 1.0, 10)
    with pytest.raises(InvalidInputError):
        verify_recursive_rate(1.0, 0.5, 2.0, 0)
    # c * delta0^(theta-1) = 1 would freeze the sequence at zero or
    # overshoot; the generator refuses it.
    with pytest.raises(InvalidInputError):
        verify_recursive_rate(1.0, 1.0, 2.0, 10)



def _numpy_damped_sequence(delta0, c, theta, num_steps):
    # the recursion on numpy float64 scalars, as verify_recursive_rate ran it
    # before it moved to Python floats
    deltas = np.empty(num_steps + 1)
    deltas[0] = delta0
    with np.errstate(all="ignore"):
        for k in range(num_steps):
            deltas[k + 1] = deltas[k] - c * deltas[k] ** theta
    return deltas


def _rate_grid():
    # c from a fraction of the contraction limit delta0^(1 - theta); the
    # fractions next to 1 let rounding push a term below zero
    for delta0 in (5e-324, 1e-310, 1e-160, 1e-5, 0.3, 1.0, 7.0, 1e100, 1e200):
        for theta in (1.01, 1.5, 2.0, 2.5, 3.0, 7.0):
            for fraction in (1e-300, 1e-6, 0.1, 0.5, 0.9, 1 - 2.0 ** -50, 1 - 2.0 ** -52):
                with np.errstate(all="ignore"):
                    c = float(fraction * np.float64(delta0) ** (1.0 - theta))
                if 0.0 < c < math.inf and c * delta0 ** (theta - 1.0) < 1.0:
                    yield delta0, c, theta
    yield 1e200, 5e-324, 2.5  # delta0^theta overflows


def test_float_recursion_is_bitwise_the_numpy_recursion():
    seen = set()
    for delta0, c, theta in _rate_grid():
        expected = _numpy_damped_sequence(delta0, c, theta, 60)
        bad = np.flatnonzero(~((expected >= 0.0) & (expected < math.inf)))
        if bad.size:
            seen.add("failure")
            with pytest.raises(NumericalFailureError) as exc:
                certify._damped_sequence(delta0, c, theta, 60)
            assert exc.value.iteration == bad[0]
            continue
        got = np.array(certify._damped_sequence(delta0, c, theta, 60))
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), \
            (delta0, c, theta)
        if delta0 ** theta == 0.0:
            seen.add("underflow to 0")
        if np.any((expected > 0.0) & (expected < np.finfo(float).tiny)):
            seen.add("subnormal")
    assert seen == {"failure", "underflow to 0", "subnormal"}


@pytest.mark.parametrize("delta0, c, theta, step", [
    (1e200, 5e-324, 2.5, 1),  # delta0^theta overflows
    (27.627970272216086, 0.19025036996588998, 1.5, 1),  # rounds below zero
], ids=["overflow", "negative"])
def test_recursive_rate_that_leaves_the_float_range_is_a_numerical_failure(delta0, c, theta,
                                                                            step):
    with pytest.raises(NumericalFailureError) as exc:
        verify_recursive_rate(delta0, c, theta, 20)
    assert exc.value.iteration == step

def _trace_with_dist(dists):
    records = [IterationRecord(k=k, fval=1.0, gap=1.0, gnorm=1.0, alpha=0.5,
                               beta=0.0, step_norm=0.0, dist=d)
               for k, d in enumerate(dists)]
    return Trace(records=records)


def test_fit_rate_linear_recovers_contraction_factor():
    trace = _trace_with_dist([0.9 ** k for k in range(40)])
    rho, resid = fit_rate_from_trace(trace, "linear")
    assert rho == pytest.approx(0.9, abs=1e-9)
    assert resid < 1e-10


def test_fit_rate_power_recovers_exponent():
    trace = _trace_with_dist([(k + 1.0) ** -0.5 for k in range(60)])
    exponent, resid = fit_rate_from_trace(trace, "power")
    assert exponent == pytest.approx(-0.5, abs=1e-9)
    assert resid < 1e-10


def test_fit_rate_window_excludes_burn_in():
    # Burn-in plateau followed by clean geometric decay; the window
    # isolates the tail.
    dists = [1.0] * 10 + [0.8 ** k for k in range(30)]
    trace = _trace_with_dist(dists)
    rho, _ = fit_rate_from_trace(trace, "linear", k_min=10)
    assert rho == pytest.approx(0.8, abs=1e-9)
    mixed, _ = fit_rate_from_trace(trace, "linear")
    assert abs(mixed - 0.8) > 1e-3


def test_fit_rate_needs_enough_positive_records():
    trace = _trace_with_dist([0.9 ** k for k in range(40)])
    with pytest.raises(InvalidInputError):
        fit_rate_from_trace(trace, "linear", k_min=35)
    with pytest.raises(InvalidInputError):
        fit_rate_from_trace(trace, "geometric")

    sparse = _trace_with_dist([1.0, 0.9, 0.8, None, None, None, None, 0.5])
    with pytest.raises(InvalidInputError):
        fit_rate_from_trace(sparse, "linear")


def test_report_json_dict_round_trips_extras():
    report = CertReport(checked=3, violations=0, worst_ratio=0.5,
                        witness=[1.0], fitted=(2.0, 0.5, 1e-12),
                        per_tau=[{"tau": 1.0}], notes=("proxy",), trials=7)
    out = report.to_json_dict()
    assert out["trials"] == 7
    assert out["fitted"] == {"C": 2.0, "alpha": 0.5, "residual": 1e-12}
    assert out["per_tau"] == [{"tau": 1.0}]
    assert out["notes"] == ["proxy"]

    plain = CertReport(checked=1, violations=0, worst_ratio=0.0, witness=[0.0])
    out = plain.to_json_dict()
    assert "per_tau" not in out and "notes" not in out and "trials" not in out
    assert out["fitted"] is None


def _certify_suite_argvs(seed):
    """The certify commands of one round of the certify-suite benchmark
    workload, with its per-command sampling seeds drawn from ``seed``."""
    rng = random.Random(f"certify-suite/{seed}")
    seeds = [str(rng.randrange(2 ** 31)) for _ in range(5)]
    quad = ("--problem", "quadratic", "--params", '{"spectrum": [1.0, 10.0]}')
    band = ("--r", "1", "--eta", "0.05", "--phi-alpha", "0.5", "--samples", "2000")
    return [
        ("kl", *quad, *band, "--phi-c", repr(SQRT2), "--seed", seeds[0]),
        ("kl", *quad, *band, "--phi-c", "1", "--seed", seeds[1]),
        ("growth", *quad, *band, "--phi-c", repr(SQRT2), "--seed", seeds[2]),
        ("growth-ppa", "--problem", "quadratic", "--params", '{"spectrum": [1.0]}',
         "--x", "[2.0]", "--tau-list", "1,0.1,0.01", "--steps", "200"),
        ("moreau", "--problem", "abs_value", "--seed", seeds[3]),
        ("moreau", "--problem", "quadratic", "--params", '{"spectrum": [1.0, 2.0]}',
         "--seed", seeds[4]),
        ("rate", "--delta0", "1", "--c", "0.1", "--theta", "2"),
    ]


# SHA-256 over the exit code and stdout of each certify-suite command, as
# printed before the sampling checks shared one sampler and one judge loop;
# the two moreau reports as fitted by the one line fitter, ``trace.fit_line``;
# the growth-ppa report with ``fitted`` null, as it fits no power law; the
# rate report with ``worst_ratio`` read from the sequence, no longer 1.0.
CERTIFY_SUITE_DIGESTS = {
    1: "a1044ded9b24bbfe22676166a1cad245921b27c652453dec947eaad0b5d56f74",
    2: "44bfa1c115c767dc466572bb138e104d813c7d78a4bad6eae3d82675b10e2b00",
    3: "ef7d9d1184e076f0a3d690b86ff74b18bd10869f8765d7fe1fef69dd83aec869",
    4: "9c95f847c1b3df18ea864dcbab5f75ba65e822907af92ea62b5c42f00e998247",
}


@pytest.mark.parametrize("seed", sorted(CERTIFY_SUITE_DIGESTS))
def test_certify_suite_reports_are_golden(seed, capsys):
    digest = hashlib.sha256()
    for argv in _certify_suite_argvs(seed):
        code = main(["certify", *argv])
        digest.update(f"{code}\0{capsys.readouterr().out}\0".encode())
    assert digest.hexdigest() == CERTIFY_SUITE_DIGESTS[seed]


# SHA-256 of the sorted-key JSON report, taken with the same reference; the
# moreau report with power's exact prox, whose C and residual moved in their
# last digits from the former inner gradient solve.
POWER_REPORT_DIGESTS = {
    "kl": "410fd24d26744ccaffd3abdf6b3fc7d041e61602f7a100d83eb17177503f7fcb",
    "kl-at-cap": "c097bbbfbb10d6ea2b9aba1e0eb3a316f3c0c1137222e96daea303f65c6e5c4d",
    "moreau": "fa90e1ef840d24dc2a5b20bce8b9316e0684be1c0d338906314e801104d0c502",
}


def test_power_objective_reports_are_golden():
    power, phi = make_power(4.0, 2, 2.0), HolderFunction(SQRT2, 0.25)
    reports = {
        "kl": check_kl(power, [0.0, 0.0], 1.0, 0.2, phi, num_samples=300, seed=11),
        "kl-at-cap": check_kl(power, [0.0, 0.0], 1.0, 1e-6, phi, num_samples=50, seed=12),
        "moreau": check_moreau_exponent(power, 1.0, [0.0, 0.0], 0.3, seed=13),
    }
    assert reports["kl-at-cap"].trials == 5000
    digests = {name: hashlib.sha256(json.dumps(report.to_json_dict(),
                                               sort_keys=True).encode()).hexdigest()
               for name, report in reports.items()}
    assert digests == POWER_REPORT_DIGESTS


TINY = float(np.finfo(float).tiny)


@st.composite
def _batched_objectives(draw):
    kind = draw(st.sampled_from(["quadratic", "power", "abs_value"]))
    if kind == "abs_value":
        return make_abs_value()
    d = draw(st.integers(1, 64))
    if kind == "quadratic":
        return make_quadratic(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    return make_power(draw(st.floats(2.0, 20.0)), d, 1.0)


def _exact_slopes(obj, points):
    if obj.gradient_fn is not None:
        return np.array([np.linalg.norm(obj.gradient_fn(x)) for x in points])
    return np.array([obj.subgrad_min_norm(x) for x in points])


@settings(deadline=None, max_examples=100)
@given(obj=_batched_objectives(), data=st.data())
def test_batched_values_are_within_the_screen_slack_and_keep_every_slice_row(obj, data):
    points = data.draw(arrays(np.float64, (data.draw(st.integers(1, 8)), obj.dim),
                              elements=st.floats(-50.0, 50.0)))
    xbar = data.draw(arrays(np.float64, obj.dim, elements=st.floats(-50.0, 50.0)))
    exact = np.array([obj.value_fn(x) for x in points])
    for name, oracle in [("values_fn", exact), ("slopes_fn", _exact_slopes(obj, points)),
                         ("distances_fn", np.array([obj.distance(x) for x in points]))]:
        batched = obj.shortcut(name)(points)
        close = np.abs(batched - oracle) <= 1e-10 * np.abs(oracle) + TINY
        assert np.all(close | (~np.isfinite(batched) & (name != "values_fn"))), name

    # put fbar just below one row's value or eta just past one row's gap, so
    # that row sits at an edge of the slice
    fbar = data.draw(st.sampled_from(
        [obj.value(xbar)] + [float(np.nextafter(v, -math.inf)) for v in exact]))
    gaps = exact - fbar
    edges = [float(np.nextafter(g, math.inf)) for g in gaps if g > 0]
    eta = data.draw(st.sampled_from(edges) if edges else st.floats(1e-6, 1e3))
    _, _, inside, undecided = certify._slice_rows(obj.shortcut("values_fn"), points,
                                                  fbar, eta)
    in_slice = (gaps > 0) & (gaps < eta)
    assert np.all(in_slice[inside])
    assert np.all((inside | undecided)[in_slice])


def _slice_checks(seed):
    """(objective, check) pairs: level-slice checks on each built-in with
    batched oracles, three of them with a gauge the samples break. The last
    stops at the trial cap."""
    phi, linear = HolderFunction(SQRT2, 0.5), HolderFunction(1.0, 1.0)
    root = HolderFunction(1.0, 0.5)
    # on [1] every kl product is c / sqrt(2) = 1 - 1.5e-9, which breaks the
    # inequality by less than the batched ratios' error bound
    near = HolderFunction(SQRT2 * (1.0 - 1.5e-9), 0.5)
    quadratic = make_quadratic([1.0, 10.0])
    return [
        (make_quadratic([1.0]), lambda o: check_kl(o, [0.0], 1.0, 0.5, near, num_samples=100,
                                                   seed=seed)),
        (quadratic, lambda o: check_kl(o, [0.0, 0.0], 1.0, 0.05, phi, num_samples=100,
                                       seed=seed)),
        (quadratic, lambda o: certify_growth_direct(o, [0.5, 0.0], 1.0, 0.5, phi,
                                                    num_samples=100, seed=seed)),
        (quadratic, lambda o: check_kl(o, [0.0, 0.0], 1.0, 0.05, root, num_samples=100,
                                       seed=seed)),
        (quadratic, lambda o: certify_growth_direct(o, [0.3, -0.2], 1.0, 0.5, root,
                                                    num_samples=100, seed=seed)),
        (make_power(4.0, 2, 2.0),
         lambda o: check_kl(o, [0.0, 0.0], 1.0, 0.2, HolderFunction(SQRT2, 0.25),
                            num_samples=100, seed=seed)),
        (make_abs_value(), lambda o: check_kl(o, [0.3], 1.0, 0.5, linear, num_samples=100,
                                              seed=seed)),
        (make_abs_value(), lambda o: certify_growth_direct(o, [0.0], 2.0, 0.5, linear,
                                                           num_samples=100, seed=seed)),
        (make_quadratic([1.0, 100.0]),
         lambda o: check_kl(o, [0.0, 0.0], 1.0, 1e-2, phi, num_samples=50, seed=seed)),
    ]


_BATCHED = ("values_fn", "slopes_fn", "distances_fn")


@pytest.mark.parametrize("seed", range(10))
def test_screened_reports_equal_unscreened_reports(seed):
    violated = 0
    for obj, check in _slice_checks(seed):
        assert all(obj.shortcut(name) is not None for name in _BATCHED)
        screened = check(obj).to_json_dict()
        unscreened = check(dataclasses.replace(obj, **dict.fromkeys(_BATCHED))).to_json_dict()
        assert json.dumps(screened, sort_keys=True) == json.dumps(unscreened, sort_keys=True)
        violated += screened["violations"] > 0
    assert screened["trials"] == 5000
    assert violated >= 3


def test_rows_within_their_error_bound_of_the_limit_take_the_exact_judge():
    # every ratio breaks the limit, most of them by less than their error
    # bound, so only the exact judge can count those rows
    limit = 1.0 + 1e-9
    near = limit * (1.0 + 1e-11)
    judged = []

    def judge(x, gap):
        judged.append(x)
        return (2.0 if x[0] > 0.9 else near), True

    def ratios(xs, gaps):
        return np.where(xs[:, 0] > 0.9, 2.0, near)

    report = certify._slice_check(make_quadratic([1.0, 10.0]), [0.0, 0.0], 1.0, 0.5, 200, 5,
                                  judge, ratios, -0.5, limit)
    assert report.worst_ratio == 2.0 and near < 2.0
    assert report.violations == report.checked == len(judged) == 200


def test_slice_check_evaluates_no_undecided_row_past_its_last_sample(monkeypatch):
    # a batched value oracle with no answer on every other row leaves those
    # rows undecided, among rows it places inside the slice
    obj = _counted_quadratic()
    values = obj.values_fn

    def patchy(xs):
        v = values(xs)
        v[1::2] = np.nan
        return v

    patchy.partners = values.partners
    obj = dataclasses.replace(obj, values_fn=patchy)
    masks = _recorded_undecided(monkeypatch)
    phi = HolderFunction(SQRT2, 0.5)
    report = check_kl(obj, [0.0, 0.0], 1.0, 0.05, phi, num_samples=300, seed=3)
    assert report.checked == 300
    undecided = _consumed(masks, report.trials)
    assert undecided > report.trials / 3
    assert undecided + 1 <= obj.value_fn.calls <= undecided + 1 + obj.gradient_fn.calls
    stripped = dataclasses.replace(make_quadratic([1.0, 10.0]), **dict.fromkeys(_BATCHED))
    assert report == check_kl(stripped, [0.0, 0.0], 1.0, 0.05, phi, num_samples=300, seed=3)


def _counted(fn):
    def counted(x):
        counted.calls += 1
        return fn(x)

    counted.calls = 0
    return counted


def test_screen_leaves_few_per_row_value_calls_on_the_suite_kl_command():
    # the suite's first kl command: quadratic [1, 10], r 1, eta 0.05, 2000 samples
    seed = int(_certify_suite_argvs(1)[0][-1])
    obj = make_quadratic([1.0, 10.0])
    value = _counted(obj.value_fn)

    def values(xs):
        return obj.values_fn(xs)

    values.partners = (value,)
    report = check_kl(dataclasses.replace(obj, value_fn=value, values_fn=values),
                      [0.0, 0.0], 1.0, 0.05, HolderFunction(SQRT2, 0.5),
                      num_samples=2000, seed=seed)
    assert report.checked == 2000 and report.trials > 30 * report.checked
    assert value.calls < 2 * report.checked + 1


def test_replaced_value_oracle_is_called_once_per_trial():
    obj = make_quadratic([1.0, 10.0])
    value = _counted(obj.value_fn)
    replaced = dataclasses.replace(obj, value_fn=value)
    assert replaced.shortcut("values_fn") is None
    report = check_kl(replaced, [0.0, 0.0], 1.0, 0.05, HolderFunction(SQRT2, 0.5),
                      num_samples=200, seed=3)
    assert value.calls == report.trials + 1  # one more for f(xbar)


def test_kl_flags_a_product_a_millionth_below_one():
    # on quadratic [1], phi = c t^(1/2) gives the KL product c / sqrt(2) at every point
    report = check_kl(make_quadratic([1.0]), [0.0], 1.0, 0.5,
                      HolderFunction(SQRT2 * (1.0 - 1e-6), 0.5), num_samples=50, seed=1)
    assert report.checked == report.violations == 50
    assert report.worst_ratio == pytest.approx(1.0 / (1.0 - 1e-6), rel=1e-12)


def test_moreau_exponent_flags_an_exponent_a_tenth_off():
    # x^2 / 2 with its own prox: the envelope x^2 / (2 (1 + lam)) grows with
    # exponent 1/2, where the objective claims 0.4
    obj = Objective(dim=1, value_fn=lambda x: 0.5 * float(x[0]) ** 2,
                    solution_oracle=lambda x: abs(float(x[0])),
                    prox_fn=lambda lam, x: x / (1.0 + lam), growth_exponent=0.4)
    report = check_moreau_exponent(obj, 1.0, [0.0], 1.0, num_samples=20)
    assert (report.checked, report.violations) == (20, 1)
    assert report.witness[0] == pytest.approx(0.5, abs=1e-9)
    assert report.worst_ratio == pytest.approx(2.0, abs=1e-6)


def test_moreau_exponent_skips_infinite_envelope_gaps():
    # points ~1e300 away square to an infinite envelope gap, which has no
    # logarithm to fit; their distance stays finite
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EmptyRegionError, match="only 0 usable envelope samples"):
            check_moreau_exponent(make_quadratic([1.0]), 1.0, [0.0], 1e300, num_samples=20)


def _counted_quadratic():
    """quadratic [1, 10] whose value, gradient, distance and prox oracles
    count their calls; the batched oracles stay partners of the counted
    oracles, so the slice checks still use them."""
    obj = make_quadratic([1.0, 10.0])
    value, gradient, distance = (_counted(obj.value_fn), _counted(obj.gradient_fn),
                                 _counted(obj.solution_oracle))

    def values(xs):
        return obj.values_fn(xs)

    def slopes(xs):
        return obj.slopes_fn(xs)

    def distances(xs):
        return obj.distances_fn(xs)

    def prox(lam, x):
        prox.calls += 1
        return obj.prox_fn(lam, x)

    values.partners, slopes.partners, distances.partners = (value,), (gradient, None), (distance,)
    prox.calls = 0
    return dataclasses.replace(obj, value_fn=value, gradient_fn=gradient,
                               solution_oracle=distance, values_fn=values, slopes_fn=slopes,
                               distances_fn=distances, prox_fn=prox)


def _recorded_undecided(monkeypatch):
    """Record the mask of undecided rows ``_slice_rows`` returns, one per chunk."""
    masks, place = [], certify._slice_rows

    def slice_rows(*args):
        placed = place(*args)
        masks.append(placed[3].copy())
        return placed

    monkeypatch.setattr(certify, "_slice_rows", slice_rows)
    return masks


def _consumed(masks, trials):
    # undecided rows among the first ``trials`` rows, which the sampler consumed
    count, seen = 0, 0
    for mask in masks:
        count += int(np.count_nonzero(mask[:max(trials - seen, 0)]))
        seen += len(mask)
    return count


# the stops-at-count cases are the suite's kl-true and growth commands
@pytest.mark.parametrize("eta, samples", [(0.05, 2000), (1e-3, 40)],
                         ids=["stops-at-count", "stops-at-cap"])
@pytest.mark.parametrize("check", ["kl", "growth"])
def test_slice_checks_call_each_oracle_once_per_row_they_judge(check, eta, samples,
                                                             monkeypatch):
    seed = int(_certify_suite_argvs(1)[0 if check == "kl" else 2][-1]) if samples > 40 else 4
    xbar, phi = [0.0, 0.0], HolderFunction(SQRT2, 0.5)
    run = {"kl": lambda o: check_kl(o, xbar, 1.0, eta, phi, samples, seed=seed),
           "growth": lambda o: certify_growth_direct(o, xbar, 1.0, eta, phi,
                                                     num_samples=samples, seed=seed)}[check]
    masks = _recorded_undecided(monkeypatch)
    for batched in (True, False):
        obj = _counted_quadratic()
        if not batched:
            obj = dataclasses.replace(obj, **dict.fromkeys(_BATCHED))
        masks.clear()
        report = run(obj)
        assert report.checked == samples or report.trials == 100 * samples
        judge = obj.gradient_fn if check == "kl" else obj.solution_oracle
        unused = obj.solution_oracle if check == "kl" else obj.gradient_fn
        assert unused.calls == 0
        if not batched:
            # the per-row path: one value call per trial and one judge call
            # per kept row, plus one value call for f(xbar)
            assert obj.value_fn.calls == report.trials + 1
            assert judge.calls == report.checked
            continue
        undecided = _consumed(masks, report.trials)
        assert undecided < report.trials / 1000
        # one value call per undecided row, one for f(xbar), and one for the
        # exact gap of each exactly judged row that the batched gap placed
        assert undecided + 1 <= obj.value_fn.calls <= undecided + 1 + judge.calls
        assert 1 <= judge.calls <= max(1, report.checked // 100)


def test_moreau_exponent_calls_prox_once_per_trial_plus_once():
    obj = _counted_quadratic()
    report = check_moreau_exponent(obj, 1.0, [0.0, 0.0], 0.5, num_samples=50, seed=2)
    assert report.checked == 50
    assert obj.prox_fn.calls == report.trials + 1  # one more for the envelope at xbar
    assert obj.value_fn.calls == report.trials + 1
