import copy
import dataclasses
import fractions
import pickle

import numpy as np
import pytest

import ahbopt
from ahbopt import errors

INSTANCES = [
    errors.ToolkitError("base"),
    errors.InvalidSpecError("bad spec"),
    errors.InvalidInputError("bad input"),
    errors.CapabilityError("gradient_fn"),
    errors.CapabilityError("prox_fn", "no prox here"),
    errors.NumericalFailureError(5),
    errors.NumericalFailureError(7, "overflow at step 7"),
    errors.DeskScaleLimitError("too big"),
    errors.EmptyRegionError("empty"),
    errors.TraceParseError("bad header"),
    errors.TraceParseError("bad row", line=3),
]
ATTRIBUTES = ("iteration", "missing", "line")


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_instances_cover_every_toolkit_error():
    assert {type(e) for e in INSTANCES} == {errors.ToolkitError,
                                             *_all_subclasses(errors.ToolkitError)}
    assert all(getattr(ahbopt, type(e).__name__) is type(e) for e in INSTANCES)


@pytest.mark.parametrize("roundtrip", [
    lambda e: pickle.loads(pickle.dumps(e)),
    lambda e: pickle.loads(pickle.dumps(e, protocol=0)),
    copy.deepcopy,
], ids=["pickle", "pickle-protocol-0", "deepcopy"])
@pytest.mark.parametrize("err", INSTANCES, ids=repr)
def test_toolkit_errors_survive_a_round_trip(err, roundtrip):
    back = roundtrip(err)
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.args == err.args
    for name in ATTRIBUTES:
        assert getattr(back, name, None) == getattr(err, name, None)
        assert hasattr(back, name) == hasattr(err, name)


# each library count: its name, and a call with the value under test that is
# otherwise valid
COUNT_SITES = {
    "ppa_run": ("num_steps", lambda n: ahbopt.ppa_run(ahbopt.make_quadratic([1.0]), 1.0,
                                                       [2.0], n)),
    "check_kl": ("num_samples", lambda n: ahbopt.check_kl(
        ahbopt.make_quadratic([1.0]), [0.0], 1.0, 0.5, ahbopt.HolderFunction(1.0, 0.5),
        num_samples=n)),
    "check_moreau_exponent": ("num_samples", lambda n: ahbopt.check_moreau_exponent(
        ahbopt.make_quadratic([1.0]), 1.0, [0.0], 1.0, num_samples=n)),
    "certify_growth_via_ppa": ("num_steps", lambda n: ahbopt.certify_growth_via_ppa(
        ahbopt.make_quadratic([1.0]), [2.0], ahbopt.HolderFunction(1.0, 0.5), [1.0],
        num_steps=n)),
    "verify_recursive_rate": ("num_steps",
                              lambda n: ahbopt.verify_recursive_rate(1.0, 0.1, 2.0, n)),
    "lipschitz_estimate": ("iters", lambda n: ahbopt.lipschitz_estimate(
        ahbopt.make_least_squares(3, 2, [2.0, 1.0], 0), iters=n)),
}


@pytest.mark.parametrize("value", [2.5, True, float("nan")], ids=["fraction", "bool", "nan"])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_library_counts_must_be_integers(site, value):
    name, call = COUNT_SITES[site]
    with pytest.raises(errors.InvalidInputError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


_QUAD = ahbopt.make_quadratic([1.0])
_LSQ = ahbopt.make_least_squares(3, 2, [2.0, 1.0], 0)
_RADON = {"grid_n": 4, "num_angles": 3, "rays_per_angle": 5, "phantom": "disks"}

# each library count with a lower bound: a call with the value under test that
# is otherwise valid, the value just below the bound, and the message it raises
BOUNDED_COUNT_SITES = {
    "ppa_run": (COUNT_SITES["ppa_run"][1], -1, "num_steps must be nonnegative, got -1"),
    "check_kl": (COUNT_SITES["check_kl"][1], 0, "num_samples must be positive, got 0"),
    "check_moreau_exponent": (COUNT_SITES["check_moreau_exponent"][1], 7,
                              "num_samples must be at least 8, got 7"),
    "certify_growth_via_ppa": (COUNT_SITES["certify_growth_via_ppa"][1], 0,
                               "num_steps must be positive, got 0"),
    "verify_recursive_rate": (COUNT_SITES["verify_recursive_rate"][1], 0,
                              "num_steps must be positive, got 0"),
    "lipschitz_estimate": (COUNT_SITES["lipschitz_estimate"][1], 0,
                           "iters must be positive, got 0"),
    "max_iters": (lambda n: ahbopt.SolverConfig(max_iters=n), -1,
                  "max_iters must be nonnegative, got -1"),
    "record_every": (lambda n: ahbopt.SolverConfig(record_every=n), 0,
                     "record_every must be positive, got 0"),
    "problem seed": (lambda n: ahbopt.ProblemSpec("quadratic", seed=n), -1,
                     "problem seed must be nonnegative, got -1"),
    "rows": (lambda n: ahbopt.make_least_squares(n, 2, [2.0], 0), 0,
             "rows must be positive, got 0"),
    "cols": (lambda n: ahbopt.make_least_squares(3, n, [2.0], 0), 0,
             "cols must be positive, got 0"),
    "dim": (lambda n: ahbopt.make_power(4.0, n, 1.0), 0, "dim must be positive, got 0"),
    "grid_n": (lambda n: ahbopt.make_radon(**{**_RADON, "grid_n": n}), 0,
               "grid_n must be positive, got 0"),
    "num_angles": (lambda n: ahbopt.make_radon(**{**_RADON, "num_angles": n}), 0,
                   "num_angles must be positive, got 0"),
    "rays_per_angle": (lambda n: ahbopt.make_radon(**{**_RADON, "rays_per_angle": n}), 0,
                       "rays_per_angle must be positive, got 0"),
}
_SPEC_COUNTS = {"problem seed", "rows", "cols", "dim", "grid_n", "num_angles", "rays_per_angle"}


@pytest.mark.parametrize("site", sorted(BOUNDED_COUNT_SITES))
def test_library_counts_below_their_bound_are_refused(site):
    call, value, message = BOUNDED_COUNT_SITES[site]
    error = errors.InvalidSpecError if site in _SPEC_COUNTS else errors.InvalidInputError
    for below in (value, float(value)):
        with pytest.raises(error) as excinfo:
            call(below)
        assert str(excinfo.value) == message


# each positive finite real: a call with the value under test that is
# otherwise valid, and the name the error gives it
POSITIVE_SITES = {
    "HolderFunction": ("c", lambda v: ahbopt.HolderFunction(v, 0.5)),
    "check_kl r": ("r", lambda v: ahbopt.check_kl(
        _QUAD, [0.0], v, 0.5, ahbopt.HolderFunction(1.0, 0.5), num_samples=10)),
    "check_kl eta": ("eta", lambda v: ahbopt.check_kl(
        _QUAD, [0.0], 1.0, v, ahbopt.HolderFunction(1.0, 0.5), num_samples=10)),
    "check_moreau_exponent lam": ("lam", lambda v: ahbopt.check_moreau_exponent(
        _QUAD, v, [0.0], 1.0, num_samples=10)),
    "check_moreau_exponent r": ("r", lambda v: ahbopt.check_moreau_exponent(
        _QUAD, 1.0, [0.0], v, num_samples=10)),
    "prox_point": ("tau", lambda v: ahbopt.prox_point(_QUAD, v, [1.0])),
    "ppa_run": ("tau", lambda v: ahbopt.ppa_run(_QUAD, v, [1.0], 2)),
    "make_power": ("ball_radius", lambda v: ahbopt.make_power(4.0, 1, v)),
    "lipschitz_estimate": ("tol", lambda v: ahbopt.lipschitz_estimate(_LSQ, tol=v)),
    "run_solver": ("lipschitz", lambda v: ahbopt.run_solver(
        dataclasses.replace(_QUAD, lipschitz=v), ahbopt.SolverConfig(max_iters=3), [1.0])),
}


@pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf"), -float("inf"), True, "1",
                                   10 ** 400],
                         ids=["zero", "negative", "nan", "inf", "-inf", "bool", "str", "huge-int"])
@pytest.mark.parametrize("site", sorted(POSITIVE_SITES))
def test_library_reals_must_be_positive_and_finite(site, value):
    name, call = POSITIVE_SITES[site]
    error = errors.InvalidSpecError if site == "make_power" else errors.InvalidInputError
    with pytest.raises(error) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name} must be positive and finite"


def test_positive_reals_come_back_as_floats():
    for value in (2, 2.0, np.float32(2.0), np.int64(2), fractions.Fraction(2)):
        number = errors.as_positive("x", value)
        assert type(number) is float and number == 2.0


# each library entry point that takes a point of the problem's dimension
_POWER3 = ahbopt.make_power(4.0, 3, 4.0)
POINT_SITES = {
    "check_kl": ("xbar", _POWER3, lambda obj, x: ahbopt.check_kl(
        obj, x, 1.0, 1.0, ahbopt.HolderFunction(2 ** 0.5, 0.25), num_samples=10)),
    "certify_growth_direct": ("xbar", _POWER3, lambda obj, x: ahbopt.certify_growth_direct(
        obj, x, 1.0, 1.0, ahbopt.HolderFunction(2 ** 0.5, 0.25), num_samples=10)),
    "run_solver": ("x0", _POWER3, lambda obj, x: ahbopt.run_solver(
        obj, ahbopt.SolverConfig(max_iters=3), x)),
    "run_solver least squares": ("x0", ahbopt.make_least_squares(3, 3, [1.0, 1.0, 1.0], 0),
                                 lambda obj, x: ahbopt.run_solver(
                                     obj, ahbopt.SolverConfig(max_iters=3), x)),
    "certify_growth_via_ppa": ("x", _POWER3, lambda obj, x: ahbopt.certify_growth_via_ppa(
        obj, x, ahbopt.HolderFunction(2 ** 0.5, 0.25), [1.0], num_steps=3)),
    "check_moreau_exponent": ("xbar", ahbopt.make_quadratic([1.0, 2.0, 4.0]),
                              lambda obj, x: ahbopt.check_moreau_exponent(
                                  obj, 1.0, x, 0.5, num_samples=10)),
    "ppa_run": ("x0", ahbopt.make_quadratic([1.0, 2.0, 4.0]),
                lambda obj, x: ahbopt.ppa_run(obj, 1.0, x, 3)),
}


@pytest.mark.parametrize("point, shape", [([0.0], "(1,)"), ([[0.0, 0.0, 0.0]], "(1, 3)"),
                                          (0.0, "()")], ids=["1-d", "row", "scalar"])
@pytest.mark.parametrize("site", sorted(POINT_SITES))
def test_points_must_have_the_problem_dimension(site, point, shape):
    name, obj, call = POINT_SITES[site]
    with pytest.raises(errors.InvalidInputError) as excinfo:
        call(obj, point)
    assert str(excinfo.value) == f"{name} must have shape (3,), got {shape}"
