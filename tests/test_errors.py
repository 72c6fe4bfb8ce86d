import argparse
import copy
import dataclasses
import decimal
import fractions
import inspect
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ahbopt
from ahbopt import certify, cli, errors

INSTANCES = [
    errors.ToolkitError("base"),
    errors.InvalidInputError("bad input"),
    errors.CapabilityError("gradient_fn"),
    errors.CapabilityError("prox_fn", "no prox here"),
    errors.NumericalFailureError(5),
    errors.NumericalFailureError(7, "overflow at step 7"),
]
ATTRIBUTES = ("iteration", "missing")


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


_TRACE = ahbopt.run_solver(ahbopt.make_quadratic([1.0, 2.0]), ahbopt.SolverConfig(max_iters=20),
                           [1.0, 1.0])

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
    "fit_rate_from_trace k_min": ("k_min", lambda n: ahbopt.fit_rate_from_trace(
        _TRACE, "linear", k_min=n)),
    "fit_rate_from_trace k_max": ("k_max", lambda n: ahbopt.fit_rate_from_trace(
        _TRACE, "linear", k_max=n)),
}


@pytest.mark.parametrize("value", [2.5, True, float("nan"), "3"],
                         ids=["fraction", "bool", "nan", "str"])
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
    "fit_rate_from_trace k_min": (COUNT_SITES["fit_rate_from_trace k_min"][1], -1,
                                  "k_min must be nonnegative, got -1"),
    "fit_rate_from_trace k_max": (COUNT_SITES["fit_rate_from_trace k_max"][1], -1,
                                  "k_max must be nonnegative, got -1"),
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


@pytest.mark.parametrize("site", sorted(BOUNDED_COUNT_SITES))
def test_library_counts_below_their_bound_are_refused(site):
    call, value, message = BOUNDED_COUNT_SITES[site]
    for below in (value, float(value)):
        with pytest.raises(errors.InvalidInputError) as excinfo:
            call(below)
        assert str(excinfo.value) == message


# each real with an interval, keyed by its site: the name its error gives it,
# the interval as the docs write it, and a call with the value under test that
# is otherwise valid
INTERVAL_SITES = {
    "mu0": ("mu0", "[0, 1)", lambda v: ahbopt.SolverConfig(mu0=v)),
    "beta_cap": ("beta_cap", "(0, inf]", lambda v: ahbopt.SolverConfig(beta_cap=v)),
    "gd_mu": ("gd_mu", "(0, 2)", lambda v: ahbopt.SolverConfig(gd_mu=v)),
    "nesterov_nu": ("nesterov_nu", "[2, inf]", lambda v: ahbopt.SolverConfig(nesterov_nu=v)),
    "alrhb_beta": ("alrhb_beta", "(0, 1)", lambda v: ahbopt.SolverConfig(alrhb_beta=v)),
    "gap_tol": ("gap_tol", "[0, inf]", lambda v: ahbopt.SolverConfig(gap_tol=v)),
    "alpha": ("alpha", "(0, 1]", lambda v: ahbopt.HolderFunction(1.0, v)),
    "p": ("p", "[2, inf)", lambda v: ahbopt.make_power(v, 1, 1.0)),
    "delta0": ("delta0", "[0, inf)", lambda v: ahbopt.verify_recursive_rate(v, 0.1, 2.0, 10)),
    "theta": ("theta", "(1, inf)", lambda v: ahbopt.verify_recursive_rate(0.5, 0.1, v, 10)),
    "x0 norm": ("x0 norm", "[0, inf)", lambda v: cli._resolve_x0({"seed": 1, "norm": v}, 2)),
    "HolderFunction": ("c", "(0, inf)", lambda v: ahbopt.HolderFunction(v, 0.5)),
    "check_kl r": ("r", "(0, inf)", lambda v: ahbopt.check_kl(
        _QUAD, [0.0], v, 0.5, ahbopt.HolderFunction(1.0, 0.5), num_samples=10)),
    "check_kl eta": ("eta", "(0, inf)", lambda v: ahbopt.check_kl(
        _QUAD, [0.0], 1.0, v, ahbopt.HolderFunction(1.0, 0.5), num_samples=10)),
    "check_moreau_exponent lam": ("lam", "(0, inf)", lambda v: ahbopt.check_moreau_exponent(
        _QUAD, v, [0.0], 1.0, num_samples=10)),
    "check_moreau_exponent r": ("r", "(0, inf)", lambda v: ahbopt.check_moreau_exponent(
        _QUAD, 1.0, [0.0], v, num_samples=10)),
    "ppa_run": ("tau", "(0, inf)", lambda v: ahbopt.ppa_run(_QUAD, v, [1.0], 2)),
    "make_power": ("ball_radius", "(0, inf)", lambda v: ahbopt.make_power(4.0, 1, v)),
    "lipschitz_estimate": ("tol", "(0, inf)", lambda v: ahbopt.lipschitz_estimate(_LSQ, tol=v)),
    "run_solver": ("lipschitz", "(0, inf)", lambda v: ahbopt.run_solver(
        dataclasses.replace(_QUAD, lipschitz=v), ahbopt.SolverConfig(max_iters=3), [1.0])),
    "certify_growth_via_ppa": ("tau", "(0, inf)", lambda v: ahbopt.certify_growth_via_ppa(
        _QUAD, [1.0], ahbopt.HolderFunction(1.0, 0.5), [2.0, v], num_steps=2)),
    "verify_recursive_rate": ("c", "(0, inf)",
                              lambda v: ahbopt.verify_recursive_rate(0.5, v, 2.0, 10)),
    "fit_growth_exponent": ("dist", "(0, inf)", lambda v: ahbopt.fit_growth_exponent(
        [(2.0 ** k, 1.0) for k in range(8)] + [(1.0, v)])),
    "Objective.prox": ("lam", "(0, inf)", lambda v: _QUAD.prox(v, [1.0])),
    "make_quadratic": ("spectrum entries", "(0, inf)",
                       lambda v: ahbopt.make_quadratic([1.0, v])),
    "make_least_squares": ("singular values", "(0, inf)",
                           lambda v: ahbopt.make_least_squares(2, 2, [2.0, v], 0)),
}


def _refused(site, value):
    name, interval, call = INTERVAL_SITES[site]
    with pytest.raises(errors.InvalidInputError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name} must lie in {interval}"


# the toolkit's constants lie in (0, inf): values beyond both of its ends,
# and values that are no real number
@pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf"), -float("inf"), True, "1",
                                   10 ** 400],
                         ids=["zero", "negative", "nan", "inf", "-inf", "bool", "str", "huge-int"])
@pytest.mark.parametrize("site", sorted(site for site, (_, interval, _) in INTERVAL_SITES.items()
                                        if interval == "(0, inf)"))
def test_library_reals_must_be_positive_and_finite(site, value):
    _refused(site, value)


def test_positive_reals_come_back_as_floats():
    for value in (2, 2.0, np.float32(2.0), np.int64(2), fractions.Fraction(2)):
        for interval in ("(0, inf)", "[2, 2]"):
            number = errors.as_real("x", value, interval)
            assert type(number) is float and number == 2.0


@pytest.mark.parametrize("value", [True, "0.5", float("nan"), 10 ** 400, decimal.Decimal("0.5"),
                                   np.array([0.5, 0.5])],
                         ids=["bool", "str", "nan", "huge-int", "decimal", "array"])
@pytest.mark.parametrize("site", sorted(INTERVAL_SITES))
def test_library_reals_must_lie_in_their_interval(site, value):
    _refused(site, value)


@pytest.mark.parametrize("site", sorted(INTERVAL_SITES))
def test_interval_ends_are_taken_in_by_a_bracket_and_left_out_by_a_parenthesis(site):
    _, interval, call = INTERVAL_SITES[site]
    low, high = (float(end) for end in interval[1:-1].split(","))
    call((low + high) / 2.0 if high < math.inf else low + 1.0)
    for end, closed in ((low, interval[0] == "["), (high, interval[-1] == "]")):
        if closed:
            call(end)
        else:
            _refused(site, end)


# each library entry point that takes a point of the problem's dimension
_POWER3 = ahbopt.make_power(4.0, 3, 4.0)
_QUAD3 = ahbopt.make_quadratic([1.0, 2.0, 4.0])
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
    "check_moreau_exponent": ("xbar", _QUAD3, lambda obj, x: ahbopt.check_moreau_exponent(
        obj, 1.0, x, 0.5, num_samples=10)),
    "ppa_run": ("x0", _QUAD3, lambda obj, x: ahbopt.ppa_run(obj, 1.0, x, 3)),
    "moreau_value": ("x", _QUAD3, lambda obj, x: ahbopt.moreau_value(obj, 1.0, x)),
    "moreau_gradient": ("x", _QUAD3, lambda obj, x: ahbopt.moreau_gradient(obj, 1.0, x)),
    "Objective.value": ("x", _QUAD3, lambda obj, x: obj.value(x)),
    "Objective.gradient": ("x", _QUAD3, lambda obj, x: obj.gradient(x)),
    "Objective.prox": ("x", _QUAD3, lambda obj, x: obj.prox(1.0, x)),
    "Objective.distance": ("x", _QUAD3, lambda obj, x: obj.distance(x)),
}


@pytest.fixture
def no_draws(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew points for a refused input")

    monkeypatch.setattr(certify, "_ball_points", refuse)


@pytest.mark.parametrize("point, shape", [([0.0], "(1,)"), ([[0.0, 0.0, 0.0]], "(1, 3)"),
                                          (0.0, "()")], ids=["1-d", "row", "scalar"])
@pytest.mark.parametrize("site", sorted(POINT_SITES))
def test_points_must_have_the_problem_dimension(site, point, shape, no_draws):
    name, obj, call = POINT_SITES[site]
    with pytest.raises(errors.InvalidInputError) as excinfo:
        call(obj, point)
    assert str(excinfo.value) == f"{name} must have shape (3,), got {shape}"


@pytest.mark.parametrize("entry", [True, "1", None, float("nan"), float("inf"), 10 ** 400,
                                   [0.0]],
                         ids=["bool", "str", "none", "nan", "inf", "huge-int", "ragged"])
@pytest.mark.parametrize("site", sorted(POINT_SITES))
def test_points_must_hold_finite_real_numbers(site, entry, no_draws):
    name, obj, call = POINT_SITES[site]
    with pytest.raises(errors.InvalidInputError) as excinfo:
        call(obj, [entry, 0.0, 0.0])
    assert str(excinfo.value) == f"{name} must hold finite floats or 64-bit integers only"


# each library seed: a call with the value under test that is otherwise valid
SEED_SITES = {
    "check_kl": lambda s: ahbopt.check_kl(
        _QUAD, [0.0], 1.0, 0.5, ahbopt.HolderFunction(1.0, 0.5), num_samples=10, seed=s),
    "certify_growth_direct": lambda s: ahbopt.certify_growth_direct(
        _QUAD, [0.0], 1.0, 0.5, ahbopt.HolderFunction(2 ** 0.5, 0.5), num_samples=10, seed=s),
    "check_moreau_exponent": lambda s: ahbopt.check_moreau_exponent(
        _QUAD, 1.0, [0.0], 1.0, num_samples=10, seed=s),
    "make_least_squares": lambda s: ahbopt.make_least_squares(3, 3, [1.0, 1.0, 1.0], s),
    "lipschitz_estimate": lambda s: ahbopt.lipschitz_estimate(_LSQ, seed=s),
}


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be nonnegative, got -1"), (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"), ("1", "seed must be an integer, got '1'"),
], ids=["negative", "fraction", "bool", "str"])
@pytest.mark.parametrize("site", sorted(SEED_SITES))
def test_library_seeds_must_be_nonnegative_integers(site, seed, message, no_draws):
    with pytest.raises(errors.InvalidInputError) as excinfo:
        SEED_SITES[site](seed)
    assert str(excinfo.value) == message


# a seed of -1 and an unknown key, at each door they come in by: the one
# class, and the message the rule gives
ONE_CLASS_SITES = {
    "make_least_squares seed": ("seed must be nonnegative, got -1",
                                lambda: SEED_SITES["make_least_squares"](-1)),
    "check_kl seed": ("seed must be nonnegative, got -1", lambda: SEED_SITES["check_kl"](-1)),
    "lipschitz_estimate seed": ("seed must be nonnegative, got -1",
                                lambda: SEED_SITES["lipschitz_estimate"](-1)),
    "x0 seed": ("x0 seed must be nonnegative, got -1",
                lambda: cli._resolve_x0('{"seed": -1}', 2)),
    "ProblemSpec seed": ("problem seed must be nonnegative, got -1",
                         lambda: ahbopt.ProblemSpec("least_squares", seed=-1)),
    "ProblemSpec.from_dict keys": ("unknown problem spec keys: ['bogus']",
                                   lambda: ahbopt.ProblemSpec.from_dict({"bogus": 1})),
    "SolverConfig.from_json_dict keys": (
        "unknown solver config keys: ['bogus']",
        lambda: ahbopt.SolverConfig.from_json_dict({"bogus": 1})),
}


@pytest.mark.parametrize("site", sorted(ONE_CLASS_SITES))
def test_every_bad_input_raises_the_one_class(site):
    message, call = ONE_CLASS_SITES[site]
    with pytest.raises(errors.InvalidInputError) as excinfo:
        call()
    assert type(excinfo.value) is errors.InvalidInputError
    assert str(excinfo.value) == message


def test_the_input_rules_take_no_error_class():
    for rule in (errors.as_int, errors.as_real, errors.as_object, errors.json_value):
        assert "error" not in inspect.signature(rule).parameters


@pytest.mark.parametrize("text, reason", [
    ("{bad", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[1,", "Expecting value: line 1 column 4 (char 3)"),
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ("[1] 2", "Extra data: line 1 column 5 (char 4)"),
    ("[" * 5000 + "]" * 5000, "nested too deeply: line 1 column 1 (char 0)"),
], ids=["bad-key", "truncated", "empty", "extra-data", "deep"])
def test_malformed_json_raises_the_one_class_naming_its_input(text, reason):
    with pytest.raises(errors.InvalidInputError) as excinfo:
        errors.json_value("x0", text)
    assert type(excinfo.value) is errors.InvalidInputError
    assert str(excinfo.value) == f"malformed x0: {reason}"


@given(st.text(alphabet='[]{}":,.-+eE0123456789 \\\ntrufalsNIiny', max_size=40))
def test_a_json_decode_error_never_escapes_json_value(text):
    try:
        errors.json_value("x0", text)
    except errors.InvalidInputError as exc:
        assert not isinstance(exc, json.JSONDecodeError)
        assert str(exc).startswith("malformed x0: ")
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)


def test_toolkit_error_has_exactly_three_subclasses():
    assert set(_all_subclasses(errors.ToolkitError)) == {
        errors.InvalidInputError, errors.CapabilityError, errors.NumericalFailureError}


_HEADER = "k,fval,gap,gnorm,alpha,beta,step_norm,dist\n"
_Q1 = ["--problem", "quadratic", "--params", '{"spectrum": [1.0]}']


def _radon_solve(**params):
    return ["solve", "--problem", "radon", "--params",
            json.dumps({**params, "phantom": "blocks"}), "--out", "out"]


def _trace(text, sidecar=None):
    """The files of a trace t.csv in the working directory, its read, and
    the fit-rate argv that reads it."""
    files = {"t.csv": text} if sidecar is None else {"t.csv": text, "t.csv.meta.json": sidecar}
    return (files, lambda: ahbopt.read_csv("t.csv"),
            ["fit-rate", "--trace", "t.csv", "--model", "power"])


# each refusal beyond the input rules: its message, the files it reads from
# the working directory, a library call, and the argv of the same input at the
# CLI door; the messages are pinned byte for byte
REFUSALS = {
    "radon grid cap": ("grid_n = 65 exceeds the desk-scale cap of 64", {},
                       lambda: ahbopt.make_radon(65, 4, 4, "blocks"),
                       _radon_solve(grid_n=65, num_angles=4, rays_per_angle=4)),
    "radon ray cap": ("num_angles * rays_per_angle = 32776 exceeds the desk-scale cap of "
                      "16384 rays", {},
                      lambda: ahbopt.make_radon(4, 8, 4097, "blocks"),
                      _radon_solve(grid_n=4, num_angles=8, rays_per_angle=4097)),
    "empty level slice": ("no sample of 20000 landed in the level slice [2.22507e-308, 1) "
                          "within radius 1e-200", {},
                          lambda: ahbopt.check_kl(_QUAD, [0.0], 1e-200, 1.0,
                                                  ahbopt.HolderFunction(1.0, 0.5)),
                          ["certify", "kl", *_Q1, "--r", "1e-200"]),
    "moreau no usable sample": ("only 0 usable envelope samples in 10000 trials", {},
                                lambda: ahbopt.check_moreau_exponent(_QUAD, 1.0, [0.0], 1e-320),
                                ["certify", "moreau", *_Q1, "--r", "1e-320"]),
    "moreau degenerate fit": ("a line fit needs at least two distinct abscissae", {},
                              lambda: ahbopt.check_moreau_exponent(
                                  _QUAD, 1.0, [4503599627370496.0], 1.0),
                              ["certify", "moreau", *_Q1, "--xbar", "4503599627370496",
                               "--r", "1"]),
    "trace header only": ("a trace needs at least one record", *_trace(_HEADER)),
    "trace decreasing k": ("record iteration numbers must strictly increase",
                           *_trace(_HEADER + "1,1,1,1,1,0,0,\n0,1,1,1,1,0,0,\n")),
    "trace 7-field row": ("line 2: expected 8 fields, got 7",
                          *_trace(_HEADER + "0,1,1,1,1,0,0\n")),
    "trace non-float field": ("line 2: could not convert string to float: 'x'",
                              *_trace(_HEADER + "0,x,1,1,1,0,0,\n")),
    "trace bad header": ("line 1: bad header in t.csv: expected "
                         "'k,fval,gap,gnorm,alpha,beta,step_norm,dist'",
                         *_trace("k,fval\n0,1\n")),
    "trace malformed sidecar": ("malformed meta sidecar t.csv.meta.json: Expecting property name "
                                "enclosed in double quotes: line 1 column 2 (char 1)",
                                *_trace(_HEADER + "0,1,1,1,1,0,0,\n", "{bad")),
    "trace non-object sidecar": ("meta sidecar t.csv.meta.json must be an object",
                                 *_trace(_HEADER + "0,1,1,1,1,0,0,\n", "[1, 2]")),
}


def _write(tmp_path, monkeypatch, files):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_every_refusal_raises_the_one_class_in_the_library(case, tmp_path, monkeypatch):
    message, files, call, _ = REFUSALS[case]
    _write(tmp_path, monkeypatch, files)
    with pytest.raises(errors.InvalidInputError) as excinfo:
        call()
    assert type(excinfo.value) is errors.InvalidInputError
    assert str(excinfo.value) == message


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_every_refusal_exits_1_with_its_one_error_line(case, tmp_path, monkeypatch, capsys):
    message, files, _, argv = REFUSALS[case]
    _write(tmp_path, monkeypatch, files)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # a refused solve creates no output directory
    assert not (tmp_path / "out").exists()


def _config_file(tmp_path, value):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(value))
    return cli._load_config_file(path)


def _cli_problem(tmp_path, value):
    args = argparse.Namespace(problem="quadratic", params=None, problem_seed=None)
    return cli._problem_from(args, {"problem": value})


# each JSON object input: the name its errors give it, and a call with the
# value under test, as the CLI decodes it where it comes in as JSON
OBJECT_SITES = {
    "SolverConfig.from_json_dict": ("solver config",
                                    lambda tmp, v: ahbopt.SolverConfig.from_json_dict(v)),
    "ProblemSpec.from_dict": ("problem spec", lambda tmp, v: ahbopt.ProblemSpec.from_dict(v)),
    "config file": ("experiment config", _config_file),
    "config problem": ("problem spec", _cli_problem),
    "x0": ("x0", lambda tmp, v: cli._resolve_x0(json.dumps(v), 2)),
}
_NON_OBJECTS = {"list": [1], "str": "a", "null": None, "int": 5}


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{label}")
    for site in sorted(OBJECT_SITES) for label, value in _NON_OBJECTS.items()
    # a null config entry is one not given, so a null problem is no problem spec
    if not (site == "config problem" and value is None)])
def test_object_inputs_must_be_objects(site, value, tmp_path):
    name, call = OBJECT_SITES[site]
    with pytest.raises(errors.InvalidInputError) as excinfo:
        call(tmp_path, value)
    assert str(excinfo.value) == f"{name} must be an object"


@pytest.mark.parametrize("site", sorted(OBJECT_SITES))
def test_object_inputs_must_hold_known_keys_only(site, tmp_path):
    name, call = OBJECT_SITES[site]
    with pytest.raises(errors.InvalidInputError) as excinfo:
        call(tmp_path, {"bogus": 1, "extra": 2})
    assert str(excinfo.value) == f"unknown {name} keys: ['bogus', 'extra']"


def test_unknown_keys_of_any_type_are_named():
    with pytest.raises(errors.InvalidInputError) as excinfo:
        errors.as_object("solver config", {2: 0, "a": 0, "method": "gd"}, ("method",))
    assert str(excinfo.value) == "unknown solver config keys: [2, 'a']"


def test_a_null_config_problem_is_one_not_given(tmp_path):
    assert _cli_problem(tmp_path, None) == _cli_problem(tmp_path, {})
