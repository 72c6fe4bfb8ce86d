import copy
import pickle

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
    errors.InnerSolveError("no convergence"),
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
