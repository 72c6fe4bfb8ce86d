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
