"""Generated configs and certify argv: every CLI run ends in a documented
exit code, never in a traceback."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ahbopt.trace import CSV_HEADER
from ahbopt.cli import main
from ahbopt.objective import PHANTOMS, PROBLEM_KINDS
from ahbopt.solvers import METHODS

EXIT_CODES = {0, 1, 2, 3}

# any JSON scalar; json.load reads NaN and Infinity, so floats come unrestricted
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-10, 10), st.floats(),
                     st.text(max_size=3))
_junk = st.one_of(_scalars, st.lists(_scalars, max_size=3),
                  st.dictionaries(st.text(max_size=3), _scalars, max_size=2))
_numbers = st.one_of(st.integers(-3, 8), st.floats())
# every valid kind three times, then the unknown kinds
_kinds = PROBLEM_KINDS * 3 + ("bogus", 7, None, ["q"], {})


def _mostly(valid):
    # a valid value three times in four, JSON junk otherwise, so that most
    # examples get past the config checks to the build and the run
    return st.integers(0, 3).flatmap(lambda i: valid if i else _junk)


_small_ints = st.one_of(st.integers(-1, 6), st.sampled_from([2.0, 2.5, True]))
_number_lists = st.lists(_numbers, min_size=0, max_size=4)

_params = {
    "quadratic": st.fixed_dictionaries({"spectrum": st.one_of(_number_lists, _junk)}),
    "least_squares": st.fixed_dictionaries(
        {"rows": _small_ints, "cols": _small_ints, "singular_values": _number_lists}),
    "power": st.fixed_dictionaries({"p": _numbers, "dim": _small_ints,
                                    "ball_radius": _numbers}),
    "abs_value": st.just({}),
    "radon": st.fixed_dictionaries(
        {"grid_n": _small_ints, "num_angles": _small_ints, "rays_per_angle": _small_ints,
         "phantom": st.sampled_from(PHANTOMS + ("bogus",))}),
}


@st.composite
def _problems(draw):
    kind = draw(st.sampled_from(_kinds))
    problem = {"kind": kind}
    if draw(st.booleans()):  # else the CLI's default params
        problem["params"] = draw(_mostly(_params[kind]) if kind in PROBLEM_KINDS else _junk)
    if draw(st.booleans()):
        problem["seed"] = draw(_mostly(st.integers(0, 2 ** 32)))
    return problem


_runs = st.lists(st.fixed_dictionaries(
    {"method": _mostly(st.sampled_from(METHODS)), "max_iters": st.integers(0, 5)},
    optional={"mu0": _mostly(st.floats(0.0, 0.99)), "beta_cap": _mostly(st.floats(0.5, 2.0)),
              "gap_tol": _mostly(st.floats(0.0, 1.0)),
              "record_every": _mostly(st.integers(1, 3))}),
    min_size=1, max_size=2)

_x0 = _mostly(st.one_of(st.none(), st.just("zeros"), st.fixed_dictionaries(
    {}, optional={"seed": _mostly(st.integers(0, 2 ** 32)), "norm": _numbers})))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# what a config adds besides problem, runs and x0: nothing, so that --out
# names the output directory; an out_dir of any JSON type, where a string
# is a relative path; or keys that nothing reads
_extras = st.one_of(
    st.just({}),
    st.fixed_dictionaries({"out_dir": st.one_of(
        st.text(alphabet="ab", max_size=2), _junk.filter(lambda v: not isinstance(v, str)))}),
    st.dictionaries(st.sampled_from(["run", "outdir", "Problem", "seed"]), _junk,
                    min_size=1, max_size=2),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["solve", "compare"]), problem=_problems(),
       runs=_runs, x0=_x0, extra=_extras)
def test_generated_configs_end_in_an_exit_code(command, problem, runs, x0, extra):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # every relative output path lands in the temporary directory
        os.chdir(tmp)
        try:
            with open("config.json", "w", encoding="utf-8") as handle:
                json.dump({"problem": problem, "runs": runs, "x0": x0, **extra}, handle)
            code, err = _run_cli([command, "--config", "config.json"]
                                 + ([] if extra else ["--out", "out"]))
            written = os.listdir(tmp)
        finally:
            os.chdir(cwd)
    assert code in EXIT_CODES
    assert "Traceback" not in err
    out_dir = extra.get("out_dir")
    if set(extra) - {"out_dir"} or not isinstance(out_dir, (str, type(None))):
        assert code == 1
        assert written == ["config.json"]


@settings(max_examples=200, deadline=None)
@given(delta0=st.floats(), c=st.floats(), theta=st.floats(), steps=st.integers(-2, 40))
def test_generated_certify_rate_numbers_end_in_an_exit_code(delta0, c, theta, steps):
    code, err = _run_cli(["certify", "rate", "--delta0", repr(delta0), "--c", repr(c),
                          "--theta", repr(theta), "--steps", str(steps)])
    assert code in EXIT_CODES
    assert "Traceback" not in err


# a number in the flag's valid range three times in four, any float
# otherwise; "--flag=value" keeps a leading minus from reading as a flag
def _flag(valid):
    return st.integers(0, 3).flatmap(
        lambda i: valid if i else st.one_of(_numbers, st.sampled_from([0.0, 1e-300, 1e300])))


_positive = st.one_of(st.floats(1e-3, 10.0), st.sampled_from([1e-300, 1e300]))
_taus = st.lists(_flag(st.floats(1e-3, 10.0)), min_size=0, max_size=3)


@st.composite
def _certify_argvs(draw):
    command = draw(st.sampled_from(["kl", "growth", "growth-ppa", "moreau"]))
    kind = draw(st.sampled_from(PROBLEM_KINDS))
    argv = ["certify", command, "--problem", kind]
    if draw(st.booleans()):  # else the CLI's default params
        argv.append("--params=" + json.dumps(draw(_mostly(_params[kind]))))
    point = draw(_mostly(st.just("zeros")))
    point = point if point == "zeros" else json.dumps(point)
    if command == "growth-ppa":
        argv += ["--x=" + point, "--tau-list=" + ",".join(map(repr, draw(_taus))),
                 f"--steps={draw(st.integers(-1, 5))}"]
    else:
        low = 8 if command == "moreau" else 1
        argv += ["--xbar=" + point, f"--r={draw(_flag(_positive))!r}",
                 f"--samples={draw(st.integers(low - 2, low + 10))}",
                 f"--seed={draw(st.integers(0, 2 ** 32))}"]
    if command in ("kl", "growth"):
        argv.append(f"--eta={draw(_flag(_positive))!r}")
    if command == "moreau":
        argv.append(f"--lam={draw(_flag(_positive))!r}")
    else:
        argv += [f"--phi-c={draw(_flag(_positive))!r}",
                 f"--phi-alpha={draw(_flag(st.floats(0.01, 1.0)))!r}"]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(argv=_certify_argvs())
def test_generated_certify_argv_ends_in_an_exit_code_and_a_json_report(argv, capfd):
    capfd.readouterr()
    code = main(argv)
    # capfd also takes what C code writes to the file descriptors
    out, err = capfd.readouterr()
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if out:
        assert code in (0, 3)
        assert isinstance(_strict_json(out), dict)
    else:
        assert code in (1, 2)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


# a positive distance three times in four, so that most traces keep the 8
# records a fit needs; missing, non-finite and non-positive ones otherwise
_dists = st.integers(0, 3).flatmap(lambda i: st.floats(1e-300, 1e300) if i else st.one_of(
    st.none(), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324])))
_window = st.one_of(st.none(), st.none(), st.integers(-5, 45),
                    st.sampled_from([-2 ** 40, 2 ** 40]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(ks=st.sets(st.integers(-3, 40), min_size=1, max_size=30), data=st.data(),
       model=st.sampled_from(["linear", "power"]), k_min=_window, k_max=_window)
def test_generated_fit_rate_traces_end_in_an_exit_code_and_a_json_report(
        ks, data, model, k_min, k_max, capfd):
    # rows written by hand, since a Trace holds no negative iteration numbers
    rows = [CSV_HEADER]
    for k in sorted(ks):
        dist = data.draw(_dists)
        rows.append(f"{k},1,0.5,1,0.1,0.5,0,{'' if dist is None else repr(dist)}")
    argv = ["fit-rate", "--model", model]
    argv += [] if k_min is None else [f"--k-min={k_min}"]
    argv += [] if k_max is None else [f"--k-max={k_max}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")
        capfd.readouterr()
        code = main(argv + ["--trace", path])
        # capfd also takes what C code writes to the file descriptors
        out, err = capfd.readouterr()
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if out:
        assert code == 0
        assert isinstance(_strict_json(out), dict)
    else:
        assert code in (1, 2)
