"""Command line front end: solver orchestration, certification checks,
and rate fitting with machine-readable outputs.

Exit codes: 0 on success, 1 for configuration problems, 2 for numerical
failures inside a run, 3 when a certification check reports violations.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import certify, trace
from .errors import (InvalidInputError, NumericalFailureError, ToolkitError, as_int, as_object,
                     as_real, json_value)
from .objective import PROBLEM_KINDS, ProblemSpec
from .solvers import METHODS, SolverConfig, run_solver
from .trace import atomic_write, json_text

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_VIOLATIONS = 0, 1, 2, 3

# usable out of the box for certification smoke checks
_DEFAULT_PARAMS = {
    "quadratic": {"spectrum": [1.0]},
    "least_squares": {"rows": 20, "cols": 20,
                      "singular_values": [1.0 / i for i in range(1, 21)]},
    "power": {"p": 4.0, "dim": 1, "ball_radius": 4.0},
    "abs_value": {},
    "radon": {"grid_n": 8, "num_angles": 6, "rays_per_angle": 12, "phantom": "blocks"},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; config errors must be 1
    def error(self, message):
        raise _UsageError(message)


def _float_list_flag(text):
    try:
        return [float(t) for t in text.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list value: {text!r}") from None


def _add_problem_flags(parser):
    parser.add_argument("--problem", choices=PROBLEM_KINDS, default=None,
                        help="built-in problem kind")
    parser.add_argument("--params", default=None,
                        help="JSON object of factory parameters")
    parser.add_argument("--problem-seed", type=int, default=None)


def _add_solver_flags(parser, solver_fields):
    for f in solver_fields:
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            choices=METHODS if f.name == "method" else None)
    parser.add_argument("--x0", default=None,
                        help='"zeros" or JSON like {"seed": 1, "norm": 10}')


def _add_gauge_flags(parser):
    parser.add_argument("--phi-c", dest="phi_c", type=float, default=1.0)
    parser.add_argument("--phi-alpha", dest="phi_alpha", type=float, default=0.5)


def _add_sample_flags(parser, samples):
    parser.add_argument("--samples", type=int, default=samples)
    parser.add_argument("--seed", type=int, default=0, help="seed for the sampled points")


def _add_slice_flags(parser):
    parser.add_argument("--xbar", default="zeros")
    parser.add_argument("--r", type=float, default=1.0)
    parser.add_argument("--eta", type=float, default=1.0)
    _add_gauge_flags(parser)
    _add_sample_flags(parser, 200)


def _load_config_file(path):
    with open(path, encoding="utf-8") as handle:
        data = json_value(f"experiment config {path}", handle.read())
    as_object("experiment config", data, ("problem", "runs", "x0", "out_dir"))
    out_dir = data.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise InvalidInputError(f"out_dir must be a string, got {out_dir!r}")
    return data


def _problem_from(args, file_data):
    params = None if args.params is None else json_value("params", args.params)
    spec_data = file_data.get("problem")
    spec_data = {} if spec_data is None else dict(
        as_object("problem spec", spec_data, ProblemSpec.__dataclass_fields__))
    if args.problem is not None:
        spec_data["kind"] = args.problem
    if "kind" not in spec_data:
        raise InvalidInputError("no problem kind given; pass --problem or give the "
                                "problem spec a 'kind'")
    if params is not None:
        spec_data["params"] = params
    # an unknown kind gets no defaults; ProblemSpec rejects it by name
    if "params" not in spec_data and spec_data["kind"] in PROBLEM_KINDS:
        spec_data["params"] = dict(_DEFAULT_PARAMS[spec_data["kind"]])
    if args.problem_seed is not None:
        spec_data["seed"] = args.problem_seed
    return ProblemSpec(**spec_data)


def _solver_overrides(args):
    # compare has no --method; each of its runs names its own
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)
            if getattr(args, f.name, None) is not None}


def _resolve_x0(x0_spec, dim):
    if x0_spec in (None, "zeros"):
        return np.zeros(dim), None
    if isinstance(x0_spec, str):
        x0_spec = json_value("x0", x0_spec)
    as_object("x0", x0_spec, ("kind", "seed", "norm"))
    kind = x0_spec.get("kind", "seeded_random")
    if kind != "seeded_random":
        raise InvalidInputError(f"unknown x0 kind '{kind}'")
    seed = as_int("x0 seed", x0_spec.get("seed", 0), low=0)
    norm = as_real("x0 norm", x0_spec.get("norm", 1.0), "[0, inf)")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction *= norm / np.linalg.norm(direction)
    if not np.isfinite(direction).all():
        raise NumericalFailureError(0)
    return direction, seed


def _run_entries(file_data, default):
    runs = default if file_data.get("runs") is None else file_data["runs"]
    if not isinstance(runs, list) or not runs or not all(isinstance(r, dict) for r in runs):
        raise InvalidInputError("runs must be a non-empty list of objects")
    return runs


def _out_dir(args, file_data):
    out = args.out or file_data.get("out_dir") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _execute_run(spec, obj, cfg, x0, x0_seed, out_dir, name):
    run_trace = run_solver(obj, cfg, x0, problem_spec=spec, x0_seed=x0_seed)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    trace.write_csv(run_trace, csv_path)
    summary = trace.summarize(run_trace)
    atomic_write(os.path.join(out_dir, f"{name}.summary.json"), json_text(summary))
    print(csv_path)
    return summary


def _run_methods(args, default_runs) -> int:
    """Run each config entry on the one shared problem; ``compare`` also
    writes the summaries together to compare.json."""
    file_data = _load_config_file(args.config) if args.config else {}
    spec = _problem_from(args, file_data)
    run_datas = _run_entries(file_data, default_runs)
    overrides = _solver_overrides(args)
    if args.command == "solve" and len(run_datas) > 1:
        raise InvalidInputError(f"solve takes one run, the config has {len(run_datas)}; "
                                "use compare")
    configs = [SolverConfig.from_json_dict({**run_data, **overrides})
               for run_data in run_datas]
    obj = spec.build()
    x0_spec = args.x0 if args.x0 is not None else file_data.get("x0")
    # one start for every run; run_solver copies it. Resolved before the
    # output directory exists, so a rejected start leaves no directory behind.
    x0, x0_seed = _resolve_x0(x0_spec, obj.dim)
    out_dir = _out_dir(args, file_data)
    summaries, seen = {}, {}
    for cfg in configs:
        seen[cfg.method] = count = seen.get(cfg.method, 0) + 1
        name = cfg.method if count == 1 else f"{cfg.method}-{count}"
        summaries[name] = _execute_run(spec, obj, cfg, x0, x0_seed, out_dir, name)
    if args.command == "compare":
        compare_path = os.path.join(out_dir, "compare.json")
        atomic_write(compare_path, json_text(summaries))
        print(compare_path)
    return EXIT_OK


def cmd_solve(args) -> int:
    return _run_methods(args, [{}])


def cmd_compare(args) -> int:
    return _run_methods(args, [{"method": m} for m in METHODS])


def _parse_point(name, text, dim):
    # a JSON number stands for a one-entry list; the library checks the point
    value = np.zeros(dim) if text == "zeros" else json_value(name, text)
    return [value] if isinstance(value, (int, float)) else value


def _certify_report(args):
    if args.certify_cmd == "rate":
        # the recursion check is self-contained; no problem needed
        return certify.verify_recursive_rate(args.delta0, args.c, args.theta, args.steps)
    spec = _problem_from(args, {})
    obj = spec.build()
    if args.certify_cmd == "moreau":
        return certify.check_moreau_exponent(obj, args.lam,
                                             _parse_point("xbar", args.xbar, obj.dim),
                                             args.r, num_samples=args.samples, seed=args.seed)
    phi = certify.HolderFunction(c=args.phi_c, alpha=args.phi_alpha)
    if args.certify_cmd == "growth-ppa":
        return certify.certify_growth_via_ppa(obj, _parse_point("x", args.x, obj.dim),
                                              phi, args.tau_list, num_steps=args.steps)
    check = certify.check_kl if args.certify_cmd == "kl" else certify.certify_growth_direct
    return check(obj, _parse_point("xbar", args.xbar, obj.dim), args.r, args.eta, phi,
                 num_samples=args.samples, seed=args.seed)


def cmd_certify(args) -> int:
    report = _certify_report(args)
    sys.stdout.write(json_text(report.to_json_dict()))
    return EXIT_OK if report.violations == 0 else EXIT_VIOLATIONS


def cmd_fit_rate(args) -> int:
    fitted_trace = trace.read_csv(args.trace)
    value, residual = trace.fit_rate_from_trace(fitted_trace, args.model,
                                                k_min=args.k_min, k_max=args.k_max)
    sys.stdout.write(json_text({"model": args.model, trace.RATE_MODELS[args.model]: value,
                                "residual": residual}))
    return EXIT_OK


def _add_run_flags(parser, func, solver_fields):
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--out", help="output directory (default: out_dir from "
                                      "the config, else the working directory)")
    _add_problem_flags(parser)
    _add_solver_flags(parser, solver_fields)
    parser.set_defaults(func=func)


def _add_ppa_flags(parser):
    parser.add_argument("--x", required=True, help="start point as JSON")
    _add_gauge_flags(parser)
    parser.add_argument("--tau-list", dest="tau_list", type=_float_list_flag,
                        default="1,0.1,0.01")
    parser.add_argument("--steps", type=int, default=200)


def _add_moreau_flags(parser):
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument("--xbar", default="zeros")
    parser.add_argument("--r", type=float, default=0.5)
    _add_sample_flags(parser, 100)


def _add_rate_flags(parser):
    parser.add_argument("--delta0", type=float, required=True)
    parser.add_argument("--c", type=float, required=True)
    parser.add_argument("--theta", type=float, required=True)
    parser.add_argument("--steps", type=int, default=10000)


def _add_fit_rate_flags(parser):
    parser.add_argument("--trace", required=True)
    parser.add_argument("--model", choices=trace.RATE_MODELS, required=True)
    parser.add_argument("--k-min", dest="k_min", type=int, default=None)
    parser.add_argument("--k-max", dest="k_max", type=int, default=None)
    parser.set_defaults(func=cmd_fit_rate)


@functools.cache
def build_parser() -> _Parser:
    """The whole argparse tree, built on the first call and shared by every
    later ``main`` call in the process. Each ``func`` default is bound then,
    so a ``cmd_*`` function replaced afterwards is never called."""
    parser = _Parser(prog="ahbopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    solver_fields = dataclasses.fields(SolverConfig)
    _add_run_flags(sub.add_parser("solve", help="run one solver and write its trace"),
                   cmd_solve, solver_fields)
    # every field after method: compare runs the config's methods, or all four
    _add_run_flags(sub.add_parser("compare", help="run several methods on one problem"),
                   cmd_compare, solver_fields[1:])
    certify_parser = sub.add_parser("certify", help="sample-based condition checks")
    certify_parser.set_defaults(func=cmd_certify)
    checks = certify_parser.add_subparsers(dest="certify_cmd", required=True)
    for name, text, add_own in (
            ("kl", "sharpness of the gauge derivative", _add_slice_flags),
            ("growth", "distance bounded by the gauged gap", _add_slice_flags),
            ("growth-ppa", "growth via proximal path lengths", _add_ppa_flags),
            ("moreau", "envelope growth exponent", _add_moreau_flags)):
        check = checks.add_parser(name, help=text)
        _add_problem_flags(check)
        add_own(check)
    _add_rate_flags(checks.add_parser("rate", help="sublinear envelope of a damped recursion"))
    _add_fit_rate_flags(sub.add_parser("fit-rate", help="fit convergence rates from a trace CSV"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # overflow and invalid values anywhere in a command surface as
        # NumericalFailureError (exit 2), never as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ToolkitError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
