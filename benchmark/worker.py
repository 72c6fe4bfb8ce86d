"""Runs one workload in this fresh interpreter and prints its result as
one JSON line. Started by ``run.py``; not meant to be run by hand.

A round runs every CLI command of the workload in process through
``ahbopt.cli.main``. The first round is a warm-up whose outputs are
checked; every later round must write byte-identical outputs (meta
sidecars compared without ``wall_ms``). Rounds repeat until the given
seconds have passed, and ``wall_s`` is the median round time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Ops:
    """Counts operations (CLI commands and checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, error=None):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")


def run_round(main, commands, out_dir):
    """Run one round into ``out_dir``; returns (seconds, outcomes), an
    outcome being (command, exit code, stdout, stderr)."""
    out_dir.mkdir(parents=True)
    outcomes = []
    elapsed = 0.0
    for command in commands:
        argv = [a.replace("{out}", str(out_dir)) for a in command.argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = main(argv)
            elapsed += time.perf_counter() - start
        outcomes.append((command, code, out.getvalue(), err.getvalue()))
    return elapsed, outcomes


def snapshot(out_dir, outcomes):
    """Everything a round produced, with ``wall_ms`` dropped from the
    meta sidecars: it is the one field allowed to differ."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name.endswith(".meta.json"):
                meta = json.loads(data)
                meta.pop("wall_ms", None)
                data = json.dumps(meta, sort_keys=True).encode()
            files[str(path.relative_to(out_dir))] = data
    return files, [(c.name, code, out, err) for c, code, out, err in outcomes]


def record_outcomes(ops, outcomes):
    for command, code, _, err in outcomes:
        error = None
        if code != command.expect_exit:
            error = f"exit {code}, expected {command.expect_exit}: {err.strip()[-200:]}"
        elif err:
            error = f"wrote to stderr: {err.strip()[-200:]}"
        ops.record(command.name, error)


def run_checks(ops, inputs, out_dir, outcomes):
    stdout = {command.name: out for command, _, out, _ in outcomes}
    try:
        named = workloads.output_checks(inputs, out_dir, stdout)
    except (checks.CheckError, OSError, ValueError, KeyError) as exc:
        ops.record("read-outputs", exc)
        return
    for name, check in named:
        try:
            check()
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            ops.record(name, exc)
        else:
            ops.record(name)


def traced_round(main, inputs, out_dir, built):
    tracer = tracing.Tracer()
    with tracing.installed(tracer, built):
        seconds, outcomes = run_round(
            lambda argv: tracer.call("cli.main", main, argv), inputs.commands, out_dir)
    return seconds, outcomes, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import ahbopt.cli
    if not Path(ahbopt.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ahbopt imported from {ahbopt.cli.__file__}, not {ROOT / 'src'}")

    workdir = Path(args.workdir)
    inputs = workloads.make_inputs(args.workload, args.seed, workdir / "inputs")
    ops = Ops()
    ref_dir, out_dir = workdir / "ref", workdir / "out"

    _, warm = run_round(ahbopt.cli.main, inputs.commands, out_dir)
    record_outcomes(ops, warm)
    # commands print the paths they write, so every round writes to the same path
    reference = snapshot(out_dir, warm)
    out_dir.rename(ref_dir)

    untraced, traced, layers = [], [], []
    last_tracer, built = None, []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(untraced) < MIN_ROUNDS
           or (args.trace and len(traced) < MIN_ROUNDS)):
        gc.collect()
        if args.trace and len(traced) < len(untraced):
            built.clear()
            seconds, outcomes, last_tracer = traced_round(ahbopt.cli.main, inputs,
                                                          out_dir, built)
            traced.append(seconds)
            layers.append(tracing.layer_metrics(last_tracer.spans))
        else:
            seconds, outcomes = run_round(ahbopt.cli.main, inputs.commands, out_dir)
            untraced.append(seconds)
        record_outcomes(ops, outcomes)
        same = snapshot(out_dir, outcomes) == reference
        ops.record("identical-outputs", None if same else "round outputs differ from warm-up")
        shutil.rmtree(out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rounds": len(untraced), "wall_s": statistics.median(untraced),
              "peak_rss_mb": peak_rss_mb}
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["solvers.overhead_x"] = 0.0
        if metrics["solvers.self_us"]:
            obj = built[-1]  # the solved problem: each round builds it last
            bare_us = tracing.bare_heavy_ball_us(obj.matrix, obj.target,
                                                 (1.0 + workloads.MU0) / obj.lipschitz, 0.5)
            metrics["solvers.overhead_x"] = metrics["solvers.self_us"] / bare_us
        metrics["bench.tracing_overhead_s"] = (statistics.median(traced)
                                               - statistics.median(untraced))
        result["traced_rounds"] = len(traced)
        result["layers"] = metrics
        last_tracer.write_csv(workdir / "spans.csv")

    run_checks(ops, inputs, ref_dir, warm)
    result.update(attempted=ops.attempted, failed=len(ops.failures), failures=ops.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
