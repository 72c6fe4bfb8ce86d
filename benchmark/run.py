"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload ls-compare --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/ahbopt``. The
workload runs in a fresh child interpreter with BLAS and OpenMP held to
one thread, after ``setup_s`` is taken over several other fresh
interpreters. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer
metrics of a traced run under ``--trace 1``. ``--record FILE`` also
appends the result, tagged with workload and seed, to a JSON-lines file
that ``compare.py`` reads. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# runs in a fresh interpreter: import the CLI, then build each problem once
_PROBE = """
import json, sys, time
start = time.perf_counter()
import ahbopt.cli
imported = time.perf_counter()
if {build}:
    from ahbopt import ProblemSpec
    for spec in json.loads(sys.argv[1]):
        ProblemSpec.from_dict(spec).build()
built = time.perf_counter()
print(json.dumps({{"import_s": imported - start, "build_s": built - imported,
                   "module": ahbopt.cli.__file__}}))
"""

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def probe(problems, build=True):
    """One fresh interpreter importing ``ahbopt.cli`` and building the
    problems; returns its import and build seconds."""
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(build=build),
                           json.dumps(problems)],
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(times["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"ahbopt imported from {times['module']}, not {SRC}")
    return times


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def measure(args, workdir):
    """Set-up probes, then the workload child; returns the child's result
    and the probes' timings."""
    inputs = workloads.make_inputs(args.workload, args.seed, workdir / "inputs")
    probe(inputs.problems, build=False)  # warms the byte-code and file caches
    setups = [probe(inputs.problems) for _ in range(SETUP_PROBES)]
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--workdir", str(workdir)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        shutil.copyfile(workdir / "spans.csv",
                        RESULTS / f"spans-{args.workload}-{args.seed}.csv")
    return child, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the tagged result to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ahbopt" / "__init__.py").is_file():
        print(f"error: no ahbopt sources under {SRC}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        child, setups = measure(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in child["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        layers = dict(child["layers"])
        layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        units = per_layer_units()
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {"wall_s": child["wall_s"], "peak_rss_mb": child["peak_rss_mb"],
                  "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setups)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    # every set-up probe is an operation too; a failing one has already raised
    attempted = child["attempted"] + SETUP_PROBES
    result = {"correct": child["failed"] == 0, "attempted": attempted,
              "failed": child["failed"], "metrics": metrics}
    print(f"{args.workload} seed {args.seed}: {child['rounds']} timed rounds"
          + (f", {child['traced_rounds']} traced" if args.trace else ""))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
