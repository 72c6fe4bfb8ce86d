"""Run the benchmark over several seeds and record every result.

    python3 benchmark/sweep.py --out benchmark/results/set-a.jsonl

Runs ``run.py`` once per (workload, seed), one at a time, with the run
length from BENCHMARK.json, and appends each tagged result to ``--out``
for ``compare.py``. Each workload gets ten seeds, ``--first-seed``
upwards.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON-lines file to append to")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    failures = 0
    for name in (w["name"] for w in spec["workloads"]):
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0", "--record", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{name} seed {seed}: exit {proc.returncode} {last}", flush=True)
            if proc.returncode != 0:
                failures += 1
                print(proc.stderr[-2000:], file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
