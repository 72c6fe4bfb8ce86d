"""The benchmark's workloads: inputs made from a seed, the CLI commands
of one round, the problems a fresh CLI invocation builds, and the checks
run on the outputs of a round.

Only the generated inputs reach the program; the seed itself never does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

MU0 = 0.96
BETA_CAP = 1.0

LS_N = 200
LS_ITERS = 2000
LS_X0_NORM = 3.0
SPARSE_RECORD_EVERY = 100
LS_RUN_NAMES = ("ahb", "alrhb", "nesterov", "gd", "ahb-2")

RADON_PARAMS = {"grid_n": 64, "num_angles": 64, "rays_per_angle": 64,
                "phantom": "blocks"}
RADON_ITERS = 300
RADON_X0_NORM = 5.0

CERT_SPECTRUM = [1.0, 10.0]
CERT_SAMPLES = 2000
MOREAU_SPECTRUM = [1.0, 2.0]
PPA_X0 = 2.0
PPA_STEPS = 200
SQRT2 = "1.4142135623730951"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{out}`` in an argument is replaced by the
    round's output directory."""

    name: str
    argv: tuple
    expect_exit: int = 0


@dataclass
class Inputs:
    workload: str
    problems: list      # problem spec dicts one invocation of each command builds
    commands: list      # one round, in order
    values: dict = field(default_factory=dict)  # generated values the checks use


def _rng(workload, seed):
    # string seeding hashes with sha512, so it does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}")


def _ls_compare(seed, input_dir):
    rng = _rng("ls-compare", seed)
    problem = {"kind": "least_squares", "seed": rng.randrange(2 ** 31),
               "params": {"rows": LS_N, "cols": LS_N,
                          "singular_values": [1.0 / i for i in range(1, LS_N + 1)]}}
    x0 = {"kind": "seeded_random", "seed": rng.randrange(2 ** 31), "norm": LS_X0_NORM}
    runs = [
        {"method": "ahb", "mu0": MU0, "beta_cap": BETA_CAP, "max_iters": LS_ITERS},
        {"method": "alrhb", "alrhb_beta": 0.96, "max_iters": LS_ITERS},
        {"method": "nesterov", "nesterov_nu": 3.0, "max_iters": LS_ITERS},
        {"method": "gd", "gd_mu": 1.96, "max_iters": LS_ITERS},
        {"method": "ahb", "mu0": MU0, "beta_cap": BETA_CAP, "max_iters": LS_ITERS,
         "record_every": SPARSE_RECORD_EVERY},
    ]
    config = input_dir / "compare.json"
    config.write_text(json.dumps({"problem": problem, "runs": runs, "x0": x0},
                                 indent=2) + "\n")
    return Inputs("ls-compare", [problem], [
        Command("compare", ("compare", "--config", str(config), "--out", "{out}")),
        Command("fit-rate", ("fit-rate", "--trace", "{out}/ahb.csv",
                             "--model", "linear")),
    ])


def _radon_solve(seed, input_dir):
    rng = _rng("radon-solve", seed)
    problem = {"kind": "radon", "params": dict(RADON_PARAMS), "seed": 0}
    x0 = {"seed": rng.randrange(2 ** 31), "norm": RADON_X0_NORM}
    return Inputs("radon-solve", [problem], [
        Command("solve", ("solve", "--problem", "radon",
                          "--params", json.dumps(RADON_PARAMS),
                          "--method", "ahb", "--mu0", str(MU0),
                          "--max-iters", str(RADON_ITERS),
                          "--x0", json.dumps(x0), "--out", "{out}")),
    ], values={"x0": x0})


def _certify_suite(seed, input_dir):
    rng = _rng("certify-suite", seed)
    seeds = [str(rng.randrange(2 ** 31)) for _ in range(5)]
    quad = ("--problem", "quadratic", "--params", json.dumps({"spectrum": CERT_SPECTRUM}))
    band = ("--r", "1", "--eta", "0.05", "--phi-alpha", "0.5",
            "--samples", str(CERT_SAMPLES))
    problems = [{"kind": "quadratic", "params": {"spectrum": s}, "seed": 0}
                for s in (CERT_SPECTRUM, [1.0], MOREAU_SPECTRUM)]
    problems.append({"kind": "abs_value", "params": {}, "seed": 0})
    return Inputs("certify-suite", problems, [
        Command("kl-true", ("certify", "kl", *quad, *band, "--phi-c", SQRT2,
                            "--seed", seeds[0])),
        Command("kl-false", ("certify", "kl", *quad, *band, "--phi-c", "1",
                             "--seed", seeds[1]), expect_exit=3),
        Command("growth", ("certify", "growth", *quad, *band, "--phi-c", SQRT2,
                           "--seed", seeds[2])),
        Command("growth-ppa", ("certify", "growth-ppa", "--problem", "quadratic",
                               "--params", json.dumps({"spectrum": [1.0]}),
                               "--x", json.dumps([PPA_X0]), "--tau-list", "1,0.1,0.01",
                               "--steps", str(PPA_STEPS))),
        Command("moreau-abs", ("certify", "moreau", "--problem", "abs_value",
                               "--seed", seeds[3])),
        Command("moreau-quadratic", ("certify", "moreau", "--problem", "quadratic",
                                     "--params",
                                     json.dumps({"spectrum": MOREAU_SPECTRUM}),
                                     "--seed", seeds[4])),
        Command("rate", ("certify", "rate", "--delta0", "1", "--c", "0.1",
                         "--theta", "2")),
    ])


_MAKERS = {"ls-compare": _ls_compare, "radon-solve": _radon_solve,
           "certify-suite": _certify_suite}

NAMES = tuple(_MAKERS)


def make_inputs(workload, seed, input_dir) -> Inputs:
    """Generate a workload's inputs from its seed, writing any input files
    into ``input_dir``."""
    input_dir = Path(input_dir)
    input_dir.mkdir(parents=True, exist_ok=True)
    return _MAKERS[workload](int(seed), input_dir)


# --------------------------------------------------------------------- checks

def _ls_checks(inputs, out_dir, stdout):
    texts = {name: (out_dir / f"{name}.csv").read_text() for name in LS_RUN_NAMES}
    rows = {name: checks.parse_trace(text) for name, text in texts.items()}
    full_ks = range(LS_ITERS + 1)

    def traces_complete():
        for name in LS_RUN_NAMES[:-1]:
            checks.require_steps(rows[name], full_ks)
        checks.require_steps(rows["ahb-2"], range(0, LS_ITERS + 1, SPARSE_RECORD_EVERY))

    def sandwich():
        for name in LS_RUN_NAMES:
            checks.gap_sandwich(rows[name], 1.0 / LS_N, 1.0)

    # sigma_max = 1, so L = 1 for every run
    return [
        ("traces-complete", traces_complete),
        ("ahb-certified-descent", lambda: checks.certified_descent(rows["ahb"], MU0, 1.0)),
        ("gd-monotone", lambda: checks.monotone_gap_and_distance(rows["gd"])),
        ("gap-sandwich", sandwich),
        ("ahb-beats-gd", lambda: checks.final_gap_below(rows["ahb"], rows["gd"], "gd")),
        ("ahb-momentum-range", lambda: checks.momentum_in_range(rows["ahb"], BETA_CAP)),
        ("sparse-record-rows", lambda: checks.sparse_rows_match(texts["ahb"],
                                                                 texts["ahb-2"])),
        ("linear-rate", lambda: checks.linear_rate_below_one(json.loads(stdout["fit-rate"]))),
    ]


def seeded_start(x0, dim):
    """The start point the CLI documents for {"seed": s, "norm": r}: a
    seeded standard normal direction scaled to norm r."""
    direction = np.random.default_rng(int(x0["seed"])).standard_normal(dim)
    return direction * (float(x0["norm"]) / np.linalg.norm(direction))


def _radon_checks(inputs, out_dir, stdout):
    from scipy.sparse.linalg import svds

    from ahbopt import ProblemSpec

    rows = checks.parse_trace((out_dir / "ahb.csv").read_text())
    state = {}

    def build():
        obj = ProblemSpec("radon", dict(RADON_PARAMS)).build()
        state["obj"] = obj
        state["x0"] = seeded_start(inputs.values["x0"], obj.dim)
        checks.require_steps(rows, range(RADON_ITERS + 1))

    def sigma():
        return float(svds(state["obj"].matrix, k=1, return_singular_vectors=False,
                          random_state=0)[0])

    def dist0():
        return float(np.linalg.norm(state["x0"] - state["obj"].x_true))

    n_angles, n_rays = RADON_PARAMS["num_angles"], RADON_PARAMS["rays_per_angle"]
    return [
        ("build-and-rows", build),
        ("row-sums-are-chords",
         lambda: checks.row_sums_match_chords(state["obj"].matrix, n_angles, n_rays)),
        ("sinogram-consistent",
         lambda: checks.data_consistent(state["obj"].matrix, state["obj"].x_true,
                                        state["obj"].target)),
        ("start-value",
         lambda: checks.first_value_matches(rows, state["obj"].matrix,
                                            state["obj"].target, state["x0"])),
        ("lipschitz-bracket",
         lambda: checks.lipschitz_bracket(state["obj"].lipschitz, sigma(), rows, MU0)),
        ("summed-descent",
         lambda: checks.summed_descent_bound(rows, state["obj"].lipschitz, MU0,
                                             dist0(), RADON_ITERS)),
    ]


def _certify_checks(inputs, out_dir, stdout):
    reports = {name: json.loads(text) for name, text in stdout.items()}
    return [
        ("kl-true-clean", lambda: checks.clean_report(reports["kl-true"], CERT_SAMPLES)),
        ("growth-clean", lambda: checks.clean_report(reports["growth"], CERT_SAMPLES)),
        ("kl-false-violates", lambda: checks.violating_report(reports["kl-false"])),
        ("ppa-path-lengths",
         lambda: checks.ppa_path_lengths(reports["growth-ppa"], PPA_X0, PPA_STEPS)),
        ("moreau-abs-exponent", lambda: checks.moreau_exponent(reports["moreau-abs"], 1.0)),
        ("moreau-quadratic-exponent",
         lambda: checks.moreau_exponent(reports["moreau-quadratic"], 0.5)),
        ("rate-tail-slope", lambda: checks.rate_tail_slope(reports["rate"])),
    ]


_CHECKS = {"ls-compare": _ls_checks, "radon-solve": _radon_checks,
           "certify-suite": _certify_checks}


def output_checks(inputs, out_dir, stdout):
    """(name, thunk) pairs checking one round's outputs; ``stdout`` maps
    command names to what each printed. A thunk raises
    :class:`checks.CheckError` on a bad output."""
    return _CHECKS[inputs.workload](inputs, Path(out_dir), stdout)
