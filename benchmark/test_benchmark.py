"""The benchmark's own tests: one smoke round of each workload, and each
output check shown to reject a doctored output.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import ahbopt.cli  # noqa: E402


def smoke_round(workload, tmp_path, seed=3):
    inputs = workloads.make_inputs(workload, seed, tmp_path / "inputs")
    out_dir = tmp_path / "out"
    _, outcomes = worker.run_round(ahbopt.cli.main, inputs.commands, out_dir)
    return inputs, out_dir, outcomes


@pytest.fixture(scope="module")
def ls_round(tmp_path_factory):
    return smoke_round("ls-compare", tmp_path_factory.mktemp("ls"))


@pytest.fixture(scope="module")
def radon_round(tmp_path_factory):
    return smoke_round("radon-solve", tmp_path_factory.mktemp("radon"))


@pytest.fixture(scope="module")
def certify_round(tmp_path_factory):
    return smoke_round("certify-suite", tmp_path_factory.mktemp("certify"))


@pytest.fixture(scope="module")
def radon_obj():
    return ahbopt.ProblemSpec("radon", dict(workloads.RADON_PARAMS)).build()


@pytest.mark.parametrize("fixture", ["ls_round", "radon_round", "certify_round"])
def test_smoke_round_passes_every_check(fixture, request):
    inputs, out_dir, outcomes = request.getfixturevalue(fixture)
    ops = worker.Ops()
    worker.record_outcomes(ops, outcomes)
    worker.run_checks(ops, inputs, out_dir, outcomes)
    assert ops.failures == []
    assert ops.attempted == len(inputs.commands) + len(
        workloads.output_checks(inputs, out_dir, {c.name: o for c, _, o, _ in outcomes}))


def test_inputs_depend_on_the_seed_only(tmp_path):
    a = workloads.make_inputs("ls-compare", 5, tmp_path / "a")
    b = workloads.make_inputs("ls-compare", 5, tmp_path / "b")
    c = workloads.make_inputs("ls-compare", 6, tmp_path / "c")
    text = [(p / "compare.json").read_text() for p in (tmp_path / "a", tmp_path / "b",
                                                        tmp_path / "c")]
    assert text[0] == text[1] != text[2]
    assert a.problems == b.problems != c.problems


def test_snapshot_ignores_wall_ms_only(ls_round, tmp_path):
    _, out_dir, outcomes = ls_round
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    reference = worker.snapshot(copy, outcomes)
    meta_path = copy / "gd.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["wall_ms"] = meta["wall_ms"] + 1.0
    meta_path.write_text(json.dumps(meta))
    assert worker.snapshot(copy, outcomes) == reference
    meta["stop_reason"] = "gap_tol"
    meta_path.write_text(json.dumps(meta))
    assert worker.snapshot(copy, outcomes) != reference


def test_traced_round_matches_untraced_outputs(ls_round, tmp_path):
    inputs, out_dir, outcomes = ls_round
    built = []
    _, traced_outcomes, tracer = worker.traced_round(ahbopt.cli.main, inputs,
                                                     tmp_path / "out", built)
    reference = worker.snapshot(out_dir, outcomes)
    traced = worker.snapshot(tmp_path / "out", traced_outcomes)
    assert traced[0] == reference[0]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["solvers.iterations"] == 5 * workloads.LS_ITERS
    assert metrics["trace.rows_written"] == 4 * (workloads.LS_ITERS + 1) + 21
    assert metrics["objective.value_calls"] == 5 * (workloads.LS_ITERS + 1)
    assert 0 < metrics["cli.self_s"] < metrics["cli.main_s"]
    # restored on exit
    assert ahbopt.cli.run_solver.__module__ == "ahbopt.solvers"


def test_layer_metrics_self_time_subtracts_children():
    spans = [["cli.main", -1, 0, 10_000, None],
             ["objective.build", 0, 1_000, 4_000, {"matrix_bytes": 0}],
             ["objective.value", 1, 2_000, 3_000, None]]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(7e-6)
    assert metrics["objective.build_s"] == pytest.approx(3e-6)


def test_power_iteration_span_sits_inside_make_radon(radon_round, tmp_path):
    inputs, _, _ = radon_round
    _, _, tracer = worker.traced_round(ahbopt.cli.main, inputs, tmp_path / "out", [])
    names = [s[tracing.NAME] for s in tracer.spans]
    [power] = [s for s in tracer.spans if s[tracing.NAME] == "objective.lipschitz_estimate"]
    assert power[tracing.PARENT] == names.index("objective.make_radon")
    metrics = tracing.layer_metrics(tracer.spans)
    assert 0 < metrics["objective.lipschitz_estimate_s"] < metrics["objective.make_radon_s"]
    # restored on exit
    assert not hasattr(ahbopt.objective._power_iteration, "__wrapped__")
    assert ahbopt.objective._power_iteration.__name__ == "_power_iteration"


def test_compare_holds_every_metric_to_the_spread_rule():
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    wide, overlapping = [1.0, 1.0, 2.0, 2.0], [1.0, 1.5, 1.5, 2.0]
    assert compare.mark(setup, wide, overlapping)[0] == "unresolved"
    assert compare.mark(setup, wide, [3.0, 3.0, 3.0, 3.0])[0] == "regressed"
    assert compare.mark(setup, [1.0] * 4, [1.1] * 4)[0] == "agreeing"


# --------------------------------------------------------- doctored outputs

def ls_rows(ls_round, name):
    _, out_dir, _ = ls_round
    return checks.parse_trace((out_dir / f"{name}.csv").read_text())


def test_descent_check_rejects_a_growing_distance(ls_round):
    rows = ls_rows(ls_round, "ahb")
    checks.certified_descent(rows, workloads.MU0, 1.0)
    rows[40]["dist"] = rows[39]["dist"] * 1.001
    with pytest.raises(checks.CheckError, match="certified descent"):
        checks.certified_descent(rows, workloads.MU0, 1.0)


def test_monotone_check_rejects_a_growing_gap(ls_round):
    rows = ls_rows(ls_round, "gd")
    rows[500]["gap"] = rows[499]["gap"] * 1.01
    with pytest.raises(checks.CheckError, match="gap grew"):
        checks.monotone_gap_and_distance(rows)


def test_sandwich_rejects_gaps_outside_the_spectrum(ls_round):
    rows = ls_rows(ls_round, "nesterov")
    high = [dict(r) for r in rows]
    high[7]["gap"] = 0.6 * high[7]["dist"] ** 2
    with pytest.raises(checks.CheckError, match="above"):
        checks.gap_sandwich(high, 1.0 / workloads.LS_N, 1.0)
    low = [dict(r) for r in rows]
    low[7]["gap"] = 0.4 * (1.0 / workloads.LS_N) ** 2 * low[7]["dist"] ** 2
    with pytest.raises(checks.CheckError, match="below"):
        checks.gap_sandwich(low, 1.0 / workloads.LS_N, 1.0)


def test_comparison_and_momentum_checks_reject_doctored_rows(ls_round):
    ahb, gd = ls_rows(ls_round, "ahb"), ls_rows(ls_round, "gd")
    with pytest.raises(checks.CheckError):
        checks.final_gap_below(gd, ahb, "ahb")
    ahb[3]["beta"] = 1.5
    with pytest.raises(checks.CheckError, match="beta left"):
        checks.momentum_in_range(ahb, workloads.BETA_CAP)
    for row in gd:
        row["beta"] = 0.0
    with pytest.raises(checks.CheckError, match="never engaged"):
        checks.momentum_in_range(gd, workloads.BETA_CAP)


def test_sparse_rows_check_rejects_a_changed_digit(ls_round):
    _, out_dir, _ = ls_round
    full = (out_dir / "ahb.csv").read_text()
    sparse = (out_dir / "ahb-2.csv").read_text().split("\n")
    sparse[3] = sparse[3][:-1] + ("1" if sparse[3][-1] != "1" else "2")
    with pytest.raises(checks.CheckError, match="differs"):
        checks.sparse_rows_match(full, "\n".join(sparse))


def test_rate_check_rejects_a_rate_of_one():
    with pytest.raises(checks.CheckError):
        checks.linear_rate_below_one({"rho": 1.0})


def test_row_sum_check_rejects_a_wrong_row(radon_obj):
    n = workloads.RADON_PARAMS["num_angles"], workloads.RADON_PARAMS["rays_per_angle"]
    checks.row_sums_match_chords(radon_obj.matrix, *n)
    doctored = radon_obj.matrix.copy()
    doctored.data[doctored.indptr[100]] += 1e-6
    with pytest.raises(checks.CheckError, match="row 100"):
        checks.row_sums_match_chords(doctored, *n)


def test_chord_lengths_on_axis_aligned_rays():
    # at angles 0 and pi/2 every ray crosses the full square
    assert np.allclose(checks.chord_lengths(2, 4), 2.0)
    diagonal = checks.chord_lengths(4, 1)[1]  # the ray through the centre at 45 degrees
    assert diagonal == pytest.approx(2.0 * np.sqrt(2.0))


def test_radon_checks_reject_doctored_data(radon_round, radon_obj):
    _, out_dir, _ = radon_round
    rows = checks.parse_trace((out_dir / "ahb.csv").read_text())
    target = radon_obj.target.copy()
    target[5] += 1e-9
    with pytest.raises(checks.CheckError, match="sinogram"):
        checks.data_consistent(radon_obj.matrix, radon_obj.x_true, target)
    with pytest.raises(checks.CheckError, match="outside"):
        checks.lipschitz_bracket(radon_obj.lipschitz * 0.98, np.sqrt(radon_obj.lipschitz / 1.01),
                                 rows, workloads.MU0)
    for row in rows:
        row["gap"] = 1e6
    with pytest.raises(checks.CheckError, match="summed descent"):
        checks.summed_descent_bound(rows, radon_obj.lipschitz, workloads.MU0, 1.0,
                                    workloads.RADON_ITERS)


def test_certify_checks_reject_doctored_reports(certify_round):
    _, _, outcomes = certify_round
    reports = {c.name: json.loads(out) for c, _, out, _ in outcomes}
    bad = dict(reports["kl-true"], violations=1)
    with pytest.raises(checks.CheckError):
        checks.clean_report(bad, workloads.CERT_SAMPLES)
    short = dict(reports["growth"], checked=10)
    with pytest.raises(checks.CheckError):
        checks.clean_report(short, workloads.CERT_SAMPLES)
    with pytest.raises(checks.CheckError):
        checks.violating_report(dict(reports["kl-false"], violations=0))
    ppa = json.loads(json.dumps(reports["growth-ppa"]))
    ppa["per_tau"][1]["path_length"] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError, match="closed form"):
        checks.ppa_path_lengths(ppa, workloads.PPA_X0, workloads.PPA_STEPS)
    moreau = json.loads(json.dumps(reports["moreau-abs"]))
    moreau["fitted"]["alpha"] = 0.6
    with pytest.raises(checks.CheckError):
        checks.moreau_exponent(moreau, 1.0)
    rate = json.loads(json.dumps(reports["rate"]))
    rate["fitted"]["alpha"] = -0.9
    with pytest.raises(checks.CheckError):
        checks.rate_tail_slope(rate)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "ls-compare",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
