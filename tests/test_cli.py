import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ahbopt import IterationRecord, Trace, certify, read_csv, write_csv
from ahbopt.cli import main


def _json_stdout(capsys):
    return json.loads(capsys.readouterr().out)


def test_solve_writes_trace_summary_and_meta(tmp_path, capsys):
    code = main(["solve", "--problem", "quadratic",
                 "--params", '{"spectrum": [1.0, 10.0]}',
                 "--x0", '{"seed": 3, "norm": 2.0}',
                 "--max-iters", "50", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(tmp_path / "ahb.csv")

    trace = read_csv(tmp_path / "ahb.csv")
    assert trace.records[0].k == 0
    assert trace.meta["stop_reason"] in ("max_iters", "gap_tol")

    summary = json.loads((tmp_path / "ahb.summary.json").read_text())
    assert summary["iterations"] <= 50
    assert summary["final_gap"] < 1.0
    sidecar = json.loads((tmp_path / "ahb.csv.meta.json").read_text())
    assert sidecar["problem"]["kind"] == "quadratic"
    assert sidecar["x0_seed"] == 3


def test_solve_seeded_start_is_reproducible(tmp_path):
    argv = ["solve", "--problem", "least_squares", "--seed", "5",
            "--x0", '{"seed": 11, "norm": 3.0}', "--max-iters", "40"]
    main(argv + ["--out", str(tmp_path / "a")])
    main(argv + ["--out", str(tmp_path / "b")])
    first = (tmp_path / "a" / "ahb.csv").read_bytes()
    second = (tmp_path / "b" / "ahb.csv").read_bytes()
    assert first == second


def test_solve_without_problem_is_a_config_error(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path)]) == 1
    assert "problem" in capsys.readouterr().err


def test_unknown_flag_is_a_config_error(capsys):
    assert main(["solve", "--problem", "quadratic", "--bogus"]) == 1
    capsys.readouterr()


def test_malformed_params_json_is_a_config_error(capsys):
    assert main(["solve", "--problem", "quadratic", "--params", "{oops"]) == 1
    capsys.readouterr()


def test_solver_objective_mismatch_is_a_config_error(tmp_path, capsys):
    code = main(["solve", "--problem", "abs_value", "--max-iters", "5",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "gradient" in capsys.readouterr().err


def test_overflowing_run_reports_numerical_failure(tmp_path, capsys):
    with np.errstate(over="ignore"):
        code = main(["solve", "--problem", "quadratic",
                     "--params", '{"spectrum": [1e308]}',
                     "--x0", '{"seed": 1, "norm": 100.0}',
                     "--max-iters", "5", "--out", str(tmp_path)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("norm", ["NaN", "Infinity", "-Infinity", "-1.0"])
def test_bad_start_norm_is_a_config_error(norm, tmp_path, capsys):
    code = main(["solve", "--problem", "quadratic", "--max-iters", "5",
                 "--x0", f'{{"seed": 1, "norm": {norm}}}', "--out", str(tmp_path)])
    assert code == 1
    assert "x0 norm" in capsys.readouterr().err
    assert not (tmp_path / "ahb.csv").exists()


def test_overflowing_start_reports_only_the_numerical_failure(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--problem", "quadratic",
                     "--params", '{"spectrum": [1.0, 10.0]}',
                     "--x0", '{"seed": 1, "norm": 1e308}',
                     "--max-iters", "5", "--out", str(tmp_path)])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith("numerical failure")


def test_out_path_collision_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory\n")
    code = main(["solve", "--problem", "quadratic", "--max-iters", "5",
                 "--x0", '{"seed": 1}', "--out", str(blocker)])
    assert code == 1
    capsys.readouterr()


def test_compare_runs_stock_method_set(tmp_path, capsys):
    code = main(["compare", "--problem", "quadratic",
                 "--params", '{"spectrum": [1.0, 4.0]}',
                 "--x0", '{"seed": 1, "norm": 1.0}',
                 "--max-iters", "30", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("compare.json")
    summaries = json.loads((tmp_path / "compare.json").read_text())
    assert set(summaries) == {"ahb", "alrhb", "nesterov", "gd"}
    for name in summaries:
        assert (tmp_path / f"{name}.csv").exists()


def test_config_file_drives_solve(tmp_path):
    config = {
        "problem": {"kind": "quadratic", "params": {"spectrum": [1.0, 10.0]}},
        "runs": [{"method": "gd", "max_iters": 20}],
        "x0": {"seed": 2, "norm": 1.0},
        "out_dir": str(tmp_path / "runs"),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    trace = read_csv(tmp_path / "runs" / "gd.csv")
    assert trace.records[-1].k == 20

    # Flags override the file entry by entry.
    assert main(["solve", "--config", str(cfg_path), "--max-iters", "7"]) == 0
    trace = read_csv(tmp_path / "runs" / "gd.csv")
    assert trace.records[-1].k == 7


@pytest.mark.parametrize("entry", [{"max_iters": "10"}, {"mu0": "0.5"},
                                   {"record_every": 2.5}, {"max_iters": True}],
                         ids=["str-int", "str-float", "fractional-int", "bool"])
def test_config_entry_of_the_wrong_type_is_a_config_error(entry, tmp_path, capsys):
    config = {"problem": {"kind": "quadratic"}, "runs": [entry], "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {next(iter(entry))} must be")


# SHA-256 of the help text at 80 columns (Python 3.11 argparse); the solver
# flags are derived from SolverConfig and must print as they were written.
HELP_DIGESTS = {
    "compare": "e1893f3818d8baed776111d6f12adc47be845ecfaead2614d444465664862b45",
    "solve": "5429155cc17ae2aa71976702c198f4f387a756d26d9f6a6b620ebdce8255fca7",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_solver_command_help_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[command]


# The help of every other command at 80 columns. A subcommand adds its flags
# only when it parses, so its help must still list all of them, in order.
OTHER_HELP_DIGESTS = {
    "": "0ac7cad0d12421eebcac60a32c3bc295927d696d97165f80223e0aeb01f60773",
    "certify": "74bcb9416fb750cf2c9b87d9d9521cbedeb527f140ad17dbef5cf9984a21a9c4",
    "certify kl": "d41893f36bf250466a2b9b673529ca062dfa56faef70926892ce06498663ee60",
    "certify growth": "58322ae2dc96fd81200f506084162a0094f72e9e5c0c992377d6eac746db3e42",
    "certify growth-ppa": "3f36f4c5c6fb15d0189d87d51167bb1b470397be586d0ec5d7376a092c9fc0a2",
    "certify moreau": "49cf71b14048f318506024a9d3d57cb7a1f318771dac61d0c2376364a4df856d",
    "certify rate": "be3d9d83de5d0659bae43de87bcc8945a6a15fd660c9e9267dd1b9270a25d26f",
    "fit-rate": "2f57fab02c2ac37cd32b0546b548132888e601156267e1846534b5624520ef1b",
}


@pytest.mark.parametrize("command", sorted(OTHER_HELP_DIGESTS))
def test_other_command_help_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == OTHER_HELP_DIGESTS[command]


def test_compare_rejects_disagreeing_embedded_problems(tmp_path, capsys):
    config = {
        "problem": {"kind": "quadratic", "params": {"spectrum": [1.0]}},
        "runs": [
            {"method": "gd",
             "problem": {"kind": "quadratic", "params": {"spectrum": [2.0]}}},
        ],
        "out_dir": str(tmp_path),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(cfg_path)]) == 1
    assert "shared problem" in capsys.readouterr().err


def test_certify_growth_passes_with_slop_factor(capsys):
    code = main(["certify", "growth", "--problem", "abs_value",
                 "--phi-alpha", "1.0", "--factor", "2.0"])
    assert code == 0
    report = _json_stdout(capsys)
    assert report["violations"] == 0
    assert report["worst_ratio"] == pytest.approx(0.5)


def test_certify_kl_violations_set_exit_code(capsys):
    code = main(["certify", "kl", "--problem", "quadratic",
                 "--phi-alpha", "1.0", "--r", "0.5", "--eta", "0.1"])
    assert code == 3
    assert _json_stdout(capsys)["violations"] > 0


def test_certify_rate_needs_no_problem(capsys):
    code = main(["certify", "rate", "--delta0", "1.0", "--c", "0.1",
                 "--theta", "2.0", "--steps", "500"])
    assert code == 0
    report = _json_stdout(capsys)
    assert report["violations"] == 0
    assert report["fitted"]["C"] > 0


def test_certify_rate_of_one_step_fits_two_points_quietly(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["certify", "rate", "--delta0", "1", "--c", "0.1", "--theta", "2",
                     "--steps", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["checked"] == 2 and math.isfinite(report["fitted"]["alpha"])


def test_radon_beyond_the_ray_cap_is_a_config_error(tmp_path, capsys):
    params = {"grid_n": 8, "num_angles": 129, "rays_per_angle": 128, "phantom": "disks"}
    code = main(["solve", "--problem", "radon", "--params", json.dumps(params),
                 "--out", str(tmp_path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: num_angles * rays_per_angle = 16512 exceeds the "
                   "desk-scale cap of 16384 rays\n")
    assert not (tmp_path / "ahb.csv").exists()


def test_certify_infinite_eta_uses_surrogate_and_says_so(capsys):
    code = main(["certify", "kl", "--problem", "abs_value",
                 "--phi-alpha", "1.0", "--eta", "inf"])
    assert code == 0
    report = _json_stdout(capsys)
    assert any("surrogate" in note for note in report["notes"])


def test_certify_growth_ppa_reports_per_tau(capsys):
    code = main(["certify", "growth-ppa", "--problem", "quadratic",
                 "--x", "[2.0]", "--phi-c", "1.4142135623730951",
                 "--phi-alpha", "0.5", "--tau-list", "1,0.1"])
    assert code == 0
    report = _json_stdout(capsys)
    assert report["violations"] == 0
    assert [row["tau"] for row in report["per_tau"]] == [1.0, 0.1]


def test_certify_growth_ppa_non_finite_start_is_a_numerical_failure(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["certify", "growth-ppa", "--problem", "quadratic",
                     "--params", '{"spectrum": [1]}', "--x", "[1e308]",
                     "--tau-list", "1"])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure") and "RuntimeWarning" not in err


def test_certify_growth_ppa_repeated_taus_are_a_config_error(capsys):
    # one distinct tau leaves the exponent line a single abscissa to fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["certify", "growth-ppa", "--problem", "quadratic", "--x=[2.0]",
                     "--tau-list=0.5,0.5,0.5", "--steps=3"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: tau_list must not repeat a value\n"


def test_certify_kl_reports_trials_and_shortfall(capsys):
    # about 2e-5 of the unit disc lies in the slice, so the 100k-trial cap
    # accepts only a few of the 1000 requested points
    code = main(["certify", "kl", "--problem", "quadratic",
                 "--params", '{"spectrum": [1, 100]}', "--eta", "1e-4",
                 "--samples", "1000"])
    report = _json_stdout(capsys)
    assert code == (3 if report["violations"] else 0)
    assert 0 < report["checked"] < 1000
    assert report["trials"] == 100_000
    assert report["notes"] == [f"only {report['checked']} of 1000 requested samples "
                               "were accepted in 100000 trials"]


@pytest.mark.parametrize("argv", [
    ["kl", "--problem", "quadratic", "--xbar", "[NaN]"],
    ["moreau", "--problem", "abs_value", "--xbar", "[Infinity]"],
    ["growth-ppa", "--problem", "quadratic", "--x", "[NaN]"],
], ids=["kl", "moreau", "growth-ppa"])
def test_certify_non_finite_point_is_a_config_error(argv, capsys):
    assert main(["certify"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: point must be finite")


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_get_the_mode_open_would_give(umask, tmp_path, capsys):
    old = os.umask(umask)
    try:
        code = main(["compare", "--problem", "quadratic", "--max-iters", "5",
                     "--x0", '{"seed": 1}', "--out", str(tmp_path)])
    finally:
        os.umask(old)
    assert code == 0
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(["compare.json"] + [
        f"{m}{suffix}" for m in ("ahb", "alrhb", "nesterov", "gd")
        for suffix in (".csv", ".csv.meta.json", ".summary.json")])
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_fit_rate_reads_solver_trace(tmp_path, capsys):
    assert main(["solve", "--problem", "quadratic",
                 "--params", '{"spectrum": [1.0]}', "--method", "gd",
                 "--gd-mu", "0.5", "--x0", '{"seed": 4, "norm": 1.0}',
                 "--max-iters", "40", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["fit-rate", "--trace", str(tmp_path / "gd.csv"),
                 "--model", "linear", "--k-min", "1"])
    assert code == 0
    fit = _json_stdout(capsys)
    assert fit["model"] == "linear"
    assert 0.0 < fit["rho"] < 1.0


def test_fit_rate_without_distances_is_a_config_error(tmp_path, capsys):
    records = [IterationRecord(k=k, fval=1.0, gap=1.0, gnorm=1.0, alpha=0.5,
                               beta=0.0, step_norm=0.0, dist=None)
               for k in range(12)]
    path = tmp_path / "no_dist.csv"
    write_csv(Trace(records=records), path)
    code = main(["fit-rate", "--trace", str(path), "--model", "linear"])
    assert code == 1
    assert "distance" in capsys.readouterr().err


def test_fit_rate_of_a_trace_with_a_negative_k_is_a_config_error(tmp_path, capfd):
    # log(k + 1) of k = -1 made LAPACK write to file descriptor 1
    path = tmp_path / "negative_k.csv"
    path.write_text("k,fval,gap,gnorm,alpha,beta,step_norm,dist\n"
                    + "".join(f"{k},1,1,1,0.5,0,0,{1.0 / (k + 2)}\n" for k in range(-1, 11)))
    code = main(["fit-rate", "--trace", str(path), "--model", "power"])
    assert code == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: record iteration numbers must be nonnegative, got -1\n"


def test_module_invocation_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ahbopt", "solve", "--problem", "quadratic",
         "--x0", '{"seed": 1}', "--max-iters", "5", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip().endswith("ahb.csv")


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(sys.modules["ahbopt"].__file__))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, ahbopt.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("x0", ['{"seed": null}', '{"norm": null}', '{"seed": "abc"}',
                                '{"seed": "5"}', '{"norm": "2"}', '{"norm": [1.0]}',
                                '{"seed": {}}', '{"seed": true}', '{"seed": 2.5}',
                                '{"seed": Infinity}', '{"seed": NaN}'],
                         ids=["null-seed", "null-norm", "str-seed", "numeric-str-seed",
                              "numeric-str-norm", "list-norm", "dict-seed", "bool-seed",
                              "fractional-seed", "inf-seed", "nan-seed"])
def test_non_numeric_start_seed_or_norm_is_a_config_error(x0, tmp_path, capsys):
    code = main(["solve", "--problem", "quadratic", "--max-iters", "5",
                 "--x0", x0, "--out", str(tmp_path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: x0 needs an integer seed and a numeric norm")
    assert not (tmp_path / "ahb.csv").exists()


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("runs", [[1], [{"method": "gd"}, "ahb"], {"method": "gd"}, "gd",
                                  [], {}, "", 0, False],
                         ids=["int-entry", "str-entry", "object", "string", "empty-list",
                              "empty-object", "empty-string", "zero", "false"])
def test_runs_that_are_not_a_list_of_objects_are_a_config_error(command, runs, tmp_path,
                                                                 capsys):
    config = {"problem": {"kind": "quadratic"}, "runs": runs, "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: runs must be a non-empty list of objects\n"


def test_solve_with_several_runs_points_to_compare(tmp_path, capsys):
    config = {"problem": {"kind": "quadratic"}, "out_dir": str(tmp_path / "out"),
              "runs": [{"method": "gd"}, {"method": "ahb"}]}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: solve takes one run, the config has 2") and "compare" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["ahb", "gd", "alrhb", "nesterov"])
def test_overflowing_least_squares_start_reports_only_the_numerical_failure(
        method, tmp_path, capsys):
    # |A x0|^2 overflows in the residual the fused oracle shares with the gradient
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--problem", "least_squares", "--method", method,
                     "--x0", '{"seed": 1, "norm": 1e300}',
                     "--max-iters", "5", "--out", str(tmp_path)])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: non-finite value at iteration 0\n"


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_overflowing_start_point_reports_only_the_numerical_failure(command, tmp_path,
                                                                     capsys):
    # scaling the dim-1 start to norm 1e308 overflows before any run starts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--problem", "quadratic", "--params", '{"spectrum": [1e308]}',
                     "--x0", '{"seed": 1, "norm": 1e308}', "--max-iters", "3",
                     "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "numerical failure: non-finite value at iteration 0\n"


@pytest.mark.parametrize("top", [1e308, 1.3e154, 1e-200])
def test_least_squares_with_a_non_finite_or_zero_bound_is_a_config_error(top, tmp_path,
                                                                         capsys):
    params = {"rows": 2, "cols": 2, "singular_values": [top, top]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--problem", "least_squares", "--params", json.dumps(params),
                     "--method", "gd", "--max-iters", "3", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: the gradient Lipschitz bound singular_values[0]^2")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "ahb.csv").exists()


# SHA-256 over the name and bytes of every file `compare` writes (sidecars
# with wall_ms nulled) on 30x30 least squares at 300 iterations, as written
# before the value and gradient shared one residual.
COMPARE_DIGESTS = {
    1: "75a126716662ff172243c3ce6df8c9c09ff9f554db8f19f2329cedcaf6f33e2c",
    7: "e80ec3af2a7983cc0f52f94c295ce84390c70ed9d4aa313171be715230ae9e4e",
}


@pytest.mark.parametrize("record_every", sorted(COMPARE_DIGESTS))
def test_compare_outputs_are_bitwise_golden(record_every, tmp_path, capsys):
    config = {"problem": {"kind": "least_squares", "seed": 3,
                          "params": {"rows": 30, "cols": 30,
                                     "singular_values": [1.0 / i for i in range(1, 31)]}},
              "x0": {"seed": 4, "norm": 3.0}}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out),
                 "--max-iters", "300", "--record-every", str(record_every)]) == 0
    capsys.readouterr()
    blob = b""
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".meta.json"):
            meta = json.loads(data)
            meta["wall_ms"] = None
            data = json.dumps(meta, sort_keys=True).encode()
        blob += path.name.encode() + b"\0" + data
    assert hashlib.sha256(blob).hexdigest() == COMPARE_DIGESTS[record_every]


def test_solve_rejects_a_disagreeing_embedded_problem(tmp_path, capsys):
    config = {
        "problem": {"kind": "quadratic", "params": {"spectrum": [1.0]}},
        "runs": [{"method": "gd",
                  "problem": {"kind": "quadratic", "params": {"spectrum": [2.0]}}}],
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "shared problem" in err and "compare" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem, message", [
    ({"kind": "quadratic", "seed": None}, "problem seed must be an integer, got None"),
    ({"kind": "least_squares", "seed": "7"}, "problem seed must be an integer, got '7'"),
    ({"kind": "least_squares", "seed": 2.5}, "problem seed must be an integer, got 2.5"),
    ({"kind": "least_squares", "seed": True}, "problem seed must be an integer, got True"),
    ({"kind": "quadratic", "params": [1]}, "params must be a mapping"),
    (5, "problem spec must be an object"),
], ids=["null-seed", "str-seed", "fractional-seed", "bool-seed", "list-params", "int-problem"])
def test_problem_spec_of_the_wrong_type_is_a_config_error(problem, message, tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"problem": problem, "out_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["solve"], ["compare"], ["certify", "kl"], ["certify", "growth"],
    ["certify", "growth-ppa", "--x", "[1.0]"], ["certify", "moreau"],
], ids=["solve", "compare", "kl", "growth", "growth-ppa", "moreau"])
def test_params_that_are_not_an_object_are_a_config_error(argv, tmp_path, capsys):
    code = main(argv + ["--problem", "quadratic", "--params", "[1]"]
                + (["--out", str(tmp_path)] if argv[0] != "certify" else []))
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: params must be a mapping\n"


@pytest.mark.parametrize("argv", [
    ["kl", "--problem", "quadratic", "--xbar", '{"a":1}'],
    ["growth", "--problem", "quadratic", "--xbar", '"0.5"'],
    ["moreau", "--problem", "abs_value", "--xbar", "true"],
    ["growth-ppa", "--problem", "quadratic", "--x", '{"a":1}'],
], ids=["kl-object", "growth-string", "moreau-bool", "growth-ppa-object"])
def test_certify_point_that_is_not_numbers_is_a_config_error(argv, capsys):
    assert main(["certify"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: point must be a JSON number or list of numbers")


@pytest.mark.parametrize("argv", [
    ["rate", "--delta0", "nan", "--c", "0.1", "--theta", "2"],
    ["rate", "--delta0", "1", "--c", "0.1", "--theta", "inf"],
    ["kl", "--problem", "quadratic", "--r", "inf"],
    ["growth", "--problem", "quadratic", "--r", "inf"],
    ["moreau", "--problem", "abs_value", "--r", "inf"],
    ["moreau", "--problem", "abs_value", "--lam", "inf"],
    ["growth-ppa", "--problem", "quadratic", "--x", "[1.0]", "--tau-list", "1,inf"],
    ["kl", "--problem", "quadratic", "--phi-c", "inf"],
    ["growth", "--problem", "quadratic", "--factor", "inf"],
], ids=["rate-delta0", "rate-theta", "kl-r", "growth-r", "moreau-r", "moreau-lam",
        "growth-ppa-tau", "kl-phi-c", "growth-factor"])
def test_certify_non_finite_input_is_a_config_error_before_sampling(argv, monkeypatch,
                                                                     capsys):
    def no_draws(*args):
        raise AssertionError("sampled with a non-finite input")

    monkeypatch.setattr(certify, "_ball_points", no_draws)
    assert main(["certify"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_embedded_problem_that_omits_params_matches_the_top_level_one(command, tmp_path,
                                                                      capsys):
    # both sides get the default params, so the two specs agree
    config = {"problem": {"kind": "quadratic"},
              "runs": [{"method": "gd", "problem": {"kind": "quadratic"}}],
              "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "gd.csv").exists()


@pytest.mark.parametrize("problem", [[], 0, ""], ids=["list", "zero", "empty-string"])
def test_embedded_problem_that_is_not_an_object_is_a_config_error(problem, tmp_path,
                                                                 capsys):
    config = {"runs": [{"method": "gd", "problem": problem}], "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["solve", "--problem", "quadratic", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: problem spec must be an object\n"


@pytest.mark.parametrize("params, message", [
    ('{"rows": "3", "cols": 3, "singular_values": [1, 1, 1]}',
     "rows must be an integer, got '3'"),
    ('{"rows": 2.5, "cols": 3, "singular_values": [1, 1]}',
     "rows must be an integer, got 2.5"),
    ('{"rows": true, "cols": 1, "singular_values": [1]}',
     "rows must be an integer, got True"),
], ids=["str-rows", "fractional-rows", "bool-rows"])
def test_least_squares_integer_params_of_the_wrong_type_are_a_config_error(
        params, message, tmp_path, capsys):
    code = main(["solve", "--problem", "least_squares", "--params", params,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_power_dim_that_is_a_bool_is_a_config_error(capsys):
    code = main(["certify", "kl", "--problem", "power",
                 "--params", '{"p": 4.0, "dim": true, "ball_radius": 4.0}'])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dim must be an integer, got True\n"


@pytest.mark.parametrize("kind", ["bogus", 7, None, ["q"], {}],
                         ids=["str", "int", "null", "list", "object"])
def test_config_problem_of_an_unknown_kind_is_a_config_error(kind, tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"problem": {"kind": kind}}))
    assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: unknown problem kind '{kind}'; expected one of")
    assert not (tmp_path / "out").exists()


def test_certify_rate_whose_power_overflows_is_a_config_error(capsys):
    code = main(["certify", "rate", "--delta0", "1e308", "--c", "1", "--theta", "3"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: need c * delta0^(theta-1) < 1 for a contracting sequence\n"


@pytest.mark.parametrize("params", [
    {"p": 5, "dim": 1, "ball_radius": 5.6e102},
    {"p": 1e10, "dim": 1, "ball_radius": 4.0},
    {"p": 4.0, "dim": 1, "ball_radius": float("inf")},
    {"p": float("inf"), "dim": 1, "ball_radius": 1.0},
], ids=["huge-radius", "huge-p", "inf-radius", "inf-p"])
def test_power_with_an_infinite_lipschitz_bound_is_a_config_error(params, tmp_path, capsys):
    code = main(["solve", "--problem", "power", "--params", json.dumps(params),
                 "--out", str(tmp_path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the gradient Lipschitz bound (p - 1) * ball_radius^(p - 2) "
                          "must be finite")


@pytest.mark.parametrize("method", ["gd", "nesterov"])
def test_power_whose_lipschitz_bound_underflows_is_a_config_error(method, tmp_path, capsys):
    # 1076 * 0.5 ** 1075 rounds to 0, and gd and nesterov divide by the bound
    params = {"p": 1077.0, "dim": 1, "ball_radius": 0.5}
    code = main(["solve", "--problem", "power", "--params", json.dumps(params),
                 "--method", method, "--max-iters", "0", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: the gradient Lipschitz bound (p - 1) * ball_radius^(p - 2) "
                          "must be finite and positive, got p = 1077")


def test_certify_rate_whose_recursion_overflows_is_a_numerical_failure(capsys):
    code = main(["certify", "rate", "--delta0", "1e200", "--c", "5e-324", "--theta", "2.5",
                 "--steps", "20"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: delta_0^theta overflows at step 1\n"


def test_certify_rate_whose_envelope_overflows_is_a_numerical_failure(capsys):
    code = main(["certify", "rate", "--delta0", "1e-300", "--c", "0.99", "--theta", "1.01",
                 "--steps", "3000"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: the envelope weight at step 1209 is inf, not finite\n"


def test_certify_moreau_with_infinite_envelope_gaps_is_a_config_error(capfd):
    # LAPACK writes its complaints to file descriptor 1, past sys.stdout
    code = main(["certify", "moreau", "--problem", "quadratic",
                 "--params", '{"spectrum": [1]}', "--r", "1e300"])
    assert code == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: only 0 usable envelope samples in 10000 trials\n"


def test_a_usage_error_between_calls_in_one_process_changes_nothing(capsys):
    rate = ["certify", "rate", "--delta0", "1", "--c", "0.1", "--theta", "2", "--steps", "50"]
    outcomes = []
    for argv in (rate, ["certify", "rate", "--delta0", "1"], rate,
                 ["solve", "--bogus"], rate):
        code = main(argv)
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0][0] == 0 and outcomes[0] == outcomes[2] == outcomes[4]
    assert outcomes[1] == (1, "", "error: the following arguments are required: --c, "
                                  "--theta\n")
    assert outcomes[3] == (1, "", "error: unrecognized arguments: --bogus\n")


def test_help_wraps_at_the_width_of_each_call_in_one_process(monkeypatch, capsys):
    texts = {}
    for columns in ("80", "120", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["compare", "--help"])
        text = capsys.readouterr().out
        assert texts.setdefault(columns, text) == text
    assert hashlib.sha256(texts["80"].encode()).hexdigest() == HELP_DIGESTS["compare"]
    assert texts["80"] != texts["120"]


def _record_bits(record):
    # floats by their hex form, so NaN, -0.0 and every last bit count
    return tuple(v if v is None or type(v) is int else float(v).hex()
                 for v in (record.k, record.fval, record.gap, record.gnorm,
                           record.alpha, record.beta, record.step_norm, record.dist))


@pytest.mark.parametrize("argv, has_dist", [
    (["solve", "--problem", "quadratic", "--params", '{"spectrum": [1.0, 10.0]}',
      "--x0", '{"seed": 3, "norm": 2.0}', "--max-iters", "40"], True),
    (["solve", "--problem", "quadratic", "--params", '{"spectrum": [1.0, 10.0]}',
      "--x0", '{"seed": 3, "norm": 2.0}', "--max-iters", "40", "--record-every", "7"], True),
    (["compare", "--problem", "least_squares", "--seed", "5",
      "--x0", '{"seed": 11, "norm": 3.0}', "--max-iters", "30", "--record-every", "4"], True),
    (["compare", "--problem", "least_squares", "--seed", "2",
      "--params", '{"rows": 6, "cols": 9, "singular_values": [1, 0.5, 0.25, 0.1, 0.05, 0.01]}',
      "--x0", '{"seed": 1, "norm": 1.0}', "--max-iters", "25"], False),
    (["solve", "--problem", "radon", "--x0", '{"seed": 4, "norm": 1.0}',
      "--max-iters", "20", "--record-every", "3"], False),
], ids=["solve-dist", "solve-dist-every-7", "compare-dist-every-4", "compare-no-dist",
        "solve-radon-no-dist-every-3"])
def test_every_written_trace_reads_back_the_same(tmp_path, capsys, monkeypatch, argv,
                                                 has_dist):
    from ahbopt import trace as trace_module

    written, write = [], trace_module.write_csv

    def write_and_keep(run, path):
        written.append((run, path))
        write(run, path)

    monkeypatch.setattr(trace_module, "write_csv", write_and_keep)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    every = int(argv[argv.index("--record-every") + 1]) if "--record-every" in argv else 1
    assert len(written) == (1 if argv[0] == "solve" else 4)
    for run, path in written:
        assert len(run.records) > 2
        assert all(r.k % every == 0 for r in run.records[:-1])
        assert all((r.dist is not None) == has_dist for r in run.records)
        back = read_csv(path)
        assert [_record_bits(r) for r in back.records] == [_record_bits(r) for r in run.records]
        assert back.meta == run.meta
