import argparse
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

from ahbopt import (IterationRecord, ProblemSpec, SolverConfig, Trace, certify, read_csv,
                    write_csv)
from ahbopt.cli import build_parser, main


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


def _no_constant(name):
    raise ValueError(f"{name} is no strict JSON")


@pytest.mark.parametrize("field", ["beta_cap", "gap_tol", "nesterov_nu"])
def test_an_infinite_config_field_leaves_the_sidecar_strict_json(field, tmp_path, capsys):
    assert main(["solve", "--problem", "quadratic", "--" + field.replace("_", "-"), "inf",
                 "--max-iters", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "ahb.csv.meta.json").read_text(), parse_constant=_no_constant)
    assert meta == read_csv(tmp_path / "ahb.csv").meta
    config = SolverConfig.from_json_dict(meta["config"])
    assert config == SolverConfig(max_iters=3, **{field: math.inf})


def test_solve_seeded_start_is_reproducible(tmp_path):
    argv = ["solve", "--problem", "least_squares", "--problem-seed", "5",
            "--x0", '{"seed": 11, "norm": 3.0}', "--max-iters", "40"]
    main(argv + ["--out", str(tmp_path / "a")])
    main(argv + ["--out", str(tmp_path / "b")])
    first = (tmp_path / "a" / "ahb.csv").read_bytes()
    second = (tmp_path / "b" / "ahb.csv").read_bytes()
    assert first == second


def test_problem_seed_flag_builds_the_problem_of_the_config_seed(tmp_path, capsys):
    x0 = {"seed": 4, "norm": 3.0}
    assert main(["solve", "--problem", "least_squares", "--problem-seed", "3",
                 "--x0", json.dumps(x0), "--max-iters", "40",
                 "--out", str(tmp_path / "flag")]) == 0
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"problem": {"kind": "least_squares", "seed": 3},
                                    "x0": x0, "out_dir": str(tmp_path / "file")}))
    assert main(["solve", "--config", str(cfg_path), "--max-iters", "40"]) == 0
    capsys.readouterr()
    flag = (tmp_path / "flag" / "ahb.csv").read_bytes()
    assert flag == (tmp_path / "file" / "ahb.csv").read_bytes()
    sidecar = json.loads((tmp_path / "flag" / "ahb.csv.meta.json").read_text())
    assert sidecar["problem"]["seed"] == 3


def test_certify_sample_seed_leaves_the_problem_seed_at_zero(monkeypatch, capsys):
    built, build = [], ProblemSpec.build

    def build_and_keep(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(ProblemSpec, "build", build_and_keep)
    for seed in ("1", "2"):
        assert main(["certify", "growth", "--problem", "least_squares",
                     "--samples", "5", "--seed", seed]) in (0, 3)
    capsys.readouterr()
    assert len(built) == 2 and built[0] == built[1]
    assert built[0].seed == 0


def test_problem_flag_sets_the_kind_and_keeps_the_config_params(tmp_path, capsys):
    # the config's quadratic params go to the power factory, which rejects them
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "problem": {"kind": "quadratic", "params": {"spectrum": [1.0, 2.0]}},
        "out_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfg_path), "--problem", "power"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad parameters for 'power'")
    assert not (tmp_path / "out").exists()


def test_unknown_start_key_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--problem", "quadratic", "--x0", '{"seed": 1, "nrom": 5}',
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == ("", "error: unknown x0 keys: ['nrom']\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["certify", "kl", "--problem", "quadratic", "--seed", "abc"],
     "argument --seed: invalid int value: 'abc'"),
    (["solve", "--problem", "quadratic", "--x0", '{"kind": "grid"}'], "unknown x0 kind 'grid'"),
    # JSON Infinity would reach the sidecar, which must stay strict JSON
    (["solve", "--problem", "power", "--params",
      '{"p": 2, "dim": 1, "ball_radius": Infinity}'], "ball_radius must lie in (0, inf)"),
    (["certify", "kl", "--problem", "quadratic", "--params", '{"spectrum": [1, 2, 4]}',
      "--xbar", "[0.0]"], "xbar must have shape (3,), got (1,)"),
    (["certify", "moreau", "--problem", "quadratic", "--lam", "inf"],
     "lam must lie in (0, inf)"),
    (["certify", "growth-ppa", "--problem", "quadratic", "--x", "[1.0]", "--tau-list", "1,abc"],
     "argument --tau-list: invalid float list value: '1,abc'"),
], ids=["seed-not-an-int", "x0-kind", "infinite-radius", "xbar-dimension", "infinite-lam",
        "tau-list-not-floats"])
def test_bad_input_is_a_config_error_that_names_it(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + (["--out", str(out)] if argv[0] == "solve" else [])) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


_BEYOND_FLOATS = "1" + "0" * 400  # a JSON integer that no float holds


@pytest.mark.parametrize("argv, config, message", [
    (["solve", "--problem", "power", "--params",
      f'{{"p": {_BEYOND_FLOATS}, "dim": 1, "ball_radius": 1}}'], None,
     "p must lie in [2, inf)"),
    (["solve", "--problem", "quadratic", "--params", f'{{"spectrum": [{_BEYOND_FLOATS}]}}'],
     None, "spectrum entries must lie in (0, inf)"),
    (["solve", "--problem", "least_squares", "--params",
      f'{{"rows": 1, "cols": 1, "singular_values": [{_BEYOND_FLOATS}]}}'], None,
     "singular values must lie in (0, inf)"),
    (["solve", "--problem", "quadratic", "--x0", f'{{"seed": 1, "norm": {_BEYOND_FLOATS}}}'],
     None, "x0 norm must lie in [0, inf)"),
    (["compare", "--problem", "quadratic"],
     f'{{"runs": [{{"method": "ahb", "gap_tol": {_BEYOND_FLOATS}}}]}}',
     "gap_tol must lie in [0, inf]"),
], ids=["power-p", "spectrum", "singular-values", "x0-norm", "gap-tol"])
def test_an_integer_beyond_the_float_range_is_a_config_error(argv, config, message, tmp_path,
                                                            capsys):
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "exp.json").write_text(config)
        argv = argv + ["--config", str(tmp_path / "exp.json")]
    assert main(argv + ["--out", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(f"error: {message}") and stderr.count("\n") == 1
    assert not out.exists()


def test_config_file_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    (tmp_path / "exp.json").write_text("[1]")
    assert main(["solve", "--config", str(tmp_path / "exp.json")]) == 1
    assert capsys.readouterr() == ("", "error: experiment config must be an object\n")


@pytest.mark.parametrize("argv, message", [
    (["solve", "--problem", "quadratic", "--problem-seed", "-1"],
     "problem seed must be nonnegative, got -1"),
    (["solve", "--problem", "quadratic", "--x0", '{"seed": -3}'],
     "x0 seed must be nonnegative, got -3"),
    (["certify", "kl", "--problem", "quadratic", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
], ids=["problem-seed", "x0-seed", "sample-seed"])
def test_negative_seed_is_a_config_error_that_names_it(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + (["--out", str(out)] if argv[0] == "solve" else [])) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("x0", ['{"seed": 1, "norm": -1}', '{"seed": 1, "norm": NaN}',
                                '{"seed": null, "norm": 1}'],
                         ids=["negative-norm", "nan-norm", "null-seed"])
def test_rejected_start_creates_no_output_directory(command, x0, tmp_path, capsys):
    out = tmp_path / "newdir"
    code = main([command, "--problem", "quadratic", "--max-iters", "5",
                 "--x0", x0, "--out", str(out)])
    assert code == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()


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


@pytest.mark.parametrize("entry, message", [
    ({"max_iters": "10"}, "max_iters must be an integer, got '10'"),
    ({"mu0": "0.5"}, "mu0 must lie in [0, 1)"),
    ({"record_every": 2.5}, "record_every must be an integer, got 2.5"),
    ({"max_iters": True}, "max_iters must be an integer, got True"),
], ids=["str-int", "str-float", "fractional-int", "bool"])
def test_config_entry_of_the_wrong_type_is_a_config_error(entry, message, tmp_path, capsys):
    config = {"problem": {"kind": "quadratic"}, "runs": [entry], "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("out_dir", [5, ["a"], True, {"a": 1}],
                         ids=["int", "list", "bool", "object"])
def test_config_out_dir_that_is_not_a_string_is_a_config_error(out_dir, tmp_path,
                                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.json").write_text(json.dumps(
        {"problem": {"kind": "quadratic"}, "out_dir": out_dir}))
    assert main(["solve", "--config", "exp.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: out_dir must be a string, got {out_dir!r}\n"
    assert os.listdir(tmp_path) == ["exp.json"]


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_config_key_that_nothing_reads_is_a_config_error(command, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.json").write_text(json.dumps(
        {"problem": {"kind": "quadratic"}, "run": [{"method": "gd"}], "outdir": "x"}))
    assert main([command, "--config", "exp.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unknown experiment config keys: ['outdir', 'run']\n"
    assert os.listdir(tmp_path) == ["exp.json"]


# SHA-256 of the help text at 80 columns (Python 3.11 argparse); the solver
# flags are derived from SolverConfig and must print as they were written, and
# the --method choices in METHODS order.
HELP_DIGESTS = {
    "compare": "1d2b6599488755abd0fac856cae53c92158a8814f322d3362bcbc53cf5c4c0b1",
    "solve": "6fa0e09dcb5b91befa45304e2b370370c912c70a8ab29e8fd6f82082d4673406",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_solver_command_help_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[command]


# The help of every other command at 80 columns, each printed from the one
# parser tree that every call in the process shares.
OTHER_HELP_DIGESTS = {
    "": "0ac7cad0d12421eebcac60a32c3bc295927d696d97165f80223e0aeb01f60773",
    "certify": "74bcb9416fb750cf2c9b87d9d9521cbedeb527f140ad17dbef5cf9984a21a9c4",
    "certify kl": "7ca9a45db9edd47d6e906eccf2ff50ea06be24f38c95995a102d32ab5d7f0b24",
    "certify growth": "7f03783099c04531d0439513b1cf2a1df06891a333521ea38311e52fa26e0f5e",
    "certify growth-ppa": "1eb00f0c325ff0977899f0054a025855bdbe368d61b9f25d4f28cb92a361841f",
    "certify moreau": "0637a015863e7f5ead72f669a2ef496d44a7dce18bc12ad7b03b1ffa440c509a",
    "certify rate": "be3d9d83de5d0659bae43de87bcc8945a6a15fd660c9e9267dd1b9270a25d26f",
    "fit-rate": "0a370dbb1107d3332080a704d04b246969835a5309a96fad5326009f17524afa",
}


@pytest.mark.parametrize("command", sorted(OTHER_HELP_DIGESTS))
def test_other_command_help_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == OTHER_HELP_DIGESTS[command]


def test_certify_growth_passes_with_slop_factor(capsys):
    code = main(["certify", "growth", "--problem", "abs_value",
                 "--phi-alpha", "1.0", "--phi-c", "2.0"])
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


def test_certify_infinite_eta_is_a_config_error(capsys):
    # +inf is no band: the slice needs a finite eta, and no surrogate stands in
    for argv in (["kl", "--problem", "abs_value", "--phi-alpha", "1.0"],
                 ["growth", "--problem", "quadratic", "--params", '{"spectrum": [1, 10]}',
                  "--samples", "50"]):
        code = main(["certify", *argv, "--eta", "inf"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: eta must lie in (0, inf)\n")


@pytest.mark.parametrize("command", ["kl", "growth"])
def test_certify_negative_infinite_eta_is_a_config_error(command, capsys):
    code = main(["certify", command, "--problem", "quadratic",
                 "--params", '{"spectrum": [1, 10]}', "--eta=-inf", "--samples", "50"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: eta must lie in (0, inf)\n")


# 2**55 float64 values take 256 PiB, beyond any 64-bit address space, so
# the allocation fails at once whatever the overcommit setting
_UNALLOCATABLE = 2 ** 55
_HUGE_POWER = json.dumps({"p": 4, "dim": _UNALLOCATABLE, "ball_radius": 1})


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "power", "--params", _HUGE_POWER],
    ["compare", "--problem", "power", "--params", _HUGE_POWER],
    ["certify", "kl", "--problem", "power", "--params", _HUGE_POWER],
    ["certify", "growth", "--problem", "power", "--params", _HUGE_POWER],
    ["certify", "rate", "--delta0", "1", "--c", "0.1", "--theta", "2",
     "--steps", str(_UNALLOCATABLE)],
], ids=["solve", "compare", "kl", "growth", "rate"])
def test_an_array_too_large_to_allocate_is_a_config_error(argv, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate 256. PiB") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


_DEEP_JSON = "[" * 5000 + "]" * 5000


def _write_trace_with_a_deep_sidecar(tmp_path):
    path = tmp_path / "run.csv"
    write_csv(Trace([IterationRecord(0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)]), path)
    (tmp_path / "run.csv.meta.json").write_text(_DEEP_JSON)
    return ["fit-rate", "--trace", str(path), "--model", "linear"]


@pytest.mark.parametrize("source, argv, error", [
    ("params", ["solve", "--problem", "quadratic", "--params", _DEEP_JSON],
     "error: argument --params: not valid JSON: nested too deeply"),
    ("x0", ["solve", "--problem", "quadratic", "--x0", _DEEP_JSON],
     "error: nested too deeply"),
    ("xbar", ["certify", "kl", "--problem", "quadratic", "--xbar", _DEEP_JSON],
     "error: nested too deeply"),
    ("x", ["certify", "growth-ppa", "--problem", "quadratic", "--x", _DEEP_JSON],
     "error: nested too deeply"),
    ("config", ["compare", "--config", "deep.json"], "error: nested too deeply"),
    ("sidecar", None, "error: malformed meta sidecar"),
], ids=["params", "x0", "xbar", "x", "config", "sidecar"])
def test_json_nested_too_deeply_is_a_config_error(source, argv, error, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if source == "config":
        (tmp_path / "deep.json").write_text(_DEEP_JSON)
    if source == "sidecar":
        argv = _write_trace_with_a_deep_sidecar(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(error) and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_certify_growth_ppa_reports_per_tau(capsys):
    code = main(["certify", "growth-ppa", "--problem", "quadratic",
                 "--x", "[2.0]", "--phi-c", "1.4142135623730951",
                 "--phi-alpha", "0.5", "--tau-list", "1,0.1"])
    assert code == 0
    report = _json_stdout(capsys)
    assert report["violations"] == 0
    assert [row["tau"] for row in report["per_tau"]] == [1.0, 0.1]


@pytest.mark.parametrize("phi_c, taus", [("1.4142135623730951", "1e-30,1e-31"),
                                         ("1e8", "1e-14,1e-16")])
def test_certify_growth_ppa_passes_a_true_gauge_at_tiny_taus(phi_c, taus, capsys):
    # the slacks match their closed form up to rounding, which is no violation
    code = main(["certify", "growth-ppa", "--problem", "quadratic",
                 "--params", '{"spectrum": [1.0]}', "--x", "[2.0]", "--tau-list", taus,
                 "--steps", "3", "--phi-c", phi_c])
    report = _json_stdout(capsys)
    assert (code, report["violations"], report["fitted"]) == (0, 0, None)


def test_certify_growth_ppa_counts_each_broken_path_bound(capsys):
    code = main(["certify", "growth-ppa", "--problem", "quadratic",
                 "--params", '{"spectrum": [1.0]}', "--x", "[2.0]",
                 "--tau-list", "1,0.1,0.01", "--steps", "200", "--phi-c", "0.5"])
    report = _json_stdout(capsys)
    assert (code, report["violations"]) == (3, 2)
    assert [row["path_length"] > row["bound"] for row in report["per_tau"]] == [
        False, True, True]


def test_certify_exits_3_on_exactly_one_violation(capsys):
    code = main(["certify", "growth-ppa", "--problem", "quadratic",
                 "--params", '{"spectrum": [1.0]}', "--x", "[2.0]",
                 "--tau-list", "0.1", "--steps", "200", "--phi-c", "0.5"])
    assert (code, _json_stdout(capsys)["violations"]) == (3, 1)


def test_certify_growth_ppa_on_power_steps_outside_the_lipschitz_ball(capsys):
    # the exact prox holds at |x| = 5.3, outside the ball of radius 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["certify", "growth-ppa", "--problem", "power",
                     "--params", '{"p": 4, "dim": 1, "ball_radius": 2}', "--x", "[5.3]",
                     "--phi-c", "2", "--phi-alpha", "0.25", "--tau-list", "1", "--steps", "5"])
    assert (code, _json_stdout(capsys)["violations"]) == (0, 0)


def test_certify_growth_ppa_on_radon_names_the_missing_prox(capsys):
    code = main(["certify", "growth-ppa", "--problem", "radon",
                 "--x", json.dumps([0.5] * 64), "--steps", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: objective does not provide 'prox_fn'\n")


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
    # a repeated tau would repeat a per_tau row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["certify", "growth-ppa", "--problem", "quadratic", "--x=[2.0]",
                     "--tau-list=0.5,0.5,0.5", "--steps=3"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: tau_list must not repeat a value\n"


def test_certify_growth_ppa_non_finite_certificate_is_a_numerical_failure(capsys):
    # phi(gap) = 1e308 * 2 overflows, and with it the bound 2 |x1 - x0| + 2 phi(gap)
    code = main(["certify", "growth-ppa", "--problem", "quadratic", "--params",
                 '{"spectrum": [1.0]}', "--x", "[2.0]", "--phi-c", "1e308", "--phi-alpha", "1",
                 "--tau-list", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: non-finite certificate at tau=1: ")


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
    assert err == f"error: {argv[3][2:]} must hold finite floats or 64-bit integers only\n"


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


_NORM_RULE = "x0 norm must lie in [0, inf)"


@pytest.mark.parametrize("x0, message", [
    ('{"seed": null}', "x0 seed must be an integer, got None"),
    ('{"norm": null}', _NORM_RULE),
    ('{"seed": "abc"}', "x0 seed must be an integer, got 'abc'"),
    ('{"seed": "5"}', "x0 seed must be an integer, got '5'"),
    ('{"norm": "2"}', _NORM_RULE),
    ('{"norm": [1.0]}', _NORM_RULE),
    ('{"seed": {}}', "x0 seed must be an integer, got {}"),
    ('{"seed": true}', "x0 seed must be an integer, got True"),
    ('{"seed": 2.5}', "x0 seed must be an integer, got 2.5"),
    ('{"seed": Infinity}', "x0 seed must be an integer, got inf"),
    ('{"seed": NaN}', "x0 seed must be an integer, got nan"),
], ids=["null-seed", "null-norm", "str-seed", "numeric-str-seed", "numeric-str-norm",
        "list-norm", "dict-seed", "bool-seed", "fractional-seed", "inf-seed", "nan-seed"])
def test_non_numeric_start_seed_or_norm_is_a_config_error(x0, message, tmp_path, capsys):
    code = main(["solve", "--problem", "quadratic", "--max-iters", "5",
                 "--x0", x0, "--out", str(tmp_path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
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


def test_least_squares_nested_singular_values_are_a_config_error(tmp_path, capsys):
    params = {"rows": 2, "cols": 2, "singular_values": [[1, 1], [1, 1]]}
    code = main(["solve", "--problem", "least_squares", "--params", json.dumps(params),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: singular_values must be a nonempty 1-d sequence\n")
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("problem", [
    {"kind": "quadratic"}, {"kind": "quadratic", "params": {"spectrum": [2.0]}},
    [], 0, "",
], ids=["equal", "different", "list", "zero", "empty-string"])
def test_a_run_problem_is_an_unknown_solver_config_key(problem, command, tmp_path, capsys):
    # a run's config holds solver settings only; the problem is said once, at the top
    config = {"problem": {"kind": "quadratic"},
              "runs": [{"method": "gd", "problem": problem}],
              "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unknown solver config keys: ['problem']\n"
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
    # an integer beyond the float range, which numpy cannot convert
    ["kl", "--problem", "quadratic", "--xbar", "[" + "9" * 400 + "]"],
], ids=["kl-object", "growth-string", "moreau-bool", "growth-ppa-object", "kl-huge-int"])
def test_certify_point_that_is_not_numbers_is_a_config_error(argv, capsys):
    assert main(["certify"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {argv[3][2:]} must hold finite floats or 64-bit integers only\n"


@pytest.mark.parametrize("argv, message", [
    (["rate", "--delta0", "nan", "--c", "0.1", "--theta", "2"], "delta0 must lie in [0, inf)"),
    (["rate", "--delta0", "1", "--c", "0.1", "--theta", "inf"], "theta must lie in (1, inf)"),
    (["kl", "--problem", "quadratic", "--r", "inf"], "r must lie in (0, inf)"),
    (["growth", "--problem", "quadratic", "--r", "inf"], "r must lie in (0, inf)"),
    (["moreau", "--problem", "abs_value", "--r", "inf"], "r must lie in (0, inf)"),
    (["moreau", "--problem", "abs_value", "--lam", "inf"], "lam must lie in (0, inf)"),
    (["growth-ppa", "--problem", "quadratic", "--x", "[1.0]", "--tau-list", "1,inf"],
     "tau must lie in (0, inf)"),
    (["kl", "--problem", "quadratic", "--phi-c", "inf"], "c must lie in (0, inf)"),
    (["growth", "--problem", "quadratic", "--phi-c", "inf"], "c must lie in (0, inf)"),
], ids=["rate-delta0", "rate-theta", "kl-r", "growth-r", "moreau-r", "moreau-lam",
        "growth-ppa-tau", "kl-phi-c", "growth-phi-c"])
def test_certify_non_finite_input_is_a_config_error_before_sampling(argv, message, monkeypatch,
                                                                     capsys):
    def no_draws(*args):
        raise AssertionError("sampled with a non-finite input")

    monkeypatch.setattr(certify, "_ball_points", no_draws)
    assert main(["certify"] + argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


_INFINITE_BOUND = "the gradient Lipschitz bound (p - 1) * ball_radius^(p - 2) must be finite"


@pytest.mark.parametrize("params, message", [
    ({"p": 5, "dim": 1, "ball_radius": 5.6e102}, _INFINITE_BOUND),
    ({"p": 1e10, "dim": 1, "ball_radius": 4.0}, _INFINITE_BOUND),
    # an infinite radius or p is refused as an input, before the bound is formed
    ({"p": 4.0, "dim": 1, "ball_radius": float("inf")},
     "ball_radius must lie in (0, inf)"),
    ({"p": float("inf"), "dim": 1, "ball_radius": 1.0}, "p must lie in [2, inf)"),
], ids=["huge-radius", "huge-p", "inf-radius", "inf-p"])
def test_power_with_an_infinite_lipschitz_bound_is_a_config_error(params, message, tmp_path,
                                                                  capsys):
    code = main(["solve", "--problem", "power", "--params", json.dumps(params),
                 "--out", str(tmp_path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")


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


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_certify_rate_whose_envelope_overflows_reports_a_null_constant(capsys):
    # (1 + k)^100 leaves the float range at k = 1209; the closed-form bound,
    # not the envelope, decides the violations and the witness
    code = main(["certify", "rate", "--delta0", "1e-300", "--c", "0.99", "--theta", "1.01",
                 "--steps", "3000"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    report = _strict_json(out)
    assert report["fitted"]["C"] is None and math.isfinite(report["fitted"]["alpha"])
    assert (report["checked"], report["violations"], report["witness"]) == (3001, 0, [1.0])
    assert 0.999 < report["worst_ratio"] <= 1.0


def test_certify_rate_without_two_positive_tail_terms_reports_no_fit(capsys):
    # the sequence falls by about 100x a step and reaches 0 near k = 12
    code = main(["certify", "rate", "--delta0", "1e-300", "--c", "0.99",
                 "--theta", "1.00000001", "--steps", "2000"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    report = _strict_json(out)
    assert (report["fitted"], report["violations"]) == (None, 0)


def test_certify_rate_certifies_contracting_sequences_across_the_float_range(capsys):
    # theta - 1 log-uniform in [1e-8, 32], delta0 log-uniform in [1e-5, 100]
    # and c * delta0^(theta - 1) uniform in [0.01, 0.99]: near theta = 1 the
    # envelope weight overflows, and far above it the terms stall at a
    # subnormal float that the bound passes
    rng = np.random.default_rng(20)
    for _ in range(50):
        theta = 1.0 + math.exp(rng.uniform(math.log(1e-8), math.log(32.0)))
        delta0 = math.exp(rng.uniform(math.log(1e-5), math.log(100.0)))
        c = rng.uniform(0.01, 0.99) / delta0 ** (theta - 1.0)
        argv = ["certify", "rate", "--delta0", repr(delta0), "--c", repr(c),
                "--theta", repr(theta), "--steps", "2000"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        assert _strict_json(out)["violations"] == 0, argv


def test_certify_growth_whose_gauge_underflows_reports_a_null_worst_ratio(capsys):
    # phi(gap) = 1e-300 * gap underflows to 0 while the distance is still positive
    code = main(["certify", "growth", "--problem", "quadratic", "--phi-c", "1e-300",
                 "--phi-alpha", "1", "--r", "1e-15", "--eta", "1", "--samples", "5"])
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    report = _strict_json(out)
    assert (report["checked"], report["violations"], report["worst_ratio"]) == (5, 5, None)


def test_certify_moreau_with_infinite_envelope_gaps_is_a_config_error(capfd):
    # LAPACK writes its complaints to file descriptor 1, past sys.stdout
    code = main(["certify", "moreau", "--problem", "quadratic",
                 "--params", '{"spectrum": [1]}', "--r", "1e300"])
    assert code == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: only 0 usable envelope samples in 10000 trials\n"


def test_certify_moreau_skips_ball_points_beyond_the_float_range(capfd):
    # some points of a ball of radius 1e308 are not finite: they are samples
    # with no usable gap, not a bad point the user gave
    code = main(["certify", "moreau", "--problem", "quadratic", "--r", "1e308"])
    assert code == 1
    assert capfd.readouterr() == ("", "error: only 0 usable envelope samples in 10000 trials\n")


# one valid command line per command; "{tmp}" stands for a fresh directory
_VALID_ARGVS = {
    "solve": ["solve", "--problem", "quadratic", "--max-iters", "3", "--out", "{tmp}/out"],
    "compare": ["compare", "--problem", "quadratic", "--max-iters", "3",
                "--out", "{tmp}/out"],
    "certify kl": ["certify", "kl", "--problem", "quadratic", "--samples", "5",
                   "--seed", "1"],
    "certify growth": ["certify", "growth", "--problem", "quadratic", "--samples", "5",
                       "--seed", "1"],
    "certify growth-ppa": ["certify", "growth-ppa", "--problem", "quadratic",
                           "--x", "[2.0]", "--steps", "5"],
    "certify moreau": ["certify", "moreau", "--problem", "abs_value", "--samples", "20"],
    "certify rate": ["certify", "rate", "--delta0", "1", "--c", "0.1", "--theta", "2",
                     "--steps", "50"],
    "fit-rate": ["fit-rate", "--trace", "{tmp}/gd.csv", "--model", "linear"],
}


def _valid_argv(command, tmp_path):
    if command == "fit-rate":
        assert main(["solve", "--problem", "quadratic", "--method", "gd", "--gd-mu", "0.5",
                     "--x0", '{"seed": 4, "norm": 1.0}', "--max-iters", "40",
                     "--out", str(tmp_path)]) == 0
    return [arg.replace("{tmp}", str(tmp_path)) for arg in _VALID_ARGVS[command]]


@pytest.mark.parametrize("command", sorted(_VALID_ARGVS))
def test_every_parsed_flag_is_read(command, tmp_path, capsys):
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(_valid_argv(command, tmp_path), namespace=Recorder())
    reads.clear()  # argparse itself looks at the namespace while it parses
    assert args.func(args) in (0, 3)
    capsys.readouterr()
    unread = set(vars(args)) - reads - {"func", "command", "certify_cmd"}
    assert not unread, f"{command} parses flags it never reads: {sorted(unread)}"


@pytest.mark.parametrize("command, flag", [
    ("compare", "--method"), ("solve", "--seed"), ("compare", "--seed"),
    ("certify growth-ppa", "--seed"),
    *[(f"certify {sub}", flag) for sub in ("kl", "growth", "growth-ppa", "moreau")
      for flag in ("--config", "--out")],
    ("fit-rate", "--config"), ("fit-rate", "--out"), ("fit-rate", "--seed"),
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, flag, tmp_path,
                                                           capsys):
    value = {"--method": "gd", "--seed": "3", "--out": str(tmp_path / "newdir"),
             "--config": str(tmp_path / "missing.json")}[flag]
    argv = _valid_argv(command, tmp_path) + [flag, value]
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unrecognized arguments: {flag} {value}\n"
    assert sorted(os.listdir(tmp_path)) == before


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


def test_main_builds_the_parser_tree_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    rate = ["certify", "rate", "--delta0", "1", "--c", "0.1", "--theta", "2", "--steps", "50"]
    counts = []
    for argv in (rate, ["solve", "--bogus"], rate):
        before = len(built)
        main(argv)
        counts.append(len(built) - before)
    capsys.readouterr()
    assert counts[1:] == [0, 0], built
    assert build_parser() is build_parser()


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
    (["compare", "--problem", "least_squares", "--problem-seed", "5",
      "--x0", '{"seed": 11, "norm": 3.0}', "--max-iters", "30", "--record-every", "4"], True),
    (["compare", "--problem", "least_squares", "--problem-seed", "2",
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
