"""End-to-end acceptance checks.

Each test prints one ``[acceptance] criterion N (<name>): PASS|FAIL``
line (visible with ``pytest -s``) and then asserts. The expensive runs
are shared between criteria through cached builders; the determinism
criterion rebuilds everything from scratch on purpose.
"""

import functools
import json
import math
import time

import numpy as np

from ahbopt import (
    HolderFunction,
    SolverConfig,
    certify_growth_via_ppa,
    check_moreau_exponent,
    fit_growth_exponent,
    fit_rate_from_trace,
    initial_state,
    make_abs_value,
    make_least_squares,
    make_power,
    make_quadratic,
    moreau_gradient,
    moreau_value,
    ppa_run,
    run_solver,
    step,
    verify_recursive_rate,
    write_csv,
)
from ahbopt import solvers
from conftest import central_difference_gradient

SQRT2 = math.sqrt(2.0)


def _report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num} ({name}): {status}")
    assert not failures, "; ".join(failures)


def _descent_instances():
    spectrum = tuple(1.0 / i for i in range(1, 201))
    ls = make_least_squares(200, 200, spectrum, seed=0)
    return [
        ("quadratic", make_quadratic([1.0, 10.0]),
         np.array([3.0, 1.0]), np.zeros(2)),
        ("least_squares", ls, np.zeros(200), ls.x_true),
        ("power", make_power(4.0, 2, 4.0),
         np.array([1.2, -0.9]), np.zeros(2)),
    ]


@functools.lru_cache(maxsize=None)
def _descent_suite():
    """Nine 2000-step runs; per run, the worst margins of the two
    per-step inequalities and of the sharper descent that subtracts
    beta_k^2 |m_k|^2 too (positive margin beyond slack = violation)."""
    rows = []
    for name, obj, x0, xhat in _descent_instances():
        for mu0 in (0.0, 0.5, 0.96):
            cfg = SolverConfig(method="ahb", mu0=mu0, max_iters=2000)
            coef = 2.0 * (1.0 - mu0 * mu0) / obj.lipschitz
            slack = 1e-9 * (1.0 + float(np.sum((x0 - xhat) ** 2)))
            state = initial_state(x0)
            worst_descent = worst_sharper = -math.inf
            worst_surrogate = -math.inf
            for _ in range(2000):
                d_now = float(np.sum((state.x - xhat) ** 2))
                gap_now = obj.value(state.x) - obj.min_value
                gamma = float((state.x - state.x_prev) @ (state.x - xhat))
                worst_surrogate = max(worst_surrogate,
                                      gamma - state.gamma_tilde)
                state = step(state, obj, cfg)
                d_next = float(np.sum((state.x - xhat) ** 2))
                bound = d_now - coef * gap_now
                worst_descent = max(worst_descent, d_next - bound)
                momentum = state.record.beta * state.record.step_norm
                worst_sharper = max(worst_sharper, d_next - bound + momentum * momentum)
            gamma = float((state.x - state.x_prev) @ (state.x - xhat))
            worst_surrogate = max(worst_surrogate, gamma - state.gamma_tilde)
            rows.append({"run": f"{name}/mu0={mu0}", "slack": slack,
                         "descent": worst_descent, "sharper": worst_sharper,
                         "surrogate": worst_surrogate})
    return rows


def test_criterion_01_certified_distance_descent():
    start = time.perf_counter()
    rows = _descent_suite()
    elapsed = time.perf_counter() - start
    failures = [f"{row['run']}: descent margin {row['descent']:.3e} "
                f"exceeds slack {row['slack']:.3e}"
                for row in rows if row["descent"] > row["slack"]]
    if elapsed >= 10.0:
        failures.append(f"suite took {elapsed:.1f}s (budget 10s)")
    _report(1, "per-step distance descent", failures)


def test_ahb_certifies_the_sharper_descent_with_its_momentum_term():
    # beta_k in [0, beta*] gives d2_{k+1} <= d2_k - coef * gap_k - beta_k^2 |m_k|^2
    failures = [f"{row['run']}: sharper margin {row['sharper']:.3e} "
                f"exceeds slack {row['slack']:.3e}"
                for row in _descent_suite() if row["sharper"] > row["slack"]]
    assert not failures, "; ".join(failures)


def _quadratic_descent_breaks():
    # breaks of criterion 1's descent and of the sharper one in a 2000-step
    # ahb run's records at mu0 = 0.96
    obj, x0 = make_quadratic([1.0, 10.0, 100.0]), np.ones(3)
    records = run_solver(obj, SolverConfig(method="ahb", mu0=0.96, max_iters=2000), x0).records
    coef = 2.0 * (1.0 - 0.96 ** 2) / obj.lipschitz
    slack = 1e-9 * (1.0 + float(x0 @ x0))
    plain = sharper = 0
    for now, nxt in zip(records, records[1:]):
        bound = now.dist ** 2 - coef * now.gap
        plain += nxt.dist ** 2 > bound + slack
        sharper += nxt.dist ** 2 > bound - (now.beta * now.step_norm) ** 2 + slack
    return plain, sharper


def test_sharper_descent_refutes_a_beta_rule_twice_too_large(monkeypatch):
    # any beta in [0, 2 beta*] keeps criterion 1's decrease, so only the
    # sharper form sees a rule that overshoots the bound's minimizer beta*
    assert _quadratic_descent_breaks() == (0, 0)
    exact = solvers._ahb_beta

    def overshoot(alpha_k, g_k, m_k, m_sq, gamma_tilde_k, beta_cap):
        return min(1.999 * exact(alpha_k, g_k, m_k, m_sq, gamma_tilde_k, math.inf), beta_cap)

    monkeypatch.setattr(solvers, "_ahb_beta", overshoot)
    plain, sharper = _quadratic_descent_breaks()
    assert plain == 0 and sharper > 0


def test_criterion_02_surrogate_dominates_inner_product():
    rows = _descent_suite()
    failures = [f"{row['run']}: surrogate margin {row['surrogate']:.3e} "
                f"exceeds slack {row['slack']:.3e}"
                for row in rows if row["surrogate"] > row["slack"]]
    _report(2, "momentum surrogate upper bound", failures)


@functools.lru_cache(maxsize=None)
def _contraction_distances():
    obj = make_quadratic([1.0, 10.0])
    cfg = SolverConfig(method="ahb", mu0=0.96, max_iters=600)
    state = initial_state(np.array([3.0, 1.0]))
    dists = [float(state.x @ state.x)]
    for _ in range(600):
        state = step(state, obj, cfg)
        dists.append(float(state.x @ state.x))
    return dists


def test_criterion_03_quadratic_growth_contraction_factor():
    start = time.perf_counter()
    dists = _contraction_distances()
    elapsed = time.perf_counter() - start
    bound = 1.0 - (1.0 - 0.96 ** 2) * 1.0 / (4.0 * 10.0)
    failures = []
    for k in range(len(dists) - 1):
        if dists[k] <= 0.0:
            failures.append(f"distance hit zero at k={k}")
            break
        ratio = dists[k + 1] / dists[k]
        if ratio > bound + 1e-12:
            failures.append(f"ratio {ratio:.12f} > {bound:.12f} at k={k}")
            break
    if elapsed >= 1.0:
        failures.append(f"run took {elapsed:.2f}s (budget 1s)")
    _report(3, "per-step contraction factor", failures)


def _decay_run():
    obj = make_power(4.0, 1, 4.0)
    cfg = SolverConfig(method="ahb", mu0=0.96, beta_cap=0.9, max_iters=10_000)
    return run_solver(obj, cfg, np.array([2.0]))


@functools.lru_cache(maxsize=None)
def _decay_trace():
    return _decay_run()


def test_criterion_04_power_objective_sublinear_envelope():
    start = time.perf_counter()
    trace = _decay_trace()
    weighted = [(r.k, math.sqrt(r.k + 1.0) * r.dist) for r in trace.records]
    k_star, sup = max(weighted, key=lambda kv: kv[1])
    exponent, _ = fit_rate_from_trace(trace, "power", k_min=100)
    elapsed = time.perf_counter() - start
    failures = []
    if not math.isfinite(sup):
        failures.append("weighted distance is unbounded")
    if k_star >= 100:
        failures.append(f"weighted sup attained at k={k_star} (need < 100)")
    if not -0.6 <= exponent <= -0.4:
        failures.append(f"tail exponent {exponent:.4f} outside [-0.6, -0.4]")
    if elapsed >= 5.0:
        failures.append(f"run took {elapsed:.1f}s (budget 5s)")
    _report(4, "sublinear distance decay", failures)


def _ppa_pair(tau):
    quad = ppa_run(make_quadratic([1.0]), tau, [2.0], 200)
    sharp = ppa_run(make_abs_value(), tau, [2.0], 200)
    return quad, sharp


def test_criterion_05_proximal_point_trajectories():
    failures = []
    for tau in (1.0, 0.1, 0.01):
        quad, sharp = _ppa_pair(tau)
        for label, run, exact in (
            ("quadratic", quad,
             [2.0 / (1.0 + tau) ** k for k in range(201)]),
            ("abs", sharp,
             [max(2.0 - k * tau, 0.0) for k in range(201)]),
        ):
            got = np.array([p[0] for p in run.points])
            err = float(np.max(np.abs(got - np.array(exact))))
            if err > 1e-10:
                failures.append(f"{label}/tau={tau}: trajectory off by {err:.2e}")
            values = np.array(run.values)
            if np.any(np.diff(values) > 1e-12):
                failures.append(f"{label}/tau={tau}: objective increased")
            dists = np.abs(got)
            if np.any(np.diff(dists) > 1e-12):
                failures.append(f"{label}/tau={tau}: distance increased")
    _report(5, "proximal point closed forms", failures)


def _path_growth_report():
    return certify_growth_via_ppa(make_quadratic([1.0]), [2.0],
                                  HolderFunction(SQRT2, 0.5),
                                  [1.0, 0.1, 0.01, 0.001])


def test_criterion_06_growth_certificate_via_proximal_paths():
    report = _path_growth_report()
    failures = []
    if report.violations != 0:
        failures.append(f"{report.violations} violations reported")
    slacks = [row["slack"] for row in report.per_tau]
    if not all(b < a for a, b in zip(slacks, slacks[1:])):
        failures.append(f"slacks not strictly decreasing: {slacks}")
    for row in report.per_tau:
        if row["path_length"] > row["bound"] + 1e-9:
            failures.append(f"tau={row['tau']}: path exceeds bound")
    _report(6, "path length growth certificate", failures)


def _envelope_gradient_errors():
    cases = [
        ("half_square", make_quadratic([1.0]), 1),
        ("abs", make_abs_value(), 1),
        ("diag_quadratic", make_quadratic([1.0, 10.0]), 2),
    ]
    out = []
    for label, obj, dim in cases:
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            if dim == 1:
                x = np.array([rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])])
            else:
                u = rng.standard_normal(dim)
                x = u * (rng.uniform(0.5, 3.0) / np.linalg.norm(u))
            grad = moreau_gradient(obj, 1.0, x)
            fd = central_difference_gradient(
                lambda z: moreau_value(obj, 1.0, z), x)
            worst = max(worst, float(np.linalg.norm(fd - grad)
                                     / np.linalg.norm(grad)))
        out.append((label, worst))
    return out


def _envelope_exponent_reports():
    return [
        ("abs", check_moreau_exponent(make_abs_value(), 1.0, [0.0], 0.5)),
        ("quadratic", check_moreau_exponent(make_quadratic([1.0, 10.0]), 1.0,
                                            [0.0, 0.0], 0.5)),
        ("quartic", check_moreau_exponent(make_power(4.0, 1, 2.0), 1.0,
                                          [0.0], 0.3)),
    ]


def test_criterion_07_moreau_envelope_suite():
    failures = []
    for label, worst in _envelope_gradient_errors():
        if worst > 1e-4:
            failures.append(f"{label}: gradient mismatch {worst:.2e}")
    for label, report in _envelope_exponent_reports():
        if report.violations != 0:
            failures.append(
                f"{label}: envelope exponent {report.fitted[1]:.4f} "
                f"misses its smoothed target by more than 0.05")
    _report(7, "envelope gradient and exponent", failures)


def _fitter_results():
    xs = np.logspace(-3, 0, 40)
    quartic = fit_growth_exponent([(x ** 4 / 4.0, x) for x in xs])
    quadratic = fit_growth_exponent([(x * x / 2.0, x) for x in xs])
    return quartic, quadratic


def test_criterion_08_exponent_fitter_exact_recovery():
    (_, a4, _), (_, a2, _) = _fitter_results()
    failures = []
    if abs(a4 - 0.25) > 1e-6:
        failures.append(f"quartic exponent {a4!r} not 0.25 within 1e-6")
    if abs(a2 - 0.5) > 1e-6:
        failures.append(f"quadratic exponent {a2!r} not 0.5 within 1e-6")
    _report(8, "growth exponent fitter", failures)


def _recursion_reports():
    return [
        (2.0, verify_recursive_rate(1.0, 0.1, 2.0, 10_000)),
        (3.0, verify_recursive_rate(1.0, 0.01, 3.0, 10_000)),
    ]


def test_criterion_09_damped_recursion_envelope():
    failures = []
    for theta, report in _recursion_reports():
        target = -1.0 / (theta - 1.0)
        _, slope, _ = report.fitted
        if report.violations != 0:
            failures.append(f"theta={theta}: envelope violated")
        if not math.isfinite(report.witness[0]):
            failures.append(f"theta={theta}: no finite witness")
        if abs(slope - target) > 0.05:
            failures.append(
                f"theta={theta}: tail slope {slope:.4f} not within "
                f"0.05 of {target}")
    _report(9, "recursion rate envelope", failures)


def _build_comparison():
    spectrum = tuple(1.0 / i for i in range(1, 201))
    obj = make_least_squares(200, 200, spectrum, seed=1)
    x0 = np.zeros(200)
    configs = {
        "ahb": SolverConfig(method="ahb", mu0=0.96, beta_cap=1.0,
                            max_iters=2000),
        "alrhb": SolverConfig(method="alrhb", alrhb_beta=0.96,
                              max_iters=2000),
        "nesterov": SolverConfig(method="nesterov", nesterov_nu=3.0,
                                 max_iters=2000),
        "gd": SolverConfig(method="gd", gd_mu=1.96, max_iters=2000),
    }
    return {name: run_solver(obj, cfg, x0) for name, cfg in configs.items()}


@functools.lru_cache(maxsize=None)
def _comparison_runs():
    return _build_comparison()


def test_criterion_10_method_comparison():
    start = time.perf_counter()
    runs = _comparison_runs()
    elapsed = time.perf_counter() - start
    failures = []
    ahb_gap = runs["ahb"].records[-1].gap
    gd_gap = runs["gd"].records[-1].gap
    if ahb_gap > gd_gap:
        failures.append(f"adaptive gap {ahb_gap:.3e} above gd {gd_gap:.3e}")
    betas = [r.beta for r in runs["ahb"].records]
    if min(betas) < 0.0:
        failures.append(f"negative momentum weight {min(betas)}")
    if max(betas) <= 0.0:
        failures.append("momentum never engaged")
    if elapsed >= 30.0:
        failures.append(f"comparison took {elapsed:.1f}s (budget 30s)")
    _report(10, "ill-conditioned least squares comparison", failures)


def _write_ppa(run, path):
    # one row per iterate: coordinates, value and step norm as exact hex floats
    rows = [",".join(float(v).hex() for v in (*np.asarray(point, dtype=float), value, norm))
            for point, value, norm in zip(run.points, run.values, run.step_norms)]
    path.write_text("\n".join(rows) + "\n")


def _write_everything(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    obj = make_quadratic([1.0, 10.0])
    cfg = SolverConfig(method="ahb", mu0=0.96, max_iters=600)
    write_csv(run_solver(obj, cfg, np.array([3.0, 1.0])),
              out_dir / "contraction.csv")
    write_csv(_decay_run(), out_dir / "decay.csv")
    for name, run in _build_comparison().items():
        write_csv(run, out_dir / f"{name}.csv")
    for tau in (1.0, 0.1, 0.01):
        quad, sharp = _ppa_pair(tau)
        _write_ppa(quad, out_dir / f"ppa_quad_{tau}.csv")
        _write_ppa(sharp, out_dir / f"ppa_abs_{tau}.csv")
    return sorted(p.name for p in out_dir.iterdir())


def _report_snapshot():
    snapshot = [_path_growth_report().to_json_dict()]
    snapshot += [r.to_json_dict() for _, r in _envelope_exponent_reports()]
    snapshot += [list(fit) for fit in _fitter_results()]
    snapshot += [r.to_json_dict() for _, r in _recursion_reports()]
    return snapshot


def test_criterion_11_reruns_are_bitwise_identical(tmp_path):
    failures = []
    names_a = _write_everything(tmp_path / "first")
    names_b = _write_everything(tmp_path / "second")
    if names_a != names_b:
        failures.append("re-run produced a different file set")
    for name in names_a:
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        if name.endswith(".csv"):
            if first != second:
                failures.append(f"{name} differs between runs")
        else:
            # meta sidecars legitimately differ in wall time only
            a, b = json.loads(first), json.loads(second)
            a.pop("wall_ms", None), b.pop("wall_ms", None)
            if a != b:
                failures.append(f"{name} differs beyond wall_ms")
    if _report_snapshot() != _report_snapshot():
        failures.append("certification reports differ between runs")
    _report(11, "bitwise deterministic reruns", failures)
