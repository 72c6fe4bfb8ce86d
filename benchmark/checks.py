"""Output checks for the benchmark workloads.

Each check compares what the CLI wrote against a separate computation
or a property the method must have, and raises :class:`CheckError` with
a short reason when the output breaks it. The checks take parsed data
as arguments, so the benchmark's tests can hand them doctored outputs.
"""

from __future__ import annotations

import math

import numpy as np

TRACE_HEADER = "k,fval,gap,gnorm,alpha,beta,step_norm,dist"


class CheckError(Exception):
    """An output failed a benchmark check."""


def parse_trace(text):
    """Rows of a trace CSV as dicts of floats (``dist`` None when empty),
    read with the standard library only."""
    lines = text.split("\n")
    if lines[0] != TRACE_HEADER:
        raise CheckError(f"unexpected trace header {lines[0]!r}")
    if lines[-1] != "":
        raise CheckError("trace does not end with a newline")
    rows = []
    for line in lines[1:-1]:
        parts = line.split(",")
        if len(parts) != 8:
            raise CheckError(f"trace row with {len(parts)} fields")
        row = {"k": int(parts[0])}
        for name, value in zip(TRACE_HEADER.split(",")[1:7], parts[1:7]):
            row[name] = float(value)
        row["dist"] = None if parts[7] == "" else float(parts[7])
        rows.append(row)
    return rows


def require_steps(rows, ks):
    got = [r["k"] for r in rows]
    if got != list(ks):
        raise CheckError(f"trace holds iterations {got[:3]}...{got[-3:]}, "
                         f"expected {list(ks)[:3]}...{list(ks)[-3:]}")


# ----------------------------------------------------------------- ls-compare

def certified_descent(rows, mu0, lipschitz):
    """d_{k+1}^2 <= d_k^2 - 2 (1 - mu0^2) / L * gap_k at every step, with
    the acceptance suite's slack 1e-9 * (1 + d_0^2)."""
    coef = 2.0 * (1.0 - mu0 * mu0) / lipschitz
    slack = 1e-9 * (1.0 + rows[0]["dist"] ** 2)
    for now, nxt in zip(rows, rows[1:]):
        excess = nxt["dist"] ** 2 - (now["dist"] ** 2 - coef * now["gap"])
        if excess > slack:
            raise CheckError(f"certified descent broken at k={now['k']}: "
                             f"excess {excess:.3e} > slack {slack:.3e}")


def monotone_gap_and_distance(rows):
    """Gradient descent with step below 2/L never increases gap or distance."""
    for now, nxt in zip(rows, rows[1:]):
        for name in ("gap", "dist"):
            if nxt[name] > now[name] * (1.0 + 1e-12):
                raise CheckError(f"{name} grew at k={nxt['k']}: "
                                 f"{now[name]!r} -> {nxt[name]!r}")


def gap_sandwich(rows, sigma_min, sigma_max):
    """sigma_min^2 / 2 * dist^2 <= gap <= sigma_max^2 / 2 * dist^2 on a
    consistent least squares problem with a unique minimizer."""
    for r in rows:
        d_sq = r["dist"] ** 2
        upper = 0.5 * sigma_max ** 2 * d_sq
        lower = 0.5 * sigma_min ** 2 * d_sq
        if r["gap"] > upper * (1.0 + 1e-9) + 1e-300:
            raise CheckError(f"gap {r['gap']!r} above 0.5*dist^2 bound {upper!r} "
                             f"at k={r['k']}")
        if r["gap"] < lower * (1.0 - 1e-6):
            raise CheckError(f"gap {r['gap']!r} below 0.5*s_min^2*dist^2 bound "
                             f"{lower!r} at k={r['k']}")


def final_gap_below(rows, other_rows, label):
    if not rows[-1]["gap"] < other_rows[-1]["gap"]:
        raise CheckError(f"final gap {rows[-1]['gap']!r} not below {label}'s "
                         f"{other_rows[-1]['gap']!r}")


def momentum_in_range(rows, beta_cap):
    betas = [r["beta"] for r in rows]
    if min(betas) < 0.0 or max(betas) > beta_cap:
        raise CheckError(f"beta left [0, {beta_cap}]: {min(betas)!r}..{max(betas)!r}")
    if not max(betas) > 0.0:
        raise CheckError("momentum never engaged")


def sparse_rows_match(full_text, sparse_text):
    """Every row of the sparsely recorded run is byte-equal to the row of
    the fully recorded run at the same iteration."""
    full = {line.split(",", 1)[0]: line for line in full_text.split("\n")[1:] if line}
    sparse = [line for line in sparse_text.split("\n")[1:] if line]
    if not sparse:
        raise CheckError("sparse trace has no rows")
    for line in sparse:
        k = line.split(",", 1)[0]
        if full.get(k) != line:
            raise CheckError(f"sparse row k={k} differs from the full run's")


def linear_rate_below_one(report):
    rho = report.get("rho")
    if not (isinstance(rho, float) and 0.0 < rho < 1.0):
        raise CheckError(f"fitted linear rate {rho!r} is not in (0, 1)")


# ---------------------------------------------------------------- radon-solve

def chord_lengths(num_angles, rays_per_angle):
    """Length of each ray's chord through [-1, 1]^2, clipped here from the
    documented geometry: angles k*pi/m, offsets at detector bin centres,
    direction (cos t, sin t), shift along (-sin t, cos t); rows ordered
    angle-major."""
    lengths = []
    for a in range(num_angles):
        theta = a * math.pi / num_angles
        direction = (math.cos(theta), math.sin(theta))
        for j in range(rays_per_angle):
            s = -1.0 + (j + 0.5) * 2.0 / rays_per_angle
            origin = (-s * math.sin(theta), s * math.cos(theta))
            lo, hi = -math.inf, math.inf
            for o, d in zip(origin, direction):
                if abs(d) < 1e-12:
                    if abs(o) > 1.0:
                        lo, hi = 0.0, 0.0
                    continue
                t1, t2 = (-1.0 - o) / d, (1.0 - o) / d
                lo, hi = max(lo, min(t1, t2)), min(hi, max(t1, t2))
            lengths.append(max(hi - lo, 0.0))
    return np.array(lengths)


def row_sums_match_chords(matrix, num_angles, rays_per_angle):
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    chords = chord_lengths(num_angles, rays_per_angle)
    if sums.shape != chords.shape:
        raise CheckError(f"matrix has {sums.size} rows, geometry {chords.size}")
    worst = int(np.argmax(np.abs(sums - chords)))
    if abs(sums[worst] - chords[worst]) > 1e-11:
        raise CheckError(f"row {worst} sums to {sums[worst]!r}, chord is "
                         f"{chords[worst]!r}")


def data_consistent(matrix, x_true, target):
    if not np.array_equal(matrix @ x_true, target):
        raise CheckError("A @ x_true differs from the sinogram y")


def first_value_matches(rows, matrix, target, x0):
    res = matrix @ x0 - target
    expected = 0.5 * float(res @ res)
    if abs(rows[0]["fval"] - expected) > 1e-12 * expected:
        raise CheckError(f"f(x0) in the trace {rows[0]['fval']!r}, "
                         f"recomputed {expected!r}")


def lipschitz_bracket(lipschitz, sigma_max, rows, mu0):
    """sigma^2 <= L <= 1.01 * sigma^2 * (1 + 1e-9), and the trace's step
    size is (1 + mu0) / L."""
    s_sq = sigma_max * sigma_max
    if not s_sq <= lipschitz <= 1.01 * s_sq * (1.0 + 1e-9):
        raise CheckError(f"lipschitz {lipschitz!r} outside [{s_sq!r}, 1.01*{s_sq!r}]")
    alpha = (1.0 + mu0) / lipschitz
    for r in rows:
        if abs(r["alpha"] - alpha) > 1e-15 * alpha:
            raise CheckError(f"step size {r['alpha']!r} at k={r['k']}, "
                             f"expected {alpha!r}")


def summed_descent_bound(rows, lipschitz, mu0, dist0, steps):
    """min_{k<K} gap_k <= L * |x0 - x*|^2 / (2 (1 - mu0^2) K), the sum of
    the certified per-step descent."""
    gaps = [r["gap"] for r in rows if r["k"] < steps]
    if len(gaps) != steps:
        raise CheckError(f"expected {steps} rows before k={steps}, got {len(gaps)}")
    bound = lipschitz * dist0 ** 2 / (2.0 * (1.0 - mu0 * mu0) * steps)
    if min(gaps) > bound:
        raise CheckError(f"min gap {min(gaps)!r} above the summed descent bound "
                         f"{bound!r}")


# -------------------------------------------------------------- certify-suite

def clean_report(report, samples):
    if report.get("violations") != 0 or report.get("checked") != samples:
        raise CheckError(f"expected 0 violations on {samples} samples, got "
                         f"{report.get('violations')!r} on {report.get('checked')!r}")


def violating_report(report):
    if not report.get("violations", 0) > 0:
        raise CheckError("a false sharpness gauge found no violation")


def ppa_path_lengths(report, x0, steps):
    """On f = x^2/2 the prox map divides by 1 + tau, so a run from x0 of
    ``steps`` steps travels |x0| * (1 - (1 + tau)^-steps)."""
    rows = report.get("per_tau") or []
    if not rows:
        raise CheckError("growth-ppa report has no per_tau rows")
    for row in rows:
        expected = abs(x0) * (1.0 - (1.0 + row["tau"]) ** -steps)
        if abs(row["path_length"] - expected) > 1e-9 * abs(x0):
            raise CheckError(f"tau={row['tau']!r}: path {row['path_length']!r}, "
                             f"closed form {expected!r}")


def moreau_exponent(report, growth_exponent):
    target = min(growth_exponent, 0.5)
    alpha = report["fitted"]["alpha"] if report.get("fitted") else None
    if alpha is None or abs(alpha - target) > 0.05:
        raise CheckError(f"envelope exponent {alpha!r} not within 0.05 of {target}")


def rate_tail_slope(report):
    slope = report["fitted"]["alpha"] if report.get("fitted") else None
    if slope is None or abs(slope + 1.0) > 0.05:
        raise CheckError(f"tail slope {slope!r} not within 0.05 of -1")
