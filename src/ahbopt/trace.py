"""Per-iteration records, trace persistence, run summaries, and the
fits: ``fit_line``, the one least squares line fitter that every log-linear
fit in the package shares, and ``fit_rate_from_trace``, the contraction
factor or power-law exponent of a trace's dist column."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._io import atomic_write, json_text, json_value
from .errors import InvalidInputError, TraceParseError

CSV_HEADER = "k,fval,gap,gnorm,alpha,beta,step_norm,dist"

# one row each; 17 significant digits round-trip any double
_ROW = "%d" + ",%.17g" * 7
_ROW_NO_DIST = "%d" + ",%.17g" * 6 + ","


@dataclass(slots=True)
class IterationRecord:
    """Measurements at one iterate: objective value, optimality gap,
    gradient norm, the step coefficients applied at that iterate, the
    incoming step length, and distance to the solution set when an
    oracle exists."""

    k: int
    fval: float
    gap: float
    gnorm: float
    alpha: float
    beta: float
    step_norm: float
    dist: Optional[float] = None


@dataclass
class Trace:
    records: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.records:
            raise InvalidInputError("a trace needs at least one record")
        ks = [r.k for r in self.records]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise InvalidInputError("record iteration numbers must strictly increase")
        if ks[0] < 0:
            raise InvalidInputError(f"record iteration numbers must be nonnegative, got {ks[0]}")

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]


def write_csv(trace, path) -> None:
    """Write a trace as CSV with LF endings plus a JSON meta sidecar.

    Both files land via temp-file rename, so a crash cannot leave a
    partially written trace at the destination.
    """
    lines = [CSV_HEADER]
    for r in trace.records:
        fields = (r.k, r.fval, r.gap, r.gnorm, r.alpha, r.beta, r.step_norm)
        lines.append(_ROW_NO_DIST % fields if r.dist is None else _ROW % (*fields, r.dist))
    atomic_write(path, "\n".join(lines) + "\n")
    atomic_write(str(path) + ".meta.json", json_text(trace.meta))


def read_csv(path) -> Trace:
    """Read a trace written by :func:`write_csv`; the meta sidecar is
    loaded when present."""
    with open(path, "r", newline="") as handle:
        lines = handle.read().split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise TraceParseError(f"bad header in {path!s}: expected '{CSV_HEADER}'", line=1)
    records = []
    for n, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise TraceParseError(f"expected 8 fields, got {len(parts)}", line=n)
        try:
            records.append(IterationRecord(
                int(parts[0]), *map(float, parts[1:7]),
                dist=None if parts[7] == "" else float(parts[7]),
            ))
        except ValueError as exc:
            raise TraceParseError(str(exc), line=n) from exc
    meta = {}
    meta_path = str(path) + ".meta.json"
    if os.path.exists(meta_path):
        with open(meta_path) as handle:
            try:
                meta = json_value(handle.read())
            except json.JSONDecodeError as exc:
                raise TraceParseError(f"malformed meta sidecar {meta_path}: {exc}") from exc
    return Trace(records=records, meta=meta)


def summarize(trace) -> dict:
    """Aggregate a run: final gap and distance, iteration count, the
    momentum coefficient range, and fitted convergence rates when the
    trace has enough positive distances to fit."""
    last = trace.records[-1]
    betas = [r.beta for r in trace.records]
    summary = {
        "iterations": last.k,
        "final_gap": last.gap,
        "final_dist": last.dist,
        "min_beta": min(betas),
        "max_beta": max(betas),
        "linear_rate": None,
        "power_rate": None,
    }
    for model, key, name in (("linear", "linear_rate", "rho"),
                             ("power", "power_rate", "exponent")):
        try:
            value, residual = fit_rate_from_trace(trace, model)
        except InvalidInputError:
            continue
        summary[key] = {name: value, "residual": residual}
    return summary


def fit_line(t, y):
    """Least squares line y ~ coef[0] * t + coef[1] and its RMS misfit; abscissae
    too close to tell apart leave no slope and raise InvalidInputError."""
    coef, _, rank, _, _ = np.polyfit(t, y, 1, full=True)
    if rank < 2:
        raise InvalidInputError("a line fit needs at least two distinct abscissae")
    return coef, float(np.sqrt(np.mean((y - np.polyval(coef, t)) ** 2)))


def fit_rate_from_trace(trace, model, k_min=None, k_max=None) -> tuple:
    """Fit the dist column of a trace.

    ``model="linear"`` regresses log dist on k and returns the per-step
    contraction factor; ``model="power"`` regresses log dist on
    log(k + 1) and returns the exponent. Both return (value, residual)
    with the RMS log-domain misfit, and need at least 8 records with
    positive finite distances inside [k_min, k_max].
    """
    if model not in ("linear", "power"):
        raise InvalidInputError("model must be 'linear' or 'power'")
    rows = [(r.k, r.dist) for r in trace.records
            if r.dist is not None and math.isfinite(r.dist) and r.dist > 0
            and (k_min is None or r.k >= k_min)
            and (k_max is None or r.k <= k_max)]
    if len(rows) < 8:
        raise InvalidInputError("need at least 8 positive distance records to fit")
    ks = np.array([k for k, _ in rows], dtype=float)
    log_dist = np.log([d for _, d in rows])
    abscissa = ks if model == "linear" else np.log(ks + 1.0)
    coef, resid = fit_line(abscissa, log_dist)
    value = math.exp(coef[0]) if model == "linear" else float(coef[0])
    return value, resid
