"""Per-iteration records, trace persistence, run summaries, and the
fits: ``fit_line``, the one least squares line fitter that every log-linear
fit in the package shares, and ``fit_rate_from_trace``, the contraction
factor or power-law exponent of a trace's dist column. ``json_text`` is the
one JSON layout of every output, and ``atomic_write`` its one file writer."""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError, as_int, json_value

CSV_HEADER = "k,fval,gap,gnorm,alpha,beta,step_norm,dist"

# each rate model and the name of the value it fits
RATE_MODELS = {"linear": "rho", "power": "exponent"}

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


def json_text(payload) -> str:
    """The one JSON layout every written or printed document uses. JSON has
    no infinity, so +-inf is written 1e999 / -1e999: strict JSON numbers
    that decoders read back as +-inf."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if "Infinity" not in text:
        return text
    # the indent puts each value on a line of its own, after its key if it
    # has one, and a string's newlines are escaped, so a line that ends in a
    # bare Infinity is a number
    return re.sub(r'^( *(?:"(?:[^"\\]|\\.)*": )?-?)Infinity(,?)$', r"\g<1>1e999\2", text,
                  flags=re.MULTILINE)


def atomic_write(path, text) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and a rename, so a crash cannot leave a partial file there.

    The temporary file is created with mode 0o666 and the process umask
    applies, so the result has the mode a plain ``open`` would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-write-{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
        raise InvalidInputError(f"line 1: bad header in {path!s}: expected '{CSV_HEADER}'")
    records = []
    for n, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise InvalidInputError(f"line {n}: expected 8 fields, got {len(parts)}")
        try:
            records.append(IterationRecord(
                int(parts[0]), *map(float, parts[1:7]),
                dist=None if parts[7] == "" else float(parts[7]),
            ))
        except ValueError as exc:
            raise InvalidInputError(f"line {n}: {exc}") from exc
    meta = {}
    meta_path = str(path) + ".meta.json"
    if os.path.exists(meta_path):
        with open(meta_path) as handle:
            meta = json_value(f"meta sidecar {meta_path}", handle.read())
        if not isinstance(meta, dict):
            raise InvalidInputError(f"meta sidecar {meta_path} must be an object")
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
    }
    for model, name in RATE_MODELS.items():
        try:
            value, residual = fit_rate_from_trace(trace, model)
            summary[f"{model}_rate"] = {name: value, "residual": residual}
        except InvalidInputError:
            summary[f"{model}_rate"] = None
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
    positive finite distances inside [k_min, k_max], nonnegative integers.
    """
    if model not in tuple(RATE_MODELS):
        raise InvalidInputError(f"model must be {' or '.join(map(repr, RATE_MODELS))}")
    k_min = 0 if k_min is None else as_int("k_min", k_min, low=0)
    k_max = math.inf if k_max is None else as_int("k_max", k_max, low=0)
    rows = [(r.k, r.dist) for r in trace.records
            if r.dist is not None and math.isfinite(r.dist) and r.dist > 0
            and k_min <= r.k <= k_max]
    if len(rows) < 8:
        raise InvalidInputError("need at least 8 positive distance records to fit")
    ks = np.array([k for k, _ in rows], dtype=float)
    log_dist = np.log([d for _, d in rows])
    abscissa = ks if model == "linear" else np.log(ks + 1.0)
    coef, resid = fit_line(abscissa, log_dist)
    value = math.exp(coef[0]) if model == "linear" else float(coef[0])
    return value, resid
