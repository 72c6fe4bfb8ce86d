"""Spans around the public calls the CLI makes, for the traced run only.

:func:`installed` swaps wrappers in for ``ProblemSpec.build``,
``make_radon``, ``run_solver``, the trace I/O functions, the certify
checks and the prox runs, and wraps each built objective's value,
gradient and prox callables through ``dataclasses.replace``. One
private name is wrapped too: ``objective._power_iteration``, which
``make_radon`` and ``lipschitz_estimate`` both call, so that the
spectral-norm estimate the CLI pays shows as its own span. Every
wrapper records a span (name, start, end, parent) plus counts; spans
stay in memory until the run ends. Nothing under ``src/`` is edited:
the wrappers are set as module attributes and restored on exit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time

import numpy as np

NAME, PARENT, START, END, INFO = range(5)

_CERTIFY_CHECKS = ("check_kl", "certify_growth_direct", "certify_growth_via_ppa",
                   "check_moreau_exponent", "verify_recursive_rate")
_SAMPLING_CHECKS = ("certify.check_kl", "certify.certify_growth_direct")


class Tracer:
    """Span recorder. A span is ``[name, parent index, start ns, end ns,
    info dict]``; a parent of -1 marks a root span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, self._stack[-1] if self._stack else -1, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name, fn, note=None):
        """``fn`` recording a span per call; ``note(result, args)`` returns
        counts to attach to the span."""
        def traced(*args, **kwargs):
            index = len(self.spans)
            result = self.call(name, fn, *args, **kwargs)
            if note is not None:
                self.spans[index][INFO] = note(result, args)
            return result
        return traced

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_ns,end_ns\n")
            for i, span in enumerate(self.spans):
                handle.write(f"{i},{span[PARENT]},{span[NAME]},{span[START]},{span[END]}\n")


def _matrix_bytes(matrix):
    if matrix is None:
        return 0
    if hasattr(matrix, "indptr"):
        return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return np.asarray(matrix).nbytes


@contextlib.contextmanager
def installed(tracer, built):
    """Install the wrappers for the duration of the block. Each objective
    a wrapped build returns is appended to ``built``."""
    import ahbopt.certify as certify
    import ahbopt.cli as cli
    import ahbopt.objective as objective
    import ahbopt.trace as trace

    traced_build = tracer.wrap("objective.build", objective.ProblemSpec.build,
                               lambda obj, args: {"matrix_bytes": _matrix_bytes(obj.matrix)})

    def build(spec):
        obj = traced_build(spec)
        wrapped = dataclasses.replace(
            obj,
            value_fn=tracer.wrap("objective.value", obj.value_fn),
            gradient_fn=(None if obj.gradient_fn is None
                         else tracer.wrap("objective.gradient", obj.gradient_fn)),
            prox_fn=None if obj.prox_fn is None else tracer.wrap("prox.prox", obj.prox_fn))
        built.append(wrapped)
        return wrapped

    patches = [
        (objective.ProblemSpec, "build", build),
        (objective, "make_radon", tracer.wrap("objective.make_radon", objective.make_radon)),
        (objective, "_power_iteration",
         tracer.wrap("objective.lipschitz_estimate", objective._power_iteration)),
        (cli, "run_solver",
         tracer.wrap("solvers.run_solver", cli.run_solver,
                     lambda tr, args: {"iterations": tr.final.k,
                                       "record_every": args[1].record_every})),
        (trace, "write_csv",
         tracer.wrap("trace.write_csv", trace.write_csv,
                     lambda _, args: {"rows": len(args[0].records)})),
        (trace, "read_csv", tracer.wrap("trace.read_csv", trace.read_csv)),
        (trace, "summarize", tracer.wrap("trace.summarize", trace.summarize)),
        (certify, "ppa_run", tracer.wrap("prox.ppa_run", certify.ppa_run)),
        (certify, "moreau_value", tracer.wrap("prox.moreau_value", certify.moreau_value)),
    ]
    for name in _CERTIFY_CHECKS:
        patches.append((certify, name,
                        tracer.wrap(f"certify.{name}", getattr(certify, name),
                                    lambda report, args: {"checked": report.checked})))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def bare_heavy_ball_us(matrix, target, alpha, beta):
    """Median time in microseconds of one bare-numpy heavy-ball update
    x+ = x - alpha * A^T (A x - y) + beta * (x - x_prev) on ``matrix``."""
    x = np.zeros(matrix.shape[1])
    x_prev = x.copy()

    def block(n):
        nonlocal x, x_prev
        start = time.perf_counter()
        for _ in range(n):
            g = matrix.T @ (matrix @ x - target)
            x, x_prev = x - alpha * g + beta * (x - x_prev), x
        return time.perf_counter() - start

    n = 10
    while block(n) < 0.01:
        n *= 2
    return statistics.median(block(n) / n for _ in range(9)) * 1e6


def layer_metrics(spans):
    """Per-layer metrics of one traced round from its spans."""
    durations = [(s[END] - s[START]) * 1e-9 for s in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += durations[i]

    def total(name):
        return sum(d for s, d in zip(spans, durations) if s[NAME] == name)

    def self_time(name):
        return sum(d - c for s, d, c in zip(spans, durations, child_time) if s[NAME] == name)

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    def per_call_us(name):
        n = count(name)
        return total(name) / n * 1e6 if n else 0.0

    runs = [(s, d, c) for s, d, c in zip(spans, durations, child_time)
            if s[NAME] == "solvers.run_solver"]
    full = [r for r in runs if r[0][INFO]["record_every"] == 1]
    sparse = [r for r in runs if r[0][INFO]["record_every"] > 1]
    full_iters = sum(r[0][INFO]["iterations"] for r in full)
    sparse_iters = sum(r[0][INFO]["iterations"] for r in sparse)

    sampling = {i for i, s in enumerate(spans) if s[NAME] in _SAMPLING_CHECKS}
    trials = sum(1 for s in spans if s[NAME] == "objective.value" and s[PARENT] in sampling)
    trials -= len(sampling)  # each check evaluates f(xbar) once before sampling
    accepted = sum(spans[i][INFO]["checked"] for i in sampling)
    sampling_s = sum(durations[i] for i in sampling)
    matrix_bytes = [s[INFO]["matrix_bytes"] for s in spans if s[NAME] == "objective.build"]

    metrics = {
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "objective.build_s": total("objective.build"),
        "objective.make_radon_s": total("objective.make_radon"),
        "objective.lipschitz_estimate_s": total("objective.lipschitz_estimate"),
        "objective.value_calls": count("objective.value"),
        "objective.gradient_calls": count("objective.gradient"),
        "objective.value_us": per_call_us("objective.value"),
        "objective.gradient_us": per_call_us("objective.gradient"),
        "solvers.iterations": full_iters + sparse_iters,
        "solvers.step_us": sum(d for _, d, _ in full) / full_iters * 1e6 if full_iters else 0.0,
        "solvers.self_us": (sum(d - c for _, d, c in full) / full_iters * 1e6
                            if full_iters else 0.0),
        "solvers.sparse_record_step_us": (sum(d for _, d, _ in sparse) / sparse_iters * 1e6
                                          if sparse_iters else 0.0),
        "trace.write_csv_s": total("trace.write_csv"),
        "trace.read_csv_s": total("trace.read_csv"),
        "trace.summarize_s": total("trace.summarize"),
        "trace.rows_written": sum(s[INFO]["rows"] for s in spans
                                  if s[NAME] == "trace.write_csv"),
        "certify.trials": trials,
        "certify.accepted": accepted,
        "certify.acceptance": accepted / trials if trials else 0.0,
        "certify.samples_per_s": accepted / sampling_s if sampling_s else 0.0,
        "prox.prox_calls": count("prox.prox"),
        "prox.ppa_run_s": total("prox.ppa_run"),
        "prox.moreau_value_s": total("prox.moreau_value"),
    }
    for name in _CERTIFY_CHECKS:
        metrics[f"certify.{name}_s"] = total(f"certify.{name}")
    metrics["objective.matrix_mb"] = max(matrix_bytes, default=0) / 2 ** 20
    return metrics
