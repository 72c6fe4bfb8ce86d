import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ahbopt import (
    InvalidInputError,
    IterationRecord,
    SolverConfig,
    Trace,
    TraceParseError,
    fit_rate_from_trace,
    make_quadratic,
    read_csv,
    run_solver,
    summarize,
    write_csv,
)
from ahbopt.trace import CSV_HEADER


def fmt(value) -> str:
    # the reference format of one CSV field: 17 significant digits
    return f"{float(value):.17g}"


def record(k, **kwargs):
    base = dict(fval=1.0, gap=1.0, gnorm=1.0, alpha=0.5, beta=0.0,
                step_norm=0.0, dist=None)
    base.update(kwargs)
    return IterationRecord(k=k, **base)


def test_trace_rejects_empty_and_unsorted():
    with pytest.raises(InvalidInputError):
        Trace(records=[])
    with pytest.raises(InvalidInputError):
        Trace(records=[record(3), record(3)])
    with pytest.raises(InvalidInputError):
        Trace(records=[record(2), record(1)])


def test_round_trip_single_record(tmp_path):
    path = tmp_path / "run.csv"
    trace = Trace(records=[record(0, fval=0.1, gap=0.1, dist=2.0)],
                  meta={"stop_reason": "max_iters"})
    write_csv(trace, path)
    again = read_csv(path)
    assert again.records == trace.records
    assert again.meta["stop_reason"] == "max_iters"


def test_round_trip_is_bitwise_stable(tmp_path):
    # awkward doubles: subnormal, non-terminating binary, huge magnitude
    values = [0.1, 4.9e-324, 1.7976931348623157e308, 1 / 3, 2.0 ** -52]
    records = [record(i, fval=v, gap=abs(v), dist=None if i % 2 else abs(v))
               for i, v in enumerate(values)]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(Trace(records=records), first)
    write_csv(read_csv(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_layout(tmp_path):
    path = tmp_path / "run.csv"
    write_csv(Trace(records=[record(0, dist=None)]), path)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "k,fval,gap,gnorm,alpha,beta,step_norm,dist"
    assert lines[1].endswith(",")  # empty dist field
    assert "\r" not in text


def test_meta_sidecar(tmp_path):
    path = tmp_path / "run.csv"
    meta = {"problem": None, "config": {"method": "gd"}, "x0_seed": 7,
            "stop_reason": "gap_tol", "wall_ms": 1.5}
    write_csv(Trace(records=[record(0)], meta=meta), path)
    sidecar = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert sidecar == meta
    assert read_csv(path).meta == meta


def test_read_rejects_malformed_meta_sidecar(tmp_path):
    path = tmp_path / "run.csv"
    write_csv(Trace(records=[record(0)]), path)
    (tmp_path / "run.csv.meta.json").write_text("{bad")
    with pytest.raises(TraceParseError, match="meta sidecar"):
        read_csv(path)


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,fval\n0,1\n")
    with pytest.raises(TraceParseError) as exc:
        read_csv(path)
    assert exc.value.line == 1


def test_read_rejects_malformed_rows(tmp_path):
    good = "k,fval,gap,gnorm,alpha,beta,step_norm,dist\n"
    path = tmp_path / "bad.csv"
    path.write_text(good + "0,1,1,1,1,0,0\n")
    with pytest.raises(TraceParseError) as exc:
        read_csv(path)
    assert exc.value.line == 2

    path.write_text(good + "0,1,1,1,1,0,0,\n1,x,1,1,1,0,0,\n")
    with pytest.raises(TraceParseError) as exc:
        read_csv(path)
    assert exc.value.line == 3


def test_summarize_single_record():
    summary = summarize(Trace(records=[record(0, gap=0.25, dist=0.5)]))
    assert summary["final_gap"] == 0.25
    assert summary["final_dist"] == 0.5
    assert summary["iterations"] == 0
    assert summary["linear_rate"] is None


def test_summarize_beta_extremes():
    records = [record(k, beta=0.0) for k in range(5)]
    summary = summarize(Trace(records=records))
    assert summary["min_beta"] == summary["max_beta"] == 0.0
    records = [record(k, beta=beta) for k, beta in enumerate((0.5, 0.2, 0.9, 0.4))]
    summary = summarize(Trace(records=records))
    assert (summary["min_beta"], summary["max_beta"]) == (0.2, 0.9)


def test_fit_window_takes_in_both_ends():
    # k = 1 .. 8 are exactly the 8 records a fit needs
    trace = Trace(records=[record(k, dist=2.0 * 0.9 ** k) for k in range(10)])
    rho, _ = fit_rate_from_trace(trace, "linear", k_min=1, k_max=8)
    assert rho == pytest.approx(0.9, abs=1e-12)


def test_fit_skips_infinite_distances():
    records = [record(k, dist=2.0 * 0.9 ** k) for k in range(10)]
    finite = Trace(records=records[:-1])
    infinite = Trace(records=records[:-1] + [record(9, dist=math.inf)])
    for model in ("linear", "power"):
        assert fit_rate_from_trace(infinite, model) == fit_rate_from_trace(finite, model)


def test_summarize_quadratic_run():
    obj = make_quadratic([1.0])
    trace = run_solver(obj, SolverConfig(method="ahb", mu0=0.0, max_iters=10),
                       np.array([2.0]))
    summary = summarize(trace)
    assert summary["iterations"] == 1
    assert summary["final_gap"] == 0.0
    assert len(trace.records) == 2


def test_summarize_uses_recorded_rows_only():
    obj = make_quadratic([1.0, 4.0])
    x0 = np.array([1.0, -1.0])
    dense = run_solver(obj, SolverConfig(method="gd", gd_mu=1.0, max_iters=20),
                       x0)
    sparse = run_solver(obj, SolverConfig(method="gd", gd_mu=1.0, max_iters=20,
                                          record_every=5), x0)
    assert summarize(dense)["final_gap"] == summarize(sparse)["final_gap"]
    assert summarize(sparse)["iterations"] == 20


def test_summarize_fits_geometric_rate():
    records = [record(k, dist=2.0 * 0.9 ** k) for k in range(20)]
    summary = summarize(Trace(records=records))
    assert summary["linear_rate"]["rho"] == pytest.approx(0.9, abs=1e-9)
    assert summary["power_rate"] is not None


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_doubles(value):
    assert float(fmt(value)) == value


def test_final_property():
    trace = Trace(records=[record(0), record(3, gap=0.5)])
    assert trace.final.k == 3


def test_write_csv_bytes_equal_the_per_field_format(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e308,
                np.float64(0.1), np.float32(0.1), 3, True]
    records = [IterationRecord(k=k, fval=v, gap=-v, gnorm=specials[k - 1], alpha=v, beta=v,
                               step_norm=v, dist=None if k % 2 else v)
               for k, v in enumerate(specials)]
    records.append(IterationRecord(k=np.int64(len(specials)), fval=1.0, gap=0.0, gnorm=2.0,
                                   alpha=0.5, beta=0.25, step_norm=0.0, dist=None))
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([str(int(r.k)), fmt(r.fval), fmt(r.gap), fmt(r.gnorm),
                               fmt(r.alpha), fmt(r.beta), fmt(r.step_norm),
                               "" if r.dist is None else fmt(r.dist)]))
    path = tmp_path / "t.csv"
    write_csv(Trace(records=records), path)
    assert path.read_text() == "\n".join(lines) + "\n"
