import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahbopt import (
    CapabilityError,
    InvalidInputError,
    NumericalFailureError,
    Objective,
    SolverConfig,
    SolverState,
    ahb_beta,
    initial_state,
    make_abs_value,
    make_least_squares,
    make_power,
    make_quadratic,
    run_solver,
    step,
    write_csv,
)
from ahbopt.solvers import METHODS


def scalar_quadratic():
    return make_quadratic([1.0])


def test_ahb_alpha_values():
    # the ahb step size (1 + mu0) / L, as the step records it; a quadratic's
    # Lipschitz constant is its largest eigenvalue
    for lipschitz, mu0, alpha in ((1.0, 0.0, 1.0), (2.0, 0.96, 0.98), (10.0, 0.5, 0.15)):
        state = step(initial_state(np.array([1.0])), make_quadratic([lipschitz]),
                     SolverConfig(method="ahb", mu0=mu0))
        assert state.record.alpha == pytest.approx(alpha)


def test_gamma_tilde_matches_direct_recursion():
    # drive the stepper and rebuild the surrogate sequence independently
    obj = make_quadratic([1.0, 10.0])
    cfg = SolverConfig(method="ahb", mu0=0.5, beta_cap=1.0, max_iters=100)
    state = initial_state(np.array([1.0, -2.0]))
    xs, alphas, betas, surrogates = [state.x.copy()], [], [], []
    for _ in range(12):
        state = step(state, obj, cfg)
        xs.append(state.x.copy())
        alphas.append(state.record.alpha)
        betas.append(state.record.beta)
        surrogates.append(state.gamma_tilde)

    gamma = 0.0
    for k in range(1, len(xs)):
        m = xs[k] - xs[k - 1]
        g_prev = obj.gradient(xs[k - 1])
        gamma = (float(m @ m)
                 - alphas[k - 1] * (obj.value(xs[k - 1])
                                    + float(g_prev @ g_prev) / (2.0 * obj.lipschitz))
                 + betas[k - 1] * gamma)
        assert surrogates[k - 1] == pytest.approx(gamma, rel=1e-12, abs=1e-15)


def test_ahb_beta_values():
    assert ahb_beta(1.0, np.array([1.0]), np.zeros(1), 0.0, 1.0) == 0.0
    g = np.array([3.0])
    m = np.array([1.0])
    # (1*3 - 1) / 1 then scaled: use the documented plug-in numbers instead
    assert ahb_beta(1.0, np.array([1.5]), np.array([2.0]), 1.0, 1.0) == pytest.approx(0.5)
    assert ahb_beta(1.0, np.array([-5.0]), np.array([1.0]), 0.0, 1.0) == 0.0
    assert ahb_beta(1.0, g, m, 0.0, 1.0) == 1.0  # clamped to the cap


def test_ahb_scalar_hand_trace():
    obj = scalar_quadratic()
    cfg = SolverConfig(method="ahb", mu0=0.0, beta_cap=1.0, max_iters=10)
    state = initial_state(np.array([2.0]))

    state = step(state, obj, cfg)
    assert state.x == pytest.approx([0.0])
    assert state.gamma_tilde == pytest.approx(0.0)
    assert state.record.fval == 2.0
    assert state.record.beta == 0.0

    state = step(state, obj, cfg)
    assert state.x == pytest.approx([0.0])
    assert state.record.gap == 0.0


def test_ahb_fixed_point_at_minimizer():
    obj = scalar_quadratic()
    cfg = SolverConfig(method="ahb", mu0=0.5, max_iters=5)
    state = step(initial_state(np.zeros(1)), obj, cfg)
    np.testing.assert_array_equal(state.x, np.zeros(1))


def test_gd_steps():
    obj = scalar_quadratic()
    state = step(initial_state(np.array([2.0])), obj,
                 SolverConfig(method="gd", gd_mu=1.0))
    assert state.x == pytest.approx([0.0])
    state = step(initial_state(np.array([2.0])), obj,
                 SolverConfig(method="gd", gd_mu=1.96))
    assert state.x == pytest.approx([-1.92])
    state = step(initial_state(np.zeros(1)), obj,
                 SolverConfig(method="gd", gd_mu=1.5))
    np.testing.assert_array_equal(state.x, np.zeros(1))


def test_nesterov_first_step_has_no_extrapolation():
    obj = scalar_quadratic()
    cfg = SolverConfig(method="nesterov", nesterov_nu=3.0)
    state = step(initial_state(np.array([2.0])), obj, cfg)
    # the gradient is taken at y = x: |f'(y)| = |y| on this quadratic
    assert state.record.gnorm == pytest.approx(2.0)
    assert state.x == pytest.approx([0.0])


def test_nesterov_momentum_coefficient():
    obj = make_quadratic([1.0])
    cfg = SolverConfig(method="nesterov", nesterov_nu=3.0)
    state = SolverState(k=4, x=np.array([1.0]), x_prev=np.array([0.3]))
    nxt = step(state, obj, cfg)
    # the gradient is taken at y = x + beta * m: |f'(y)| = |y| on this quadratic
    assert nxt.record.gnorm == pytest.approx(1.0 + (3.0 / 7.0) * 0.7)


def test_alrhb_first_step():
    obj = scalar_quadratic()
    cfg = SolverConfig(method="alrhb", alrhb_beta=0.96)
    state = step(initial_state(np.array([2.0])), obj, cfg)
    assert state.record.alpha == pytest.approx(1.0)
    assert state.x == pytest.approx([0.0])


def test_alrhb_stops_at_critical_point():
    obj = scalar_quadratic()
    cfg = SolverConfig(method="alrhb", alrhb_beta=0.96, max_iters=10)
    trace = run_solver(obj, cfg, np.array([2.0]))
    assert trace.meta["stop_reason"] == "critical_point"
    assert trace.records[-1].gap == 0.0


def test_alrhb_step_at_a_critical_point_leaves_its_input_unchanged():
    s0 = initial_state(np.zeros(1))
    s1 = step(s0, make_quadratic([1.0]), SolverConfig(method="alrhb"))
    assert s1 is not s0
    assert s1.stop == "critical_point" and s1.record.gap == 0.0 and s1.k == 0
    assert s0.record is None and s0.stop is None and s0.k == 0


def test_alrhb_step_collapses_without_gap_or_momentum():
    # zero gap with a nonzero gradient isolates the 1/(2L) term
    flat = Objective(dim=1, value_fn=lambda x: 0.0,
                     gradient_fn=lambda x: np.array([1.0]),
                     lipschitz=2.0, min_value=0.0)
    state = step(initial_state(np.zeros(1)), flat,
                 SolverConfig(method="alrhb", alrhb_beta=0.5))
    assert state.record.alpha == pytest.approx(0.25)


def test_run_solver_max_iters_zero():
    obj = make_quadratic([1.0])
    cfg = SolverConfig(method="ahb", mu0=0.0, max_iters=0, gap_tol=0.0)
    trace = run_solver(obj, cfg, np.array([3.0]))
    assert [r.k for r in trace.records] == [0]
    assert trace.meta["stop_reason"] == "max_iters"


def test_run_solver_gap_sequence():
    obj = scalar_quadratic()
    cfg = SolverConfig(method="ahb", mu0=0.0, max_iters=10)
    trace = run_solver(obj, cfg, np.array([2.0]))
    assert [r.gap for r in trace.records] == [2.0, 0.0]
    assert trace.meta["stop_reason"] == "gap_tol"


def test_run_solver_infinite_gap_tol():
    obj = scalar_quadratic()
    cfg = SolverConfig(method="ahb", gap_tol=math.inf, max_iters=50)
    trace = run_solver(obj, cfg, np.array([2.0]))
    assert len(trace.records) == 1
    assert trace.records[0].k == 0


def test_run_solver_record_every():
    obj = make_quadratic([1.0, 10.0])
    cfg = SolverConfig(method="gd", gd_mu=1.0, max_iters=10, record_every=4)
    trace = run_solver(obj, cfg, np.array([1.0, 1.0]))
    assert [r.k for r in trace.records] == [0, 4, 8, 10]


def test_run_solver_checks_domain():
    obj = make_power(4.0, 1, 4.0)
    cfg = SolverConfig(method="ahb", max_iters=5)
    with pytest.raises(InvalidInputError):
        run_solver(obj, cfg, np.array([2.1]))
    trace = run_solver(obj, cfg, np.array([2.0]))
    assert trace.meta["growth_radius"] == pytest.approx(4.0)


def test_run_solver_capability_errors():
    cfg = SolverConfig(method="ahb", max_iters=3)
    with pytest.raises(CapabilityError) as exc:
        run_solver(make_abs_value(), cfg, np.array([1.0]))
    assert exc.value.missing == "gradient_fn"

    no_min = Objective(dim=1, value_fn=lambda x: float(x[0] ** 2),
                       gradient_fn=lambda x: 2.0 * x, lipschitz=2.0)
    with pytest.raises(CapabilityError) as exc:
        run_solver(no_min, cfg, np.array([1.0]))
    assert exc.value.missing == "min_value"


def test_numerical_failure_carries_iteration():
    exploding = Objective(
        dim=1,
        value_fn=lambda x: float("inf") if abs(x[0]) > 5 else float(x[0] ** 2),
        gradient_fn=lambda x: 2.0 * x,
        lipschitz=0.1,  # deliberately too small: the 19.6 step overshoots
        min_value=0.0,
    )
    cfg = SolverConfig(method="gd", gd_mu=1.96, max_iters=50)
    with pytest.raises(NumericalFailureError) as exc:
        run_solver(exploding, cfg, np.array([1.0]))
    assert exc.value.iteration >= 1


def test_initial_state_validation():
    with pytest.raises(InvalidInputError):
        initial_state(np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        initial_state(np.array([]))


def test_solver_config_validation():
    for kwargs in ({"mu0": 1.0}, {"mu0": -0.1}, {"beta_cap": 0.0},
                   {"gd_mu": 2.0}, {"gd_mu": 0.0}, {"nesterov_nu": 1.5},
                   {"alrhb_beta": 1.0}, {"max_iters": -1}, {"gap_tol": -1.0},
                   {"record_every": 0}, {"method": "newton"}):
        with pytest.raises(InvalidInputError):
            SolverConfig(**kwargs)


def test_solver_config_json_round_trip():
    cfg = SolverConfig(method="nesterov", nesterov_nu=4.0, max_iters=7)
    again = SolverConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg
    assert SolverConfig.from_json_dict({}) == SolverConfig()
    with pytest.raises(InvalidInputError):
        SolverConfig.from_json_dict({"momentum": 0.9})
    with pytest.raises(InvalidInputError, match="solver config must be an object"):
        SolverConfig.from_json_dict([])


def test_run_solver_deterministic():
    obj = make_quadratic([1.0, 10.0])
    cfg = SolverConfig(method="ahb", mu0=0.96, max_iters=100)
    x0 = np.array([3.0, 1.0])
    first = run_solver(obj, cfg, x0)
    second = run_solver(obj, cfg, x0)
    assert len(first.records) == len(second.records)
    for a, b in zip(first.records, second.records):
        assert a == b


@settings(max_examples=25, deadline=None)
@given(
    spectrum=st.lists(st.floats(0.1, 20.0), min_size=1, max_size=4),
    mu0=st.floats(0.0, 0.99, exclude_max=False),
    scale=st.floats(-3.0, 3.0),
)
def test_certified_decrease_property(spectrum, mu0, scale):
    # the adaptive momentum never loses more distance than the gradient
    # term provably recovers
    obj = make_quadratic(spectrum)
    cfg = SolverConfig(method="ahb", mu0=mu0, beta_cap=1.0, max_iters=40)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(obj.dim) + scale
    slack = 1e-9 * (1.0 + float(x0 @ x0))
    c0 = 2.0 * (1.0 - mu0 * mu0) / obj.lipschitz
    state = initial_state(x0)
    for _ in range(40):
        d_prev = float(state.x @ state.x)
        gap_prev = obj.value(state.x)
        state = step(state, obj, cfg)
        d_cur = float(state.x @ state.x)
        assert d_cur <= d_prev - c0 * gap_prev + slack
        assert 0.0 <= state.record.beta <= 1.0


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(0.01, 2.0),
    gamma=st.floats(-5.0, 5.0),
    cap=st.floats(0.1, 3.0),
    gm=st.floats(-4.0, 4.0),
    msq=st.floats(1e-6, 9.0),
)
def test_beta_always_within_clamp(alpha, gamma, cap, gm, msq):
    m = np.array([math.sqrt(msq)])
    g = np.array([gm / math.sqrt(msq)])
    beta = ahb_beta(alpha, g, m, gamma, cap)
    assert 0.0 <= beta <= cap


def test_uncapped_momentum_accelerates_quartic_decay():
    # With the stock cap of 1 the adaptive weight saturates near 1 on
    # the flat quartic and the iterates decay about one power faster
    # than the certified k^(-1/2) envelope. Pin that loosely so a
    # change in the adaptive rule gets noticed.
    from ahbopt import fit_rate_from_trace

    obj = make_power(4.0, 1, 4.0)
    cfg = SolverConfig(method="ahb", mu0=0.96, beta_cap=1.0, max_iters=4000)
    trace = run_solver(obj, cfg, np.array([2.0]))
    exponent, _ = fit_rate_from_trace(trace, "power", k_min=100)
    assert exponent < -0.8


# SHA-256 of each trace CSV followed by its meta sidecar (wall_ms nulled), as
# written by the per-method solver code that preceded the shared step rule;
# the traces must not move by a bit.
GOLDEN_TRACES = {
    ("ahb", "least_squares", 1): "393692178e6ea009c67ae4353334964791a6f5b71cbc8163d150fe13872b229e",
    ("ahb", "least_squares", 7): "623e33535363960cf20f5c02296b45bfd1dcff8d845e0afcbbeb94acdb51020a",
    ("ahb", "power", 1): "3eaf4b452f1441884c3a4036f69122851a26d8c6357b0fe9312a2d98afe69f2e",
    ("ahb", "power", 7): "169e11e0d601e2fd8321084d35553bc0275c97b447876e4f63a3186b4d8cddf6",
    ("ahb", "quadratic", 1): "ebf1518e942a221965240bd4eed836cbbc03a108c61fe4ab452bb9d98996d5ce",
    ("ahb", "quadratic", 7): "88b5327ce8657ebce8b726e8e1c173965ee3255a260da4d27d6d464df229b3f3",
    ("alrhb", "least_squares", 1): "2fb27e32951b3b4987a9b214bb81a6fbc53e94d733f29ccf5122e44749618d13",
    ("alrhb", "least_squares", 7): "87ba22003f9dde3b9db8b46f32d08091096d43267a8dcb73c1afd5f4e948d8d4",
    ("alrhb", "power", 1): "6aa6b8cf409bbd4fd06509dd9cd4f4563a6a507b9c21e289635e92b5220f7125",
    ("alrhb", "power", 7): "d3498c56941c48f03379ec0b30940bfbc0d4d40bfbb643bc7e1063341db7ea43",
    ("alrhb", "quadratic", 1): "37ebd2ecb8b4497a5b61fcf08514cf8771b154d63f6759eaa6c39dde4f01685d",
    ("alrhb", "quadratic", 7): "78f9c71d97ce7fc7beb7c1341fdf670112c22fdbe51b95076a48c72a4a19e3a8",
    ("gd", "least_squares", 1): "ddf6702f9055587b520c4f78ebce939c814af061e5de906f48e22d6421a527b7",
    ("gd", "least_squares", 7): "7d7543b45d992251ce2b0ae498ea9f7c0f955b7a8fc72a035ae08e468ea0d6bb",
    ("gd", "power", 1): "7014bd38a06dc48f4b4d19fb5160b20cf02bd9b165e0028fe7bd70b6a807651f",
    ("gd", "power", 7): "c501b3a7b3cf540bc44673a40bbd039d7efeac35a0eac62100b573bbf9e58e0d",
    ("gd", "quadratic", 1): "97744aea26a3f33d69eb0e07d6514bbeb83f70019ca2003c3daf63fc97c84632",
    ("gd", "quadratic", 7): "677ece7cb5e4a249f5428b02b6d71148a82b6fabe7f33e39beff9ee3a797ecff",
    ("nesterov", "least_squares", 1): "75ab4d5068752fc80d32788f90963b2b84e861cdce230c6b9b4ac47e243e96fe",
    ("nesterov", "least_squares", 7): "e4f7c546bcb335a078b2d757ac570ab5865a3dd9b7008cc8350b99ab65190c4a",
    ("nesterov", "power", 1): "660d3583cda2915e5258add4d3842d29f49cf900e63926c7746c4f882fa66ab7",
    ("nesterov", "power", 7): "2a3e550ffeffad6a13c8a976ab64feca72897fb54a26c6db892cde0dc71c5c40",
    ("nesterov", "quadratic", 1): "6d0e563e927c47d0a2f90ffb69cce38590d1c0d0540c4e37b545ee43256e3264",
    ("nesterov", "quadratic", 7): "888d884a01cc99573d481747296f027f34fc20f5e3096236edb7745c54539af0",
}

# SHA-256 of 30 public step states per method on the least-squares problem
# (x, gamma_tilde for ahb, and the record).
GOLDEN_STEPS = {
    "ahb": "2addef0a7dab7c8e58a6cc99b9e0112ae97cbc63fff1cbcb552f008b7fb82a51",
    "alrhb": "e06f3651afe1b702f943b114c61322c11841344869ccf38b6c556a4371035719",
    "gd": "fc7300de12837b69d10c2b4f5a6e39b4e57f87a005c4f0016c54cd53531c5ca4",
    "nesterov": "0e7b117936910ad15ae800fac01d90b1752f58452bd6607cf493142b50faaa35",
}

_LS = make_least_squares(200, 200, [1.0 / i for i in range(1, 201)], seed=5)
_PROBLEMS = {
    "quadratic": (make_quadratic([1.0, 10.0]), np.array([3.0, 1.0])),
    "least_squares": (_LS, np.zeros(200)),
    "power": (make_power(4.0, 1, 4.0), np.array([2.0])),
}
_STEPS = ("ahb", "gd", "nesterov", "alrhb")


@pytest.mark.parametrize("key", sorted(GOLDEN_TRACES))
def test_traces_are_bitwise_golden(key, tmp_path):
    method, problem, record_every = key
    obj, x0 = _PROBLEMS[problem]
    cfg = SolverConfig(method=method, max_iters=300, record_every=record_every)
    trace = run_solver(obj, cfg, x0)
    trace.meta["wall_ms"] = None
    path = tmp_path / "trace.csv"
    write_csv(trace, path)
    blob = path.read_bytes() + (tmp_path / "trace.csv.meta.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_TRACES[key]


@pytest.mark.parametrize("method", sorted(GOLDEN_STEPS))
def test_step_states_are_bitwise_golden(method):
    cfg = SolverConfig(method=method)
    state = initial_state(np.zeros(200))
    blob = b""
    for _ in range(30):
        state = step(state, _LS, cfg)
        carried = [state.gamma_tilde] if method == "ahb" else []
        rec = dataclasses.astuple(state.record)
        blob += state.x.tobytes() + np.array(carried + list(rec), dtype=float).tobytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_STEPS[method]


@pytest.mark.parametrize("problem", sorted(_PROBLEMS))
@pytest.mark.parametrize("method", METHODS)
def test_standalone_steps_record_what_the_loop_records(method, problem):
    obj, x0 = _PROBLEMS[problem]
    cfg = SolverConfig(method=method, max_iters=30)
    state, stepped = initial_state(x0), []
    for _ in range(30):
        state = step(state, obj, cfg)
        stepped.append(dataclasses.astuple(state.record))
    looped = [dataclasses.astuple(r) for r in run_solver(obj, cfg, x0).records[:30]]
    assert (np.array(stepped, dtype=float).tobytes()
            == np.array(looped, dtype=float).tobytes())


@pytest.mark.parametrize("lipschitz", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("method", METHODS)
def test_non_positive_lipschitz_is_rejected_before_any_oracle_call(method, lipschitz):
    calls = []

    def value(x):
        calls.append("value")
        return 0.5 * float(x @ x)

    def gradient(x):
        calls.append("gradient")
        return x.copy()

    def dist(x):
        calls.append("dist")
        return abs(float(x[0]))

    obj = Objective(dim=1, value_fn=value, gradient_fn=gradient, lipschitz=lipschitz,
                    min_value=0.0, solution_oracle=dist, domain_radius=10.0)
    cfg = SolverConfig(method=method, max_iters=5)
    with pytest.raises(InvalidInputError, match=r"lipschitz must lie in \(0, inf\)"):
        run_solver(obj, cfg, np.array([2.0]))
    with pytest.raises(InvalidInputError, match=r"lipschitz must lie in \(0, inf\)"):
        step(initial_state(np.array([2.0])), obj, cfg)
    assert calls == []


def test_sparse_records_call_the_distance_oracle_only_when_kept():
    calls = []

    def oracle(x):
        calls.append(1)
        return _LS.solution_oracle(x)

    obj = dataclasses.replace(_LS, solution_oracle=oracle)
    cfg = SolverConfig(method="ahb", max_iters=2000, record_every=100)
    trace = run_solver(obj, cfg, np.zeros(200))
    assert [r.k for r in trace.records] == list(range(0, 2001, 100))
    assert len(calls) == 21


def _counted(obj):
    calls = {"value": 0, "gradient": 0, "fused": 0}

    def wrap(name, fn):
        def counted(x):
            calls[name] += 1
            return fn(x)
        return None if fn is None else counted

    value, gradient = wrap("value", obj.value_fn), wrap("gradient", obj.gradient_fn)
    fused = wrap("fused", obj.value_and_gradient_fn)
    if fused is not None:
        fused.partners = (value, gradient)
    return calls, dataclasses.replace(obj, value_fn=value, gradient_fn=gradient,
                                      value_and_gradient_fn=fused)


@pytest.mark.parametrize("method", sorted(_STEPS))
def test_one_fused_call_per_iterate_where_the_gradient_is_taken_at_x(method):
    calls, obj = _counted(_LS)
    run_solver(obj, SolverConfig(method=method, max_iters=50), np.zeros(200))
    state = initial_state(np.zeros(200))
    for _ in range(10):
        state = step(state, obj, SolverConfig(method=method))
    if method == "nesterov":  # f at x, g at y: two calls
        assert calls == {"value": 61, "gradient": 61, "fused": 0}
    else:
        assert calls == {"value": 0, "gradient": 0, "fused": 61}


@pytest.mark.parametrize("method", sorted(_STEPS))
def test_objectives_without_the_fused_oracle_call_value_and_gradient(method):
    calls, obj = _counted(dataclasses.replace(_LS, value_and_gradient_fn=None))
    run_solver(obj, SolverConfig(method=method, max_iters=50), np.zeros(200))
    assert calls == {"value": 51, "gradient": 51, "fused": 0}


@pytest.mark.parametrize("swapped", [("value_fn",), ("gradient_fn",), ("value_fn", "gradient_fn")],
                         ids=["value", "gradient", "both"])
def test_replaced_value_or_gradient_is_called_instead_of_the_stale_fused_oracle(swapped):
    # as a tracing wrapper does: the fused field still belongs to the old pair
    calls = dict.fromkeys(swapped, 0)

    def wrap(name, fn):
        def counted(x):
            calls[name] += 1
            return fn(x)
        return counted

    obj = dataclasses.replace(_LS, **{name: wrap(name, getattr(_LS, name)) for name in swapped})
    cfg = SolverConfig(method="ahb", max_iters=50)
    trace = run_solver(obj, cfg, np.zeros(200))
    assert calls == dict.fromkeys(swapped, 51)
    assert trace.records == run_solver(_LS, cfg, np.zeros(200)).records


def _fused_pair(value, gradient):
    def value_and_gradient(x):
        return value(x), gradient(x)
    value_and_gradient.partners = (value, gradient)
    return value_and_gradient


def test_fused_results_are_read_as_a_float_and_a_float_array():
    def value(x):
        return 0.5 * float(x @ x)

    def gradient(x):
        return x.copy()

    def loose(x):
        return np.array(value(x)), [int(v) if v == int(v) else v for v in x]

    loose.partners = (value, gradient)
    cfg = SolverConfig(method="gd", max_iters=20)
    traces = [run_solver(Objective(dim=2, value_fn=value, gradient_fn=gradient, lipschitz=1.0,
                                   min_value=0.0, value_and_gradient_fn=fused), cfg,
                         np.array([4.0, 8.0]))
              for fused in (None, loose)]
    assert traces[0].records == traces[1].records
    assert all(type(r.fval) is float for r in traces[1].records)


def _linear(fused):
    # f = C (x1 + x2): finite f and g, but |g|^2 = 2 C^2 overflows
    c = 1e160

    def value(x):
        return c * float(x[0] + x[1])

    def gradient(x):
        return np.array([c, c])

    return Objective(dim=2, value_fn=value, gradient_fn=gradient, lipschitz=c,
                     min_value=-1e300,
                     value_and_gradient_fn=_fused_pair(value, gradient) if fused else None)


@pytest.mark.parametrize("fused", [False, True], ids=["separate", "fused"])
def test_finite_gradient_with_overflowing_square_runs_on(fused, tmp_path):
    # SHA-256 of the four CSVs as written before the finite check went
    # through |g|^2: a finite gradient never stops the run
    blob = b""
    with np.errstate(over="ignore"):
        for method in ("ahb", "alrhb", "gd", "nesterov"):
            trace = run_solver(_linear(fused), SolverConfig(method=method, max_iters=20),
                               np.array([1.0, 2.0]))
            assert trace.meta["stop_reason"] == "max_iters"
            write_csv(trace, tmp_path / "t.csv")
            blob += (tmp_path / "t.csv").read_bytes()
    assert (hashlib.sha256(blob).hexdigest()
            == "1efda117177e0b45867fb20cc19f7c1caf2fa33c0e0a389ddf5bd3973fee120b")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fused", [False, True], ids=["separate", "fused"])
def test_non_finite_gradient_entry_fails_at_its_iterate(bad, fused):
    # gd with step 1/L halves x = 8, 4, 2, 1, 0.5: the gradient turns bad at k = 4
    def gradient(x):
        g = x.copy()
        if x[0] < 1.0:
            g[1] = bad
        return g

    def value(x):
        return 0.5 * float(x @ x)

    obj = Objective(dim=2, value_fn=value, gradient_fn=gradient, lipschitz=2.0,
                    min_value=0.0,
                    value_and_gradient_fn=_fused_pair(value, gradient) if fused else None)
    with pytest.raises(NumericalFailureError) as exc:
        run_solver(obj, SolverConfig(method="gd", gd_mu=1.0, max_iters=50),
                   np.array([8.0, 8.0]))
    assert exc.value.iteration == 4
