import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given
from hypothesis import strategies as st

from ahbopt import (
    CapabilityError,
    DeskScaleLimitError,
    InvalidInputError,
    ToolkitError,
    Objective,
    PowerIterationWarning,
    ProblemSpec,
    lipschitz_estimate,
    make_abs_value,
    make_least_squares,
    make_power,
    make_quadratic,
    make_radon,
)
from ahbopt.objective import MAX_RADON_RAYS
from conftest import central_difference_gradient


def test_quadratic_values_and_gradient():
    obj = make_quadratic([1.0])
    assert obj.value(np.array([2.0])) == 2.0
    assert obj.gradient(np.array([2.0])) == pytest.approx([2.0])
    assert obj.lipschitz == 1.0

    obj = make_quadratic([1.0, 10.0])
    assert obj.value(np.array([1.0, 1.0])) == 5.5
    np.testing.assert_allclose(obj.gradient(np.array([1.0, 1.0])), [1.0, 10.0])
    assert obj.lipschitz == 10.0
    assert obj.min_value == 0.0


def test_quadratic_prox_closed_form():
    obj = make_quadratic([1.0])
    assert obj.prox(1.0, np.array([2.0])) == pytest.approx([1.0])
    obj = make_quadratic([1.0, 10.0])
    np.testing.assert_allclose(obj.prox(0.1, np.array([1.0, 1.0])),
                               [1.0 / 1.1, 0.5])


def test_quadratic_rejects_bad_spectrum():
    with pytest.raises(InvalidInputError):
        make_quadratic([])
    with pytest.raises(InvalidInputError):
        make_quadratic([1.0, 0.0])
    with pytest.raises(InvalidInputError):
        make_quadratic([-1.0])


def test_quadratic_oracle_and_growth():
    obj = make_quadratic([2.0, 3.0])
    x = np.array([3.0, 4.0])
    assert obj.distance(x) == pytest.approx(5.0)
    assert obj.growth_exponent == 0.5
    np.testing.assert_array_equal(obj.x_true, np.zeros(2))


@pytest.mark.parametrize("factory,point", [
    (lambda: make_quadratic([1.0, 10.0]), np.array([0.7, -0.4])),
    (lambda: make_least_squares(6, 4, [4.0, 3.0, 2.0, 1.0], seed=5),
     None),
    (lambda: make_power(4.0, 3, 4.0), np.array([0.5, -0.3, 0.8])),
    (lambda: make_power(2.0, 1, 2.0), np.array([0.9])),
])
def test_gradients_match_finite_differences(factory, point):
    obj = factory()
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = point if point is not None else rng.standard_normal(obj.dim)
        if point is not None:
            x = point + 0.1 * rng.standard_normal(obj.dim)
        fd = central_difference_gradient(obj.value, x)
        an = obj.gradient(x)
        assert np.linalg.norm(fd - an) <= 1e-5 * (1.0 + np.linalg.norm(an))


def test_least_squares_construction():
    sv = [2.0, 1.0]
    obj = make_least_squares(2, 2, sv, seed=3)
    assert obj.lipschitz == pytest.approx(4.0)
    assert np.linalg.norm(obj.x_true) == pytest.approx(10.0)
    assert obj.value(obj.x_true) == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_allclose(obj.gradient(obj.x_true), np.zeros(2),
                               atol=1e-12)
    got = np.linalg.svd(obj.matrix, compute_uv=False)
    np.testing.assert_allclose(got, sv)


def test_least_squares_singular_direction_value():
    # moving along the leading right singular vector costs half sigma_1^2
    obj = make_least_squares(3, 2, [10.0, 1.0], seed=7)
    _, _, vt = np.linalg.svd(obj.matrix)
    x = obj.x_true + vt[0]
    assert obj.value(x) == pytest.approx(50.0)


def test_least_squares_validation():
    with pytest.raises(InvalidInputError):
        make_least_squares(3, 2, [1.0], seed=0)
    with pytest.raises(InvalidInputError):
        make_least_squares(2, 2, [1.0, 2.0], seed=0)
    with pytest.raises(InvalidInputError):
        make_least_squares(2, 2, [1.0, -1.0], seed=0)


@pytest.mark.parametrize("sv", [[[1.0, 1.0], [1.0, 1.0]], [[1.0], [1.0]], 1.0, []],
                         ids=["2x2", "2x1", "scalar", "empty"])
def test_least_squares_singular_values_must_be_a_nonempty_1d_sequence(sv):
    # refused by shape before the length rule, which would count the entries
    with pytest.raises(InvalidInputError) as info:
        make_least_squares(2, 2, sv, seed=0)
    assert str(info.value) == "singular_values must be a nonempty 1-d sequence"


def test_least_squares_singular_values_must_have_length_min_rows_cols():
    with pytest.raises(InvalidInputError) as info:
        make_least_squares(2, 3, [1.0], seed=0)
    assert str(info.value) == "singular_values must have length min(rows, cols) = 2, got 1"


@pytest.mark.parametrize("top", [1e308, 1.3e154, 1e-200],
                         ids=["bound-overflows", "aty-overflows", "bound-underflows"])
def test_least_squares_with_a_non_finite_or_zero_bound_is_a_spec_error(top):
    # 1.3e154 ** 2 is finite, but A^T y, about 10 * top ** 2, is not
    with pytest.raises(InvalidInputError, match="must be finite and positive"):
        make_least_squares(2, 2, [top, top], seed=0)


def test_power_whose_bound_underflows_is_a_spec_error():
    # 1076 * 0.5 ** 1075 rounds to 0
    with pytest.raises(InvalidInputError, match="must be finite and positive"):
        make_power(1077.0, 1, 0.5)


def test_least_squares_oracle_requires_full_column_rank():
    tall = make_least_squares(4, 3, [3.0, 2.0, 1.0], seed=1)
    assert tall.solution_oracle is not None
    assert tall.distance(tall.x_true) == pytest.approx(0.0)
    wide = make_least_squares(2, 4, [2.0, 1.0], seed=1)
    assert wide.solution_oracle is None


def test_least_squares_prox_optimality():
    obj = make_least_squares(5, 5, [5.0, 4.0, 3.0, 2.0, 1.0], seed=2)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(5)
    t = 0.7
    p = obj.prox(t, x)
    # stationarity of the inner objective at the prox point
    resid = obj.gradient(p) + (p - x) / t
    assert np.linalg.norm(resid) <= 1e-10


def test_least_squares_determinism():
    a = make_least_squares(8, 6, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0], seed=9)
    b = make_least_squares(8, 6, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0], seed=9)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_array_equal(a.x_true, b.x_true)
    np.testing.assert_array_equal(a.target, b.target)


def test_power_values():
    obj = make_power(2.0, 1, 2.0)
    assert obj.value(np.array([3.0])) == pytest.approx(4.5)
    assert obj.gradient(np.array([3.0])) == pytest.approx([3.0])

    obj = make_power(4.0, 1, 2.0)
    assert obj.value(np.array([1.0])) == pytest.approx(0.25)
    assert obj.gradient(np.array([1.0])) == pytest.approx([1.0])
    assert obj.lipschitz == pytest.approx(12.0)
    assert obj.domain_radius == 2.0
    assert obj.growth_exponent == pytest.approx(0.25)


def test_power_gradient_at_origin_is_zero():
    obj = make_power(4.0, 2, 1.0)
    assert obj.value(np.zeros(2)) == 0.0
    np.testing.assert_array_equal(obj.gradient(np.zeros(2)), np.zeros(2))


@pytest.mark.parametrize("size", [1e-170, 1e-160, 1e-100, 1.0, 1e100])
def test_power_at_p_2_equals_the_quadratic_at_every_scale(size):
    # |x| comes from the exact norm, so a point below 1.5e-154 is not the origin
    x = np.array([0.6 * size, -0.8 * size])
    np.testing.assert_array_equal(make_power(2.0, 2, 1.0).gradient(x),
                                  make_quadratic([1.0, 1.0]).gradient(x))
    # |x|^2 / 2 and x * x / 2 round alike in one dimension, subnormal or not
    assert make_power(2.0, 1, 1.0).value([size]) == make_quadratic([1.0]).value([size])


def test_power_rejects_small_exponent():
    with pytest.raises(InvalidInputError):
        make_power(1.5, 1, 1.0)


def test_abs_value_problem():
    obj = make_abs_value()
    assert obj.value(np.array([-2.0])) == 2.0
    assert obj.distance(np.array([-2.0])) == 2.0
    assert obj.gradient_fn is None
    with pytest.raises(CapabilityError) as exc:
        obj.gradient(np.array([1.0]))
    assert exc.value.missing == "gradient_fn"
    assert obj.prox(1.0, np.array([3.0])) == pytest.approx([2.0])
    assert obj.prox(1.0, np.array([0.5])) == pytest.approx([0.0])
    assert obj.prox(0.5, np.array([0.2])) == pytest.approx([0.0])
    assert obj.subgrad_min_norm(np.array([0.3])) == 1.0
    assert obj.subgrad_min_norm(np.array([0.0])) == 0.0


def test_prox_minimizes_inner_objective():
    rng = np.random.default_rng(13)
    for obj in (make_quadratic([1.0, 10.0]), make_abs_value()):
        x = rng.standard_normal(obj.dim) * 2.0
        lam = 0.8
        p = obj.prox(lam, x)
        best = obj.value(p) + np.dot(p - x, p - x) / (2.0 * lam)
        for _ in range(100):
            w = p + rng.standard_normal(obj.dim)
            other = obj.value(w) + np.dot(w - x, w - x) / (2.0 * lam)
            assert best <= other + 1e-12


def test_radon_scale_limit(monkeypatch):
    from ahbopt import _radon

    def unreachable(*args):
        raise AssertionError("the matrix was built before the cap was checked")

    monkeypatch.setattr(_radon, "system_matrix", unreachable)
    for grid_n, angles, rays in [(65, 4, 4), (4, MAX_RADON_RAYS + 1, 1),
                                 (4, 1, MAX_RADON_RAYS + 1), (4, 129, 128),
                                 (4, 10 ** 9, 10 ** 9)]:
        with pytest.raises(DeskScaleLimitError):
            make_radon(grid_n, angles, rays, "blocks")


def test_radon_at_the_ray_cap_builds():
    obj = make_radon(1, 128, MAX_RADON_RAYS // 128, "blocks")
    assert obj.matrix.shape == (MAX_RADON_RAYS, 1)


def test_radon_row_along_grid_row():
    obj = make_radon(4, 1, 4, "blocks")
    a = obj.matrix
    assert scipy.sparse.issparse(a)
    assert a.shape == (4, 16)
    # horizontal rays cross exactly one pixel row, one chord per pixel
    for r in range(4):
        row = a.getrow(r)
        assert row.nnz == 4
        np.testing.assert_allclose(row.data, 0.5)


def test_radon_single_pixel_chord():
    obj = make_radon(1, 1, 1, "disks")
    a = obj.matrix.toarray()
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(2.0)


def test_radon_consistency():
    obj = make_radon(8, 6, 12, "blocks")
    assert obj.value(obj.x_true) == pytest.approx(0.0, abs=1e-18)
    g = obj.gradient(obj.x_true)
    np.testing.assert_allclose(g, np.zeros(64), atol=1e-12)
    assert set(np.unique(obj.x_true)) <= {0.0, 0.5, 1.0}


def test_radon_lipschitz_is_the_one_power_iteration_estimate():
    # float.hex of the 64x64 blocks bound taken before make_radon and
    # lipschitz_estimate shared one biased estimate
    obj = make_radon(64, 64, 64, "blocks")
    assert obj.lipschitz.hex() == "0x1.eed80536ee1bap+1"
    assert lipschitz_estimate(obj, iters=5000, tol=1e-12).hex() == obj.lipschitz.hex()


def test_radon_determinism():
    a = make_radon(8, 6, 12, "disks")
    b = make_radon(8, 6, 12, "disks")
    assert (a.matrix != b.matrix).nnz == 0
    np.testing.assert_array_equal(a.x_true, b.x_true)
    assert a.lipschitz == b.lipschitz


def test_lipschitz_estimate_diagonal():
    obj = make_least_squares(2, 2, [2.0, 1.0], seed=0)
    est = lipschitz_estimate(obj)
    assert est == pytest.approx(4.0 * 1.01, rel=1e-6)


def test_lipschitz_estimate_identity_and_zero():
    obj = Objective(dim=3, value_fn=lambda x: 0.0,
                    matrix=scipy.sparse.identity(3, format="csr"))
    assert lipschitz_estimate(obj) == pytest.approx(1.01, rel=1e-9)
    zero = Objective(dim=2, value_fn=lambda x: 0.0,
                     matrix=scipy.sparse.csr_matrix((2, 2)))
    assert lipschitz_estimate(zero) == 0.0


def test_lipschitz_estimate_requires_matrix():
    with pytest.raises(CapabilityError) as exc:
        lipschitz_estimate(make_quadratic([1.0]))
    assert exc.value.missing == "matrix"


def test_lipschitz_estimate_warns_when_unconverged():
    obj = make_least_squares(30, 30, sorted([1.0 + 0.1 * i for i in range(30)],
                                            reverse=True), seed=6)
    with pytest.warns(PowerIterationWarning):
        lipschitz_estimate(obj, iters=2, tol=1e-16)


def test_lipschitz_bound_valid_on_ball():
    obj = make_power(4.0, 2, 2.0)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        lhs = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
        assert lhs <= obj.lipschitz * np.linalg.norm(x - y) * (1.0 + 1e-12)


def test_problem_spec_round_trip():
    spec = ProblemSpec(kind="quadratic", params={"spectrum": [1.0, 2.0]}, seed=4)
    again = ProblemSpec.from_dict(spec.to_dict())
    assert again == spec
    obj = again.build()
    assert obj.dim == 2


def test_problem_spec_validation():
    with pytest.raises(InvalidInputError):
        ProblemSpec(kind="mystery", params={}).build()
    with pytest.raises(InvalidInputError):
        ProblemSpec.from_dict({"kind": "quadratic", "params": {}, "extra": 1})
    with pytest.raises(InvalidInputError):
        ProblemSpec(kind="quadratic", params={"bogus": 3}).build()
    with pytest.raises(InvalidInputError, match="problem spec must be an object"):
        ProblemSpec.from_dict([])
    with pytest.raises(InvalidInputError, match="problem spec needs a 'kind'"):
        ProblemSpec.from_dict({})


def test_unknown_phantom_is_a_spec_error():
    with pytest.raises(InvalidInputError, match="unknown phantom 'stars'"):
        make_radon(4, 3, 5, "stars")


def test_problem_spec_seed_must_be_an_integer():
    assert ProblemSpec("least_squares", seed=3.0) == ProblemSpec("least_squares", seed=3)
    assert ProblemSpec("least_squares", seed=np.int64(3)).seed == 3
    for seed in (None, "7", 2.5, True, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="problem seed must be an integer"):
            ProblemSpec("least_squares", seed=seed)
        with pytest.raises(InvalidInputError, match="problem seed must be an integer"):
            ProblemSpec.from_dict({"kind": "least_squares", "seed": seed})
    with pytest.raises(InvalidInputError, match="params must be a mapping"):
        ProblemSpec.from_dict({"kind": "quadratic", "params": [1]})


def test_problem_spec_build_each_kind():
    specs = [
        ProblemSpec("quadratic", {"spectrum": [1.0]}),
        ProblemSpec("least_squares", {"rows": 3, "cols": 3,
                                      "singular_values": [3.0, 2.0, 1.0]},
                    seed=2),
        ProblemSpec("power", {"p": 4.0, "dim": 2, "ball_radius": 3.0}),
        ProblemSpec("abs_value", {}),
        ProblemSpec("radon", {"grid_n": 4, "num_angles": 3,
                              "rays_per_angle": 5, "phantom": "disks"}),
    ]
    for spec in specs:
        obj = spec.build()
        assert obj.min_value == 0.0


def test_objective_capability_errors():
    bare = Objective(dim=1, value_fn=lambda x: float(x[0]) ** 2)
    for method, field in ((bare.gradient, "gradient_fn"),
                          (bare.distance, "solution_oracle")):
        with pytest.raises(CapabilityError) as exc:
            method(np.array([1.0]))
        assert exc.value.missing == field
    with pytest.raises(CapabilityError):
        bare.prox(1.0, np.array([1.0]))


def test_every_package_error_shares_the_base_class():
    import ahbopt

    for name in ahbopt.__all__:
        member = getattr(ahbopt, name)
        if (isinstance(member, type) and issubclass(member, Exception)
                and not issubclass(member, Warning)):
            assert issubclass(member, ToolkitError), name
    assert issubclass(InvalidInputError, ValueError)


def _assert_fused_matches(obj, x):
    value, grad = obj.value_and_gradient_fn(x)
    ref_value, ref_grad = obj.value_fn(x), obj.gradient_fn(x)
    assert type(value) is float and type(ref_value) is float
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert grad.dtype == ref_grad.dtype == np.float64
    assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("rows,cols,seed", [(1, 1, 0), (5, 3, 1), (3, 5, 2), (20, 20, 3),
                                            (40, 60, 4), (200, 200, 5)])
def test_least_squares_fused_oracle_is_bitwise_value_and_gradient(rows, cols, seed):
    r = min(rows, cols)
    obj = make_least_squares(rows, cols, [1.0 / i for i in range(1, r + 1)], seed=seed)
    rng = np.random.default_rng(seed + 100)
    for scale in (0.0, 1e-3, 1.0, 10.0, 1e150):
        _assert_fused_matches(obj, scale * rng.standard_normal(cols))
    _assert_fused_matches(obj, obj.x_true)


@pytest.mark.parametrize("kind, params, name", [
    ("least_squares", {"rows": 3, "cols": 3, "singular_values": [1.0, 1.0, 1.0]}, "rows"),
    ("least_squares", {"rows": 3, "cols": 3, "singular_values": [1.0, 1.0, 1.0]}, "cols"),
    ("power", {"p": 4.0, "dim": 2, "ball_radius": 3.0}, "dim"),
    ("radon", {"grid_n": 4, "num_angles": 3, "rays_per_angle": 5, "phantom": "disks"},
     "grid_n"),
    ("radon", {"grid_n": 4, "num_angles": 3, "rays_per_angle": 5, "phantom": "disks"},
     "num_angles"),
    ("radon", {"grid_n": 4, "num_angles": 3, "rays_per_angle": 5, "phantom": "disks"},
     "rays_per_angle"),
])
def test_factory_integer_params_take_only_integers(kind, params, name):
    value = params[name]
    assert ProblemSpec(kind, {**params, name: float(value)}).build().dim == \
        ProblemSpec(kind, params).build().dim
    for bad in (str(value), True, value + 0.5, None, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            ProblemSpec(kind, {**params, name: bad}).build()


def test_batched_value_oracle_is_dropped_where_its_error_bound_lapses():
    assert make_quadratic(np.ones(10 ** 5)).values_fn is not None
    assert make_quadratic(np.ones(10 ** 5 + 1)).values_fn is None
    assert make_power(4.0, 3, 1.0).values_fn is not None
    assert make_power(1e5, 1, 1.0).values_fn is None
    assert make_abs_value().values_fn is not None
    # A x - y cancels, so no relative error bound holds
    assert make_least_squares(3, 3, [1.0, 1.0, 1.0], seed=0).values_fn is None


def _as_bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("build", [
    lambda: make_least_squares(200, 200, [1.0 / i for i in range(1, 201)], seed=4),
    lambda: make_radon(64, 64, 64, "blocks"),
], ids=["least_squares", "radon"])
def test_data_fit_oracles_equal_the_matmul_expressions(build):
    # .dot on the dense array and on the CSR matrix makes the products of @
    obj = build()
    a, y = obj.matrix, obj.target
    rng = np.random.default_rng(0)
    for x in (np.zeros(obj.dim), obj.x_true, rng.standard_normal(obj.dim),
              1e150 * rng.standard_normal(obj.dim)):
        with np.errstate(over="ignore", invalid="ignore"):
            res = a @ x - y
            value, gradient = 0.5 * float(res @ res), a.T @ res
            fused_value, fused_gradient = obj.value_and_gradient_fn(x)
            assert _as_bits(obj.value_fn(x)) == _as_bits(fused_value) == _as_bits(value)
            assert obj.gradient_fn(x).tobytes() == fused_gradient.tobytes() == gradient.tobytes()


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_quadratic_value_equals_the_matmul_expression(xs):
    x = np.array(xs)
    lam = np.linspace(1.0, 1e4, x.size)
    with np.errstate(over="ignore"):
        assert _as_bits(make_quadratic(lam).value_fn(x)) == _as_bits(0.5 * float(lam @ (x * x)))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@example([1e200, 1e200])
@example([1e-170, -1e-170, 1e-170])
@example([5e-324, 5e-324])
@example([1.7e308, 1.7e308])
# the true norm of the least squares point lies just past the largest float
@example([1.8941775056029057e+300, 1.7976931348623157e+308])
@given(st.lists(_finite, min_size=1, max_size=40))
def test_distance_oracles_equal_linalg_norm(xs):
    # sqrt(v.v), bitwise, where v.v lies in [1e-290, 1e290]; elsewhere a norm
    # that neither overflows nor underflows, within 1e-14 of hypot and a few
    # units of the smallest subnormal where the norm is subnormal
    x = np.array(xs)
    ls = make_least_squares(x.size, x.size, [1.0] * x.size, seed=0)
    power = make_power(2.0, x.size, 1.0)
    for oracle, v in ((make_quadratic([1.0] * x.size).solution_oracle, x),
                      (power.solution_oracle, x),
                      (ls.solution_oracle, x - ls.x_true)):
        with np.errstate(over="ignore"):
            square = float(v.dot(v))
        if 1e-290 <= square <= 1e290:
            assert _as_bits(oracle(x)) == _as_bits(float(np.linalg.norm(v)))
        else:
            assert oracle(x) == pytest.approx(math.hypot(*v), rel=1e-14, abs=4 * 5e-324)
