import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahbopt._radon import system_matrix

# SHA-256 of indptr + indices + data (int32, int32, float64) as built by the
# per-ray tracer that preceded the per-angle one; the matrix must not move.
# The (128, 128, 128) digest was taken from the per-angle builder that
# concatenated its per-angle pieces, before the in-place fill.
GOLDEN = {
    (1, 1, 1): "74c9ccce2f37d96133a14e4411f41c82a223e92a975c897d699673907f7cc8e6",
    (2, 2, 2): "fb443e50a930bc70fa5afc0cc8b68819a29522420b461aac1409b5ca28b2b16e",
    (7, 7, 7): "d07ef4001766d5006e7cb5012062f2a1721a2c1e746986954eb357e0b8e4efaa",
    (16, 16, 16): "9d711be6bcad18e9a227aeee1db91c8af99f08a96aa89d99ae3e946a9ed40cfb",
    (32, 32, 32): "171fc0430e54ebd1ccef71c135a329ecd9b3fbb095a63776ec0d1bb5db884459",
    (64, 64, 64): "0c818b29c00d43cb7c75cfcf876f4d0710ceeba573c2a0ea6243268743efac91",
    (13, 17, 11): "55d912b7499f01855800f68ab7026be91e5567dcfa73d9da7004a6b2b7ffb436",
    (128, 128, 128): "6520ff1c259dae9b47f57905aca73aef3dda894a6fcf955ecd24770c033e7395",
}


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_system_matrix_is_bitwise_golden(shape):
    n, angles, rays = shape
    a = system_matrix(n, angles, rays)
    assert a.shape == (angles * rays, n * n)
    assert (a.indptr.dtype, a.indices.dtype, a.data.dtype) == (
        np.int32, np.int32, np.float64)
    assert a.has_canonical_format
    blob = a.indptr.tobytes() + a.indices.tobytes() + a.data.tobytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[shape]


def test_system_matrix_build_peak_stays_within_2x_its_csr_bytes():
    # The reserved buffers count here in full, untouched pages included;
    # a builder that holds the matrix twice peaks above 2x.
    system_matrix(8, 8, 8)  # first-call imports and caches stay out of the count
    tracemalloc.start()
    try:
        a = system_matrix(64, 64, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (a.indptr.nbytes + a.indices.nbytes + a.data.nbytes)


def _chord_length(theta, offset):
    """Length of the ray along (cos theta, sin theta), shifted by offset
    along (-sin theta, cos theta), inside [-1, 1]^2 (slab clipping)."""
    direction = (math.cos(theta), math.sin(theta))
    origin = (-offset * math.sin(theta), offset * math.cos(theta))
    lo, hi = -math.inf, math.inf
    for o, d in zip(origin, direction):
        if abs(d) < 1e-12:  # parallel to this slab, and |o| < 1 keeps it inside
            continue
        a, b = sorted(((-1.0 - o) / d, (1.0 - o) / d))
        lo, hi = max(lo, a), min(hi, b)
    return max(hi - lo, 0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), angles=st.integers(1, 12), rays=st.integers(1, 12))
def test_row_sums_are_chord_lengths(n, angles, rays):
    sums = np.asarray(system_matrix(n, angles, rays).sum(axis=1)).ravel()
    expected = [_chord_length(k * math.pi / angles, -1.0 + (r + 0.5) * 2.0 / rays)
                for k in range(angles) for r in range(rays)]
    np.testing.assert_allclose(sums, expected, rtol=1e-12, atol=1e-11)


@pytest.mark.parametrize("n", [7, 16, 64])
def test_radon_fused_oracle_is_bitwise_value_and_gradient(n):
    from ahbopt import make_radon

    obj = make_radon(n, n, n, "disks")
    rng = np.random.default_rng(n)
    for x in [np.zeros(n * n), obj.x_true, rng.standard_normal(n * n),
              1e3 * rng.random(n * n)]:
        value, grad = obj.value_and_gradient_fn(x)
        ref_value, ref_grad = obj.value_fn(x), obj.gradient_fn(x)
        assert type(value) is float and value == ref_value
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
