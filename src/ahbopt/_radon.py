"""Parallel-beam line-integral geometry on the unit square.

The image occupies [-1, 1]^2, split into an n-by-n pixel grid. A ray is a
unit-speed straight line; matrix entries are exact ray/pixel intersection
lengths, so each matrix row integrates a piecewise-constant image along
one ray. Pixel (column i, row j) covers
[-1 + i*w, -1 + (i+1)*w] x [-1 + j*w, -1 + (j+1)*w] with w = 2/n and maps
to flat index j*n + i, matching C-order flattening of an (n, n) image
whose rows follow the y axis.

The matrix is traced in the style of Siddon (Med. Phys. 12(2), 1985):
for each angle, all its rays at once, by sorting each ray's grid-line
crossing parameters and binning the chord between consecutive crossings
to the pixel holding its midpoint.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

# Rays closer than this to a grid line are resolved by segment midpoints;
# shorter chords are dropped as geometric noise.
_EPS = 1e-13


def ray_geometry(num_angles, rays_per_angle):
    """Equally spaced angles in [0, pi) and ray offsets at the centers of
    equal detector bins spanning [-1, 1]."""
    angles = np.arange(num_angles) * (np.pi / num_angles)
    offsets = -1.0 + (np.arange(rays_per_angle) + 0.5) * (2.0 / rays_per_angle)
    return angles, offsets


def system_matrix(n, num_angles, rays_per_angle):
    """Sparse (num_angles * rays_per_angle) x n^2 line-integral matrix,
    rows ordered angle-major then offset.

    A ray at angle theta travels along (cos theta, sin theta), shifted by
    its offset along (-sin theta, cos theta), so theta = 0 gives
    horizontal rays sweeping grid rows. Per angle, one array holds a row
    per ray: its box entry and exit parameters and its interior grid-line
    crossings, with crossings outside the box moved onto the exit so that
    they add only zero-length chords. Each row is sorted and differenced;
    chords longer than `_EPS` go to the pixel holding their midpoint.
    The CSR arrays are reserved at their upper bound (a sorted row holds
    at most 2n parameters, so a ray keeps at most 2n - 1 chords), filled
    angle by angle and shrunk in place to nnz, so the matrix never
    exists twice. Each row's entries sit in sorted-chord order, the order
    a COO to CSR conversion of the same triplets gives. So
    `sum_duplicates` sorts and sums the same input, and indptr, indices
    and data are bitwise equal to those of the per-ray builder this
    replaced, whose arithmetic is kept.
    """
    angles, offsets = ray_geometry(num_angles, rays_per_angle)
    w = 2.0 / n
    interior = -1.0 + w * np.arange(1, n)
    m = num_angles * rays_per_angle
    data = np.empty(m * (2 * n - 1))
    indices = np.empty(m * (2 * n - 1), dtype=np.int32)
    indptr = np.zeros(m + 1, dtype=np.int32)
    chords_per_ray = indptr[1:].reshape(num_angles, rays_per_angle)
    nnz = 0
    for k, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        direction, origin = (c, s), (offsets * -s, offsets * c)
        # |offset| < 1, so every ray crosses the box along a chord longer than _EPS.
        t_lo, t_hi = np.full(offsets.size, -np.inf), np.full(offsets.size, np.inf)
        for o, d in zip(origin, direction):
            if abs(d) < _EPS:
                continue
            a, b = (-1.0 - o) / d, (1.0 - o) / d
            if d < 0:
                a, b = b, a
            t_lo, t_hi = np.maximum(t_lo, a), np.minimum(t_hi, b)
        columns = [t_lo[:, None], t_hi[:, None]]
        for o, d in zip(origin, direction):
            if abs(d) > _EPS:
                t = (interior - o[:, None]) / d
                inside = (t > t_lo[:, None]) & (t < t_hi[:, None])
                columns.append(np.where(inside, t, t_hi[:, None]))
        ts = np.sort(np.hstack(columns), axis=1)
        seg = ts[:, 1:] - ts[:, :-1]
        keep = seg > _EPS
        ray = np.nonzero(keep)[0]
        half = 0.5 * (ts[:, :-1][keep] + ts[:, 1:][keep])
        i, j = (np.clip(((o[ray] + half * d + 1.0) // w).astype(np.int32), 0, n - 1)
                for o, d in zip(origin, direction))
        chords_per_ray[k] = np.count_nonzero(keep, axis=1)
        data[nnz:nnz + ray.size] = seg[keep]
        indices[nnz:nnz + ray.size] = j * n + i
        nnz += ray.size
    np.cumsum(indptr, out=indptr)
    # no view of either buffer is alive, so the shrink needs no reference check
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(m, n * n))
    matrix.sum_duplicates()
    return matrix


def phantom_image(kind, n):
    """Deterministic piecewise-constant n-by-n test images.

    ``kind`` is a name from ``objective.PHANTOMS``: "blocks" overlays two
    axis-aligned rectangles, "disks" two circles; pixel values sample the
    underlying function at pixel centers.
    """
    centers = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    xs, ys = np.meshgrid(centers, centers)
    img = np.zeros((n, n))
    if kind == "blocks":
        img[(xs >= -0.6) & (xs <= -0.1) & (ys >= -0.5) & (ys <= 0.3)] += 1.0
        img[(xs >= 0.15) & (xs <= 0.65) & (ys >= -0.25) & (ys <= 0.35)] += 0.5
    else:
        img[(xs + 0.3) ** 2 + (ys - 0.2) ** 2 <= 0.35 ** 2] += 1.0
        img[(xs - 0.35) ** 2 + (ys + 0.25) ** 2 <= 0.25 ** 2] += 0.7
    return img
