"""The numpy kernels against direct references.

``q_series`` is checked point by point against the pointwise recursion
``spherical.q_stack``; the plane-wave and lattice Fourier sums against
explicit Python sums over their nodes; the grid convolution against a
loop over lattice indices.  ``f_table`` is checked against scipy's
spherical Bessel functions in ``test_radial.py``.
"""

import cmath

import numpy as np
import pytest

from m3sph import _kernels, spherical
from m3sph.polyalg import coeff_table
from m3sph.so3rep import build_irrep


def test_f_table_shape_handling():
    t = np.linspace(0, 3, 12).reshape(3, 4)
    out = _kernels.f_table(2, t)
    assert out.shape == (3, 3, 4)
    flat = _kernels.f_table(2, t.ravel())
    assert np.array_equal(out.reshape(3, -1), flat)
    scalar = _kernels.f_table(2, 1.5)
    assert scalar.shape == (3,)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_q_series_against_q_stack(m):
    rng = np.random.default_rng(0)
    n = 17
    coeffs = rng.normal(size=(n, 2 * m + 1)) + 1j * rng.normal(size=(n, 2 * m + 1))
    xs = rng.uniform(-3, 3, size=(n, 3))
    out = _kernels.q_series(build_irrep(m).generators, coeff_table(m).as_floats(), coeffs, xs)
    assert out.shape == (n, 2 * m + 1, 2 * m + 1)
    for p in range(n):
        qs = spherical.q_stack(m, xs[p])
        ref = sum(coeffs[p, l] * qs[l] for l in range(2 * m + 1))
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(out[p] - ref)) < 1e-13 * scale


def test_plane_wave_sum_against_node_loop():
    rng = np.random.default_rng(1)
    nodes = rng.normal(size=(40, 3))
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    weights = rng.uniform(0.1, 1.0, 40)
    projs = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
    xs = rng.uniform(-2, 2, size=(6, 3))
    s = 1.7
    out = _kernels.plane_wave_sum(nodes, weights, projs, s, xs)
    assert out.shape == (6, 3, 3)
    for p, x in enumerate(xs):
        ref = np.zeros((3, 3), dtype=complex)
        for a in range(len(nodes)):
            ref += weights[a] * cmath.exp(-1j * s * float(nodes[a] @ x)) * projs[a]
        assert np.max(np.abs(out[p] - ref)) < 1e-12


def test_fourier_grid_sum_against_node_loop():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-4, 4, size=(300, 3))
    values = rng.normal(size=(300, 2, 2)) + 1j * rng.normal(size=(300, 2, 2))
    ys = rng.uniform(-3, 3, size=(5, 3))
    weight = 0.25
    out = _kernels.fourier_grid_sum(values, pts, ys, weight)
    assert out.shape == (5, 2, 2)
    for q, y in enumerate(ys):
        ref = np.zeros((2, 2), dtype=complex)
        for a in range(len(pts)):
            ref += cmath.exp(-1j * float(pts[a] @ y)) * values[a]
        assert np.max(np.abs(out[q] - weight * ref)) < 1e-10


def test_grid_convolution_against_loop_reference():
    # independent O(N^2) reference with explicit coordinate bookkeeping
    rng = np.random.default_rng(4)
    n = 4
    v1 = rng.normal(size=(n, n, n, 1, 1)).astype(complex)
    v2 = rng.normal(size=(n, n, n, 1, 1)).astype(complex)
    c = (1, 2, 1)
    vol = 0.3
    ref = np.zeros_like(v1)
    for i0 in range(n):
        for i1 in range(n):
            for i2 in range(n):
                for m0 in range(n):
                    for m1 in range(n):
                        for m2 in range(n):
                            a = (i0 - m0 + c[0], i1 - m1 + c[1], i2 - m2 + c[2])
                            if all(0 <= ai < n for ai in a):
                                ref[i0, i1, i2] += v1[a] @ v2[m0, m1, m2]
    ref *= vol
    out = _kernels.grid_convolution(v1, v2, c, vol)
    assert np.max(np.abs(out - ref)) < 1e-12
