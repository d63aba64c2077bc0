"""Hot numeric kernels, vectorized with numpy.

One implementation per kernel: the radial kernel table, the matrix
Q-series assembly, the plane-wave and lattice Fourier sums and the
reference grid convolution.  Every kernel accumulates in a fixed order,
so results are bit-for-bit reproducible from run to run.
"""

from __future__ import annotations

import numpy as np

_SERIES_CUTOFF = 0.5  # switch between Taylor series and trig recurrences
_MILLER_EXTRA = 25    # extra start orders for the downward recurrence
_RESCALE_LIMIT = 1e250


# ---------------------------------------------------------------------------
# normalized half-integer Bessel kernels f_j(t) = (2j+1)!! j_j(t) / t^j
# ---------------------------------------------------------------------------


def f_table(jmax: int, t) -> np.ndarray:
    """Evaluate f_j(t) for all j = 0..jmax at each point of ``t``.

    f_j is the radial kernel normalized to f_j(0) = 1; values are bounded
    by 1 in modulus.  Returns an array of shape ``(jmax+1,) + t.shape``.
    """
    t = np.asarray(t, dtype=np.float64)
    shape = t.shape
    t = np.ascontiguousarray(t.reshape(-1))
    out = np.empty((jmax + 1, t.size))
    small = t < _SERIES_CUTOFF
    if small.any():
        ts = t[small]
        x2 = 0.25 * ts * ts
        for j in range(jmax + 1):
            term = np.ones_like(ts)
            acc = np.ones_like(ts)
            for k in range(1, 14):
                term = term * (-x2) / (k * (j + k + 0.5))
                acc = acc + term
            out[j, small] = acc
    big = ~small
    if big.any():
        tb = t[big]
        s = np.sin(tb)
        c = np.cos(tb)
        j0 = s / tb
        j1 = s / (tb * tb) - c / tb
        sj = np.empty((jmax + 1, tb.size))
        up = tb >= jmax + 2.0
        if up.any():
            # upward recurrence is stable once t clears the top order
            tu = tb[up]
            sj[0, up] = j0[up]
            if jmax >= 1:
                sj[1, up] = j1[up]
            for l in range(1, jmax):
                sj[l + 1, up] = (2 * l + 1) / tu * sj[l, up] - sj[l - 1, up]
        down = ~up
        if down.any():
            # Miller downward recurrence, normalized against j_0 or j_1
            td = tb[down]
            nstart = jmax + _MILLER_EXTRA
            work = np.zeros((nstart + 2, td.size))
            work[nstart] = 1e-30
            for l in range(nstart, 0, -1):
                work[l - 1] = (2 * l + 1) / td * work[l] - work[l + 1]
                over = np.abs(work[l - 1]) > _RESCALE_LIMIT
                if over.any():
                    work[:, over] *= 1e-250
            use0 = np.abs(j0[down]) >= np.abs(j1[down])
            scale = np.where(use0, j0[down] / work[0], j1[down] / work[1])
            sj[:, down] = work[: jmax + 1] * scale
        mult = np.ones_like(tb)
        out[0, big] = sj[0]
        for j in range(1, jmax + 1):
            mult = mult * ((2 * j + 1) / tb)
            out[j, big] = mult * sj[j]
    return out.reshape((jmax + 1,) + shape)


# ---------------------------------------------------------------------------
# assembly of sum_l c_l Q_l(x) by the pointwise matrix recursion
# ---------------------------------------------------------------------------


def q_series(gens: np.ndarray, ajs: np.ndarray, coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Assemble sum_l coeffs[p, l] * Q_l(x_p) for a batch of points.

    ``gens`` is the (3, d, d) generator stack, ``ajs`` the recursion scalars
    a_1..a_{2m}, ``coeffs`` an (n, 2m+1) complex array and ``xs`` an (n, 3)
    array of points.  Returns (n, d, d).
    """
    gens = np.ascontiguousarray(gens, dtype=np.complex128)
    ajs = np.ascontiguousarray(ajs, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    n, nq = coeffs.shape
    d = gens.shape[1]
    r2 = np.einsum("pi,pi->p", xs, xs)
    eye = np.broadcast_to(np.eye(d, dtype=np.complex128), (n, d, d))
    acc = coeffs[:, 0, None, None] * eye
    if nq > 1:
        q1 = np.tensordot(xs, gens, axes=([1], [0]))
        qprev = np.array(eye)
        qcur = q1.copy()
        acc = acc + coeffs[:, 1, None, None] * qcur
        for j in range(1, nq - 1):
            qnext = q1 @ qcur - (r2 * ajs[j - 1] / (2 * j + 1))[:, None, None] * qprev
            acc = acc + coeffs[:, j + 1, None, None] * qnext
            qprev = qcur
            qcur = qnext
    return np.ascontiguousarray(acc)


# ---------------------------------------------------------------------------
# quadrature sums
# ---------------------------------------------------------------------------


def plane_wave_sum(nodes, weights, projs, s: float, xs) -> np.ndarray:
    """Quadrature sum  sum_a w_a exp(-i s <x_p, xi_a>) P_a  for each point.

    Returns an (n, d, d) complex array.
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    projs = np.ascontiguousarray(projs, dtype=np.complex128)
    xs = np.ascontiguousarray(np.atleast_2d(xs), dtype=np.float64)
    phases = np.exp(-1j * float(s) * (xs @ nodes.T)) * weights
    d = projs.shape[1]
    return (phases @ projs.reshape(nodes.shape[0], d * d)).reshape(-1, d, d)


def fourier_grid_sum(values, pts, ys, weight: float) -> np.ndarray:
    """Discrete Fourier sum  w * sum_a values_a exp(-i <pt_a, y_q>).

    ``values`` is (N, d, d), ``pts`` is (N, 3), ``ys`` is (nq, 3); returns
    (nq, d, d).
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    ys = np.ascontiguousarray(np.atleast_2d(ys), dtype=np.float64)
    weight = float(weight)
    d = values.shape[1]
    out = np.empty((ys.shape[0], d, values.shape[2]), dtype=np.complex128)
    flat = values.reshape(pts.shape[0], d * d)
    # chunk over y to bound the phase-matrix size
    step = max(1, int(2e7) // max(1, pts.shape[0]))
    for q0 in range(0, ys.shape[0], step):
        ph = np.exp(-1j * (ys[q0 : q0 + step] @ pts.T))
        out[q0 : q0 + step] = weight * (ph @ flat).reshape(-1, d, d)
    return out


# ---------------------------------------------------------------------------
# direct grid convolution (oracle-grade; used by the homomorphism check)
# ---------------------------------------------------------------------------


def grid_convolution(v1: np.ndarray, v2: np.ndarray, center, vol: float) -> np.ndarray:
    """Direct convolution of two matrix fields sampled on the same lattice.

    ``center`` is the lattice index of the spatial origin; contributions
    falling outside the lattice are dropped (fields are assumed to have
    decayed there).  O(N^2) by construction: this is the slow reference
    path that the transform-domain product is checked against.
    """
    v1 = np.ascontiguousarray(v1, dtype=np.complex128)
    v2 = np.ascontiguousarray(v2, dtype=np.complex128)
    c0, c1, c2 = (int(c) for c in center)
    n0, n1, n2 = v1.shape[:3]
    out = np.zeros_like(v1)
    for m0 in range(n0):
        lo0, hi0 = max(0, m0 - c0), min(n0, n0 + m0 - c0)
        s0 = slice(lo0 - m0 + c0, hi0 - m0 + c0)
        for m1 in range(n1):
            lo1, hi1 = max(0, m1 - c1), min(n1, n1 + m1 - c1)
            s1 = slice(lo1 - m1 + c1, hi1 - m1 + c1)
            for m2 in range(n2):
                lo2, hi2 = max(0, m2 - c2), min(n2, n2 + m2 - c2)
                s2 = slice(lo2 - m2 + c2, hi2 - m2 + c2)
                out[lo0:hi0, lo1:hi1, lo2:hi2] += v1[s0, s1, s2] @ v2[m0, m1, m2]
    out *= float(vol)
    return out
