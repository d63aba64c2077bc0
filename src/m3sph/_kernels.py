"""Hot numeric kernels, vectorized with numpy.

One implementation per kernel: the radial kernel table, the off-axis
evaluator (an e_1 diagonal moved to x by the frame W), the plane-wave and
lattice Fourier sums and the reference grid convolution.  Every kernel
accumulates in a fixed order, so results are bit-for-bit reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .polyalg import e1_diagonals
from .so3rep import build_irrep

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
# off-axis values: the e_1 diagonal moved by the frame W
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _frame_maps(d: int):
    """With -i A_3 = E diag(mu) E^*: the maps lam -> E^* diag(lam) E (d x d^2)
    and X -> E X E^* (d^2 x d^2), flattened row-major."""
    _, e = np.linalg.eigh(-1j * build_irrep((d - 1) // 2).generators[2])
    return (np.einsum("ca,cb->cab", e.conj(), e).reshape(d, d * d),
            np.einsum("ia,jb->abij", e, e.conj()).reshape(d * d, d * d))


def axis_transport(lam: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """W_p diag(lam[p]) W_p^* for an (n, d) batch of axis diagonals; (n, d, d).

    W_p = tau(k_p) = diag(e^{-i mu phi}) E diag(e^{-i mu theta}) E^*, where
    k_p = exp(-phi Y_1) exp(-theta Y_3) carries e_1 to x_p/|x_p| = (cos theta,
    sin theta cos phi, sin theta sin phi).  Only the theta phases minus 1 are
    moved, then diag(lam) added, so the e_1 ray gives diag(lam) to the bit.
    """
    n, d = lam.shape
    to_frame, back = _frame_maps(d)
    angles = np.arctan2([np.hypot(xs[:, 1], xs[:, 2]), xs[:, 2]], xs[:, :2].T)  # theta, phi
    ang = np.multiply.outer(angles, np.arange(d))
    u = np.cos(ang) - 1j * np.sin(ang)  # e^{-i mu angle} up to a phase common to all mu
    y = (lam @ to_frame).reshape(n, d, d)
    y = y * u[0, :, :, None] * u[0, :, None, :].conj() - y
    y = (y.reshape(n, d * d) @ back).reshape(n, d, d)
    out = y * u[1, :, :, None] * u[1, :, None, :].conj()
    out.reshape(n, d * d)[:, :: d + 1] += lam
    return out


@lru_cache(maxsize=None)
def axis_diagonals(m: int) -> np.ndarray:
    """The diagonals of Q_0(e_1)..Q_{2m}(e_1), (2m+1, d), read-only: the exact
    rationals of polyalg.e1_diagonals rounded once, times i^l.  (The same
    recursion in floats loses accuracy with l: 4e-10 relative at m = 12,
    l = 24.)"""
    r = np.array(e1_diagonals(m), dtype=np.float64)
    q = r * np.array([1, 1j, -1, -1j])[np.arange(2 * m + 1) % 4, None]
    q.setflags(write=False)
    return q


def q_series(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Assemble sum_l coeffs[p, l] * Q_l(x_p) for a batch of points.

    ``coeffs`` is (n, 2m+1) and ``xs`` (n, 3).  Q_l is equivariant and
    homogeneous of degree l, so the sum is the e_1 diagonal
    (coeffs[p, l] |x_p|^l) @ axis_diagonals(m) moved to x_p.  Returns (n, d, d).
    """
    L = coeffs.shape[1]
    r = np.sqrt(np.einsum("pi,pi->p", xs, xs))
    lam = (coeffs * r[:, None] ** np.arange(L)) @ axis_diagonals((L - 1) // 2)
    return axis_transport(lam, xs)


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
    (nq, d, d).  This is the lattice transform at arbitrary frequencies
    (``classical_ft`` of a grid field); the transforms along e_1 factor
    the lattice into slabs instead.
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
