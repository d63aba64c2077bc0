"""Hot numeric kernels, vectorized with numpy.

One implementation per kernel: the radii of a caller's points, the
Gauss-Legendre rules, the radial kernel table, the off-axis evaluator (an
e_1 diagonal moved to x by the frame W, whose phases are powers of two unit numbers read off x's
coordinates, in O(d^3) real products per point), the plane-wave Fourier sum of the
lattice transform and the reference grid convolution (a zero-padded FFT
convolution over the lattice axes).  Every
kernel accumulates in a fixed order, so a call is bit-for-bit reproducible
for a fixed input shape; the BLAS products round a row differently in a
block of another size, so a point's value may move in the last bits with
the batch it is evaluated in.  Every blocked pass of the package, here and
in transform, spherical and checks, takes its blocks from _blocks, over
the one budget BLOCK_ENTRIES.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CapabilityError
from .polyalg import e1_diagonals
from .so3rep import _cached_per_type, build_irrep

_MILLER_EXTRA = 25  # extra start orders for the downward recurrence
F_TABLE_JMAX = 64   # highest order f_table serves (see f_table)
GL_MAX_ORDER = 2048  # most nodes per panel of a rule (transform.gl_panels, construction 2)
# the one block budget: the most array entries one block of a blocked pass
# holds (_blocks); another budget can move the last bits of a BLAS product
BLOCK_ENTRIES = 2**16

# the largest m the numeric constructions and the inversion sum serve: the top
# of the range `check --profile full` verifies (the limits beyond: README)
M_MAX_NUMERIC = 26


def check_numeric_m(m: int):
    """Raise CapabilityError for an m above M_MAX_NUMERIC."""
    if m > M_MAX_NUMERIC:
        raise CapabilityError(
            f"numeric spherical functions support m <= {M_MAX_NUMERIC} (requested m={m})"
        )


def _blocks(n: int, per_item: int) -> list[slice]:
    """Slices of range(n) in order, each of max(1, BLOCK_ENTRIES // per_item)
    items (the last may be shorter): the blocks of every blocked pass, whose
    item holds ``per_item`` entries of its largest temporary.  A block is one
    item at least, however large the item."""
    step = max(1, BLOCK_ENTRIES // max(1, per_item))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def radii(xs: np.ndarray) -> np.ndarray:
    """|x| for an (n, 3) batch of points: the one place a caller's |x| is
    formed and refused.  The |x_k| are put in ascending order by exact
    min/max selection and their squares summed in that order, so points
    that differ by signs and permutations of their coordinates (the nodes
    of a lattice with exactly antisymmetric axes on one sphere) share one
    float radius, and radial work deduplicated by exact float equality
    runs once per shared radius.  A NaN or infinite coordinate raises
    ValueError, a radius whose squares overflow CapabilityError.  A row whose largest |x_k| is below 2^-511, whose
    squares would be subnormal, is scaled by the exact 2^600 first and its
    radius by 2^-600 after, so a tiny point keeps its radius to the ulp.
    """
    if not np.isfinite(xs).all():
        raise ValueError("evaluation points must be finite")
    x, y, z = np.abs(xs).T
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    a = np.minimum(lo, z), np.maximum(lo, np.minimum(hi, z)), np.maximum(hi, z)  # ascending
    tiny = a[2] < 2.0**-511
    scaled = tiny.any()
    if scaled:
        for c in a:
            c[tiny] *= 2.0**600
    with np.errstate(over="ignore"):
        r = np.square(a[0], out=a[0])
        r += np.square(a[1], out=a[1])
        r += np.square(a[2], out=a[2])
        np.sqrt(r, out=r)
    if scaled:
        r[tiny] = np.ldexp(r[tiny], -600)
    if not np.isfinite(r).all():
        raise CapabilityError("a point's radius |x| is not finite: it is out of float range")
    return r


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], nodes and weights,
    read-only and cached per n: the one place a rule is built (numpy's
    leggauss, a dense eigenvalue solve of O(n^3) work).  An n above
    GL_MAX_ORDER raises CapabilityError before any work."""
    if n > GL_MAX_ORDER:
        raise CapabilityError(f"a Gauss-Legendre rule of {n} nodes is over {GL_MAX_ORDER}")
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


# ---------------------------------------------------------------------------
# normalized half-integer Bessel kernels f_j(t) = (2j+1)!! j_j(t) / t^j
# ---------------------------------------------------------------------------


def f_table(jmax: int, t, axis: bool = False) -> np.ndarray:
    """Evaluate f_j(t), or with ``axis`` the axis kernels T_j(t) = t^j f_j(t),
    for all j = 0..jmax at each point of ``t``.

    f_j is even, normalized to f_j(0) = 1 and bounded by 1 in modulus;
    T_j(t) = (2j+1)!! j_j(t) is of the order of min(t^j, (2j+1)!!/t), in
    float range where f_j underflows or t^j overflows.  Returns an array of
    shape ``(jmax+1,) + t.shape``.  One recurrence,
    f_{l-1} = f_l - t^2 f_{l+1} / ((2l+1)(2l+3)): below t = jmax + 2 downward
    (Miller) from f_N = 1, f_{N+1} = 0, N = jmax + 25, normalized once on
    f_0 = sin t / t, or on f_1 = 3 (f_0 - cos t) / t^2 near a zero of f_0
    (the unnormalized values stay below e^{t^2/(4N+6)}), and T_j = f_j t^j
    there (t^j < 66^64); from jmax + 2 on upward from f_0 and f_1, or for T
    its own form T_{l+1} = (2l+1)(2l+3) (T_l/t - T_{l-1}) from T_0 = f_0 and
    T_1 = 3 (f_0 - cos t) / t.  Just below the switch the error grows with
    the order (5.1e-14 of the envelope at jmax = 53, 6.9e-13 at 64, 1.5e-10
    at 100), so orders above F_TABLE_JMAX raise CapabilityError.

    cos t is formed once.  The upward branch runs in place on the rows of
    the result over every point, with no gather of the points past the
    switch; the downward branch gathers the points below it, runs on one
    quotient row per order (a division, a product and a difference, each
    into its buffer) and overwrites their columns.
    """
    if jmax > F_TABLE_JMAX:
        raise CapabilityError(f"radial kernels support orders <= {F_TABLE_JMAX} (requested {jmax})")
    t = np.abs(np.asarray(t, dtype=np.float64))
    shape = t.shape
    t = t.reshape(-1)
    f0 = np.divide(np.sin(t), t, out=np.ones_like(t), where=t > 0)
    cos_t = np.cos(t)
    tt = np.maximum(t, 1.0)  # f_1's closed form is read only past t = 1
    f1 = 3.0 * (f0 - cos_t) / tt / tt
    out = np.empty((jmax + 1, t.size))
    out[0] = f0
    up = t >= jmax + 2.0
    if up.any() and jmax >= 1:
        # every column, those below the switch overwritten after
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            it2 = None if axis else (1.0 / t) ** 2
            out[1] = 3.0 * (f0 - cos_t) / t if axis else f1
            for l in range(1, jmax):
                c = (2 * l + 1) * (2 * l + 3)
                if axis:
                    out[l + 1] = (out[l] / t - out[l - 1]) * c
                else:
                    out[l + 1] = (out[l] - out[l - 1]) * c * it2
    down = ~up
    if down.any():
        td = t[down]
        t2 = td * td
        nstart = jmax + _MILLER_EXTRA
        w = np.empty((nstart + 2, td.size))
        w[nstart], w[nstart + 1] = 1.0, 0.0
        q = np.empty_like(t2)  # t^2 / ((2l+1)(2l+3)) w_{l+1}
        for l in range(nstart, 0, -1):
            np.divide(t2, (2 * l + 1) * (2 * l + 3), out=q)
            np.multiply(q, w[l + 1], out=q)
            np.subtract(w[l], q, out=w[l - 1])
        f0d, f1d = f0[down], f1[down]
        use1 = (td > 1.0) & (np.abs(f0d) < td * np.abs(f1d) / 3.0)
        fd = w[: jmax + 1] * (np.where(use1, f1d, f0d) / np.where(use1, w[1], w[0]))
        out[:, down] = fd * td ** np.arange(jmax + 1)[:, None] if axis else fd
    return out.reshape((jmax + 1,) + shape)


# ---------------------------------------------------------------------------
# off-axis values: the e_1 diagonal moved by the frame W
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _frame(d: int):
    """The real frame R and the map lam -> R^T diag(lam) R as a (d, d, d)
    stack, entry (a, b, c) = R_ca R_cb; both read-only.  With D = diag(i^a),
    D^* (-i A_3) D is real, symmetric and tridiagonal, and R is its
    eigenbasis (the real Wigner d(pi/2) factor, T. Risbo, J. Geodesy 70
    (1996) 383-396), so -i A_3 = E diag(mu) E^* with E = D R.  A d above
    2 M_MAX_NUMERIC + 1 raises CapabilityError before either is built."""
    m = (d - 1) // 2
    check_numeric_m(m)
    ia = np.array([1, 1j, -1, -1j])[np.arange(d) % 4]  # i^a, exact
    _, r = np.linalg.eigh((ia.conj()[:, None] * (-1j * build_irrep(m).generators[2]) * ia).real)
    to_frame = np.einsum("ca,cb->abc", r, r)
    r.setflags(write=False)
    to_frame.setflags(write=False)
    return r, to_frame


def _unit_phase(re: np.ndarray, im: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """(re + i im) / norm, exactly 1 where norm is 0."""
    z = np.ones(norm.shape, dtype=np.complex128)
    np.divide(re, norm, out=z.real, where=norm > 0)
    np.divide(im, norm, out=z.imag, where=norm > 0)
    return z


def _phases(z: np.ndarray, d: int, less_one: bool = False) -> np.ndarray:
    """The (d, d, n) read-only Toeplitz view whose entry (a, b) is z^(a-b),
    or z^(a-b) - 1 with ``less_one``, over a (2d-1, n) table of the powers:
    z is on the unit circle, z^k comes by repeated multiplication and
    z^-k = conj z^k."""
    pw = np.empty((2 * d - 1, z.size), dtype=np.complex128)
    pw[d - 1] = 1.0
    for k in range(d, 2 * d - 1):
        np.multiply(pw[k - 1], z, out=pw[k])
    np.conjugate(pw[: d - 1 : -1], out=pw[: d - 1])
    if less_one:
        pw -= 1.0
    row, col = pw.strides
    return as_strided(pw[d - 1 :], (d, d, z.size), (row, -row, col), writeable=False)


def axis_transport(lam: np.ndarray, xs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """W_p diag(lam[p]) W_p^* for an (n, d) batch of axis diagonals at the
    points xs with the radii rs = |x_p| (those of radii()); (n, d, d).

    W_p = tau(k_p) = diag(e^{-i mu phi}) E diag(e^{-i mu theta}) E^*, where
    k_p = exp(-phi Y_1) exp(-theta Y_3) carries e_1 to x_p/|x_p| = (cos theta,
    sin theta cos phi, sin theta sin phi), and E = D R with D = diag(i^a) and
    the real frame R of _frame.  The phases come from the coordinates: with
    rho = |(x_2, x_3)|, e^{-i theta} = (x_1 - i rho)/|x| and
    i e^{-i phi} = (x_3 + i x_2)/rho, which takes D's phases i^(a-b) in;
    each is 1 where its norm is 0, and entry (a, b) takes the power a - b
    of each.  The stack is held entries-first, (d, d, n): R^T diag(lam) R,
    its theta phases minus 1, then R on the left and R^T on the right
    (O(n d^3)), the phi phases, plus diag(lam), so the e_1 ray gives
    diag(lam) to the bit.  The three products are real constant matrices
    times float64 views of the complex stacks, half the multiplies of
    complex ones.  The points go in blocks of d^2 entries a point (_blocks),
    each through one stack allocated once per call and, for the middle
    product, the block's own slab of the (n, d, d) result, so every
    temporary stays cache-sized; each block's transpose is then written
    straight over that slab.  At d = 1 every frame is 1 and the value is
    lam.
    """
    n, d = lam.shape
    if d == 1:
        return np.array(lam, dtype=np.complex128).reshape(n, 1, 1)
    r, to_frame = _frame(d)
    out = np.empty((n, d, d), dtype=np.complex128)
    blocks = _blocks(n, d * d)
    size = blocks[0].stop if blocks else 0
    lam_buf = np.empty(d * size, dtype=np.complex128)
    y_buf = np.empty(d * d * size, dtype=np.complex128)
    for blk in blocks:
        lb, xb, nb = lam[blk], xs[blk], blk.stop - blk.start
        rho = np.hypot(xb[:, 1], xb[:, 2])
        z_theta = _unit_phase(xb[:, 0], -rho, rs[blk])
        z_phi = _unit_phase(xb[:, 2], xb[:, 1], rho)
        lt = lam_buf[: d * nb].reshape(d, nb)
        lt[...] = lb.T
        y = y_buf[: d * d * nb].reshape(d, d, nb)
        z = out[blk].reshape(d, d, nb)  # a view: the slab is free until the transpose
        np.matmul(to_frame, lt.view(np.float64), out=y.view(np.float64))
        y *= _phases(z_theta, d, less_one=True)
        np.matmul(r, y.reshape(d, d * nb).view(np.float64), out=z.reshape(d, d * nb).view(np.float64))
        np.matmul(r, z.view(np.float64), out=y.view(np.float64))
        y *= _phases(z_phi, d)
        y.reshape(d * d, nb)[:: d + 1] += lt
        out[blk] = y.transpose(2, 0, 1)
    return out


@_cached_per_type
def axis_diagonals(m: int) -> np.ndarray:
    """The diagonals of Q_0(e_1)..Q_{2m}(e_1), (2m+1, d), read-only: the exact
    rationals of polyalg.e1_diagonals rounded once, times i^l.  (The same
    recursion in floats loses accuracy with l: 4e-10 relative at m = 12,
    l = 24.)"""
    r = np.array(e1_diagonals(m), dtype=np.float64)
    q = r * np.array([1, 1j, -1, -1j])[np.arange(2 * m + 1) % 4, None]
    q.setflags(write=False)
    return q


def q_series(diagonal_at, xs, labels=None) -> np.ndarray:
    """The value at each point of an (n, 3) batch of an equivariant function
    given by its e_1 diagonals; (n, d, d).  The gate of every off-axis value:
    the one place their radii are formed, refused and deduplicated.

    ``labels`` (n,) names each point's function in a stack of several of
    one d (all 0 when omitted).  ``diagonal_at(rs, labels)`` maps the
    distinct (label, float radius) pairs of radii(xs), sorted by label and
    then radius, to the (n_r, d) diagonals at r e_1 (for a series
    sum_l c_l(|x|) Q_l(x), the axis weights c_l(r) r^l times
    axis_diagonals(m)); it is called once, with float overflow and invalid
    operations silenced.  Each diagonal is moved to its points by
    axis_transport, with the same radii.  A point refused by radii() raises
    there, a diagonal out of float range CapabilityError.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    r = radii(xs)
    labels = np.zeros(r.size, dtype=np.intp) if labels is None else np.asarray(labels)
    order = np.argsort(r)
    order = order[np.argsort(labels[order], kind="stable")]
    r, labels = r[order], labels[order]
    first = np.ones(r.size, dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (labels[1:] != labels[:-1])
    back = np.empty(r.size, dtype=np.intp)
    back[order] = np.cumsum(first) - 1
    rs = r[first]
    with np.errstate(over="ignore", invalid="ignore"):
        lam = diagonal_at(rs, labels[first])
    if not np.isfinite(lam).all():
        raise CapabilityError("the e_1 diagonal is not finite: a value on the axis is out of "
                              "float range")
    return axis_transport(lam[back], xs, rs[back])


# ---------------------------------------------------------------------------
# quadrature sums
# ---------------------------------------------------------------------------


def plane_wave_sum(nodes, mats, xs) -> np.ndarray:
    """sum_a exp(-i <x_p, u_a>) M_a at each point x_p; (n, d, d).

    ``nodes`` is (N, 3), ``mats`` (N, d, d) and ``xs`` (n, 3).  The points
    go in blocks of N phases a point (_blocks), so the (block, N) phase
    matrix stays cache-sized.
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    mats = np.ascontiguousarray(mats, dtype=np.complex128)
    xs = np.ascontiguousarray(np.atleast_2d(xs), dtype=np.float64)
    n_nodes, d = mats.shape[:2]
    flat = mats.reshape(n_nodes, d * d)
    out = np.empty((xs.shape[0], d, d), dtype=np.complex128)
    for blk in _blocks(xs.shape[0], n_nodes):
        out[blk] = (np.exp(-1j * (xs[blk] @ nodes.T)) @ flat).reshape(-1, d, d)
    return out


def fourier_grid_sum(values, pts, ys, weight: float) -> np.ndarray:
    """Discrete Fourier sum  w * sum_a values_a exp(-i <pt_a, y_q>), the
    plane-wave sum times w; (nq, d, d).

    This is the lattice transform at arbitrary frequencies
    (``classical_ft`` of a grid field); the transforms along e_1 factor
    the lattice into slabs instead.
    """
    return float(weight) * plane_wave_sum(pts, values, ys)


# ---------------------------------------------------------------------------
# lattice convolution by zero-padded FFT (used by the homomorphism check)
# ---------------------------------------------------------------------------


def grid_convolution(v1: np.ndarray, v2: np.ndarray, center, vol: float) -> np.ndarray:
    """Direct convolution of two matrix fields sampled on the same lattice.

    ``center`` is the lattice index of the spatial origin; contributions
    falling outside the lattice are dropped (fields are assumed to have
    decayed there).  That truncated sum is a zero-padded FFT convolution
    over the three lattice axes (length 2n - 1: nothing wraps around), one
    matrix product per frequency, cropped from ``center``; it is
    independent of the spherical transform it checks.
    """
    size = tuple(2 * n - 1 for n in v1.shape[:3])
    f1, f2 = (np.fft.fftn(v, s=size, axes=(0, 1, 2)) for v in (v1, v2))
    full = np.fft.ifftn(f1 @ f2, axes=(0, 1, 2))
    return float(vol) * full[tuple(slice(int(c), int(c) + n) for c, n in zip(center, v1.shape))]
