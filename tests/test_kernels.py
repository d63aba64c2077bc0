"""The numpy kernels against direct references.

``axis_transport`` is checked against the frame tau(k) built from two
explicit rotations, against the axis matrix ``dtau`` and against its
earlier form on the complex frame E of -i A_3; ``q_series``
point by point against the exact ``polyalg.build_Q`` evaluated in floats;
the plane-wave and lattice Fourier sums against
explicit Python sums over their nodes; the grid convolution against a
loop over lattice indices.  ``f_table`` is checked against scipy's
spherical Bessel functions, a power series and mpmath in ``test_radial.py``;
here it is checked for evenness, warnings and its order cap, its axis
kernels T_l(t) = t^l f_l(t) against mpmath, and both outputs bit for bit
against its earlier form with the branches gathered and scattered.
"""

import cmath
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from m3sph import _kernels
from m3sph.errors import CapabilityError
from m3sph.polyalg import build_Q
from m3sph.so3rep import Rotation, build_irrep, dtau, tau


def test_f_table_shape_handling():
    t = np.linspace(0, 3, 12).reshape(3, 4)
    out = _kernels.f_table(2, t)
    assert out.shape == (3, 3, 4)
    flat = _kernels.f_table(2, t.ravel())
    assert np.array_equal(out.reshape(3, -1), flat)
    scalar = _kernels.f_table(2, 1.5)
    assert scalar.shape == (3,)


def test_f_table_is_even():
    assert np.array_equal(_kernels.f_table(2, [-20.0]), _kernels.f_table(2, [20.0]))
    t = np.random.default_rng(3).uniform(0, 30, 200)
    assert np.array_equal(_kernels.f_table(9, -t), _kernels.f_table(9, t))


def test_f_table_emits_no_warning():
    # t = k pi are zeros of f_0, where the downward branch normalizes on f_1
    # and never divides by a vanishing unnormalized f_0
    ts = [0.0, 1e-300, 1e-8, 1.0] + [k * np.pi for k in range(1, 6)]
    for jmax in range(_kernels.F_TABLE_JMAX + 1):
        for t in ts + [jmax + 1.99, jmax + 2.0, 1e100]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = _kernels.f_table(jmax, [t])
            assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= 1.0), (jmax, t)
        assert np.all(_kernels.f_table(jmax, [0.0]) == 1.0)


def _f_table_gathered(jmax, t, axis=False):
    """f_table as it was with the branches gathered and scattered: the
    upward recurrence on the points past the switch alone, cos t formed
    again for them, and the Miller quotients t^2/((2l+1)(2l+3)) inline.
    The reference the kernel keeps to the bit."""
    t = np.abs(np.asarray(t, dtype=np.float64)).reshape(-1)
    f0 = np.divide(np.sin(t), t, out=np.ones_like(t), where=t > 0)
    tt = np.maximum(t, 1.0)
    f1 = 3.0 * (f0 - np.cos(t)) / tt / tt
    out = np.empty((jmax + 1, t.size))
    up = t >= jmax + 2.0
    if up.any():
        tu = t[up]
        it2 = None if axis else (1.0 / tu) ** 2
        fu = np.empty((jmax + 1, tu.size))
        fu[0] = f0[up]
        if jmax >= 1:
            fu[1] = 3.0 * (fu[0] - np.cos(tu)) / tu if axis else f1[up]
        for l in range(1, jmax):
            c = (2 * l + 1) * (2 * l + 3)
            fu[l + 1] = (fu[l] / tu - fu[l - 1]) * c if axis else (fu[l] - fu[l - 1]) * c * it2
        out[:, up] = fu
    down = ~up
    if down.any():
        td = t[down]
        t2 = td * td
        nstart = jmax + 25
        w = np.zeros((nstart + 2, td.size))
        w[nstart] = 1.0
        for l in range(nstart, 0, -1):
            w[l - 1] = w[l] - t2 / ((2 * l + 1) * (2 * l + 3)) * w[l + 1]
        f0d, f1d = f0[down], f1[down]
        use1 = (td > 1.0) & (np.abs(f0d) < td * np.abs(f1d) / 3.0)
        fd = w[: jmax + 1] * (np.where(use1, f1d, f0d) / np.where(use1, w[1], w[0]))
        out[:, down] = fd * td ** np.arange(jmax + 1)[:, None] if axis else fd
    return out


def _switch_and_far_points(jmax):
    """Both sides of the switch at jmax + 2, and far out to 1e300."""
    return [0.0, 1e-300, 0.5, jmax + 1.99, jmax + 2.0, 1e4, 1e100, 1e300]


def _f_table_points(jmax):
    """The switch and far points, the float just below the switch, the
    zeros of f_0 (where the downward branch normalizes on f_1) and 200
    random points below 3 jmax + 10."""
    rand = np.random.default_rng(jmax).uniform(0, 3 * jmax + 10, 200)
    near = [np.nextafter(jmax + 2.0, 0.0)] + [k * np.pi for k in range(1, 6)]
    return _switch_and_far_points(jmax) + near + list(rand)


_F_TABLE_ORDERS = [0, 1, 8, 26, 53, _kernels.F_TABLE_JMAX]


@pytest.mark.parametrize("jmax", _F_TABLE_ORDERS)
def test_f_table_plain_output_is_the_f_recurrence_bit_for_bit(jmax):
    ts = _f_table_points(jmax)
    assert np.array_equal(_kernels.f_table(jmax, ts), _f_table_gathered(jmax, ts))


@pytest.mark.parametrize("jmax", _F_TABLE_ORDERS)
def test_f_table_axis_output_is_the_gathered_recurrence_bit_for_bit(jmax):
    # the in-place upward branch runs over every point; the columns below
    # the switch, overwritten after, must leave no trace and no warning
    ts = _f_table_points(jmax)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _kernels.f_table(jmax, ts, axis=True)
    assert np.array_equal(out, _f_table_gathered(jmax, ts, axis=True))


@pytest.mark.parametrize("jmax, tol", [(0, 1e-14), (8, 1e-14), (26, 1e-14),
                                       (_kernels.F_TABLE_JMAX, 1e-12)])
def test_f_table_axis_kernels_against_mpmath(jmax, tol, axis_kernel):
    # T_l(t) = t^l f_l(t); errors are relative to t^l times the envelope
    # min(1, (2l+1)!!/t^(l+1)) of f_l, in float, so where t^l underflows
    # the kernel must be exactly 0
    ts = _switch_and_far_points(jmax)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _kernels.f_table(jmax, ts, axis=True)
    with mp.workdps(40):
        for i, t in enumerate(ts):
            tm = mp.mpf(t)
            for l in range(jmax + 1):
                env = min(1, mp.fac2(2 * l + 1) / max(tm, 1) ** (l + 1))
                err = abs(table[l, i] - float(axis_kernel(l, tm)))
                assert err <= tol * float(tm**l * env), (l, t)


def test_f_table_refuses_orders_above_its_cap():
    top = _kernels.F_TABLE_JMAX
    assert _kernels.f_table(top, [1.0]).shape == (top + 1, 1)
    with pytest.raises(CapabilityError, match="orders"):
        _kernels.f_table(top + 1, [1.0])


def test_gauss_legendre_is_one_cached_read_only_rule_per_order():
    # numpy's rule, built once per order and shared by every later call
    _kernels.gauss_legendre.cache_clear()
    x, w = _kernels.gauss_legendre(37)
    ref = np.polynomial.legendre.leggauss(37)
    assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
    assert not (x.flags.writeable or w.flags.writeable)
    assert _kernels.gauss_legendre(37)[0] is x
    assert _kernels.gauss_legendre.cache_info().misses == 1


def _frame_test_points(rng):
    """Random points plus the origin, +-e_1 and other points on the e_1 axis."""
    axis = [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [2.5, 0, 0], [-0.3, 0, 0]]
    return np.concatenate([rng.normal(size=(12, 3)) * 1.5, np.array(axis, dtype=float)])


@pytest.mark.parametrize("m", [0, 1, 2, 4])
def test_axis_transport_moves_the_axis_matrix(m):
    # W diag(i mu |x|) W^* = dtau(x): the frame carries e_1 to x/|x|
    rep = build_irrep(m)
    xs = _frame_test_points(np.random.default_rng(20))
    rs = _kernels.radii(xs)
    out = _kernels.axis_transport(1j * np.outer(rs, np.arange(-m, m + 1)), xs, rs)
    for p, x in enumerate(xs):
        assert np.max(np.abs(out[p] - dtau(rep, x))) <= 1e-13


def _two_rotation_frame(rep, x):
    """tau(k1) tau(k3) with k = exp(-phi Y_1) exp(-theta Y_3), the angles of x
    by arctan2: the trig oracle of the kernel's coordinate phases."""
    theta = np.arctan2(np.hypot(x[1], x[2]), x[0])
    phi = np.arctan2(x[2], x[1])
    e1, e3 = np.eye(3)[0], np.eye(3)[2]
    k1, k3 = Rotation(axis=e1, angle=-phi), Rotation(axis=e3, angle=-theta)
    r = np.linalg.norm(x)
    if 0 < r < np.inf:
        assert np.max(np.abs(k1.apply(k3.apply(e1)) - x / r)) <= 1e-14
    return tau(rep, k1) @ tau(rep, k3)


@pytest.mark.parametrize("m", [0, 1, 2, 4, 26])
def test_axis_transport_is_the_two_rotation_frame(m):
    # k = exp(-phi Y_1) exp(-theta Y_3), with x/|x| = (cos t, sin t cos p, sin t sin p)
    tol = 1e-12 if m == 26 else 1e-13
    rep = build_irrep(m)
    rng = np.random.default_rng(21)
    xs = _frame_test_points(rng)
    lam = rng.normal(size=(len(xs), 2 * m + 1)) + 1j * rng.normal(size=(len(xs), 2 * m + 1))
    out = _kernels.axis_transport(lam, xs, _kernels.radii(xs))
    for p, x in enumerate(xs):
        w = _two_rotation_frame(rep, x)
        ref = w @ np.diag(lam[p]) @ w.conj().T
        assert np.max(np.abs(out[p] - ref)) <= tol
        if x[1] == x[2] == 0 and x[0] >= 0:
            assert np.array_equal(out[p], np.diag(lam[p]))


_EDGE_POINTS = [
    (-2.0, 0.0, 0.0),  # the -e_1 ray: theta = pi, the phase exactly -1
    (0.0, 5e-324, 0.0),  # subnormal: rho and |x| are the smallest float
    (1e-170,) * 3,  # squares underflow
    (1e300, 1e300, 0.0),  # squares overflow
    (1e-300, 1e300, -1e300),
]


@pytest.mark.parametrize("m", [1, 3])
def test_axis_transport_at_the_edges_of_float_range(m):
    # the phases come from the coordinates and the radii by hypot and
    # division, with no warning; each point is the two-rotation frame to
    # 1e-13.  radii() refuses the last two points, whose squares overflow;
    # their radii are hypot norms.
    rep = build_irrep(m)
    xs = np.array(_EDGE_POINTS)
    rs = np.hypot(xs[:, 0], np.hypot(xs[:, 1], xs[:, 2]))
    rs[:3] = _kernels.radii(xs[:3])
    lam = np.random.default_rng(22).normal(size=(len(xs), 2 * m + 1)) + 0.5j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _kernels.axis_transport(lam, xs, rs)
    for p, x in enumerate(xs):
        with np.errstate(over="ignore", under="ignore"):  # the oracle's own |x|
            w = _two_rotation_frame(rep, x)
        assert np.max(np.abs(out[p] - w @ np.diag(lam[p]) @ w.conj().T)) <= 1e-13


def test_axis_transport_phase_on_the_minus_e1_ray_is_exactly_minus_one():
    # e^{-i theta} = (x_1 - i rho)/|x| is -1 to the bit at (-2, 0, 0), so every
    # power of it is +-1 with no imaginary part
    z = _kernels._unit_phase(np.array([-2.0]), np.array([-0.0]), np.array([2.0]))
    assert z[0] == -1.0
    ph = _kernels._phases(z, 5)[:, :, 0]
    a = np.arange(5)
    assert np.array_equal(ph, (-1.0) ** np.abs(a[:, None] - a[None, :]))
    assert not np.any(ph.imag)


@pytest.mark.parametrize("m", [0, 2, 5])
def test_axis_transport_at_the_origin_is_the_identity_frame(m):
    # at +0 and -0 alike both phases are 1, so the frame is I and the value
    # diag(lam) (every library caller passes a diagonal that is scalar at
    # the origin, where any frame gives the same value)
    lam = np.random.default_rng(23).normal(size=(4, 2 * m + 1)) + 1j
    xs = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _kernels.axis_transport(lam, xs, _kernels.radii(xs))
    for p in range(len(xs)):
        assert np.array_equal(out[p], np.diag(lam[p]))


def test_axis_transport_at_the_top_of_the_numeric_range_is_small_in_memory():
    # one point at m = 26 on a cold cache: the real frame R and the
    # (d, d, d) map are the only cached arrays, O(d^3) memory
    _kernels._frame.cache_clear()
    d = 2 * _kernels.M_MAX_NUMERIC + 1
    tracemalloc.start()
    try:
        xs = np.array([[0.3, -0.4, 0.8]])
        out = _kernels.axis_transport(np.ones((1, d), dtype=complex), xs, _kernels.radii(xs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, d, d)
    assert peak < 8 << 20


def _axis_transport_one_pass(lam, xs, rs):
    """axis_transport as one pass over all n points, the whole (d^2, n)
    stack at once: the reference for the blocked kernel."""
    n, d = lam.shape
    r, to_frame = _kernels._frame(d)
    rho = np.hypot(xs[:, 1], xs[:, 2])
    z_theta = _kernels._unit_phase(xs[:, 0], -rho, rs)
    z_phi = _kernels._unit_phase(xs[:, 2], xs[:, 1], rho)
    lt = np.ascontiguousarray(lam.T, dtype=complex)
    y = (to_frame @ lt.view(np.float64)).view(complex)
    y *= _kernels._phases(z_theta, d, less_one=True)
    z = (r @ y.reshape(d, d * n).view(np.float64)).view(complex).reshape(d, d, n)
    y = (r @ z.view(np.float64)).view(complex)
    y *= _kernels._phases(z_phi, d)
    y.reshape(d * d, n)[:: d + 1] += lt
    return np.ascontiguousarray(y.transpose(2, 0, 1))


def _complex_frame(d):
    """The complex frame E of -i A_3 = E diag(mu) E^*, by a Hermitian
    eigendecomposition, and the map lam -> E^* diag(lam) E as (d^2, d)."""
    _, e = np.linalg.eigh(-1j * build_irrep((d - 1) // 2).generators[2])
    return e, np.einsum("ca,cb->abc", e.conj(), e).reshape(d * d, d)


def _complex_frame_transport(lam, xs, rs):
    """axis_transport as it was on the complex frame: the same phases (those
    of phi without the factor i of D), E and E^* as complex products, the
    points in the kernel's blocks."""
    n, d = lam.shape
    e, to_frame = _complex_frame(d)
    out = np.empty((n, d, d), dtype=np.complex128)
    step = max(1, _kernels.BLOCK_ENTRIES // (d * d))
    for p0 in range(0, n, step):
        blk = slice(p0, p0 + step)
        lb, xb, nb = lam[blk], xs[blk], min(step, n - p0)
        rho = np.hypot(xb[:, 1], xb[:, 2])
        z_theta = _kernels._unit_phase(xb[:, 0], -rho, rs[blk])
        z_phi = _kernels._unit_phase(xb[:, 1], -xb[:, 2], rho)
        y = (to_frame @ lb.T).reshape(d, d, nb)
        y *= _kernels._phases(z_theta, d, less_one=True)
        np.matmul(e.conj(), (e @ y.reshape(d, d * nb)).reshape(d, d, nb), out=y)
        y *= _kernels._phases(z_phi, d)
        y.reshape(d * d, nb)[:: d + 1] += lb.T
        out[blk] = y.transpose(2, 0, 1)
    return out


def _frame_edge_case_points(rng, d, n):
    """n random points with the e_1 ray, the -e_1 ray, the origin, tiny and
    huge radii placed at both ends of the batch and, where n reaches it, on
    both sides of the kernel's first block edge for the dimension d."""
    xs = rng.normal(size=(n, 3)) * 2.0
    special = [[1.5, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1e-170, -2e-170, 3e-170],
               [3e-300, 0.0, -1e-300], [1e150, -2e150, 5e149], [-1e300, 1e299, 0.0]]
    edge = max(1, _kernels.BLOCK_ENTRIES // (d * d))
    at = [0, 1, 2, 3, n - 4, n - 3, n - 2, n - 1] + [p for p in range(edge - 3, edge + 3) if 3 < p < n - 4]
    for k, p in enumerate(at):
        xs[p] = special[k % len(special)]
    return xs


@pytest.mark.parametrize("m, tol", [(0, 4e-15), (1, 4e-15), (2, 4e-15), (3, 4e-15), (4, 4e-15),
                                    (12, 1e-14), (26, 1e-14)])
def test_real_frame_is_the_complex_frame(m, tol):
    # E = D R: the real frame's products agree with the complex frame's to
    # rounding, relative to the largest entry, over two blocks and a short
    # one; the e_1 ray and the origin give diag(lam) to the bit in both
    d = 2 * m + 1
    n = 2 * max(1, _kernels.BLOCK_ENTRIES // (d * d)) + 7
    rng = np.random.default_rng(26 + m)
    xs = _frame_edge_case_points(rng, d, n)
    rs = np.hypot(xs[:, 0], np.hypot(xs[:, 1], xs[:, 2]))
    lam = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _kernels.axis_transport(lam, xs, rs)
    ref = _complex_frame_transport(lam, xs, rs)
    assert np.max(np.abs(out - ref)) <= tol * np.max(np.abs(ref))
    on_ray = np.flatnonzero((xs[:, 1] == 0) & (xs[:, 2] == 0) & (xs[:, 0] >= 0))
    assert on_ray.size >= 4
    for p in on_ray:
        assert np.array_equal(out[p], np.diag(lam[p])) and np.array_equal(ref[p], out[p])


@pytest.mark.parametrize("m", [0, 1, 2, 4])
def test_real_frame_takes_a_real_read_only_diagonal(m):
    # projections pass rows of np.eye broadcast over the points: a float64,
    # read-only, non-contiguous (n, d) batch
    d = 2 * m + 1
    xs = _frame_edge_case_points(np.random.default_rng(40 + m), d, 30)
    rs = np.hypot(xs[:, 0], np.hypot(xs[:, 1], xs[:, 2]))
    for j in range(d):
        lam = np.broadcast_to(np.eye(d)[j], (len(xs), d))
        out = _kernels.axis_transport(lam, xs, rs)
        ref = _complex_frame_transport(lam, xs, rs)
        assert out.dtype == np.complex128 and out.shape == (len(xs), d, d)
        assert np.max(np.abs(out - ref)) <= 4e-15
    assert np.array_equal(_kernels.axis_transport(np.eye(d), xs[:d], rs[:d]),
                          _kernels.axis_transport(np.eye(d).astype(complex), xs[:d], rs[:d]))


def _blocked_and_one_pass_transport(m):
    """axis_transport and its one-pass reference on three full blocks and a
    short one, with points on the e_1 ray, on the -e_1 ray and at the origin
    on both sides of every block edge."""
    d = 2 * m + 1
    step = max(1, _kernels.BLOCK_ENTRIES // (d * d))
    n = 3 * step + 5
    rng = np.random.default_rng(24)
    xs = rng.normal(size=(n, 3)) * 2.0
    special = np.array([[1.5, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for k, p in enumerate([0, step - 1, step, 2 * step - 1, 2 * step, 3 * step - 1, 3 * step, n - 1]):
        xs[p] = special[k % 3]
    rs = _kernels.radii(xs)
    lam = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return _kernels.axis_transport(lam, xs, rs), _axis_transport_one_pass(lam, xs, rs)


@pytest.mark.parametrize("m", [0, 1, 4])
def test_blocked_axis_transport_is_the_one_pass_bit_for_bit(m):
    out, ref = _blocked_and_one_pass_transport(m)
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("m", [6, 8, 12, 20, 26])
def test_blocked_axis_transport_is_the_one_pass_to_8_eps(m):
    # above m = 5 BLAS may round a block's tail columns of the real products
    # differently from the one pass (seen: at most 2.3 eps of the largest
    # entry)
    out, ref = _blocked_and_one_pass_transport(m)
    assert np.max(np.abs(out - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))


def test_axis_transport_holds_no_full_size_temporary():
    # at m = 1 on the 41^3 lattice points (10 MB per (n, d, d) stack) the
    # result is the one array of its size; every temporary is one block's
    axis = np.linspace(-8.0, 8.0, 41)
    xs = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    rs = _kernels.radii(xs)
    lam = np.random.default_rng(25).normal(size=(xs.shape[0], 3)) + 0.5j
    _kernels._frame(3)
    tracemalloc.start()
    try:
        out = _kernels.axis_transport(lam, xs, rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + (4 << 20)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_q_series_against_exact_q(m):
    rng = np.random.default_rng(0)
    n = 17
    a = rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)
    b = rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)

    def coeffs_at(rs):
        return a * np.cos(rs[:, None]) + b * rs[:, None]

    # the e_1 diagonal of sum_l c_l(|x|) Q_l(x): the axis weights c_l(r) r^l
    # against the diagonals of Q_l(e_1)
    xs = rng.uniform(-3, 3, size=(n, 3))
    diag = _kernels.axis_diagonals(m)
    out = _kernels.q_series(lambda rs, _: coeffs_at(rs) * rs[:, None] ** np.arange(2 * m + 1) @ diag,
                            xs)
    assert out.shape == (n, 2 * m + 1, 2 * m + 1)
    qs = [q.eval(xs) for q in build_Q(m)]
    for p in range(n):
        coeffs = coeffs_at(np.array([np.linalg.norm(xs[p])]))[0]
        ref = sum(coeffs[l] * qs[l][p] for l in range(2 * m + 1))
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(out[p] - ref)) < 1e-13 * scale


def test_q_series_refuses_a_non_finite_diagonal():
    # the axis weight c_4 |x|^4 overflows at |x| = 1e100 while the radius
    # and the coefficient stay finite; no warning escapes
    coeffs = np.array([1.0, 1e-30, 1e-60, 1e-90, 1e-120], dtype=complex)
    diag = _kernels.axis_diagonals(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapabilityError, match="not finite"):
            _kernels.q_series(lambda rs, _: coeffs * rs[:, None] ** np.arange(5) @ diag,
                              np.array([[1e100, 0.0, 0.0]]))


def test_grouped_q_series_forms_each_label_and_radius_once():
    # a point and its coordinate permutations share one float radius: the
    # grouped call takes each (label, radius) pair once, sorted by label and
    # then radius, and each point gets its own label's diagonal
    xs = np.array([[1.0, 2.0, 2.0], [2.0, -2.0, 1.0], [0.0, 3.0, 0.0], [0.5, 0.0, 0.0],
                   [1.0, 2.0, 2.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
    labels = np.array([2, 0, 0, 0, 2, 1, 2])
    seen = []

    def diagonal_at(rs, groups):
        seen.append((rs.tolist(), groups.tolist()))
        return (groups[:, None] + 1.0) * np.array([1.0, 2.0, 3.0]) + rs[:, None]

    out = _kernels.q_series(diagonal_at, xs, labels)
    assert seen == [([0.5, 3.0, 0.5, 0.0, 3.0], [0, 0, 1, 2, 2])]
    for p, label in enumerate(labels):
        one = _kernels.q_series(lambda rs, _: (label + 1.0) * np.array([1.0, 2.0, 3.0]) + rs[:, None],
                                xs[p : p + 1])
        assert np.array_equal(out[p], one[0])
    empty = _kernels.q_series(diagonal_at, np.empty((0, 3)), np.empty(0, dtype=int))
    assert empty.shape == (0, 3, 3)


def _q_series_by_unique(diagonal_at, xs):
    """q_series as it was without labels: the distinct radii by np.unique,
    diagonal_at(rs) called on them alone."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    rs, back = np.unique(_kernels.radii(xs), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = diagonal_at(rs)
    return _kernels.axis_transport(lam[back], xs, rs[back])


@pytest.mark.parametrize("points", ["lattice", "scattered"])
def test_q_series_without_labels_is_the_unique_radii_path_bit_for_bit(points):
    # without labels q_series forms the radii of np.unique, each once, all
    # labelled 0, and returns the values of the radius-only path to the bit:
    # at m = 1 on the 41^3 lattice (about 1% distinct radii) and on 5000
    # scattered points (all distinct)
    if points == "lattice":
        axis = np.linspace(-8.0, 8.0, 41)
        xs = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    else:
        rng = np.random.default_rng(34)
        xs = rng.normal(size=(5000, 3)) * rng.uniform(0.0, 3.0, size=(5000, 1))
    diag = _kernels.axis_diagonals(1)

    def diagonal(rs):
        return (np.exp(-rs[:, None]) * [1.0, 0.5, -0.25]) * rs[:, None] ** np.arange(3) @ diag

    seen = []

    def diagonal_at(rs, labels):
        seen.append((rs, labels))
        return diagonal(rs)

    out = _kernels.q_series(diagonal_at, xs)
    (rs, labels), = seen
    assert np.array_equal(rs, np.unique(_kernels.radii(xs)))
    assert labels.shape == rs.shape and not labels.any()
    assert np.array_equal(out, _q_series_by_unique(diagonal, xs))


def test_plane_wave_sum_against_node_loop():
    rng = np.random.default_rng(1)
    nodes = rng.normal(size=(40, 3))
    projs = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
    xs = rng.uniform(-2, 2, size=(6, 3))
    out = _kernels.plane_wave_sum(nodes, projs, xs)
    assert out.shape == (6, 3, 3)
    for p, x in enumerate(xs):
        ref = np.zeros((3, 3), dtype=complex)
        for a in range(len(nodes)):
            ref += cmath.exp(-1j * float(nodes[a] @ x)) * projs[a]
        assert np.max(np.abs(out[p] - ref)) < 1e-12


def test_plane_wave_sum_builds_its_phases_in_blocks(monkeypatch):
    # 4 000 points against 500 nodes: one block of 2e6 phases under the
    # 2e7-entry bound; under a 1e4-entry bound the sum goes in blocks of 20
    # points, whose traced peak stays far below the 32 MB of the whole phase
    # matrix.  BLAS may round a short block's products differently, so the
    # values agree to rounding, not to the bit
    rng = np.random.default_rng(3)
    nodes = rng.normal(size=(500, 3))
    mats = rng.normal(size=(500, 3, 3)) + 1j * rng.normal(size=(500, 3, 3))
    xs = rng.uniform(-2, 2, size=(4000, 3))
    assert _kernels._PHASE_ENTRIES == int(2e7)
    whole = _kernels.plane_wave_sum(nodes, mats, xs)
    monkeypatch.setattr(_kernels, "_PHASE_ENTRIES", 10_000)
    tracemalloc.start()
    try:
        blocked = _kernels.plane_wave_sum(nodes, mats, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))
    assert peak < 2 << 20


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


@pytest.mark.parametrize("d", [1, 2])
def test_grid_convolution_against_loop_reference(d):
    # independent O(N^2) reference with explicit coordinate bookkeeping; at
    # d = 2 the random complex matrices do not commute, so the product order
    # inside the sum is pinned
    rng = np.random.default_rng(4)
    n = 4

    def field():
        v = rng.normal(size=(n, n, n, d, d))
        return v + 1j * rng.normal(size=v.shape) if d > 1 else v.astype(complex)

    v1, v2 = field(), field()
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
    if d > 1:
        assert np.max(np.abs(v1[0, 0, 0] @ v2[1, 1, 1] - v2[1, 1, 1] @ v1[0, 0, 0])) > 0.1
    out = _kernels.grid_convolution(v1, v2, c, vol)
    assert out.shape == v1.shape
    assert np.max(np.abs(out - ref)) < 1e-12
