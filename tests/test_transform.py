import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from m3sph import _kernels, fieldio, polyalg, spherical, transform
from m3sph.errors import CapabilityError, DecompositionError, MalformedCoefficientsError
from m3sph.radial import RadialProfile, _spline_profile
from m3sph.so3rep import Rotation, build_irrep, tau

GAUSS_FT = lambda s: (2 * np.pi) ** 1.5 * np.exp(-s * s / 2.0)


@pytest.fixture(scope="module")
def gaussian_m1():
    return fieldio.synthesize("gaussian", 1, {"sigma": 1.0})


# ---------------------------------------------------------------------------
# classical transform
# ---------------------------------------------------------------------------


def test_gaussian_classical_ft_radial_path(gaussian_m1):
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = rng.normal(size=3) * 1.5
        fhat = transform.classical_ft(gaussian_m1, y)
        expected = GAUSS_FT(np.linalg.norm(y)) * np.eye(3)
        assert np.max(np.abs(fhat - expected)) < 1e-10
    # y = 0 integrates the field
    fhat0 = transform.classical_ft(gaussian_m1, np.zeros(3))
    assert np.max(np.abs(fhat0 - GAUSS_FT(0.0) * np.eye(3))) < 1e-10


def test_gaussian_classical_ft_grid_path(gaussian_m1):
    G = gaussian_m1.to_grid(extent=8.0, n=33)
    y = np.array([1.1, -0.4, 0.7])
    fhat = transform.classical_ft(G, y)
    expected = GAUSS_FT(np.linalg.norm(y)) * np.eye(3)
    assert np.max(np.abs(fhat - expected)) < 1e-8


def test_radial_vs_grid_classical_ft_nontrivial_component():
    # the fast 1-D route must match full 3-D quadrature on a Q_1 component
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0, "component": 1})
    G = F.to_grid(extent=8.0, n=33)
    rng = np.random.default_rng(1)
    for _ in range(4):
        y = rng.normal(size=3)
        a = transform.classical_ft(F, y)
        b = transform.classical_ft(G, y)
        assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("component", [2, 3, 4])
def test_radial_vs_grid_classical_ft_higher_components(component):
    # pins the phase factor and radial weight at every polynomial order
    F = fieldio.synthesize("gaussian", 2, {"sigma": 1.0, "component": component})
    G = F.to_grid(extent=8.0, n=33)
    rng = np.random.default_rng(component)
    for _ in range(2):
        y = rng.normal(size=3)
        a = transform.classical_ft(F, y)
        b = transform.classical_ft(G, y)
        assert np.max(np.abs(a - b)) < 1e-8


def test_classical_ft_equivariance(gaussian_m1):
    F = fieldio.synthesize("gaussian", 2, {"sigma": 1.0, "component": 2})
    rep = build_irrep(2)
    rng = np.random.default_rng(2)
    for _ in range(5):
        k = Rotation.random(rng)
        y = rng.normal(size=3)
        tk = tau(rep, k)
        lhs = transform.classical_ft(F, k.apply(y))
        rhs = tk @ transform.classical_ft(F, y) @ tk.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_zero_field_transforms_to_zero():
    prof = [
        fieldio.RadialProfile(
            evaluator=lambda r: np.zeros_like(np.asarray(r), dtype=complex),
            decays=True,
        )
        for _ in range(3)
    ]
    F = transform.MatrixField.radial(1, prof, np.linspace(0, 10, 50))
    assert np.max(np.abs(transform.classical_ft(F, np.ones(3)))) == 0.0
    assert np.max(np.abs(transform.h_decompose(F, 1.0))) == 0.0


def test_classical_ft_requires_decay_metadata():
    prof = [
        fieldio.RadialProfile(evaluator=lambda r: np.ones_like(r, dtype=complex))
        for _ in range(3)
    ]
    F = transform.MatrixField.radial(1, prof, np.linspace(0, 10, 50))
    with pytest.raises(ValueError, match="decay"):
        transform.classical_ft(F, np.ones(3))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_ft_along_e1_matches_lattice_sum(m):
    # the slab factorisation holds on any lattice: off-centre, n0 != n1 != n2
    d = 2 * m + 1
    rng = np.random.default_rng(10 + m)
    values = rng.normal(size=(7, 9, 11, d, d)) + 1j * rng.normal(size=(7, 9, 11, d, d))
    G = transform.MatrixField.grid(m, np.array([-2.3, -1.1, -4.7]), 0.45, values)
    s_arr = np.linspace(0.05, 6.5, 13)
    out = transform._ft_along_e1(G, s_arr)
    full = _kernels.fourier_grid_sum(
        G.values_flat(), G.grid_points(), np.outer(s_arr, [1.0, 0.0, 0.0]), G.spacing**3
    )
    ref = np.diagonal(full, axis1=1, axis2=2)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# quadrature rules and the radial sum
# ---------------------------------------------------------------------------


def _gl_panels_loop(a, b, per_panel, panel_width):
    """Composite Gauss-Legendre rule built panel by panel: the reference
    for transform.gl_panels."""
    n_panels = max(1, int(np.ceil((b - a) / panel_width)))
    edges = np.linspace(a, b, n_panels + 1)
    x0, w0 = np.polynomial.legendre.leggauss(per_panel)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * x0)
        weights.append(half * w0)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("a, b, per_panel, width", [
    (0.0, 30.0, 32, 4.0), (0.0, 12.0, 1290, 4.0), (0.0, 12.5, 1, 4.0), (0.0, 3.0, 32, 4.0),
    (-1.0, 1.0, 7, 2.0), (0.3, 17.9, 48, 0.7), (0.0, 1e-3, 5, 4.0), (2.0, 2.0, 3, 1.0),
    (0.0, 97.0, 40, 3.3),
])
def test_gl_panels_matches_the_per_panel_loop_bit_for_bit(a, b, per_panel, width):
    nodes, weights = transform.gl_panels(a, b, per_panel, width)
    ref_nodes, ref_weights = _gl_panels_loop(a, b, per_panel, width)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)


def test_gl_panels_refuses_a_rule_before_building_it(monkeypatch):
    # 2048 nodes per panel and 2^20 in all are served; one more of either
    # is refused before numpy is asked for a rule or any array is made
    assert transform.gl_panels(0.0, 4.0 * 512, 2048)[0].size == 2**20
    asked = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: asked.append(n))
    monkeypatch.setattr(np, "linspace", lambda *a, **k: asked.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b, per_panel, width in [(0.0, 30.0, 2049, 4.0), (0.0, 4.0 * 513, 2048, 4.0),
                                       (0.0, 1e6, 32, 4.0), (0.0, 1e300, 32, 4.0),
                                       (0.0, 1.0, 32, 1e-300), (0.0, 4.0, 10**9, 4.0)]:
            with pytest.raises(CapabilityError, match="Gauss-Legendre rule"):
                transform.gl_panels(a, b, per_panel, width)
    assert asked == []


def test_radial_forward_goes_through_the_blocked_sum(monkeypatch, gaussian_m1):
    # one kernel value per (order, scale, r-node), as one unblocked table
    # held them, but in calls of at most 2e6 values each
    evals = _counting_f_table(monkeypatch)
    coeffs = transform.forward(gaussian_m1, s_max=300.0)
    n_r = 3 * transform._r_nodes_per_panel(300.0)  # r_grid to 12: three panels
    assert sum(evals) == 3 * coeffs.s_grid.size * n_r
    assert len(evals) > 1 and max(evals) <= 2e6


def test_direct_sums_refuses_more_evaluations_than_its_bound(monkeypatch):
    # 3 orders x 2^13 nodes x 2^13 radii is 1.5 times the bound; under a
    # bound of 3 x 16 x 16 a sum at 16 radii is served and one at 17 is not
    evals = _counting_f_table(monkeypatch)
    G = np.ones((3, 2**13), dtype=complex)
    nodes = np.linspace(0.0, 1.0, 2**13)
    with pytest.raises(CapabilityError, match="radial kernel sum"):
        transform._direct_sums(G, nodes, nodes)
    assert evals == []
    monkeypatch.setattr(transform, "_MAX_KERNEL_ENTRIES", 3 * 16 * 16)
    assert transform._direct_sums(G[:, :16], nodes[:16], nodes[:16]).shape == (16, 3)
    with pytest.raises(CapabilityError, match="radial kernel sum"):
        transform._direct_sums(G[:, :16], nodes[:16], nodes[:17])
    assert evals == [3 * 16 * 16]


def test_radial_classical_ft_refuses_an_r_rule_it_cannot_build(monkeypatch, gaussian_m1):
    # the r-rule has ceil(4 |y| / pi) + 16 nodes per panel: 1926 at |y| =
    # 1500 is built (stopped at the rule here), 2563 at |y| = 2000 is
    # refused, and 1.27e6 at |y| = 1e6 is refused for its 3.8e6 nodes in all
    class Built(Exception):
        pass

    def rule(n):
        assert n == 1926
        raise Built

    with pytest.raises(CapabilityError, match="Gauss-Legendre rule"):
        transform.classical_ft(gaussian_m1, [1e6, 0.0, 0.0])
    with pytest.raises(CapabilityError, match="Gauss-Legendre rule"):
        transform.h_decompose(gaussian_m1, 1e6)
    with pytest.raises(CapabilityError, match="Gauss-Legendre rule"):
        transform.spherical_ft(gaussian_m1, 1e6, 0)
    monkeypatch.setattr(transform, "gauss_legendre", rule)
    with pytest.raises(Built):
        transform.classical_ft(gaussian_m1, [0.0, 1500.0, 0.0])
    with pytest.raises(CapabilityError, match="over 2048 per panel"):
        transform.classical_ft(gaussian_m1, [0.0, 0.0, 2000.0])


# ---------------------------------------------------------------------------
# h decomposition and the spherical transform
# ---------------------------------------------------------------------------


def test_h_decompose_gaussian(gaussian_m1):
    for s in (0.5, 1.7, 3.0):
        h = transform.h_decompose(gaussian_m1, s)
        assert np.max(np.abs(h - GAUSS_FT(s))) < 1e-10


def test_h_decompose_reassembles_fhat():
    F = fieldio.synthesize("plane-wave-packet", 1, {"s0": 1.5, "sigma": 1.2})
    fam = spherical.projections(1, [1.0, 0.0, 0.0])
    for s in (0.4, 2.2):
        h = transform.h_decompose(F, s)
        fhat = transform.classical_ft(F, np.array([s, 0, 0]))
        recon = sum(h[j + 1] * fam.P(j) for j in range(-1, 2))
        assert np.max(np.abs(recon - fhat)) < 1e-8


def _forward_by_projections(F, s_grid):
    """The transform contracted with the spectral projections at e_1, as
    values[j+m, q] = Tr[P_{-j}(e_1) Fhat(s_q e_1)]."""
    diag = transform._ft_along_e1(F, s_grid)  # P_j(e_1) = E_jj reads only the diagonal
    fam = spherical.projections(F.m, [1.0, 0.0, 0.0])
    return np.stack(
        [np.einsum("qa,aa->q", diag, fam.P(-j)) for j in range(-F.m, F.m + 1)]
    )


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_forward_is_the_projection_contraction_to_the_bit(m):
    radial = fieldio.synthesize("plane-wave-packet", m, {"sigma": 1.1})
    rng = np.random.default_rng(30 + m)
    d = 2 * m + 1
    values = rng.normal(size=(9, 9, 9, d, d)) + 1j * rng.normal(size=(9, 9, 9, d, d))
    grid = transform.MatrixField.grid(m, np.full(3, -2.0), 0.5, values)
    for F in (radial, grid):
        coeffs = transform.forward(F)
        assert np.array_equal(coeffs.values, _forward_by_projections(F, coeffs.s_grid))
        s = float(coeffs.s_grid[5])
        old = _forward_by_projections(F, np.array([s]))[:, 0]
        assert np.array_equal(transform.h_decompose(F, s), old[::-1])
        for j in range(-m, m + 1):
            assert transform.spherical_ft(F, s, j) == old[j + m]


def test_spherical_ft_gaussian_all_j():
    for m in (0, 1, 2):
        F = fieldio.synthesize("gaussian", m, {"sigma": 1.0})
        for s in (0.1, 1.0, 4.0):
            for j in range(-m, m + 1):
                val = transform.spherical_ft(F, s, j, mode="fast")
                assert abs(val - GAUSS_FT(s)) < 1e-4


def test_spherical_ft_direct_vs_fast():
    rng = np.random.default_rng(3)
    for m in (0, 1, 2):
        F = fieldio.synthesize("gaussian", m, {"sigma": 1.0})
        for _ in range(2):
            s = float(rng.uniform(0.3, 2.5))
            j = int(rng.integers(-m, m + 1))
            fast = transform.spherical_ft(F, s, j, mode="fast")
            direct = transform.spherical_ft(F.to_grid(n=33), s, j, mode="direct")
            assert abs(direct - fast) / (1 + abs(fast)) < 1e-4


def test_spherical_ft_parity_route(gaussian_m1):
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0, "component": 1})
    G = F.to_grid(extent=8.0, n=33)
    s, j = 1.4, 1
    fast = transform.spherical_ft(F, s, j, mode="fast")
    phi = spherical.eval_phi_batch(spherical.phi_method1(1, s, -j), G.grid_points())
    via_parity = np.einsum("nab,nba->", G.values_flat(), phi) * G.spacing**3 / 3
    assert abs(via_parity - fast) < 1e-6 * (1 + abs(fast))


def test_spherical_ft_validates_args(gaussian_m1):
    with pytest.raises(ValueError):
        transform.spherical_ft(gaussian_m1, -1.0, 0)
    with pytest.raises(ValueError):
        transform.spherical_ft(gaussian_m1, 1.0, 5)
    with pytest.raises(ValueError):
        transform.spherical_ft(gaussian_m1, 1.0, 0, mode="nope")


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_s_is_refused(gaussian_m1, s):
    with pytest.raises(ValueError, match="finite"):
        transform.spherical_ft(gaussian_m1, s, 0)
    with pytest.raises(ValueError, match="finite"):
        transform.h_decompose(gaussian_m1, s)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_gaussian_roundtrip_pointwise():
    rng = np.random.default_rng(4)
    for m in (0, 1, 2):
        F = fieldio.synthesize("gaussian", m, {"sigma": 1.0})
        coeffs = transform.forward(F)
        pts = rng.uniform(-3 / np.sqrt(3), 3 / np.sqrt(3), size=(10, 3))
        rec = transform.inverse(coeffs, pts)
        ref = F.eval_points(pts)
        assert np.max(np.abs(rec - ref)) < 1e-3
        # profiles decay to zero at the top of the sampled range
        peak = np.max(np.abs(coeffs.values))
        assert np.max(np.abs(coeffs.values[:, -1])) < 1e-8 * peak


@pytest.mark.parametrize("m", [14, 20])
def test_gaussian_roundtrip_at_high_m(m):
    # 12 digits above m = 12, where float coefficients lose them
    rng = np.random.default_rng(14)
    v = rng.normal(size=(300, 3))
    pts = 3.0 * v / np.linalg.norm(v, axis=1)[:, None] * rng.uniform(0, 1, (300, 1)) ** (1 / 3)
    F = fieldio.synthesize("gaussian", m, {"sigma": 1.0})
    ref = F.eval_points(pts)
    rec = transform.inverse(transform.forward(F), pts)
    assert np.max(np.abs(rec - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_inverse_above_the_numeric_range_is_refused():
    m = spherical.M_MAX_NUMERIC + 1
    coeffs = transform.SphericalCoefficients(
        m=m, s_grid=np.array([1.0, 2.0]), s_weights=np.ones(2),
        values=np.outer(np.ones(2 * m + 1), [1.0, 0.0]),
    )
    with pytest.raises(CapabilityError, match="numeric"):
        transform.inverse(coeffs, np.zeros((1, 3)))


def test_frame_map_above_the_numeric_range_is_refused_before_it_is_built():
    # the frame cache (_kernels._frame) refuses m = 27 before it builds E;
    # 26 is the top of the range check --profile full verifies
    F = fieldio.synthesize("gaussian", spherical.M_MAX_NUMERIC + 1)
    tracemalloc.start()
    try:
        for call in (
            lambda: F.eval_points(np.ones((1, 3))),
            lambda: F.to_grid(1.0, 3),
            lambda: transform.classical_ft(F, np.ones(3)),
        ):
            with pytest.raises(CapabilityError, match="numeric"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_a_radius_out_of_float_range_is_refused_without_warnings(gaussian_m1):
    coeffs = transform.forward(gaussian_m1)
    far = np.array([[0.1, 0.2, 0.3], [1e200, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: transform.inverse(coeffs, far), lambda: gaussian_m1.eval_points(far)):
            with pytest.raises(CapabilityError, match="radius"):
                call()


@pytest.mark.parametrize("x", [1e80, 1e100])
def test_a_zero_coefficient_gives_a_zero_weight_at_any_radius(x):
    # g_k(|x|) = 0 while |x|^4 overflows: the weight is 0, not 0 * inf, so
    # the Gaussian is 0 there and its round trip decays, with no warning
    F = fieldio.synthesize("gaussian", 2)
    coeffs = transform.forward(F)
    far = np.array([[x, 0.0, 0.0], [0.0, -x, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(F.eval_points(far), np.zeros((2, 5, 5)))
        assert np.max(np.abs(transform.inverse(coeffs, far))) <= 1e-12


def _inverse_per_point(coeffs, xs):
    """The inversion formula point by point: c_l(x) = C sum_j u_{j,l}
    sum_q w_q s_q^2 values[j, q] s_q^l f_l(s_q |x|), then sum_l c_l Q_l(x) with
    the exact Q_l of polyalg.build_Q, evaluated in floats."""
    m = coeffs.m
    L = 2 * m + 1
    s, w, vals = coeffs.s_grid, coeffs.s_weights, coeffs.values
    u = spherical.unit_eigvecs(m)
    powers = s[None, :] ** np.arange(L)[:, None]
    base = vals * (w * s**2)[None, :]
    qs = np.stack([q.eval(xs) for q in polyalg.build_Q(m)], axis=1)
    out = []
    for x, q in zip(xs, qs):
        wmat = powers * _kernels.f_table(L - 1, np.linalg.norm(x) * s)
        c = transform.inversion_constant(m) * np.einsum("jl,jl->l", u, base @ wmat.T)
        out.append(np.tensordot(c, q, axes=1))
    return np.array(out)


def _counting_f_table(monkeypatch):
    evals = []

    def counted(jmax, t, axis=False):
        out = _kernels.f_table(jmax, t, axis=axis)
        evals.append(out.size)
        return out

    monkeypatch.setattr(transform, "f_table", counted)
    return evals


@pytest.mark.parametrize("m", [0, 1, 2])
def test_inverse_matches_per_point_reference(m, monkeypatch):
    F = fieldio.synthesize("gaussian", m, {"sigma": 1.0, "component": m})
    coeffs = transform.forward(F)
    rng = np.random.default_rng(20 + m)
    coeffs.values *= (rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1))[:, None]
    ax = np.linspace(-2.0, 2.0, 9)  # a lattice: many points share a radius
    lattice = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    scattered = rng.uniform(-2.5, 2.5, size=(40, 3))
    G = transform._inversion_matrix(coeffs)
    evals = _counting_f_table(monkeypatch)
    for pts in (lattice, scattered):
        rec = transform.inverse(coeffs, pts)
        ref = _inverse_per_point(coeffs, pts)
        assert np.max(np.abs(rec - ref)) <= 1e-13 * np.max(np.abs(ref))
        # no more distinct radii than interpolation nodes: the direct sum
        # at the radii themselves, bit for bit, and no kernel at any node
        rs = np.unique(transform.radii(pts))
        direct = transform._direct_sums(G, coeffs.s_grid, rs)
        evals.clear()
        assert np.array_equal(transform._radial_sums(coeffs, rs), direct)
        assert sum(evals) == rs.size * coeffs.s_grid.size * (2 * m + 1)


def _ball(rng, n, radius):
    """The origin and n - 1 points uniform in the ball, all radii distinct."""
    d = rng.normal(size=(n - 1, 3))
    d *= (radius * rng.uniform(size=n - 1) ** (1 / 3) / np.linalg.norm(d, axis=1))[:, None]
    return np.concatenate([np.zeros((1, 3)), d])


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_interpolated_inverse_matches_per_point_reference(m):
    # 2 000 distinct radii: _radial_sums goes through its Chebyshev
    # interpolant, whose nodes include the origin and the largest radius
    F = fieldio.synthesize("plane-wave-packet", m, {"sigma": 1.1})
    coeffs = transform.forward(F)
    rng = np.random.default_rng(40 + m)
    coeffs.values *= (rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1))[:, None]
    pts = _ball(rng, 2000, 3.0)
    assert np.unique(transform.radii(pts)).size == pts.shape[0]
    rec = transform.inverse(coeffs, pts)
    ref = _inverse_per_point(coeffs, pts)
    assert np.max(np.abs(rec - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the origin is a node: the direct sum there, to the bit
    assert np.array_equal(rec[0], transform.inverse(coeffs, pts[:1])[0])


def _barycentric_complex(nodes, values, rs):
    """The second barycentric formula as a complex product over a dense
    zero test: the reference for transform._barycentric."""
    wts = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    wts[[0, -1]] *= 0.5
    diff = rs[:, None] - nodes[None, :]
    hit, at = np.nonzero(diff == 0.0)
    diff[hit, at] = 1.0
    kern = wts / diff
    out = (kern @ values) / np.sum(kern, axis=1)[:, None]
    out[hit] = values[at]
    return out


@pytest.mark.parametrize("n, L", [(2, 1), (35, 9), (69, 5)])
def test_barycentric_hits_nodes_to_the_bit(n, L):
    # radii at 0, at R and at interior nodes, mixed unsorted with others:
    # a radius on a node gets its values to the bit, every other radius the
    # complex formula to 1e-15 of the largest value
    R = 3.0
    nodes = transform._cheb_nodes(n, R)
    rng = np.random.default_rng(n)
    values = np.cos(np.outer(nodes, 1 + np.arange(L))) * (1 + 1j * np.arange(L))
    on = np.concatenate([[0.0, R], nodes[1:-1][::3]])
    rs = rng.permutation(np.concatenate([on, rng.uniform(0.0, R, 50)]))
    out = transform._barycentric(nodes, values, rs)
    ref = _barycentric_complex(nodes, values, rs)
    is_node = np.isin(rs, nodes)
    assert is_node.sum() == on.size
    for p in np.flatnonzero(is_node):
        assert np.array_equal(out[p], values[np.flatnonzero(nodes == rs[p])[0]])
    assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(values))


def test_interpolated_sums_keep_the_decayed_orders_accurate():
    # the bump of `synth bump --m 2` at its 257 radii out to r = 24, where
    # the higher c_k have decayed far below their peaks: the interpolated
    # sums against the direct ones, per order on the field's scale
    # max |c_k r^k| (seen: 6.9e-13 at k = 4), and the forward transform of
    # the two sample sets (seen: 2.5e-14 of its largest value).  A global
    # Chebyshev series, accurate only to eps times its largest coefficient,
    # reads 2.4e-11 and 2.6e-13 here
    s, w = transform.gl_panels(0.0, 7.0)
    coeffs = transform.SphericalCoefficients(
        m=2, s_grid=s, s_weights=w, values=np.tile(np.exp(-((s - 2.0) ** 2) / 0.5), (5, 1)) + 0j
    )
    r = np.linspace(0.0, 24.0, 257)
    sums = transform._radial_sums(coeffs, r)
    direct = transform._direct_sums(transform._inversion_matrix(coeffs), s, r)
    scale = r[:, None] ** np.arange(5)
    err = np.max(np.abs(sums - direct) * scale, axis=0) / np.max(np.abs(direct) * scale, axis=0)
    assert np.all(err <= 5e-12)
    fwd = [
        transform.forward(transform.MatrixField.radial(2, _spline_profile(r, g), r, samples=g), s_max=7.0).values
        for g in (sums, direct)
    ]
    assert np.max(np.abs(fwd[0] - fwd[1])) <= 1e-13 * np.max(np.abs(fwd[1]))


def test_interpolated_inverse_of_non_decaying_coefficients():
    # all-ones coefficients at s_max * R ~ 314: the first node count,
    # s_max R / 2 + 24, leaves the interpolant ~1e-7 off, so this passes
    # only through the Chebyshev tail test
    s, w = transform.gl_panels(0.0, 30.0)
    ones = np.ones((3, s.size), dtype=complex)
    coeffs = transform.SphericalCoefficients(m=1, s_grid=s, s_weights=w, values=ones)
    pts = _ball(np.random.default_rng(47), 2000, 10.5)
    assert s[-1] * np.max(transform.radii(pts)) >= 300
    with pytest.warns(UserWarning, match="truncat"):
        rec = transform.inverse(coeffs, pts)
    ref = _inverse_per_point(coeffs, pts)
    assert np.max(np.abs(rec - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_inverse_evaluates_kernels_at_the_nodes_only(monkeypatch):
    # a guard against a change that bypasses the interpolant: 5 000
    # distinct radii at m = 4 cost at most a tenth of the direct kernel table
    m = 4
    coeffs = transform.forward(fieldio.synthesize("gaussian", m, {"sigma": 1.1}))
    pts = _ball(np.random.default_rng(48), 5000, 3.0)
    evals = _counting_f_table(monkeypatch)
    transform.inverse(coeffs, pts)
    assert 0 < sum(evals) <= pts.shape[0] * coeffs.s_grid.size * (2 * m + 1) / 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inverse_and_eval_points_refuse_non_finite_points(gaussian_m1, bad):
    pts = np.array([[0.5, 0.0, 0.1], [0.0, bad, 0.0]])
    coeffs = transform.forward(gaussian_m1)
    with pytest.raises(ValueError, match="finite"):
        transform.inverse(coeffs, pts)
    with pytest.raises(ValueError, match="finite"):
        gaussian_m1.eval_points(pts)


def test_roundtrip_validates_constant_analytically():
    # int_0^infty (2pi)^{3/2} e^{-r^2/2} r^2 dr * 1/(2 pi^2) = 1 exactly
    F = fieldio.synthesize("gaussian", 0, {"sigma": 1.0})
    coeffs = transform.forward(F)
    val = transform.inverse(coeffs, np.zeros((1, 3)))[0, 0, 0]
    assert val == pytest.approx(1.0, abs=1e-10)


def test_inverse_zero_coefficients():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0})
    coeffs = transform.forward(F)
    coeffs.values[:] = 0
    out = transform.inverse(coeffs, np.ones((2, 3)))
    assert np.max(np.abs(out)) == 0.0


def test_inverse_warns_on_truncation():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0})
    coeffs = transform.forward(F, s_max=1.0)  # artificially truncated
    with pytest.warns(UserWarning, match="truncat"):
        transform.inverse(coeffs, np.zeros((1, 3)))


@pytest.mark.parametrize("s_max", [20.0, 30.0])
def test_radial_roundtrip_at_large_s_max(s_max):
    # the r-integrand g_k(r) j_k(s r) oscillates at frequency s, so the
    # r-rule must grow with the s range; 32 nodes per panel of width 4 left
    # a relative error of 4e-10 at s_max = 20 and 1e-2 at s_max = 30
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.2, "component": 1})
    pts = np.random.default_rng(6).uniform(-2.0, 2.0, size=(50, 3))
    rec = transform.inverse(transform.forward(F, s_max=s_max), pts)
    ref = F.eval_points(pts)
    assert np.max(np.abs(rec - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_forward_validates_quadrature_geometry(gaussian_m1):
    for bad in ({"s_max": -1.0}, {"s_max": 0.0}, {"s_max": float("nan")},
                {"panel_width": -4.0}, {"panel_width": 0.0}, {"per_panel": 0},
                {"s_max": float("inf")}, {"per_panel": 2.5}, {"per_panel": True}):
        with pytest.raises(ValueError):
            transform.forward(gaussian_m1, **bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("extent, n, message", [
    (8.0, 1, "grid_n must be at least 2"),
    (8.0, 0, "grid_n must be at least 2"),
    (0.0, 41, "grid_extent must be positive"),
    (-2.0, 41, "grid_extent must be positive"),
    (float("nan"), 41, "grid_extent must be positive"),
    (1e308, 3, "finite spacing"),
])
def test_to_grid_refuses_a_lattice_config_refuses(gaussian_m1, extent, n, message):
    # the one lattice check of Config and MatrixField.cube, made before any
    # array is built: no IndexError, no field of spacing 0 or below
    with pytest.raises(ValueError, match=message):
        gaussian_m1.to_grid(extent=extent, n=n)
    with pytest.raises(ValueError, match=message):
        fieldio.Config(grid_extent=extent, grid_n=n)


def test_sampled_is_sample_reshaped_onto_the_lattice(gaussian_m1):
    G = gaussian_m1.to_grid(extent=2.0, n=5)
    S = G.sampled(gaussian_m1.eval_points)
    assert (S.form, S.shape, S.spacing) == ("grid", G.shape, G.spacing)
    assert np.array_equal(S.origin, G.origin)
    assert np.array_equal(S.values, G.values)
    with pytest.raises(ValueError, match="grid-form"):
        gaussian_m1.sampled(gaussian_m1.eval_points)


def test_a_profile_of_the_wrong_width_is_refused():
    # at m = 1 the profile must give 3 coefficients per radius, not 2
    prof = RadialProfile(
        evaluator=lambda r: np.stack([np.exp(-r * r), r * 0.0], axis=-1), decays=True
    )
    F = transform.MatrixField.radial(1, prof, np.linspace(0.0, 6.0, 31))
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        F.eval_points(np.array([[0.1, 0.2, 0.3], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"\(31, 3\)"):
        transform.forward(F)
    with pytest.raises(ValueError, match=r", 3\)"):
        transform.forward(F, s_max=4.0)


def test_coefficients_json_roundtrip():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0})
    coeffs = transform.forward(F)
    again = transform.SphericalCoefficients.from_json(coeffs.to_json())
    assert again.m == coeffs.m
    assert np.array_equal(again.s_grid, coeffs.s_grid)
    assert np.array_equal(again.values, coeffs.values)


def test_coefficients_json_refuses_negative_nodes_and_keeps_zero():
    # the inversion sum reads f_l(s r) and s^l, so a negated s_grid would
    # give a silently wrong inverse; s = 0 is a valid node
    coeffs = transform.forward(fieldio.synthesize("gaussian", 1, {"component": 1}))
    doc = json.loads(coeffs.to_json())
    doc["s_grid"][0] = 0.0
    assert transform.SphericalCoefficients.from_json(json.dumps(doc)).s_grid[0] == 0.0
    doc["s_grid"] = [-s for s in doc["s_grid"]]
    with pytest.raises(MalformedCoefficientsError, match="negative"):
        transform.SphericalCoefficients.from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def test_unit_multiplier_is_identity():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0})
    coeffs = transform.forward(F)
    out = transform.apply_multiplier(coeffs, lambda s, j: 1.0)
    assert np.array_equal(out.values, coeffs.values)


def test_multiplier_rejects_unbounded():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0})
    coeffs = transform.forward(F)
    with pytest.raises(ValueError):
        transform.apply_multiplier(coeffs, lambda s, j: float("inf") if j == 0 else 1.0)


def _fd_stencils(F, pts, h=0.05):
    lap, dt = [], []
    rep = build_irrep(F.m)
    for x in pts:
        acc_l = np.zeros((F.dim, F.dim), dtype=complex)
        acc_d = np.zeros((F.dim, F.dim), dtype=complex)
        f0 = F.eval_points(x[None])[0]
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fp = F.eval_points((x + e)[None])[0]
            fm = F.eval_points((x - e)[None])[0]
            fp2 = F.eval_points((x + 2 * e)[None])[0]
            fm2 = F.eval_points((x - 2 * e)[None])[0]
            acc_l += (-fp2 + 16 * fp - 30 * f0 + 16 * fm - fm2) / (12 * h * h)
            acc_d += rep.generators[i] @ (-fp2 + 8 * fp - 8 * fm + fm2) / (12 * h)
        lap.append(acc_l)
        dt.append(acc_d)
    return np.stack(lap), np.stack(dt)


def test_laplacian_and_dtau_multipliers():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.5})
    coeffs = transform.forward(F)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, size=(5, 3))
    fd_lap, fd_dt = _fd_stencils(F, pts)
    lap = transform.inverse(transform.apply_multiplier(coeffs, lambda s, j: -s * s), pts)
    assert np.max(np.abs(lap - fd_lap)) / np.max(np.abs(fd_lap)) < 1e-3
    dt = transform.inverse(transform.apply_multiplier(coeffs, lambda s, j: s * j), pts)
    assert np.max(np.abs(dt - fd_dt)) / np.max(np.abs(fd_dt)) < 1e-3


# ---------------------------------------------------------------------------
# schwartz decomposition
# ---------------------------------------------------------------------------


def test_schwartz_decompose_identity_component():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0})
    G = F.to_grid(extent=8.0, n=33)
    R = transform.schwartz_decompose(G)
    rho = np.linspace(0, 3, 13)
    assert np.max(np.abs(R.profile(rho)[..., 0] - np.exp(-(rho**2) / 2))) < 1e-6
    assert np.max(np.abs(R.profile(rho)[..., 1])) < 1e-8
    assert np.max(np.abs(R.profile(rho)[..., 2])) < 1e-8


def test_schwartz_decompose_q1_component():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0, "component": 1})
    G = F.to_grid(extent=8.0, n=33)
    R = transform.schwartz_decompose(G)
    rho = np.linspace(0, 3, 13)
    assert np.max(np.abs(R.profile(rho)[..., 1] - np.exp(-(rho**2) / 2))) < 1e-5
    assert np.max(np.abs(R.profile(rho)[..., 0])) < 1e-8
    assert np.max(np.abs(R.profile(rho)[..., 2])) < 1e-8


def _schwartz_profile_closed_form(coeffs, k, rho):
    """g_k(rho) = C sum_j u_k^{(1,j)} sum_q w_q s_q^{k+2} values[j, q] f_k(s_q rho)."""
    s, w, vals = coeffs.s_grid, coeffs.s_weights, coeffs.values
    fk = _kernels.f_table(k, np.multiply.outer(rho, s))[k]
    integ = fk @ (vals * (w * s ** (k + 2))[None, :]).T
    return transform.inversion_constant(coeffs.m) * integ @ spherical.unit_eigvecs(coeffs.m)[:, k]


@pytest.mark.parametrize("m", [1, 2])
def test_schwartz_profiles_match_closed_form(m):
    G = fieldio.synthesize("gaussian", m, {"sigma": 1.0, "component": m}).to_grid(6.0, 25)
    R = transform.schwartz_decompose(G)
    coeffs = transform.forward(G)
    rho = np.linspace(0.0, 5.0, 23)
    ref = [_schwartz_profile_closed_form(coeffs, k, rho) for k in range(2 * m + 1)]
    scale = max(np.max(np.abs(r)) for r in ref)
    for k in range(2 * m + 1):
        assert np.max(np.abs(R.profile(rho)[..., k] - ref[k])) <= 1e-13 * scale


def test_schwartz_decompose_rejects_non_equivariant():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0})
    G = F.to_grid(extent=6.0, n=17)
    vals = G.values.copy()
    vals[3, 5, 2, 0, 1] += 0.4  # break equivariance at one node
    H = transform.MatrixField.grid(1, G.origin, G.spacing, vals)
    with pytest.raises(DecompositionError) as err:
        transform.schwartz_decompose(H)
    assert err.value.residual > 1e-3


def _count_radial_sums(monkeypatch) -> list:
    calls = []
    sums = transform._radial_sums

    def counted(*args):
        calls.append(args)
        return sums(*args)

    monkeypatch.setattr(transform, "_radial_sums", counted)
    return calls


def test_forward_of_a_bump_makes_two_inversion_sums(monkeypatch):
    # one for the samples behind the decay-scale estimate, one for the r-rule:
    # every coefficient g_k comes out of the same sum
    B = fieldio.synthesize("bump", 4)
    calls = _count_radial_sums(monkeypatch)
    transform.forward(B)
    assert len(calls) == 2


def test_schwartz_decompose_makes_one_inversion_sum(monkeypatch):
    # the one behind the residual's eval_points; the profile is not sampled
    G = fieldio.synthesize("gaussian", 2, {"sigma": 1.0, "component": 2}).to_grid(6.0, 25)
    calls = _count_radial_sums(monkeypatch)
    transform.schwartz_decompose(G)
    assert len(calls) == 1


def test_schwartz_decompose_zero_field():
    Z = transform.MatrixField.grid(
        1, np.array([-2.0] * 3), 0.5, np.zeros((9, 9, 9, 3, 3), dtype=complex)
    )
    R = transform.schwartz_decompose(Z)
    rho = np.linspace(0, 2, 5)
    assert np.max(np.abs(R.profile(rho))) == 0.0


# ---------------------------------------------------------------------------
# convolution homomorphism
# ---------------------------------------------------------------------------


def test_convolution_homomorphism():
    m = 1
    F1 = fieldio.synthesize("gaussian", m, {"sigma": 1.0})
    F2 = fieldio.synthesize("gaussian", m, {"sigma": 1.2, "component": 1})
    G1 = F1.to_grid(6.0, 17)
    G2 = F2.to_grid(6.0, 17)
    G3 = transform.convolve(G1, G2)
    for s in (0.8, 1.5):
        for j in range(-m, m + 1):
            lhs = transform.spherical_ft(G3, s, j, mode="fast")
            rhs = transform.spherical_ft(G1, s, j, mode="fast") * transform.spherical_ft(
                G2, s, j, mode="fast"
            )
            assert abs(lhs - rhs) < 1e-3 * (1 + abs(rhs))


def test_equivariance_diagnostic():
    F = fieldio.synthesize("gaussian", 1, {"sigma": 1.0, "component": 1})
    G = F.to_grid(extent=4.0, n=9)
    assert G.equivariance_diagnostic() < 1e-12
    vals = G.values.copy()
    vals[1, 2, 3] += 0.05
    H = transform.MatrixField.grid(1, G.origin, G.spacing, vals)
    assert H.equivariance_diagnostic() > 1e-4
    # non-symmetric lattice: diagnostic unavailable
    K = transform.MatrixField.grid(
        1, np.array([0.0, 0.0, 0.0]), 0.5, np.zeros((4, 4, 4, 3, 3), dtype=complex)
    )
    assert K.equivariance_diagnostic() is None


def _rotate_and_round_diagnostic(F):
    """The ingest diagnostic written out pointwise: rotate every node by
    k^-1, round back to lattice indices, transport with tau(k)."""
    rep = build_irrep(F.m)
    pts = F.grid_points()
    flat = F.values_flat()
    scale = float(np.max(np.abs(flat))) or 1.0
    worst = 0.0
    for rot in transform._INGEST_ROTATIONS:
        src = pts @ rot.inverse().matrix.T
        idx = np.rint((src - F.origin) / F.spacing).astype(int)
        lin = np.ravel_multi_index(idx.T, F.shape)
        tk = tau(rep, rot)
        worst = max(worst, float(np.max(np.abs(tk @ flat[lin] @ tk.conj().T - flat))) / scale)
    return worst


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [5, 6, 7, 9])
def test_equivariance_diagnostic_matches_rotate_and_round(m, n):
    rng = np.random.default_rng(100 * m + n)
    d = 2 * m + 1
    vals = rng.normal(size=(n, n, n, d, d)) + 1j * rng.normal(size=(n, n, n, d, d))
    F = transform.MatrixField.grid(m, np.full(3, -1.5), 3.0 / (n - 1), vals)
    ref = _rotate_and_round_diagnostic(F)
    assert ref > 0.1  # random fields are far from equivariant
    got = F.equivariance_diagnostic()
    assert abs(got - ref) <= 1e-12 * ref
    assert F.equivariance_residual == got
    # a near-equivariant field: the defect of one perturbed node
    G = fieldio.synthesize("gaussian", m, {"component": m}).to_grid(extent=3.0, n=n)
    G.values[1, 2, 3] += 1e-3 * vals[0, 0, 0]
    ref = _rotate_and_round_diagnostic(G)
    assert abs(G.equivariance_diagnostic() - ref) <= 1e-12 * ref


def _whole_array_diagnostic(F):
    """The ingest diagnostic as one pass over the whole arrays per quarter
    turn: flip and transpose ``values``, one product with
    kron(tau, conj tau)^T, one difference and its modulus."""
    rep = build_irrep(F.m)
    d2 = F.dim * F.dim
    flat = F.values.reshape(-1, d2)
    scale = float(np.max(np.abs(flat))) or 1.0
    worst = 0.0
    for rot in transform._INGEST_ROTATIONS:
        perm = np.rint(rot.inverse().matrix).astype(int)
        p = np.argmax(np.abs(perm), axis=1)
        flipped = np.flip(F.values, axis=tuple(np.flatnonzero(perm[np.arange(3), p] < 0)))
        src = flipped.transpose(*np.argsort(p), 3, 4).reshape(-1, d2)
        tk = tau(rep, rot)
        worst = max(worst, float(np.max(np.abs(src @ np.kron(tk, tk.conj()).T - flat))) / scale)
    return worst


@pytest.mark.parametrize("m,n,slabs", [(1, 41, None), (4, 7, 3), (2, 9, 4), (3, 5, 0)])
def test_blocked_diagnostic_matches_the_whole_array_pass(monkeypatch, m, n, slabs):
    # slabs=None keeps the module's block bound; a bound below one slab
    # still takes one slab per block; every other case ends in a short block
    d = 2 * m + 1
    if slabs is not None:
        monkeypatch.setattr(transform, "BLOCK_ENTRIES", slabs * n * n * d * d)
    step = max(1, transform.BLOCK_ENTRIES // (n * n * d * d))
    assert step == 1 or n % step != 0
    rng = np.random.default_rng(10 * m + n)
    G = fieldio.synthesize("gaussian", m, {"component": m}).to_grid(extent=3.0, n=n)
    G.values[1, 2, 3] += 1e-3 * rng.normal(size=(d, d))
    R = transform.MatrixField.grid(
        m, G.origin, G.spacing, rng.normal(size=G.values.shape) + 1j * rng.normal(size=G.values.shape)
    )
    for F in (G, R):
        ref = _whole_array_diagnostic(F)
        assert abs(F.equivariance_diagnostic() - ref) <= 1e-12 * ref


def test_diagnostic_of_a_huge_field_is_finite_and_unchanged():
    # the modulus is a hypot: re^2 + im^2 would overflow at 1e300 and give inf/inf
    rng = np.random.default_rng(12)
    G = fieldio.synthesize("gaussian", 2, {"component": 2}).to_grid(extent=3.0, n=7)
    G.values[1, 2, 3] += 1e-3 * rng.normal(size=(5, 5))
    R = transform.MatrixField.grid(2, G.origin, G.spacing, rng.normal(size=G.values.shape) + 0j)
    for F in (G, R):
        ref = F.equivariance_diagnostic()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = transform.MatrixField.grid(2, F.origin, F.spacing, F.values * 1e300)
            got = huge.equivariance_diagnostic()
        assert np.isfinite(got) and abs(got - ref) <= 1e-12 * ref


def test_symmetric_lattice_is_exactly_antisymmetric():
    for extent, n in ((8.0, 41), (3.0, 7), (0.7, 9)):
        pts = transform.MatrixField.cube(0, extent, n, lambda pts: np.zeros(len(pts))).grid_points()
        assert np.array_equal(pts[::-1], -pts)
    # a lattice through the origin that is not centred on it
    K = transform.MatrixField.grid(0, np.array([-0.5, -1.0, 0.0]), 0.1, np.zeros((9, 25, 4, 1, 1)))
    for a, c in zip(K.axes(), K.center_index()):
        k = min(c, a.size - 1 - c)
        assert a[c] == 0.0
        assert np.array_equal(a[c - k : c][::-1], -a[c + 1 : c + 1 + k])


def test_radii_share_exact_floats_under_signs_and_permutations():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))
    r = transform.radii(xs)
    assert np.allclose(r, np.linalg.norm(xs, axis=1), rtol=1e-15, atol=0)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            assert np.array_equal(transform.radii(np.array(signs) * xs[:, perm]), r)
    # the default 41^3 lattice: 68 921 nodes on at most 808 distinct float radii
    G = transform.MatrixField.cube(0, 8.0, 41, lambda pts: np.zeros(len(pts)))
    assert np.unique(transform.radii(G.grid_points())).size <= 808


def test_radii_of_tiny_points_keep_their_precision():
    # squares below the normal range would lose the radius or give 0.0
    assert transform.radii(np.array([[1e-160, 0.0, 0.0]]))[0] == 1e-160
    assert transform.radii(np.array([[5e-324, 0.0, 0.0]]))[0] == 5e-324
    expected = np.sqrt(3.0) * 1e-170
    r = transform.radii(np.array([[1e-170] * 3, [-1e-170, 1e-170, -1e-170]]))
    assert r[0] == r[1]
    assert abs(r[0] - expected) <= np.spacing(expected)
    # signs, permutations and the shared radius hold for tiny points too
    xs = np.array([[1e-170, 0.0, 2e-170], [0.0, -2e-170, 1e-170], [3.0, 4.0, 0.0]])
    assert np.array_equal(transform.radii(xs), [transform.radii(xs[:1])[0]] * 2 + [5.0])


def _sorted_radii(xs):
    """|x| from the np.sort of the |x_k|, summed in the same order radii() sums."""
    a = np.sort(np.abs(xs), axis=1)
    tiny = a[:, 2] < 2.0**-511
    a[tiny] *= 2.0**600
    r = np.sqrt(a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1] + a[:, 2] * a[:, 2])
    r[tiny] = np.ldexp(r[tiny], -600)
    return r


def test_radii_order_the_coordinates_exactly():
    rng = np.random.default_rng(21)
    n = 600
    wide = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    ties = np.repeat(rng.normal(size=(n, 1)), 3, axis=1)
    ties[np.arange(n // 2), rng.integers(0, 3, n // 2)] = rng.normal(size=n // 2)  # two of three equal
    zeros = rng.choice([0.0, -0.0, 1.0, 2.5], size=(n, 3))  # ±0.0 among values, all-zero rows
    tiny = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-323, -154, size=(n, 1))
    tiny[::7, 1] = 5e-324
    huge = rng.uniform(0.0, 7e153, size=(n, 3))  # squares sum to below the float maximum
    huge[::5] = [7e153, 7e153, 7e153]
    xs = np.concatenate([wide, ties, zeros, tiny, huge])
    xs *= rng.choice([-1.0, 1.0], size=xs.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = _kernels.radii(xs)
    assert np.array_equal(r.view(np.uint64), _sorted_radii(xs).view(np.uint64))
    assert np.isfinite(r).all() and r.max() > 1e154


@pytest.mark.parametrize("row,error", [
    ([np.nan, 0.0, 0.0], ValueError),
    ([1.0, -np.inf, 0.0], ValueError),
    ([1e200, 1e200, 0.0], CapabilityError),
    ([1e154, 1e154, 1e154], CapabilityError),  # each square finite, their sum not
])
def test_radii_refuse_what_they_cannot_form(row, error):
    xs = np.array([[1.0, 2.0, 3.0], row])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            _kernels.radii(xs)


@pytest.fixture(scope="module")
def refusing_evaluators(gaussian_m1):
    """Every evaluator of a caller's point x, as x -> its value."""
    spec = spherical.phi_method1(1, 1.0, 1)
    coeffs = transform.forward(gaussian_m1)
    G = gaussian_m1.to_grid(extent=4.0, n=9)
    vectors = np.ones((2, 3), dtype=complex)
    return {
        "eval_phi_batch": lambda x: spherical.eval_phi_batch(spec, x[None, :]),
        "check_positive_type": lambda x: spherical.check_positive_type(
            spec, np.array([np.zeros(3), x]), vectors),
        "apply_dtau_analytic": lambda x: spherical.apply_dtau_analytic(spec, x),
        "phi_method2_batch": lambda x: spherical.phi_method2_batch(1, 1.0, 1, x[None, :]),
        "eval_points": lambda x: gaussian_m1.eval_points(x[None, :]),
        "inverse": lambda x: transform.inverse(coeffs, x[None, :]),
        "classical_ft_grid": lambda x: transform.classical_ft(G, x),
        "classical_ft_radial": lambda x: transform.classical_ft(gaussian_m1, x),
    }


@pytest.mark.parametrize("name", [
    "eval_phi_batch", "check_positive_type", "apply_dtau_analytic", "phi_method2_batch",
    "eval_points", "inverse", "classical_ft_grid", "classical_ft_radial",
])
def test_every_evaluator_refuses_a_point_through_radii(refusing_evaluators, name):
    # one error type per cause, raised where |x| is formed (_kernels.radii),
    # and no numpy warning on the way
    evaluate = refusing_evaluators[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            evaluate(np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(CapabilityError, match="not finite"):
            evaluate(np.array([1e200, 1e200, 0.0]))


@pytest.mark.parametrize("name", [
    "eval_phi_batch", "apply_dtau_analytic", "phi_method2_batch", "eval_points", "inverse",
    "check_positive_type",
])
def test_every_batch_evaluator_takes_an_empty_batch(gaussian_m1, name):
    # an empty (0, d, d) stack, sized before any rule or table is; the Gram
    # check has no value on no points and refuses them with ValueError
    spec = spherical.phi_method1(1, 1.0, 1)
    evaluate = {
        "eval_phi_batch": lambda xs: spherical.eval_phi_batch(spec, xs),
        "apply_dtau_analytic": lambda xs: spherical.apply_dtau_analytic(spec, xs),
        "phi_method2_batch": lambda xs: spherical.phi_method2_batch(1, 1.0, 1, xs),
        "eval_points": gaussian_m1.eval_points,
        "inverse": lambda xs: transform.inverse(transform.forward(gaussian_m1), xs),
        "check_positive_type": lambda xs: spherical.check_positive_type(spec, xs, np.ones((0, 3))),
    }[name]
    xs = np.empty((0, 3))
    if name == "check_positive_type":
        with pytest.raises(ValueError, match="at least one point"):
            evaluate(xs)
    else:
        out = evaluate(xs)
        assert out.shape == (0, 3, 3) and out.dtype == np.complex128


@pytest.mark.parametrize("name", ["eval_phi_batch", "apply_dtau_analytic", "classical_ft_radial"])
def test_every_evaluator_refuses_a_diagonal_out_of_float_range(monkeypatch, name):
    # m = 2, s = 1e10, x = (1e300, 0, 0): the radius is finite, s|x| is not
    # (at s = 1 and x = (1e100, 0, 0), where only |x|^4 is out of float
    # range, both give values: test_spherical checks them against mpmath);
    # and the transform of a finite radial field whose integral overflows.
    # Each hands its e_1 diagonal to q_series, which refuses it.
    raised = []

    def spy(diagonal_at, xs, labels=None):
        try:
            return _kernels.q_series(diagonal_at, xs, labels)
        except CapabilityError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(spherical, "q_series", spy)
    monkeypatch.setattr(transform, "q_series", spy)
    spec = spherical.phi_method1(2, 1e10, 1)
    huge = transform.MatrixField.radial(1, RadialProfile(
        lambda r: np.stack([1e308 * np.exp(-r * r), 0 * r, 0 * r], axis=-1), {"decays": True},
    ), np.linspace(0.0, 6.0, 33))
    evaluate = {
        "eval_phi_batch": lambda x: spherical.eval_phi_batch(spec, x[None, :]),
        "apply_dtau_analytic": lambda x: spherical.apply_dtau_analytic(spec, x),
        "classical_ft_radial": lambda x: transform.classical_ft(huge, x * 1e-300),
    }[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapabilityError, match="not finite"):
            evaluate(np.array([1e300, 0.0, 0.0]))
    assert len(raised) == 1


def test_apply_dtau_analytic_tabulates_the_kernels_once_per_lattice_radius(monkeypatch):
    # the D_tau diagonal is formed per distinct radius, as Phi's is
    seen = []

    def counting_f_table(jmax, t, axis=False):
        seen.append(np.size(t))
        return _kernels.f_table(jmax, t, axis=axis)

    monkeypatch.setattr(spherical, "f_table", counting_f_table)
    pts = transform.MatrixField.cube(1, 4.0, 17, lambda p: np.zeros((len(p), 3, 3))).grid_points()
    spec = spherical.phi_method1(1, 1.0, 1)
    vals = spherical.apply_dtau_analytic(spec, pts)
    assert vals.shape == (pts.shape[0], 3, 3)
    assert seen == [np.unique(_kernels.radii(pts)).size]
    assert np.max(np.abs(vals - spec.s * spec.j * spherical.eval_phi_batch(spec, pts))) < 1e-6


def test_radial_forward_refusal_is_sized_before_any_rule(monkeypatch, gaussian_m1):
    # 2^27 kernel entries admit s_max = 1000 at m = 1 (9.3e7 entries) and
    # refuse 1e4; the refusal comes before gl_panels builds either rule
    built = []
    monkeypatch.setattr(transform, "_ft_along_e1", lambda F, s: np.zeros((s.size, F.dim)))
    gl = transform.gl_panels
    monkeypatch.setattr(transform, "gl_panels", lambda *a: built.append(a) or gl(*a))
    assert transform.forward(gaussian_m1, s_max=1000.0).s_grid.size == 8000
    built.clear()
    for s_max in (1e4, 1e300, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapabilityError, match="kernel table"):
                transform.forward(gaussian_m1, s_max=s_max)
    with pytest.raises(CapabilityError, match="kernel table"):
        transform.forward(gaussian_m1, s_max=1e308, panel_width=1e-300)
    assert built == []


def test_radial_forward_refuses_an_r_rule_before_either_rule(monkeypatch):
    # at m = 0 (r_grid to 12) the kernel bound admits s_max to 2088, but the
    # r-rule passes 2048 nodes per panel above 1595.9: s_max = 1800 (2308
    # per panel) is refused before gl_panels is called, 1500 (1926) is served
    F = fieldio.synthesize("gaussian", 0)
    built = []
    monkeypatch.setattr(transform, "_ft_along_e1", lambda F, s: np.zeros((s.size, F.dim)))
    gl = transform.gl_panels
    monkeypatch.setattr(transform, "gl_panels", lambda *a: built.append(a) or gl(*a))
    with pytest.raises(CapabilityError, match="r-rule of 2308 nodes per panel, over 2048"):
        transform.forward(F, s_max=1800.0)
    assert built == []
    assert transform.forward(F, s_max=1500.0).s_grid.size == 32 * 375
    assert len(built) == 1


def test_inverse_on_the_e1_axis_is_the_inverse_profile(gaussian_m1):
    # both go through the one inversion sum over all 2m + 1 orders: on the
    # e_1 axis the frame is the identity, so inverse is the diagonal of
    # sum_l g_l(r) r^l Q_l(e_1) with g = inverse_profile, to the bit
    coeffs = transform.forward(gaussian_m1)
    rs = np.linspace(0.0, 5.0, 7)
    g = transform.inverse_profile(coeffs)(rs)
    assert g.shape == (7, 3)
    xs = np.zeros((7, 3))
    xs[:, 0] = rs
    out = transform.inverse(coeffs, xs)
    diag = transform._axis_diagonal(g, rs)
    for p in range(7):
        assert np.array_equal(out[p], np.diag(diag[p]))


def test_eval_phi_batch_tabulates_the_kernels_once_per_lattice_radius(monkeypatch):
    # the default 41^3 lattice has 68 921 nodes on at most 808 float radii
    seen = []

    def counting_f_table(jmax, t, axis=False):
        seen.append(np.size(t))
        return _kernels.f_table(jmax, t, axis=axis)

    monkeypatch.setattr(spherical, "f_table", counting_f_table)
    G = transform.MatrixField.cube(1, 8.0, 41, lambda pts: np.zeros((len(pts), 3, 3)))
    pts = G.grid_points()
    vals = spherical.eval_phi_batch(spherical.phi_method1(1, 1.0, 0), pts)
    assert vals.shape == (pts.shape[0], 3, 3)
    assert sum(seen) <= 808
