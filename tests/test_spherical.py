import math
import tracemalloc
import warnings

import numpy as np
import pytest

import scipy.special

from m3sph import _kernels, checks, spherical
from m3sph.errors import CapabilityError, ConsistencyError
from m3sph.so3rep import Rotation, build_irrep, dtau, tau
from m3sph.spherical import (
    build_tridiagonal,
    check_positive_type,
    eval_phi,
    eval_phi_batch,
    phi_method1,
    phi_method2,
    phi_method2_batch,
    phi_method3,
    projections,
    sphere_rule,
)


# ---------------------------------------------------------------------------
# tridiagonal operator
# ---------------------------------------------------------------------------


def test_tridiagonal_m1_s1_entries():
    op = build_tridiagonal(1, 1.0)
    assert np.allclose(op.superdiag, [-2.0, -5 / 3])
    assert np.allclose(op.subdiag, [-1 / 3, -1 / 5])
    eigs = np.sort(np.linalg.eigvals(op.matrix()).real)
    assert np.allclose(eigs, [-1.0, 0.0, 1.0], atol=1e-13)


def test_tridiagonal_m0():
    op = build_tridiagonal(0, 2.7)
    assert op.matrix().shape == (1, 1)
    assert op.matrix()[0, 0] == 0.0
    assert np.array_equal(op.eigenvalues(), [0.0])


@pytest.mark.parametrize("m", [0, 1, 2, 4, 6])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 7.3])
def test_tridiagonal_spectrum(m, s):
    op = build_tridiagonal(m, s)
    eigs = np.sort(np.linalg.eigvals(op.matrix()).real)
    assert np.max(np.abs(eigs - op.eigenvalues())) < 1e-10 * s


def test_tridiagonal_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        build_tridiagonal(1, 0.0)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_s_is_refused(s):
    with pytest.raises(ValueError, match="finite"):
        build_tridiagonal(1, s)
    for construct in (phi_method1, phi_method3):
        with pytest.raises(ValueError, match="finite"):
            construct(1, s, 0)


# ---------------------------------------------------------------------------
# constructions 1 and 3
# ---------------------------------------------------------------------------


def test_method1_frozen_eigenvectors():
    # solved by hand from the 3x3 shifted systems
    assert np.allclose(phi_method1(1, 1.0, 0).coeffs, [1.0, 0.0, -0.2], atol=1e-12)
    assert np.allclose(phi_method1(1, 1.0, 1).coeffs, [1.0, -0.5, 0.1], atol=1e-12)
    assert np.allclose(phi_method1(1, 1.0, -1).coeffs, [1.0, 0.5, 0.1], atol=1e-12)
    # the spec holds the s = 1 vector; scaling law: u_l(s) = s^l u_l(1)
    assert np.allclose(phi_method1(1, 2.0, 1).coeffs * 2.0 ** np.arange(3), [1.0, -1.0, 0.4],
                       atol=1e-12)


def test_method3_frozen():
    assert np.allclose(phi_method3(1, 1.0, 0).coeffs, [1.0, 0.0, -0.2], atol=1e-12)
    assert np.allclose(phi_method3(0, 5.0, 0).coeffs, [1.0])


@pytest.mark.parametrize("m", [0, 1, 2, 3, 6])
def test_methods_1_and_3_agree_and_lead_with_one(m):
    for s in (0.5, 1.0, 2.0):
        for j in range(-m, m + 1):
            c1 = phi_method1(m, s, j).coeffs
            c3 = phi_method3(m, s, j).coeffs
            assert abs(c3[0] - 1.0) < 1e-8
            assert np.max(np.abs(c1 - c3)) < 1e-8 if m == 6 else np.max(np.abs(c1 - c3)) < 1e-10


def test_eigenvector_scaling_law():
    # every scale holds the s = 1 vector u; (s^l u_l) is the eigenvector of M(s) for s j
    for m in (1, 2, 3):
        for j in range(-m, m + 1):
            u1 = phi_method1(m, 1.0, j).coeffs
            for s in (0.5, 2.0):
                assert np.array_equal(phi_method1(m, s, j).coeffs, u1)
                v = u1 * s ** np.arange(2 * m + 1)
                assert np.allclose(build_tridiagonal(m, s).matrix() @ v, s * j * v,
                                   atol=1e-10 * max(1, s) ** (2 * m))


def test_method3_at_tiny_scale():
    # the Lagrange product runs at s = 1 and the spec holds its vector at every s
    x = np.array([0.1, 0.2, 0.3])
    for m in (1, 2):
        for j in range(-m, m + 1):
            u1 = phi_method1(m, 1.0, j).coeffs
            for s in (1e-300, 1e-12):
                spec3 = phi_method3(m, s, j)
                assert np.max(np.abs(spec3.coeffs - u1)) < 1e-12
                assert np.max(np.abs(eval_phi(spec3, x) - np.eye(2 * m + 1))) < 1e-11


def test_huge_scale_is_refused():
    # construction 2 at s = 1e200 needs a sphere rule far beyond its byte
    # budget: a typed refusal, not NaN or a numpy error
    x = np.array([[0.1, 0.2, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapabilityError, match="sphere rule"):
            phi_method2_batch(1, 1e200, 0, x)
    assert phi_method1(0, 1e200, 0).coeffs[0] == 1.0


@pytest.mark.parametrize("m, s, j, x", [
    (24, 0.01, 0, [1e6, 0.0, 0.0]),
    (26, 0.01, 1, [1e5, 0.0, 0.0]),
    (26, 1e-3, 0, [1e5, 0.0, 0.0]),
])
def test_far_axis_values_against_mpmath(phi_oracle, m, s, j, x):
    # u_l (s r)^l f_l(s r) is formed as one bounded kernel, so large l
    # underflows nowhere; to 1e-12 of the diagonal's largest entry
    ref = phi_oracle(m, s, j, x)
    assert np.max(np.abs(eval_phi(phi_method1(m, s, j), x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_far_axis_first_order_operator_against_mpmath(phi_oracle):
    m, s, j, x = 24, 0.01, 3, [1e6, 0.0, 0.0]
    ref = s * j * phi_oracle(m, s, j, x)
    out = spherical.apply_dtau_analytic(phi_method1(m, s, j), x)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("m, s, j, x", [
    (1, 1e200, 1, [0.1, 0.2, 0.3]),  # s^(2m) is out of float range
    (4, 1e-48, 2, [1e50, 0.0, 0.0]),  # |x|^(2m) is
    (2, 1.0, 1, [1e100, 0.0, 0.0]),  # |x|^4 is
])
def test_scales_and_radii_beyond_the_powers_against_mpmath(phi_oracle, m, s, j, x):
    # no power of s or |x| is formed, so these give values, with no warning
    ref = phi_oracle(m, s, j, x)
    for construct in (phi_method1, phi_method3):
        spec = construct(m, s, j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = eval_phi(spec, x)
            dt = spherical.apply_dtau_analytic(spec, x)
        assert np.max(np.abs(val - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(dt - s * j * ref)) <= 1e-12 * np.max(np.abs(s * j * ref))


@pytest.mark.parametrize("m, s", [(0, 1e8), (0, 1e200), (1, 1e8)])
def test_method2_refuses_an_oversized_sphere_rule(m, s):
    # refused from the rule's size alone, before any array is allocated
    with pytest.raises(CapabilityError, match="sphere rule"):
        phi_method2_batch(m, s, 0, np.array([[0.1, 0.2, 0.3]]))


def test_method1_rejects_out_of_range():
    with pytest.raises(ValueError):
        phi_method1(1, 1.0, 2)
    with pytest.raises(ValueError):
        phi_method1(1, -1.0, 0)


def test_method1_internal_consistency_guard(monkeypatch):
    # corrupting the rational a_l must trip the exact row-2m closure
    from m3sph import polyalg

    table = polyalg.coeff_table
    good = table(2)
    bad = polyalg.CoeffTable(m=2, a=tuple(x * polyalg.rational(37, 10) for x in good.a), c=good.c)
    monkeypatch.setattr(polyalg, "coeff_table", lambda m: bad if m == 2 else table(m))
    spherical.unit_eigvecs.cache_clear()
    polyalg.e1_diagonals.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="row 2m"):
            phi_method1(2, 1.0, 1)
    finally:
        spherical.unit_eigvecs.cache_clear()
        polyalg.e1_diagonals.cache_clear()


def test_method1_valid_scales_at_both_ends(phi_oracle):
    # the s = 1 row at both ends of the float range, and its values there
    x = np.array([0.3, -0.4, 1.2])
    for m, s, j in ((1, 1e8, 0), (1, 1e-300, 1)):
        spec = phi_method1(m, s, j)
        assert np.array_equal(spec.coeffs, spherical.unit_eigvecs(m)[j + m])
        ref = phi_oracle(m, s, j, x)
        assert np.max(np.abs(eval_phi(spec, x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_method1_runs_no_float_eigensolver(monkeypatch):
    # the coefficients are the exact recursion rounded once, not a numerical solve
    def refuse(*args, **kwargs):
        raise AssertionError("phi_method1 called a float eigensolver")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    spherical.unit_eigvecs.cache_clear()
    for m in (0, 1, 5, 14):
        for j in (-m, 0, m):
            assert phi_method1(m, 1.3, j).coeffs[0] == 1.0


def test_unit_eigvecs_is_the_exact_vector_rounded_once():
    from m3sph.polyalg import unit_eigvec

    for m in (0, 3, 13, spherical.M_MAX_NUMERIC):
        table = spherical.unit_eigvecs(m)
        assert not table.flags.writeable
        assert spherical.unit_eigvecs(m) is table
        for j in (-m, 0, m):
            assert table[j + m].tolist() == [float(x) for x in unit_eigvec(m, j)]


def test_above_the_numeric_range_is_refused():
    m = spherical.M_MAX_NUMERIC + 1
    for construct in (phi_method1, phi_method3):
        with pytest.raises(CapabilityError, match="numeric"):
            construct(m, 1.0, 0)
    with pytest.raises(CapabilityError, match="numeric"):
        spherical.unit_eigvecs(m)


def test_full_check_profile_runs_at_the_top_of_the_numeric_range():
    from m3sph.checks import suite_spherical

    # the full profile adds m = M_MAX_NUMERIC, the top of the numeric range
    assert suite_spherical([], np.random.default_rng(0), "full")["pass"]


@pytest.mark.parametrize("m", [14, 20, spherical.M_MAX_NUMERIC])
def test_method1_on_the_axis_against_a_polar_quadrature(m):
    # construction 2 on the e_1 axis, where the azimuth integrates out:
    # Phi(t e_1)_pp = (2m+1)/2 int_{-1}^{1} e^{-i t mu} P_j(xi(mu))_pp dmu, with
    # xi(mu) = (mu, sqrt(1 - mu^2), 0); Gauss-Legendre in mu is exact for the
    # band-limited integrand.  t = 40 reaches the high-order terms of the series
    mu, w = np.polynomial.legendre.leggauss(160)
    xis = np.stack([mu, np.sqrt(1.0 - mu**2), np.zeros_like(mu)], axis=1)
    for s, t in ((1.0, 40.0), (2.5, 7.0)):
        for j in (-m, 0, 1, m):
            diag = np.diagonal(spherical._projection_stack(m, xis, j), axis1=1, axis2=2)
            ref = (2 * m + 1) * 0.5 * (w * np.exp(-1j * t * mu)) @ diag
            val = eval_phi(phi_method1(m, s, j), np.array([t / s, 0.0, 0.0]))
            assert np.max(np.abs(np.diagonal(val) - ref)) < 1e-12


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_phi_at_origin_is_identity():
    for m in (0, 1, 3):
        for j in range(-m, m + 1):
            spec = phi_method1(m, 1.3, j)
            assert np.allclose(eval_phi(spec, np.zeros(3)), np.eye(2 * m + 1), atol=1e-13)


def test_m0_is_classical_spherical_function():
    spec = phi_method1(0, 2.0, 0)
    x = np.array([1.0, 0.0, 0.0])
    assert eval_phi(spec, x)[0, 0] == pytest.approx(np.sin(2.0) / 2.0, abs=1e-14)
    y = np.array([0.3, -1.2, 0.8])
    r = np.linalg.norm(y)
    assert eval_phi(spec, y)[0, 0] == pytest.approx(np.sin(2 * r) / (2 * r), abs=1e-14)


def test_m1_j0_series_expansion():
    # phi = f_0 I - (1/5) f_2 (Q_1^2 + (2/3) r^2 I)
    from m3sph.radial import f as radf

    rng = np.random.default_rng(0)
    rep = build_irrep(1)
    spec = phi_method1(1, 1.0, 0)
    for _ in range(5):
        x = rng.normal(size=3)
        r = np.linalg.norm(x)
        d = dtau(rep, x)
        expected = float(radf(0, r)) * np.eye(3) - 0.2 * float(radf(2, r)) * (
            d @ d + (2 / 3) * r * r * np.eye(3)
        )
        assert np.allclose(eval_phi(spec, x), expected, atol=1e-13)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_projections_e1_weight_basis():
    fam = projections(1, [1.0, 0.0, 0.0])
    assert np.allclose(fam.P(0), np.diag([0, 1, 0]), atol=1e-14)
    assert np.allclose(fam.P(-1), np.diag([1, 0, 0]), atol=1e-14)
    assert np.allclose(fam.P(1), np.diag([0, 0, 1]), atol=1e-14)


def test_projections_at_e1_are_coordinate_projections():
    # A_1 = diag(i j) in the weight basis, so P_j(e_1) is E_jj to the bit;
    # the transform reads h_j(s) off the diagonal of Fhat(s e_1) on this fact
    for m in range(15):
        d = 2 * m + 1
        fam = projections(m, [1.0, 0.0, 0.0])
        for j in range(-m, m + 1):
            e_jj = np.zeros((d, d))
            e_jj[j + m, j + m] = 1.0
            assert np.array_equal(fam.matrices[j + m], e_jj)


@pytest.mark.parametrize("m", [8, 12, 14])
def test_projections_stay_exact_at_large_m(m):
    rng = np.random.default_rng(13)
    for _ in range(3):
        fam = projections(m, rng.normal(size=3))
        total = np.zeros((2 * m + 1, 2 * m + 1), dtype=complex)
        for j in range(-m, m + 1):
            p = fam.P(j)
            total += p
            assert np.max(np.abs(p @ p - p)) <= 1e-13
            assert np.max(np.abs(p - p.conj().T)) <= 1e-13
        assert np.max(np.abs(total - np.eye(2 * m + 1))) <= 1e-13


def test_projections_direction_normalized():
    f1 = projections(2, [0.3, -0.4, 1.1])
    f2 = projections(2, [0.6, -0.8, 2.2])
    assert np.max(np.abs(f1.matrices - f2.matrices)) < 1e-13


@pytest.mark.parametrize("m", [1, 2, 3])
def test_projection_family_invariants(m):
    rng = np.random.default_rng(5)
    rep = build_irrep(m)
    for _ in range(4):
        xi = rng.normal(size=3)
        fam = projections(m, xi)
        d = dtau(rep, fam.direction)
        total = np.zeros((rep.dim, rep.dim), dtype=complex)
        # eigh-based spectral projections are the independent oracle here
        w, v = np.linalg.eigh(-1j * d)
        for j in range(-m, m + 1):
            p = fam.P(j)
            total += p
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p - p.conj().T)) < 1e-12
            assert np.max(np.abs(d @ p - 1j * j * p)) < 1e-12 * (1 + m)
            col = v[:, np.argmin(np.abs(w - j))]
            assert np.max(np.abs(p - np.outer(col, col.conj()))) < 1e-11
            for l in range(-m, m + 1):
                if l != j:
                    assert np.max(np.abs(p @ fam.P(l))) < 1e-12
        assert np.max(np.abs(total - np.eye(rep.dim))) < 1e-12


def test_projection_parity_and_covariance():
    rng = np.random.default_rng(6)
    m = 2
    rep = build_irrep(m)
    xi = rng.normal(size=3)
    fam = projections(m, xi)
    famneg = projections(m, -xi)
    for j in range(-m, m + 1):
        assert np.max(np.abs(fam.P(-j) - famneg.P(j))) < 1e-12
    for _ in range(5):
        k = Rotation.random(rng)
        fam2 = projections(m, k.apply(fam.direction))
        tk = tau(rep, k)
        for j in (-m, 0, m):
            assert np.max(np.abs(fam2.P(j) - tk @ fam.P(j) @ tk.conj().T)) < 1e-10


def test_projections_reject_zero():
    with pytest.raises(ValueError):
        projections(1, [0.0, 0.0, 0.0])


def test_projections_check_m():
    # a bool, an integral float and a negative m are no type index
    for m in (True, 2.0, -1):
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            projections(m, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("m", [0, 1, 3, 6, 26])
def test_projections_through_q_series_are_the_direct_transport_bit_for_bit(m):
    # the family and the polar stacks of construction 2 go through
    # q_series; each is axis_transport of the rows of the identity, with
    # the radii of radii(), to the bit
    d = 2 * m + 1
    rng = np.random.default_rng(60 + m)
    xi = rng.normal(size=3) * 3.0
    xin = xi / np.max(np.abs(xi))
    r = _kernels.radii(xin[None, :])
    direct = _kernels.axis_transport(np.eye(d), np.broadcast_to(xin, (d, 3)), np.broadcast_to(r, d))
    assert np.array_equal(projections(m, xi).matrices, direct)
    xis = rng.normal(size=(23, 3))
    xis[3], xis[4], xis[5] = [1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], xis[6][[2, 0, 1]]
    for j in (-m, 0, m):
        row = np.broadcast_to(np.eye(d)[j + m], (len(xis), d))
        direct = _kernels.axis_transport(row, xis, _kernels.radii(xis))
        assert np.array_equal(spherical._projection_stack(m, xis, j), direct)


def test_projections_take_the_direction_of_any_finite_vector():
    # |xi|^2 overflows at the first vector and underflows at the last two
    # (a subnormal or a tiny coordinate): each still has a unit direction
    ordinary = np.array([0.3, -1.2, 2.0])
    cases = (
        ([1e200, 1e200, 0.0], np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)),
        ([1e-320, 0.0, 0.0], np.array([1.0, 0.0, 0.0])),
        ([0.0, 1e-200, 1e-200], np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)),
        (ordinary, ordinary / np.linalg.norm(ordinary)),
    )
    for xi, direction in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = projections(2, xi)
        assert np.max(np.abs(fam.direction - direction)) <= 1e-15
        ref = projections(2, direction)
        assert np.max(np.abs(fam.matrices - ref.matrices)) <= 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            projections(2, [np.inf, 1.0, 0.0])


# ---------------------------------------------------------------------------
# sphere rule
# ---------------------------------------------------------------------------


def test_sphere_rule_basics():
    rule = sphere_rule(0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    rule = sphere_rule(2)
    assert np.sum(rule.weights * rule.nodes[:, 0] ** 2) == pytest.approx(1 / 3, abs=1e-14)
    assert np.sum(rule.weights * rule.nodes[:, 1] ** 2) == pytest.approx(1 / 3, abs=1e-14)
    assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        sphere_rule(-1)


def test_sphere_rule_is_cached_per_degree_and_read_only():
    rule = sphere_rule(7)
    assert sphere_rule(7) is rule
    assert sphere_rule(8) is not rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def _sph_harm(l, mm, nodes):
    theta = np.arccos(np.clip(nodes[:, 2], -1, 1))
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    if hasattr(scipy.special, "sph_harm_y"):
        return scipy.special.sph_harm_y(l, mm, theta, phi)
    return scipy.special.sph_harm(mm, l, phi, theta)


@pytest.mark.parametrize("degree", [4, 9, 16])
def test_sphere_rule_integrates_harmonics_exactly(degree):
    rule = sphere_rule(degree)
    # mean-zero harmonics of degree <= rule degree integrate to zero
    for l in range(1, degree + 1):
        for mm in {-l, 0, min(1, l), l}:
            val = np.sum(rule.weights * _sph_harm(l, mm, rule.nodes))
            assert abs(val) < 1e-13
    # normalized measure: int |Y_l^m|^2 = 1/(4 pi), needs degree >= 2l
    for l in range(0, degree // 2 + 1):
        y = _sph_harm(l, min(l, 1), rule.nodes)
        val = np.sum(rule.weights * np.abs(y) ** 2)
        assert val == pytest.approx(1 / (4 * np.pi), rel=1e-12)


# ---------------------------------------------------------------------------
# construction 2 and cross-method agreement
# ---------------------------------------------------------------------------


def test_method2_at_origin_identity():
    for m in (0, 1, 2):
        val = phi_method2(m, 1.5, 0, np.zeros(3))
        assert np.allclose(val, np.eye(2 * m + 1), atol=1e-12)


def test_method2_m0_plane_wave_average():
    x = np.array([0.7, -0.2, 1.1])
    r = np.linalg.norm(x)
    for s in (0.5, 2.0):
        val = phi_method2(0, s, 0, x)
        assert abs(val[0, 0] - np.sin(s * r) / (s * r)) < 1e-10


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_three_method_agreement(m):
    rng = np.random.default_rng(7)
    for s in (0.5, 1.0, 2.0):
        for j in range(-m, m + 1):
            xs = rng.uniform(-5 / np.sqrt(3), 5 / np.sqrt(3), size=(8, 3))
            v1 = eval_phi_batch(phi_method1(m, s, j), xs)
            v3 = eval_phi_batch(phi_method3(m, s, j), xs)
            assert np.max(np.abs(v1 - v3)) < 1e-10
            v2 = phi_method2_batch(m, s, j, xs)
            assert np.max(np.abs(v1 - v2)) < 1e-6


@pytest.mark.parametrize("s, tol", [(3.0, 1e-12), (30.0, 1e-11)])
def test_method2_at_the_top_m_against_method1(s, tol):
    # m = 26 on normal random points, s|x| up to ~60: one projection per polar
    # node, so the rule's size no longer depends on d.  At s = 30 the bound is
    # set by numpy's Gauss-Legendre weights, ~1e-11 relative at 160 nodes
    # (over 30 seeds: up to 2.7e-13 at s = 3, 4.4e-12 at s = 30)
    m = spherical.M_MAX_NUMERIC
    xs = np.random.default_rng(21).normal(size=(4, 3))
    for j in (-m, 0, m):
        v1 = eval_phi_batch(phi_method1(m, s, j), xs)
        v2 = phi_method2_batch(m, s, j, xs)
        assert np.max(np.abs(v1 - v2)) <= tol * np.max(np.abs(v1))


@pytest.mark.parametrize("m", [1, 3])
def test_method2_matches_the_product_rule_sum(m):
    # reference: the plane-wave sum over every node of the sphere rule, each
    # node with its own projection
    rng = np.random.default_rng(13)
    xs = rng.normal(size=(5, 3))
    radius = np.max(spherical.radii(xs))
    for s, j in ((0.5, -m), (1.0, 0), (2.0, m)):
        rule = sphere_rule(spherical.band_limit_degree(m, s, radius))
        phases = np.exp(-1j * s * (xs @ rule.nodes.T)) * rule.weights
        projs = spherical._projection_stack(m, rule.nodes, j)
        ref = (2 * m + 1) * np.einsum("pa,aij->pij", phases, projs)
        assert np.max(np.abs(phi_method2_batch(m, s, j, xs) - ref)) <= 1e-14


@pytest.mark.parametrize("m", [0, spherical.M_MAX_NUMERIC])
def test_method2_refusal_falls_at_one_polar_node_count(monkeypatch, m):
    # the bound is 2048 polar nodes at every m: the band-limit degree
    # 2m + ceil(e s|x|) + 10 reaches 4095 at s|x| = (4085 - 2m)/e, which is
    # 1502.8 at m = 0 and 1483.6 at m = 26.  Just below it the rule is built
    # (stopped at its first array), just above it is refused
    class Built(Exception):
        pass

    def polar_factor(n_polar):
        assert n_polar == 2048
        raise Built

    monkeypatch.setattr(spherical, "_polar_factor", polar_factor)
    limit = (4085 - 2 * m) / math.e
    assert 1480 < limit < 1510
    x = np.array([[0.6, 0.0, 0.8]])
    with pytest.raises(Built):
        phi_method2_batch(m, limit * (1 - 1e-12), 0, x)
    with pytest.raises(CapabilityError, match="more than 2048 polar nodes"):
        phi_method2_batch(m, limit * (1 + 1e-12), 0, x)


def test_method2_builds_its_phases_in_blocks(monkeypatch):
    # under a 2e4-entry bound 200 points at m = 1 go in blocks of one or two
    # points (n_polar = 10, n_az = 20 for s|x| <= 3.6); the values agree with
    # one whole block to rounding
    xs = np.random.default_rng(14).uniform(-2, 2, size=(200, 3)) * 0.5
    whole = phi_method2_batch(1, 1.0, 1, xs)
    monkeypatch.setattr(_kernels, "_PHASE_ENTRIES", 20_000)
    tracemalloc.start()
    try:
        blocked = phi_method2_batch(1, 1.0, 1, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(blocked - whole)) <= 1e-14
    assert peak < 2 << 20


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_equivariance_under_rotations():
    rng = np.random.default_rng(8)
    for m, s, j in ((1, 1.0, 1), (2, 0.5, -2), (2, 2.0, 0)):
        rep = build_irrep(m)
        spec = phi_method1(m, s, j)
        for _ in range(20):
            k = Rotation.random(rng)
            x = rng.normal(size=3) * 1.5
            tk = tau(rep, k)
            lhs = tk @ eval_phi(spec, k.inverse().apply(x)) @ tk.conj().T
            assert np.max(np.abs(lhs - eval_phi(spec, x))) < 1e-8


def test_parity_and_conjugation():
    rng = np.random.default_rng(9)
    for m in (1, 2):
        for s in (0.5, 2.0):
            for j in range(-m, m + 1):
                spec = phi_method1(m, s, j)
                specm = phi_method1(m, s, -j)
                xs = rng.normal(size=(6, 3))
                a = eval_phi_batch(spec, xs)
                b = eval_phi_batch(specm, -xs)
                assert np.max(np.abs(a - b)) < 1e-10
                c = eval_phi_batch(spec, -xs)
                assert np.max(np.abs(a.conj().transpose(0, 2, 1) - c)) < 1e-10


def test_laplacian_eigenfunction_fd():
    # the fourth-order 5-point stencil at h = 1e-2 of the check suite: its
    # rounding (~eps/h^2) and truncation stay near 1e-9, so the residual
    # measures the eigen-equation rather than the stencil
    rng = np.random.default_rng(10)
    for m, s, j in ((0, 1.0, 0), (1, 2.0, 1), (2, 0.5, -1)):
        spec = phi_method1(m, s, j)
        for _ in range(4):
            x = rng.normal(size=3)
            lap = checks._laplacian_fd(lambda p: eval_phi_batch(spec, p), x[None, :], 1e-2)[0]
            assert np.max(np.abs(lap + s * s * eval_phi(spec, x))) < 1e-5 * (1 + s * s)


def test_first_order_eigenfunction_analytic():
    rng = np.random.default_rng(11)
    for m, s, j in ((0, 1.0, 0), (1, 1.0, -1), (2, 2.0, 2), (3, 0.5, 0), (12, 1.0, 7),
                    (26, 1.0, 26)):
        spec = phi_method1(m, s, j)
        # the origin and (1e-170, 0, 0), whose radius underflows to 0, are
        # the limit r -> 0
        near = [np.zeros(3), np.array([1e-170, 0.0, 0.0])]
        for x in near + [rng.normal(size=3) for _ in range(4)]:
            out = spherical.apply_dtau_analytic(spec, x)
            assert np.max(np.abs(out - s * j * eval_phi(spec, x))) < 1e-6 * (1 + s)


def test_first_order_operator_takes_a_batch():
    # an (n, 3) batch gives the one-point values stacked, a 1-D point one
    # (d, d) matrix; a refused point refuses the batch
    rng = np.random.default_rng(13)
    for m, s, j in ((0, 1.0, 0), (2, 2.0, 1), (3, 0.5, -3)):
        spec = phi_method1(m, s, j)
        xs = np.concatenate([np.zeros((1, 3)), rng.normal(size=(6, 3))])
        out = spherical.apply_dtau_analytic(spec, xs)
        assert out.shape == (7, 2 * m + 1, 2 * m + 1)
        one = np.array([spherical.apply_dtau_analytic(spec, x) for x in xs])
        assert one.shape == out.shape
        assert np.max(np.abs(out - one)) <= 1e-14 * np.max(np.abs(one))
        assert np.max(np.abs(out - s * j * eval_phi_batch(spec, xs))) < 1e-6 * (1 + s)
        with pytest.raises(ValueError, match="finite"):
            spherical.apply_dtau_analytic(spec, np.concatenate([xs, [[np.nan, 0, 0]]]))


@pytest.mark.parametrize("m", [1, 3, 8, 26])
def test_first_order_operator_on_the_axis_is_the_two_commutators(m):
    # on the e_1 axis D_tau Phi is A_1 diag(lam') + A_3 [A_2, L/r] - A_2 [A_3, L/r];
    # the commutators, formed here as (d, d) matrices, agree with the one
    # constant matrix applied to lam/r to rounding, 4e-15 of the largest entry
    spec = phi_method1(m, 1.3, m)
    rs = np.array([0.0, 0.4, 2.5, 9.0, 31.0])
    xs = np.zeros((rs.size, 3))
    xs[:, 0] = rs
    a1, a2, a3 = build_irrep(m).generators
    ls = np.arange(2 * m + 1)
    T = _kernels.f_table(2 * m + 1, spec.s * rs, axis=True).T
    below = np.concatenate([np.zeros((rs.size, 1)), T[:, :-2]], axis=1)
    above = T[:, 1:] / ((2 * ls + 1) * (2 * ls + 3))
    su = spec.s * spec.coeffs
    diags = _kernels.axis_diagonals(m)
    dlam = (su * (ls * below - (ls + 1) * above)) @ diags
    lam_r = (su * (below + above) * (ls > 0)) @ diags
    ref = np.array([a1 @ np.diag(dl) + a3 @ (a2 @ np.diag(lr) - np.diag(lr) @ a2)
                    - a2 @ (a3 @ np.diag(lr) - np.diag(lr) @ a3) for dl, lr in zip(dlam, lam_r)])
    out = spherical.apply_dtau_analytic(spec, xs)
    assert np.max(np.abs(out - ref)) <= 4e-15 * np.max(np.abs(ref))


def test_positive_type():
    rng = np.random.default_rng(12)
    for m in (0, 1, 2, 3):
        rep_dim = 2 * m + 1
        for s in (1.0, 2.0):
            for j in range(-m, m + 1):
                spec = phi_method1(m, s, j)
                for _ in range(3):
                    pts = rng.uniform(-2, 2, size=(6, 3))
                    vecs = rng.normal(size=(6, rep_dim)) + 1j * rng.normal(size=(6, rep_dim))
                    assert check_positive_type(spec, pts, vecs) > -1e-8


def test_positive_type_single_point():
    spec = phi_method1(1, 1.0, 0)
    v = np.array([1.0, 2.0, -1.0])
    lam = check_positive_type(spec, [np.zeros(3)], [v])
    assert lam == pytest.approx(float(v @ v), rel=1e-12)


def test_positive_type_refuses_points_before_their_differences_overflow():
    # each point's |x| leaves float range; their difference 2e308 is infinite
    spec = phi_method1(1, 1.0, 0)
    pts = np.array([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapabilityError, match="not finite"):
            check_positive_type(spec, pts, np.ones((2, 3)))


def test_positive_type_rejects_large_configs():
    spec = phi_method1(0, 1.0, 0)
    pts = np.zeros((13, 3))
    vecs = np.ones((13, 1))
    with pytest.raises(ValueError):
        check_positive_type(spec, pts, vecs)


# ---------------------------------------------------------------------------
# the stacked evaluation
# ---------------------------------------------------------------------------


def _stack_case(m, seed):
    """Specs of type m at four scales and four weights, each with its own
    batch: 0 or 2 to 40 points, the origin, a point and its negative (one
    shared radius), and draws for a Gram check of 1 to 12 points.  No batch
    has one radius alone: numpy forms a lone diagonal as a matrix-vector
    product, which BLAS rounds apart from the rows of a matrix product."""
    rng = np.random.default_rng(seed)
    specs, xss, pts, vecs = [], [], [], []
    for s in (0.5, 1.0, 2.0, 7.3):
        for j in sorted({-m, 0, min(1, m), m}):
            xs = 2.0 * rng.normal(size=(int(rng.choice([0, *range(2, 41)])), 3))
            if len(xs) > 2:
                xs[1], xs[2] = -xs[0], 0.0
            n = int(rng.integers(1, 13))
            specs.append(phi_method1(m, s, j))
            xss.append(xs)
            pts.append(rng.uniform(-2, 2, size=(n, 3)))
            vecs.append(rng.normal(size=(n, 2 * m + 1)) + 1j * rng.normal(size=(n, 2 * m + 1)))
    return specs, xss, pts, vecs


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
def test_stacked_evaluation_is_the_per_spec_calls_bit_for_bit(m):
    specs, xss, pts, vecs = _stack_case(m, 40 + m)
    for stacked, one in (
        (spherical.eval_phi_stack(specs, xss), eval_phi_batch),
        (spherical.apply_dtau_stack(specs, xss), spherical.apply_dtau_analytic),
    ):
        assert len(stacked) == len(specs)
        for spec, xs, vals in zip(specs, xss, stacked):
            assert np.array_equal(vals, one(spec, xs))
    assert spherical.positive_type_stack(specs, pts, vecs) == [
        check_positive_type(spec, p, v) for spec, p, v in zip(specs, pts, vecs)
    ]


@pytest.mark.parametrize("m", [6, 26])
def test_stacked_evaluation_is_the_per_spec_calls_to_8_eps(m):
    # above m = 5 axis_transport may round a point's row in the last bits
    # with the batch around it: each value stays within 8 eps of the peak of
    # its spec's values (D_tau Phi = s j Phi: s m times Phi's peak); a Gram
    # matrix moves by at most 8 eps peak (sum_a |v_a|_1)^2 in norm, and its
    # least eigenvalue by that plus eigvalsh's rounding on either side
    eps = np.finfo(np.float64).eps
    specs, xss, pts, vecs = _stack_case(m, 40 + m)
    phis = spherical.eval_phi_stack(specs, xss)
    dts = spherical.apply_dtau_stack(specs, xss)
    for spec, xs, phi, dt in zip(specs, xss, phis, dts):
        if len(xs):
            one = eval_phi_batch(spec, xs)
            peak = np.max(np.abs(one))
            assert np.max(np.abs(phi - one)) <= 8 * eps * peak
            dt_one = spherical.apply_dtau_analytic(spec, xs)
            assert np.max(np.abs(dt - dt_one)) <= 8 * eps * spec.s * m * peak
    lams = spherical.positive_type_stack(specs, pts, vecs)
    for spec, p, v, lam in zip(specs, pts, vecs, lams):
        peak = np.max(np.abs(eval_phi_batch(spec, (p[:, None] - p[None, :]).reshape(-1, 3))))
        bound = 16 * eps * peak * np.sum(np.abs(v)) ** 2
        assert abs(lam - check_positive_type(spec, p, v)) <= bound


def test_stacked_evaluation_refuses_what_q_series_refuses():
    specs = [phi_method1(2, s, j) for s, j in ((1.0, 0), (2.0, -1), (0.5, 2))]
    xss = [np.ones((3, 3)), np.ones((4, 3)), np.ones((2, 3))]
    for evaluate in (spherical.eval_phi_stack, spherical.apply_dtau_stack):
        bad = [xs.copy() for xs in xss]
        bad[1][2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            evaluate(specs, bad)
        bad[1][2] = [1e200, 1e200, 0.0]
        with pytest.raises(CapabilityError, match="not finite"):
            evaluate(specs, bad)
    with pytest.raises(ValueError, match="one type m"):
        spherical.eval_phi_stack([specs[0], phi_method1(1, 1.0, 0)], xss[:2])
    with pytest.raises(ValueError, match="pairs"):
        spherical.eval_phi_stack(specs, xss[:2])
    assert spherical.eval_phi_stack([], []) == []


def test_a_stack_takes_one_q_series_call_per_function(monkeypatch):
    # one spec is a one-element stack: every stack passes a label per point,
    # and its diagonal is formed once per distinct (spec, radius)
    calls = []

    def spy(diagonal_at, xs, labels=None):
        calls.append(np.unique(labels).tolist())
        return _kernels.q_series(diagonal_at, xs, labels)

    seen = []

    def counting_f_table(jmax, t, axis=False):
        seen.append(np.size(t))
        return _kernels.f_table(jmax, t, axis=axis)

    monkeypatch.setattr(spherical, "q_series", spy)
    monkeypatch.setattr(spherical, "f_table", counting_f_table)
    xs = np.array([[1.0, 2.0, 2.0], [-2.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.5, 0.0, 0.0]])
    specs = [phi_method1(1, 1.0, 0), phi_method1(1, 1.0, 1), phi_method1(1, 2.0, 0)]
    spherical.eval_phi_batch(specs[0], xs)
    spherical.eval_phi_stack(specs, [xs, xs[:2], xs[1:]])
    spherical.apply_dtau_stack(specs, [xs, xs, xs])
    assert calls == [[0], [0, 1, 2], [0, 1, 2]]
    assert seen == [2, 2 + 1 + 2, 3 * 2]


def test_non_integer_indices_are_refused_with_value_error():
    # an integral float or a bool is no index either
    for call in (
        lambda: phi_method3(1, 1.0, 0.5),
        lambda: phi_method1(1, 1.0, 0.5),
        lambda: phi_method1(1, 1.0, 1.0),
        lambda: phi_method1(1.0, 1.0, 0),
        lambda: phi_method1(True, 1.0, 0),
        lambda: phi_method2(1, 1.0, 0.5, np.ones(3)),
        lambda: spherical.eval_phi_stack(
            [phi_method1(1, 1.0, j) for j in (0, 0.5)], [np.ones((1, 3))] * 2),
    ):
        with pytest.raises(ValueError, match="integer"):
            call()
    assert phi_method1(np.int64(1), 1.0, np.int64(-1)).coeffs.tolist() == (
        phi_method1(1, 1.0, -1).coeffs.tolist())
