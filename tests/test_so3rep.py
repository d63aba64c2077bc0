import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from m3sph.so3rep import SO3_GENERATORS, Irrep, Rotation, build_irrep, dtau, tau, tau_stack


def test_trivial_rep():
    rep = build_irrep(0)
    assert rep.dim == 1
    for g in rep.generators:
        assert np.array_equal(g, np.zeros((1, 1)))


def test_axis_generator_diagonal():
    for m in (1, 2, 5):
        rep = build_irrep(m)
        expected = np.diag(1j * np.arange(-m, m + 1))
        assert np.array_equal(rep.generators[0], expected)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_bracket_and_casimir(m):
    a1, a2, a3 = build_irrep(m).generators
    tol = 1e-13
    assert np.max(np.abs(a1 @ a2 - a2 @ a1 + a3)) < tol
    assert np.max(np.abs(a2 @ a3 - a3 @ a2 + a1)) < tol
    assert np.max(np.abs(a3 @ a1 - a1 @ a3 + a2)) < tol
    eye = np.eye(2 * m + 1)
    assert np.max(np.abs(a1 @ a1 + a2 @ a2 + a3 @ a3 + m * (m + 1) * eye)) < 1e-13
    for g in (a1, a2, a3):
        assert np.max(np.abs(g + g.conj().T)) < tol


def test_so3_generator_brackets():
    y1, y2, y3 = SO3_GENERATORS
    assert np.array_equal(y1 @ y2 - y2 @ y1, -y3)
    assert np.array_equal(y2 @ y3 - y3 @ y2, -y1)
    assert np.array_equal(y3 @ y1 - y1 @ y3, -y2)


def test_dtau_linearity_and_spectrum():
    rep = build_irrep(2)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(dtau(rep, x + y), dtau(rep, x) + dtau(rep, y))
    assert np.max(np.abs(dtau(rep, np.zeros(3)))) == 0.0
    for _ in range(5):
        v = rng.normal(size=3)
        r = np.linalg.norm(v)
        eig = np.sort(np.linalg.eigvals(dtau(rep, v)).imag)
        assert np.allclose(eig, r * np.arange(-2, 3), atol=1e-12 * max(1, r))


def test_m1_unitarily_equivalent_to_natural_basis():
    # one unitary must intertwine all three generators with the 3x3 basis
    rep = build_irrep(1)
    rows = []
    for i in range(3):
        # vec (Fortran) of U A_i - Y_i U = (A_i^T (x) I - I (x) Y_i) vec U
        rows.append(
            np.kron(rep.generators[i].T, np.eye(3))
            - np.kron(np.eye(3), SO3_GENERATORS[i])
        )
    system = np.vstack(rows)
    _, sing, vh = np.linalg.svd(system)
    assert sing[-1] < 1e-12
    assert sing[-2] > 0.1  # intertwiner is unique up to scale
    u = vh[-1].conj().reshape(3, 3, order="F")
    # scale to unitary
    u = u * np.sqrt(3.0 / np.trace(u @ u.conj().T).real)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
    for i in range(3):
        assert np.allclose(u @ rep.generators[i] @ u.conj().T, SO3_GENERATORS[i], atol=1e-10)
    # in the natural basis the squared axis matrix is x x^t - |x|^2 I
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=3)
        q1sq = dtau(rep, x) @ dtau(rep, x)
        expected = np.outer(x, x) - (x @ x) * np.eye(3)
        assert np.allclose(u @ q1sq @ u.conj().T, expected, atol=1e-10)


def test_tau_identity_and_pi_rotation():
    rep = build_irrep(1)
    assert np.allclose(tau(rep, Rotation.identity()), np.eye(3), atol=1e-14)
    k = Rotation(axis=np.array([1.0, 0, 0]), angle=np.pi)
    spec = np.sort(np.linalg.eigvals(tau(rep, k)).real)
    assert np.allclose(spec, [-1.0, -1.0, 1.0], atol=1e-12)


def test_tau_unitary_homomorphism_equivariance():
    rng = np.random.default_rng(2)
    for m in (1, 2, 4):
        rep = build_irrep(m)
        eye = np.eye(rep.dim)
        for _ in range(20):
            k1, k2 = Rotation.random(rng), Rotation.random(rng)
            t1 = tau(rep, k1)
            assert np.max(np.abs(t1 @ t1.conj().T - eye)) < 1e-12
            prod = Rotation.from_matrix(k1.matrix @ k2.matrix)
            assert np.max(np.abs(tau(rep, prod) - t1 @ tau(rep, k2))) < 1e-11
            x = rng.normal(size=3)
            lhs = t1 @ dtau(rep, x) @ t1.conj().T
            assert np.max(np.abs(lhs - dtau(rep, k1.apply(x)))) < 1e-11 * (1 + np.linalg.norm(x))


def test_rotation_matrix_is_group_exponential():
    # matrix must equal expm(angle * sum_i axis_i Y_i)
    from scipy.linalg import expm

    rng = np.random.default_rng(3)
    for _ in range(10):
        k = Rotation.random(rng)
        gen = np.tensordot(k.axis, SO3_GENERATORS, axes=([0], [0]))
        assert np.allclose(k.matrix, expm(k.angle * gen), atol=1e-12)
        r = k.matrix
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-13)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    ax=st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ).filter(lambda v: sum(x * x for x in v) > 1e-4),
    angle=st.floats(1e-6, np.pi - 1e-6),
)
@example(ax=(0.0, 0.5, 0.0625), angle=3.141591653589793)
def test_rotation_matrix_roundtrip(ax, angle):
    k = Rotation(axis=np.array(ax), angle=angle)
    k2 = Rotation.from_matrix(k.matrix)
    assert np.allclose(k2.matrix, k.matrix, atol=1e-9)


def test_rotation_pi_branch_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = rng.normal(size=3)
        k = Rotation(axis=v, angle=np.pi)
        k2 = Rotation.from_matrix(k.matrix)
        assert np.allclose(k2.matrix, k.matrix, atol=1e-8)
    # just below pi the axis must keep its first-order tilt
    for e in range(3, 13):
        for _ in range(10):
            k = Rotation(axis=rng.normal(size=3), angle=np.pi - 10.0**-e)
            k2 = Rotation.from_matrix(k.matrix)
            assert np.allclose(k2.matrix, k.matrix, atol=1e-11)


def test_rotation_rejects_bad_input():
    with pytest.raises(ValueError):
        Rotation(axis=np.zeros(3), angle=1.0)
    with pytest.raises(ValueError):
        Rotation.from_matrix(np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        Rotation.from_matrix(np.diag([1.0, 1.0, -1.0]))


def test_build_irrep_rejects_negative():
    with pytest.raises(ValueError):
        build_irrep(-1)


def test_indices_must_be_integers():
    # numpy integers are indices; integral floats and bools are not
    from m3sph.so3rep import check_type_index, check_weight_index

    check_type_index(np.int64(3))
    check_weight_index(3, np.int32(-2))
    for m in (2.0, 2.5, True, np.bool_(False), "2", None):
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            check_type_index(m)
    for j in (0.5, 1.0, False, np.float64(1.0), "1", None):
        with pytest.raises(ValueError, match="index j must be an integer"):
            check_weight_index(2, j)
    with pytest.raises(ValueError):
        build_irrep(1.0)


def test_weight_index_check_takes_m_first():
    # a list or a negative m is blamed as m, not as a TypeError or a j out of range
    from m3sph.polyalg import unit_eigvec

    for m in ([1], -1):
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            unit_eigvec(m, 0)


def test_tau_stack_is_each_rotation_alone_to_the_bit():
    rng = np.random.default_rng(31)
    for m in range(27):
        rep = build_irrep(m)
        ks = [Rotation.random(rng) for _ in range(4)] + [Rotation.random(rng).inverse(), Rotation.identity()]
        stack = tau_stack(rep, ks)
        assert stack.shape == (len(ks), rep.dim, rep.dim)
        for k, tk in zip(ks, stack):
            assert np.array_equal(tk.view(np.uint64), tau(rep, k).view(np.uint64))
    assert tau_stack(build_irrep(2), []).shape == (0, 5, 5)


def test_cached_irrep_still_refuses_a_bool_or_a_float():
    # the cache is typed: True == 1.0 == 1 and they hash alike, but only
    # the int is a type index, before and after it is cached
    assert build_irrep(1) is build_irrep(1)
    assert build_irrep(np.int64(1)).m == 1
    for m in (True, 1.0, np.bool_(True)):
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            build_irrep(m)
    assert not build_irrep(1).generators.flags.writeable


def _per_type_builders():
    """Every builder cached per type index m (so3rep._cached_per_type), and
    build_tridiagonal, which reads coeff_table, as (builder, cached)."""
    from m3sph import _kernels, polyalg, spherical

    return [
        (build_irrep, True),
        (polyalg.coeff_table, True),
        (polyalg.exact_generators, True),
        (polyalg._generator_bands, True),
        (lambda m: polyalg.lagrange_unit_eigvec(m, 0), True),
        (polyalg.e1_diagonals, True),
        (_kernels.axis_diagonals, True),
        (spherical.unit_eigvecs, True),
        (lambda m: spherical.build_tridiagonal(m, 1.0), False),
    ]


@pytest.mark.parametrize("m", [[1], 1.0, True, -1, "1"], ids=repr)
def test_every_per_type_cache_checks_m_before_the_cache(m):
    # an unhashable, float, bool, negative or string m is a ValueError, not
    # a TypeError of the cache or an empty table
    for build, _ in _per_type_builders():
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            build(m)


def test_a_numpy_int_m_shares_the_int_entry_of_every_per_type_cache():
    for build, cached in _per_type_builders():
        if cached:
            assert build(np.int64(1)) is build(1)
        else:
            assert np.array_equal(build(np.int64(1)).superdiag, build(1).superdiag)


def test_irrep_json_roundtrip():
    rep = build_irrep(2)
    again = Irrep.from_json(rep.to_json())
    assert again.m == rep.m and again.dim == rep.dim
    assert np.array_equal(again.generators, rep.generators)
