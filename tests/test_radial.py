import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from m3sph import _kernels, fieldio, radial


def f_series_oracle(j: int, r: float) -> float:
    """Power series of the normalized half-integer Bessel kernel,

    f_j(r) = Gamma(3/2+j) * sum_k (-1)^k / (k! Gamma(k+j+3/2)) (r/2)^{2k},

    built independently of the closed forms and recurrences."""
    acc = term = 1.0
    x2 = 0.25 * r * r
    for k in range(200):
        term *= -x2 / ((k + 1) * (k + 1 + j + 0.5))
        acc += term
        if abs(term) < 1e-18 * max(1.0, abs(acc)):
            break
    return acc


SERIES_POINTS = [0.0, 0.05, 0.3, 0.5, 1.0, 2.7, 5.0, 8.0, 10.0]


def switch_points(j):
    """Arguments on both sides of the kernel's switch from the downward to
    the upward recurrence, at t = j + 2 for radial.f(j, .)."""
    return [j + 1.5, j + 1.99, j + 2.0, j + 2.01, j + 3.0]


@pytest.mark.parametrize("j", [0, 1, 2, 5, 9])
def test_against_series_oracle(j):
    for r in SERIES_POINTS + switch_points(j):
        assert float(radial.f(j, r)) == pytest.approx(f_series_oracle(j, r), abs=5e-13)


def test_f0_f1_closed_forms():
    rs = np.linspace(0.01, 40, 500)
    assert np.max(np.abs(radial.f(0, rs) - np.sin(rs) / rs)) < 1e-14
    # the subtracted closed form for f_1 cancels catastrophically near 0,
    # so compare it where it is itself accurate (small r is covered by the
    # series oracle)
    rs = rs[rs >= 0.2]
    f1_closed = 3 * (np.sin(rs) - rs * np.cos(rs)) / rs**3
    assert np.max(np.abs(radial.f(1, rs) - f1_closed)) < 1e-13


def test_value_one_at_zero():
    for j in range(12):
        assert float(radial.f(j, 0.0)) == 1.0
        assert float(radial.f_scaled(j, 2.5, 0.0)) == 1.0


def test_scipy_oracle_wide_range():
    wide = np.concatenate([np.linspace(0.01, 3, 80), np.linspace(3, 120, 200)])
    for j in range(13):
        rs = np.concatenate([wide, switch_points(j)])
        mine = radial.f(j, rs)
        oracle = radial.double_factorial_odd(j) * spherical_jn(j, rs) / rs**j
        assert np.max(np.abs(mine - oracle)) < 1e-11


@pytest.mark.parametrize("jmax, tol", [(26, 1e-14), (53, 1e-13), (_kernels.F_TABLE_JMAX, 1e-12)])
def test_high_orders_against_mpmath(jmax, tol):
    # 53 is the highest order a library caller asks (apply_dtau_analytic at
    # M_MAX_NUMERIC); errors are relative to the envelope min(1, (2l+1)!!/t^(l+1))
    ts = [0.0, 0.5, 3.0, jmax / 2, jmax + 1.0, jmax + 1.99, jmax + 2.0, jmax + 2.5, jmax + 8.0,
          3.0 * jmax]
    table = _kernels.f_table(jmax, ts)
    with mp.workdps(30):
        for l in range(jmax + 1):
            for i, t in enumerate(ts):
                ref = mp.hyp0f1(l + mp.mpf(3) / 2, -mp.mpf(t) ** 2 / 4)
                env = min(1.0, float(mp.fac2(2 * l + 1) / mp.mpf(max(t, 1.0)) ** (l + 1)))
                assert abs(table[l, i] - float(ref)) <= tol * env, (l, t)


def test_recurrence_identity():
    rs = np.linspace(0.01, 50, 700)
    table = np.stack([radial.f(j, rs) for j in range(11)])
    for j in range(1, 9):
        resid = table[j] - table[j - 1] - rs**2 / ((2 * j + 1) * (2 * j + 3)) * table[j + 1]
        assert np.max(np.abs(resid)) < 1e-12


def test_differential_relation_via_scipy_derivative():
    # derivative assembled from the independent raising-side identity
    rs = np.linspace(0.3, 30, 150)
    for j in range(7):
        c = radial.double_factorial_odd(j)
        jp = spherical_jn(j, rs, derivative=True)
        jj = spherical_jn(j, rs)
        fprime = c * (jp / rs**j - j * jj / rs ** (j + 1))
        assert np.max(np.abs(fprime / rs + radial.f(j + 1, rs) / (2 * j + 3))) < 1e-10


def test_scaled_differential_relation():
    rs = np.linspace(0.2, 20, 60)
    for j in range(5):
        for s in (0.5, 1.0, 3.2):
            c = radial.double_factorial_odd(j)
            t = s * rs
            jp = spherical_jn(j, t, derivative=True)
            jj = spherical_jn(j, t)
            dfds = s * c * (jp / t**j - j * jj / t ** (j + 1))
            resid = dfds / (s * s * rs) + radial.f_scaled(j + 1, s, rs) / (2 * j + 3)
            assert np.max(np.abs(resid)) < 1e-10


def test_check_ode_residuals():
    assert abs(radial.check_ode(0, 1.0, 2.0, 1e-2)) < 1e-9
    assert abs(radial.check_ode(3, 2.0, 0.5, 1e-2)) < 1e-8
    assert abs(radial.check_ode(7, 0.6, 9.0, 1e-2)) < 1e-9
    with pytest.raises(ValueError):
        radial.check_ode(1, 1.0, 0.0, 1e-2)


def test_double_factorial():
    assert radial.double_factorial_odd(0) == 1.0
    assert radial.double_factorial_odd(1) == 3.0
    assert radial.double_factorial_odd(4) == 945.0
    # one exact integer product, rounded once, at every order that fits a float
    exact = 1
    for j in range(150):
        exact *= 2 * j + 1
        assert radial.double_factorial_odd(j) == float(exact), j


@settings(max_examples=120, deadline=None)
@given(
    j=st.integers(0, 12),
    t=st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False),
)
def test_bounded_by_one(j, t):
    assert abs(float(radial.f(j, t))) <= 1.0 + 1e-12


def test_scaling_consistency():
    rs = np.linspace(0, 9, 40)
    assert np.array_equal(radial.f_scaled(3, 1.0, rs), radial.f(3, rs))
    assert np.allclose(radial.f_scaled(2, 2.0, rs), radial.f(2, 2.0 * rs))


def test_input_validation():
    with pytest.raises(ValueError):
        radial.f(-1, 1.0)
    with pytest.raises(ValueError):
        radial.f(2, -0.5)
    with pytest.raises(ValueError):
        radial.f_scaled(1, 0.0, 1.0)
    # a non-finite radius, such as an s r that overflowed, has no kernel value
    for r in (np.inf, np.nan, [1.0, np.inf]):
        with pytest.raises(ValueError, match="radius must be finite"):
            radial.f_upto(2, r)
    with pytest.raises(ValueError, match="radius must be finite"):
        radial.f(0, np.inf)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
def test_f_scaled_refuses_non_finite_s(s):
    with pytest.raises(ValueError, match="finite"):
        radial.f_scaled(1, s, 1.0)


def test_inversion_profiles_are_even_in_r():
    # the inversion sums read f_l at s r, which is even in r
    g = fieldio.synthesize("bump", 1).profile
    r = np.array([0.5, 3.0, 7.0])
    assert np.array_equal(g(-r), g(r))
