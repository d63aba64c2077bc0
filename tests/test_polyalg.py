import math
from fractions import Fraction

import numpy as np
import pytest

from m3sph import polyalg
from m3sph._kernels import axis_diagonals, q_series
from m3sph.checks import run_checks
from m3sph.errors import CapabilityError, ConsistencyError
from m3sph.polyalg import (
    MatPoly,
    build_Q,
    coeff_table,
    exact_generators,
    rational,
)
from m3sph.so3rep import SO3_GENERATORS, Rotation, build_irrep, tau


def _dense_matmul(p: MatPoly, q: MatPoly) -> MatPoly:
    """The general product p q, one object-array product per pair of
    monomials: the reference the banded generator products are checked
    against, terms in first-seen order over p's then q's terms."""
    out = {}
    for e1, n1 in p.terms.items():
        for e2, n2 in q.terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out[e] + n1 @ n2 if e in out else n1 @ n2
    return polyalg._reduced(p.dim, out, p.den * q.den)


def _pairwise_sum(*parts) -> MatPoly:
    """sum_k c_k y^(e_k) P_k of parts (c_k, e_k, P_k) the pairwise way, the
    reference for the one-pass polyalg._lincomb: each part scaled and
    shifted on its own and reduced, then added to the running sum one at a
    time over the lcm of the two denominators, with a reduce at every step.
    A monomial that cancels in a running sum and comes back in a later part
    moves to the end."""
    dim = parts[0][2].dim
    acc = MatPoly.zero(dim)
    for c, e, P in parts:
        c = Fraction(c)
        shifted = {(t[0] + e[0], t[1] + e[1], t[2] + e[2]): c.numerator * n for t, n in P.terms.items()}
        term = polyalg._reduced(dim, shifted, P.den * c.denominator)
        den = math.lcm(acc.den, term.den)
        out = {t: den // acc.den * n for t, n in acc.terms.items()}
        for t, n in term.terms.items():
            out[t] = out[t] + den // term.den * n if t in out else den // term.den * n
        acc = polyalg._reduced(dim, out, den)
    return acc


def _pairwise_r2(P: MatPoly) -> MatPoly:
    """|x|^2 P as three shifts of P joined by pairwise sums."""
    return _pairwise_sum(*[(eta, e, P) for eta, e in polyalg._R2])


def _dense_q1(m: int) -> MatPoly:
    """Q_1 = sum_i y_i B_i from the exact generators, summed pairwise."""
    return _pairwise_sum(*[(1, e, b) for b, e in zip(exact_generators(m), polyalg._UNIT)])


# ---------------------------------------------------------------------------
# exact scalar domain
# ---------------------------------------------------------------------------


def test_square_free_decomposition():
    assert polyalg._square_free(20) == (2, 5)
    assert polyalg._square_free(72) == (6, 2)
    assert polyalg._square_free(1) == (1, 1)
    assert polyalg._square_free(7) == (1, 7)


def test_scale_cancels_across_denominators():
    P = build_Q(2)[3]
    assert (P.scale(Fraction(1, 3)) + P.scale(Fraction(2, 3)) - P).is_zero()


def test_numerators_are_python_ints_over_a_coprime_denominator():
    for q in build_Q(4):
        nums = [x for n in q.terms.values() for x in n.flat]
        assert q.den > 0
        assert all(type(x) is int for x in nums)
        assert math.gcd(q.den, *nums) == 1
        assert all(n.any() for n in q.terms.values())


def test_subtraction_is_the_sum_with_the_negation(monkeypatch):
    # shared and disjoint monomials, over unequal denominators: a - b is
    # a + (-b) exactly, and negates no whole polynomial
    q = build_Q(2)
    a = q[2] + q[1].scale(Fraction(1, 3))
    b = q[2].scale(Fraction(5, 7)) + MatPoly.identity(5).scale(Fraction(2, 9))
    assert a.den != b.den and a.terms.keys() & b.terms.keys() and b.terms.keys() - a.terms.keys()
    expected = [(x, y, x + (-y)) for x, y in [(a, b), (b, a), (a, a), (a, MatPoly.zero(5))]]
    negations = []
    neg = MatPoly.__neg__
    monkeypatch.setattr(MatPoly, "__neg__", lambda p: negations.append(None) or neg(p))
    for x, y, ref in expected:
        assert x - y == ref
    assert (a - a).is_zero()
    assert not negations


def test_numerators_above_int64_stay_exact():
    eye = MatPoly.identity(3)
    assert eye.scale(2**70).scale(Fraction(1, 2**70)) == eye


def test_polyalg_suite_counts():
    suite = next(s for s in run_checks(ms=[0, 1, 2, 3, 4], seed=0)["suites"] if s["suite"] == "polyalg")
    assert suite["cases"] == 255
    assert suite["pass"] is True
    assert suite["failures"] == []


# ---------------------------------------------------------------------------
# coefficient table
# ---------------------------------------------------------------------------


def test_coeff_table_values():
    t1 = coeff_table(1)
    assert [str(a) for a in t1.a] == ["-2", "-5/3"]
    assert str(t1.c) == "-2"
    t2 = coeff_table(2)
    assert [str(a) for a in t2.a] == ["-6", "-7", "-36/5", "-36/7"]
    for m in range(27):
        t = coeff_table(m)
        assert t.c == rational(-m * (m + 1))
        if m:
            assert t.a[0] == t.c
        # closed-form recursion restated directly
        for k in range(1, 2 * m):
            expected = rational((k + 1) ** 2, 2 * k + 1) * (t.c + rational(k * k + 2 * k, 4))
            assert t.a[k] == expected


# ---------------------------------------------------------------------------
# the s = 1 eigenvectors and the axis diagonals
# ---------------------------------------------------------------------------


def test_unit_eigvec_values():
    # solved by hand from the 3x3 shifted systems
    assert [str(x) for x in polyalg.unit_eigvec(1, 0)] == ["1", "0", "-1/5"]
    assert [str(x) for x in polyalg.unit_eigvec(1, 1)] == ["1", "-1/2", "1/10"]
    assert [str(x) for x in polyalg.unit_eigvec(1, -1)] == ["1", "1/2", "1/10"]
    assert polyalg.unit_eigvec(0, 0) == (1,)
    with pytest.raises(ValueError):
        polyalg.unit_eigvec(1, 2)


def _unit_eigvec_recurrence(m, j):
    """The s = 1 vector by its own three-term recurrence, rows 0..2m-1 of
    (M - j) u = 0 from u_0 = 1, with row 2m asserted: the reference for
    unit_eigvec, which reads u_l = r_l(j) / (a_1 ... a_l) off e1_diagonals."""
    a = polyalg.coeff_table(m).a
    u = [Fraction(1)]
    if m == 0:
        return tuple(u)
    u.append(Fraction(j) / a[0])
    for l in range(1, 2 * m):
        u.append((j * u[l] + u[l - 1] / (2 * l + 1)) / a[l])
    assert -u[2 * m - 1] / (4 * m + 1) == j * u[2 * m]
    return tuple(u)


def test_unit_eigvec_is_the_recurrence_exactly():
    # every j at every m of the numeric range
    for m in range(27):
        for j in range(-m, m + 1):
            assert polyalg.unit_eigvec(m, j) == _unit_eigvec_recurrence(m, j)


@pytest.mark.parametrize("m, scale", [(1, Fraction(37, 10)), (4, Fraction(-1))])
def test_a_corrupted_table_fails_row_2m(monkeypatch, m, scale):
    # the e_1 diagonal of order 2m + 1 must vanish on every weight; a table
    # whose a_{2m} is scaled breaks it for every j with r_{2m-1}(j) != 0
    table = polyalg.coeff_table
    good = table(m)
    bad = polyalg.CoeffTable(m=m, a=good.a[:-1] + (good.a[-1] * scale,), c=good.c)
    monkeypatch.setattr(polyalg, "coeff_table", lambda k: bad if k == m else table(k))
    polyalg.e1_diagonals.cache_clear()
    try:
        for call in (lambda: polyalg.e1_diagonals(m), lambda: polyalg.unit_eigvec(m, 0)):
            with pytest.raises(ConsistencyError, match=f"row 2m .* m={m}, j={-m}"):
                call()
    finally:
        monkeypatch.undo()
        polyalg.e1_diagonals.cache_clear()
    assert polyalg.unit_eigvec(m, 0) == _unit_eigvec_recurrence(m, 0)


@pytest.mark.parametrize("m", range(27))
def test_lagrange_product_equals_the_recursion_exactly(m):
    for j in range(-m, m + 1):
        assert polyalg.lagrange_unit_eigvec(m, j) == polyalg.unit_eigvec(m, j)


def test_build_q_refuses_a_float_m():
    with pytest.raises(ValueError, match="m must be a non-negative integer, got 2.0"):
        build_Q(2.0)


def test_exact_vectors_take_any_integral_m_and_j():
    # no fixed-width int may enter the integer steps: the numerators pass
    # 2^63 from m = 12 (L of the Lagrange product, the prefix products);
    # an integral float is no index and is refused
    for m, j in ((3, 1), (12, 3), (26, -5)):
        assert coeff_table(np.int64(m)) == coeff_table(m)
        assert polyalg.e1_diagonals(np.int64(m)) == polyalg.e1_diagonals(m)
        assert polyalg.unit_eigvec(np.int64(m), j) == polyalg.unit_eigvec(m, j)
        exact = polyalg.lagrange_unit_eigvec(m, j)
        for mm, jj in ((np.int64(m), j), (m, np.int64(j))):
            assert polyalg.lagrange_unit_eigvec(mm, jj) == exact
        for mm, jj in ((float(m), j), (m, float(j))):
            with pytest.raises(ValueError, match="integer"):
                polyalg.lagrange_unit_eigvec(mm, jj)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_e1_diagonals_are_q_at_e1(m):
    e1 = np.array([1.0, 0.0, 0.0])
    for l, (r, q) in enumerate(zip(polyalg.e1_diagonals(m), build_Q(m))):
        exact = q.eval(e1)
        assert np.array_equal(exact, np.diag(np.diagonal(exact)))
        assert np.max(np.abs(1j**l * np.array(r, dtype=float) - np.diagonal(exact))) <= (
            1e-14 * np.max(np.abs(exact))
        )


# ---------------------------------------------------------------------------
# generators and the Q family
# ---------------------------------------------------------------------------


def test_exact_generators_match_numeric():
    # the exact generators B live in the split form and the rational basis;
    # Q_1 = sum_i y_i B_i evaluated at e_i restores A_i in the weight basis
    for m in range(5):
        q1 = MatPoly.zero(2 * m + 1)
        for i, b in enumerate(exact_generators(m)):
            q1 = q1 + b.mul_monomial(tuple(int(k == i) for k in range(3)))
        numeric = build_irrep(m).generators
        for i, g_num in enumerate(numeric):
            mat = q1.eval(np.eye(3)[i])
            assert np.allclose(mat, g_num, atol=1e-15)


def test_exact_generators_are_cached_read_only():
    gens = exact_generators(2)
    assert exact_generators(2) is gens
    assert coeff_table(2) is coeff_table(2)
    for g in gens:
        for num in g.terms.values():
            assert not num.flags.writeable
            with pytest.raises(ValueError):
                num[0, 0] = 1


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_float_terms_match_the_fraction_formula_bit_for_bit(m):
    # one integer division p/q rounds as float(Fraction) does: every entry of
    # every term of Q_0..Q_2m is float(x/den * c * sign) * sqrt(f), with the
    # weight factor c * sqrt(f) = d_a/d_b from _square_free
    d = 2 * m + 1
    n = [(m - mu) * (m + mu + 1) for mu in range(-m, m)]
    for q in build_Q(m):
        assert [e for e, _ in q._float_terms] == list(q.terms)
        for e, mat in q._float_terms:
            sign, imag = polyalg._PHASES[(e[0] + e[1]) % 4]
            want = np.empty((d, d))
            for a in range(d):
                for b in range(d):
                    c, f = polyalg._square_free(math.prod(n[min(a, b) : max(a, b)]))
                    c = Fraction(c) if a >= b else Fraction(1, c * f)
                    want[a, b] = float(Fraction(q.terms[e][a, b], q.den) * c * sign) * math.sqrt(f)
            assert (mat.imag if imag else mat.real).tobytes() == want.tobytes()


def test_exact_generators_capability_cap():
    with pytest.raises(CapabilityError):
        exact_generators(5)
    with pytest.raises(CapabilityError):
        build_Q(5)


@pytest.mark.parametrize("m", [5, 10**9])
def test_build_Q_refuses_above_the_cap_before_building(monkeypatch, m):
    # the cap is checked before the coefficient table or any matrix of type m
    def never(*args):
        raise AssertionError("built before the cap was checked")

    monkeypatch.setattr(polyalg, "coeff_table", never)
    monkeypatch.setattr(MatPoly, "identity", never)
    with pytest.raises(CapabilityError, match=f"m={m}"):
        build_Q(m)


def test_m0_generators_zero():
    assert all(g.is_zero() for g in exact_generators(0))
    assert build_Q(0)[0] == MatPoly.identity(1)


def test_exact_casimir():
    for m, expected in ((1, -2), (2, -6)):
        acc = MatPoly.zero(2 * m + 1)
        for eta, g in zip((-1, -1, 1), exact_generators(m)):
            acc = acc + _dense_matmul(g, g).scale(eta)
        assert acc == MatPoly.identity(2 * m + 1).scale(expected)


def test_laplacian_basics():
    eye_r2 = MatPoly.identity(1).mul_r2()
    assert polyalg.laplacian(eye_r2) == MatPoly.identity(1).scale(6)
    qs = build_Q(1)
    assert polyalg.laplacian(qs[1]).is_zero()
    q1sq = qs[1].mul_q1()
    q2 = q1sq + MatPoly.identity(3).mul_r2().scale(rational(2, 3))
    assert polyalg.laplacian(q2).is_zero()
    assert qs[2] == q2


def test_dtau_op_examples():
    for m in (1, 2, 3):
        qs = build_Q(m)
        table = coeff_table(m)
        assert polyalg.apply_dtau_op(qs[0]).is_zero()
        lowered = polyalg.apply_dtau_op(qs[1])
        assert lowered == MatPoly.identity(2 * m + 1).scale(rational(-m * (m + 1)))
        for j in range(1, 2 * m + 1):
            assert (polyalg.apply_dtau_op(qs[j]) - qs[j - 1].scale(table.a[j - 1])).is_zero()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_q_family_harmonic_homogeneous(m):
    qs = build_Q(m)
    for j, q in enumerate(qs):
        assert q.is_homogeneous(j)
        assert not q.is_zero()
        assert polyalg.laplacian(q).is_zero()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_terminating_product_identity(m):
    qs = build_Q(m)
    top = qs[2 * m].mul_q1() - polyalg.apply_dtau_op(qs[2 * m]).mul_r2().scale(
        rational(1, 4 * m + 1)
    )
    assert top.is_zero()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_infinitesimal_equivariance_exact(m):
    qs = build_Q(m)
    for q in qs:
        for i in range(3):
            assert polyalg.equivariance_defect(q, i).is_zero()


@pytest.mark.parametrize("m", [1, 2])
def test_equivariance_defect_detects_non_equivariant_constant(m):
    # the constant B_1 commutes with B_1 only: its defect vanishes for
    # axis 1 and not for axes 2 and 3
    P = exact_generators(m)[0]
    assert polyalg.equivariance_defect(P, 0).is_zero()
    assert not polyalg.equivariance_defect(P, 1).is_zero()
    assert not polyalg.equivariance_defect(P, 2).is_zero()


def _random_matpoly(rng, m: int, n_terms: int = 6) -> MatPoly:
    """A canonical MatPoly of type m with random integer numerators (some
    past int64) over a random denominator, of mixed degree: not
    equivariant, so its products with the generators are nonzero."""
    d = 2 * m + 1
    terms = {}
    while len(terms) < n_terms:
        e = tuple(int(k) for k in rng.integers(0, 4, size=3))
        terms[e] = rng.integers(-9, 10, size=(d, d)).astype(object) * (2**70 if len(terms) % 2 else 1)
    return polyalg._reduced(d, terms, int(rng.integers(1, 60)))


def _is_canonical(P: MatPoly) -> bool:
    nums = [x for n in P.terms.values() for x in n.flat]
    return P.den > 0 and math.gcd(P.den, *nums) == 1 and all(any(n.flat) for n in P.terms.values())


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_banded_generator_products_match_the_dense_ones(m):
    # the banded commutator, operator and product by Q_1 against the dense
    # MatPoly products, on polynomials whose results are nonzero; the terms
    # come in the same order
    rng = np.random.default_rng(40 + m)
    gens = exact_generators(m)
    q1 = _dense_q1(m)
    for _ in range(3):
        P = _random_matpoly(rng, m)
        for i in range(3):
            ref = _dense_matmul(gens[i], P) - _dense_matmul(P, gens[i])
            for a, b, k in polyalg._ROTATION_FIELDS[i]:
                ref = ref - P.diff(a).mul_monomial(polyalg._UNIT[b], k)
            out = polyalg.equivariance_defect(P, i)
            assert out == ref and list(out.terms) == list(ref.terms)
            assert _is_canonical(out) and not out.is_zero()
        ref = MatPoly.zero(2 * m + 1)
        for i in range(3):
            ref = ref + _dense_matmul(gens[i], P.diff(i)).scale(Fraction(polyalg._ETA[i]))
        out = polyalg.apply_dtau_op(P)
        assert out == ref and list(out.terms) == list(ref.terms)
        assert _is_canonical(out) and out.is_zero() == (m == 0)
        ref, out = _dense_matmul(q1, P), P.mul_q1()
        assert out == ref and list(out.terms) == list(ref.terms)
        assert _is_canonical(out) and out.is_zero() == (m == 0)


@pytest.fixture
def exact_cap_6(monkeypatch):
    """M_MAX_EXACT raised to 6; the per-m generator caches are cleared
    after, so the cap holds again for m = 5 and 6."""
    monkeypatch.setattr(polyalg, "M_MAX_EXACT", 6)
    yield
    exact_generators.cache_clear()
    polyalg._generator_bands.cache_clear()


@pytest.mark.parametrize("m", [1, 4, 5, 6])
def test_products_by_q1_match_the_dense_recursion(m, exact_cap_6):
    # build_Q and the powers of Q_1 against the dense products Q_1 P, in
    # values and in term order (the float evaluation sums terms in that order)
    q1 = _dense_q1(m)
    qs = build_Q(m)
    ref = [MatPoly.identity(2 * m + 1), q1]
    for j in range(1, 2 * m):
        coeff = coeff_table(m).a[j - 1] / (2 * j + 1)
        O = polyalg._ORIGIN
        ref.append(_pairwise_sum((1, O, _dense_matmul(q1, ref[j])), (-coeff, O, _pairwise_r2(ref[j - 1]))))
    for q, r in zip(qs, ref, strict=True):
        assert q == r and list(q.terms) == list(r.terms)
    power = q1
    for _ in range(2 * m):
        power, ref_power = power.mul_q1(), _dense_matmul(q1, power)
        assert power == ref_power and list(power.terms) == list(ref_power.terms)


def test_scale_by_plus_or_minus_one_is_canonical_and_exact():
    # the factors 1 and -1 give the result of the general path, canonical
    rng = np.random.default_rng(45)
    for m in range(5):
        P = _random_matpoly(rng, m)
        for s in (1, -1, Fraction(1), Fraction(-1)):
            out = P.scale(s)
            ref = polyalg._reduced(P.dim, {e: int(s) * n for e, n in P.terms.items()}, P.den)
            assert out == ref and _is_canonical(out)
        assert P.scale(1) == P and P.scale(-1) == -P
        assert (P + P.scale(-1)).is_zero()
        general = P.mul_monomial((1, 0, 2)).scale(Fraction(-2)).scale(Fraction(1, 2))
        assert P.mul_monomial((1, 0, 2), -1) == general


def _random_parts(rng, m: int, n_parts: int) -> list:
    """Parts (c, e, P) for _lincomb: int and Fraction factors (1 and -1
    among them), shifts (the origin among them) and random MatPolys of type
    m, some repeated so their monomials meet and cancel."""
    polys = [_random_matpoly(rng, m) for _ in range(3)]
    factors = [1, -1, 3, Fraction(-2, 7), Fraction(5, 3)]
    parts = []
    for _ in range(n_parts):
        c = factors[rng.integers(len(factors))]
        e = tuple(int(k) for k in rng.integers(0, 2, size=3))
        parts.append((c, e, polys[rng.integers(len(polys))]))
    return parts + [(-c, e, P) for c, e, P in parts[:1]]


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_one_pass_sum_is_the_pairwise_sum(m):
    # in values on random mixed-degree polynomials, canonical; one and two
    # parts (sum, difference, negation, scale, shift) also in term order
    rng = np.random.default_rng(350 + m)
    O = polyalg._ORIGIN
    for n_parts in (1, 2, 3, 5, 8):
        for _ in range(4):
            parts = _random_parts(rng, m, n_parts)
            out, ref = polyalg._lincomb(2 * m + 1, parts), _pairwise_sum(*parts)
            assert out == ref and _is_canonical(out)
    a, b = _random_matpoly(rng, m), _random_matpoly(rng, m)
    for out, ref in [
        (a + b, _pairwise_sum((1, O, a), (1, O, b))),
        (a - b, _pairwise_sum((1, O, a), (-1, O, b))),
        (-a, _pairwise_sum((-1, O, a))),
        (a.scale(Fraction(-4, 9)), _pairwise_sum((Fraction(-4, 9), O, a))),
        (a.mul_monomial((2, 0, 1), Fraction(3, 2)), _pairwise_sum((Fraction(3, 2), (2, 0, 1), a))),
        (a.mul_r2(), _pairwise_r2(a)),
        (a - a, MatPoly.zero(2 * m + 1)),
    ]:
        assert out == ref and _is_canonical(out)
        assert list(out.terms) == list(ref.terms)
    assert polyalg._lincomb(2 * m + 1, []) == MatPoly.zero(2 * m + 1)


def _same(out: MatPoly, ref: MatPoly) -> bool:
    """Equal in values and in term order."""
    return out == ref and list(out.terms) == list(ref.terms)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_diff_is_formed_once_and_is_the_fresh_derivative(m):
    # each derivative is kept on its polynomial: a second call returns the
    # same object, equal in values and term order to one formed afresh, and
    # its coefficients are those of the term-by-term derivative
    P = _random_matpoly(np.random.default_rng(90 + m), m)
    for axis in range(3):
        dP = P.diff(axis)
        assert dP is P.diff(axis)
        assert dP.diff(axis) is P.diff(axis).diff(axis)
        assert _same(dP, polyalg._derivative(P, axis))
        ref = {
            e[:axis] + (e[axis] - 1,) + e[axis + 1:]: [[Fraction(e[axis] * x, P.den) for x in row] for row in n]
            for e, n in P.terms.items()
            if e[axis]
        }
        assert {e: [[Fraction(x, dP.den) for x in row] for row in n] for e, n in dP.terms.items()} == ref


@pytest.mark.parametrize("m", range(7))
def test_one_pass_families_are_the_pairwise_ones(m, exact_cap_6):
    # every family the package builds from sums, against the pairwise
    # reference with the same banded products, in values and in term order
    # (the float evaluation sums terms in that order): the lowering operator,
    # the Laplacian, the equivariance defect, the identities of the polyalg
    # suite and the expansion in powers of Q_1
    O = polyalg._ORIGIN
    qs = build_Q(m)
    bands = polyalg._generator_bands(m)
    table = coeff_table(m)

    def banded(i, P, left=True):
        band, den = bands[i]
        prods = polyalg._band_mul(polyalg._stacked(P), band, left)
        return MatPoly(P.dim, dict(zip(P.terms, prods)), den * P.den)

    for j, q in enumerate(qs):
        dtau = polyalg.apply_dtau_op(q)
        ref = _pairwise_sum(*[(eta, O, banded(i, q.diff(i))) for i, eta in enumerate(polyalg._ETA)])
        assert _same(dtau, ref)
        lap = _pairwise_sum(*[(eta, O, q.diff(i).diff(i)) for i, eta in enumerate(polyalg._ETA)])
        assert _same(polyalg.laplacian(q), lap) and lap.is_zero()
        for i in range(3):
            comm = _pairwise_sum((1, O, banded(i, q)), (-1, O, banded(i, q, left=False)))
            fields = [(-k, polyalg._UNIT[b], q.diff(a)) for a, b, k in polyalg._ROTATION_FIELDS[i]]
            ref = _pairwise_sum((1, O, comm), *fields)
            assert _same(polyalg.equivariance_defect(q, i), ref) and ref.is_zero()
        if j:
            lowered = _pairwise_sum((1, O, dtau), (-table.a[j - 1], O, qs[j - 1]))
            assert _same(dtau - qs[j - 1].scale(table.a[j - 1]), lowered) and lowered.is_zero()
    top = qs[-1].mul_q1() - polyalg.apply_dtau_op(qs[-1]).mul_r2().scale(Fraction(1, 4 * m + 1))
    ref = _pairwise_sum(
        (1, O, qs[-1].mul_q1()), (Fraction(-1, 4 * m + 1), O, _pairwise_r2(polyalg.apply_dtau_op(qs[-1])))
    )
    assert _same(top, ref) and ref.is_zero()
    # the expansion: Q_j rebuilt the pairwise way from the coefficients and
    # the powers of Q_1 is Q_j exactly, and Q_2 + r^2 is refused
    powers = [MatPoly.identity(2 * m + 1)] + qs[1:2]
    while len(powers) < len(qs):
        powers.append(powers[-1].mul_q1())
    shifted = qs[:2] + [qs[2] + _pairwise_r2(MatPoly.identity(2 * m + 1))] + qs[3:] if m else qs
    for family in (qs, shifted):
        for j, (q, coeffs) in enumerate(zip(family, polyalg.expand_in_q1_powers(family))):
            b = coeffs or polyalg.expand_in_q1_powers(qs)[j]
            parts = [(1, O, q)]
            for k, bk in enumerate(b):
                term = powers[j - 2 * k]
                for _ in range(k):
                    term = _pairwise_r2(term)
                parts.append((-bk, O, term))
            assert _pairwise_sum(*parts).is_zero() == (coeffs is not None)
            assert (coeffs is None) == (family is shifted and j == 2)


def test_rotation_fields_are_split_form_of_so3_generators():
    # K_i = c_i S^-1 Y_i S with S = diag(i, i, 1) and c = (i, i, 1)
    S = np.diag([1j, 1j, 1])
    for i, (c, fields) in enumerate(zip((1j, 1j, 1), polyalg._ROTATION_FIELDS)):
        K = np.zeros((3, 3))
        for a, b, k in fields:
            K[a, b] = k
        assert np.array_equal(c * np.linalg.inv(S) @ SO3_GENERATORS[i] @ S, K)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_exact_q_matches_numeric_recursion(m):
    # the numeric Q_j is q_series with the e_1 diagonals r^j Q_j(e_1): the
    # axis diagonal of the recursion at e_1, rounded once, scaled and moved by the frame
    rng = np.random.default_rng(100 + m)
    xs = rng.normal(size=(5, 3))
    for j, q in enumerate(build_Q(m)):
        numeric = q_series(lambda rs, _: np.outer(rs**j, axis_diagonals(m)[j]), xs)
        exact = q.eval(xs)
        for p in range(len(xs)):
            assert np.max(np.abs(exact[p] - numeric[p])) <= 1e-12 * np.max(np.abs(numeric[p]))


def test_finite_rotation_equivariance_numeric():
    rng = np.random.default_rng(0)
    for m in (1, 2):
        rep = build_irrep(m)
        qs = build_Q(m)
        for _ in range(10):
            k = Rotation.random(rng)
            x = rng.normal(size=3)
            tk = tau(rep, k)
            for j, q in enumerate(qs):
                lhs = q.eval(k.apply(x))
                rhs = tk @ q.eval(x) @ tk.conj().T
                assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + np.linalg.norm(x)) ** (2 * m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_expand_in_q1_powers(m, monkeypatch):
    qs = build_Q(m)
    products = []
    mul_q1 = MatPoly.mul_q1
    monkeypatch.setattr(MatPoly, "mul_q1", lambda p: products.append(None) or mul_q1(p))
    expansions = polyalg.expand_in_q1_powers(qs)
    monkeypatch.undo()
    # one pass: Q_1^2..Q_1^{2m}, each from the one before (Q_1^0 = I and
    # Q_1^1 = Q_1 need none)
    assert len(products) == 2 * m - 1
    assert len(expansions) == 2 * m + 1
    for j, coeffs in enumerate(expansions):
        assert coeffs[0] == 1
        assert len(coeffs) == j // 2 + 1
    # a different monic polynomial in Q_1 and r^2 is refused, the rest of
    # the family still expands
    shifted = list(qs)
    shifted[2] = qs[2] + MatPoly.identity(2 * m + 1).mul_r2()
    refused = polyalg.expand_in_q1_powers(shifted)
    assert refused[2] is None
    assert refused[:2] + refused[3:] == expansions[:2] + expansions[3:]
    # m=1: Q_2 = Q_1^2 + (2/3) r^2
    assert polyalg.expand_in_q1_powers(build_Q(1))[2] == [rational(1), rational(2, 3)]
    assert polyalg.expand_in_q1_powers(build_Q(2))[4] == [
        rational(1), rational(31, 7), rational(72, 35)
    ]
    assert polyalg.expand_in_q1_powers(build_Q(3))[6] == [
        rational(1), rational(145, 11), rational(434, 11), rational(1200, 77)
    ]


def test_eval_examples():
    qs = build_Q(1)
    e1 = [1.0, 0.0, 0.0]
    assert np.allclose(qs[0].eval(e1), np.eye(3))
    assert np.allclose(qs[1].eval(e1), np.diag([-1j, 0, 1j]))
    assert np.allclose(qs[2].eval(e1), np.diag([-1 / 3, 2 / 3, -1 / 3]))


def test_matpoly_json_form():
    qs = build_Q(1)
    obj = qs[1].to_json_obj()
    assert {tuple(rec["exponents"]) for rec in obj} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    rec = next(r for r in obj if r["exponents"] == [1, 0, 0])
    # diagonal of the x_1 matrix is i*(-1, 0, 1): single rational terms
    assert rec["matrix"][0][0] == [["0", "-1", 1]]
    assert rec["matrix"][1][1] == []
    assert rec["matrix"][2][2] == [["0", "1", 1]]
