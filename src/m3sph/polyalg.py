"""Exact matrix-polynomial algebra for the invariant generators Q_0..Q_{2m}.

Everything in this module is computed over an exact scalar domain so the
defining identities of the generator family (harmonicity, the lowering
identity D Q_j = a_j Q_{j-1}, the terminating product identity, and
infinitesimal equivariance) can be decided as exact zero polynomials, not
by tolerances.

The one scalar type is GaussianRational.  The weight-basis generators have
ladder entries proportional to sqrt((m-mu)(m+mu+1)), so the exact layer
works in a rescaled, rational basis: conjugating by the constant diagonal
matrix D = diag(d_p), d_p = prod_{q<p} sqrt(n_q), makes every generator
entry Gaussian rational (see exact_generators).  Every identity above is
invariant under a constant similarity.  Only numerical evaluation and the
JSON form return to the weight basis, where entry (a, b) carries the single
factor d_a/d_b = c*sqrt(f) with c rational and f square-free.  Rationals are
fractions.Fraction, and GaussianRational only adds, subtracts and
multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as _Q
from functools import lru_cache

import numpy as np

from .errors import CapabilityError

# exact mode is capped: the cost of build_Q and of the exact identity checks
# grows steeply with m, and m <= 4 keeps them to seconds
M_MAX_EXACT = 4

Monomial = tuple[int, int, int]


def rational(num, den=1):
    """The exact rational num/den."""
    return _Q(num, den)


def _square_free(n: int) -> tuple[int, int]:
    """Decompose n = a^2 * d with d square-free; returns (a, d)."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    a, d = 1, 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        a *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return a, d * n


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is _Q else _Q(re)
        self.im = im if type(im) is _Q else _Q(im)

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return GaussianRational(self.re * other, self.im * other)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re}+{self.im}i)"


_GR_ZERO = GaussianRational()
_GR_ONE = GaussianRational(1)

ExactMatrix = tuple  # tuple of row tuples of GaussianRational, in the rational basis


def _mat_eye(dim: int) -> ExactMatrix:
    return tuple(
        tuple(_GR_ONE if i == j else _GR_ZERO for j in range(dim)) for i in range(dim)
    )


def _mat_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return tuple(
        tuple(y if x.is_zero() else x if y.is_zero() else x + y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def _mat_neg(a: ExactMatrix) -> ExactMatrix:
    return tuple(tuple(-x for x in row) for row in a)


def _mat_scale(a: ExactMatrix, s) -> ExactMatrix:
    return tuple(tuple(x if x.is_zero() else x * s for x in row) for row in a)


def _mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    # zero entries are skipped: only the nonzero (index, entry) pairs of each
    # column of b meet the nonzero entries of each row of a
    cols = [[(k, y) for k, y in enumerate(cb) if not y.is_zero()] for cb in zip(*b)]
    rows = []
    for ra in a:
        nz = {k: x for k, x in enumerate(ra) if not x.is_zero()}
        row = []
        for cb in cols:
            acc = None
            for k, y in cb:
                x = nz.get(k)
                if x is not None:
                    acc = x * y if acc is None else acc + x * y
            row.append(_GR_ZERO if acc is None else acc)
        rows.append(tuple(row))
    return tuple(rows)


def _mat_is_zero(a: ExactMatrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


@lru_cache(maxsize=None)
def _weight_factors(dim: int) -> tuple:
    """The factor d_a/d_b of every entry (a, b) as a pair (c, f) standing for
    c*sqrt(f), with c rational and f square-free.  d_a/d_b is sqrt(N) below
    the diagonal and 1/sqrt(N) above it, N the product of n_q over
    min(a, b) <= q < max(a, b)."""
    m = (dim - 1) // 2
    n = [(m - mu) * (m + mu + 1) for mu in range(-m, m)]
    rows = []
    for a in range(dim):
        row = []
        for b in range(dim):
            s, f = _square_free(math.prod(n[min(a, b):max(a, b)]))
            row.append((_Q(s) if a >= b else _Q(1, s * f), f))
        rows.append(tuple(row))
    return tuple(rows)


def _weight_basis(a: ExactMatrix) -> list:
    """The weight-basis entries of D a D^-1, each as a pair (g, f) standing
    for g*sqrt(f), with g Gaussian rational and f square-free."""
    return [
        [(x * c, f) for x, (c, f) in zip(row, frow)]
        for row, frow in zip(a, _weight_factors(len(a)))
    ]


@dataclass(frozen=True)
class MatPoly:
    """Matrix-valued polynomial in three variables with exact coefficients.

    ``terms`` maps a monomial exponent triple to a dim x dim ExactMatrix.
    Zero matrices are never stored, so the zero polynomial has no terms.
    """

    dim: int
    terms: dict

    # -- constructors --------------------------------------------------
    @staticmethod
    def zero(dim: int) -> "MatPoly":
        return MatPoly(dim, {})

    @staticmethod
    def identity(dim: int) -> "MatPoly":
        return MatPoly(dim, {(0, 0, 0): _mat_eye(dim)})

    @staticmethod
    def constant(mat: ExactMatrix) -> "MatPoly":
        if _mat_is_zero(mat):
            return MatPoly(len(mat), {})
        return MatPoly(len(mat), {(0, 0, 0): mat})

    @staticmethod
    def linear(mats) -> "MatPoly":
        """sum_i x_i * mats[i]."""
        dim = len(mats[0])
        terms = {}
        for i, mat in enumerate(mats):
            if not _mat_is_zero(mat):
                e = [0, 0, 0]
                e[i] = 1
                terms[tuple(e)] = mat
        return MatPoly(dim, terms)

    # -- ring operations -----------------------------------------------
    def __add__(self, other: "MatPoly") -> "MatPoly":
        out = dict(self.terms)
        for e, mat in other.terms.items():
            cur = out.get(e)
            s = mat if cur is None else _mat_add(cur, mat)
            if _mat_is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MatPoly(self.dim, out)

    def __sub__(self, other: "MatPoly") -> "MatPoly":
        return self + (-other)

    def __neg__(self) -> "MatPoly":
        return MatPoly(self.dim, {e: _mat_neg(m) for e, m in self.terms.items()})

    def __matmul__(self, other: "MatPoly") -> "MatPoly":
        out = {}
        for e1, m1 in self.terms.items():
            for e2, m2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                prod = _mat_mul(m1, m2)
                cur = out.get(e)
                s = prod if cur is None else _mat_add(cur, prod)
                out[e] = s
        return MatPoly(self.dim, {e: m for e, m in out.items() if not _mat_is_zero(m)})

    def scale(self, s) -> "MatPoly":
        """Multiply by a scalar (rational or GaussianRational)."""
        zero = s.is_zero() if isinstance(s, GaussianRational) else s == 0
        if zero:
            return MatPoly.zero(self.dim)
        out = {e: _mat_scale(m, s) for e, m in self.terms.items()}
        return MatPoly(self.dim, {e: m for e, m in out.items() if not _mat_is_zero(m)})

    def mul_monomial(self, mono: Monomial, coeff=1) -> "MatPoly":
        """Multiply by coeff * x^mono."""
        out = {}
        for e, m in self.terms.items():
            key = (e[0] + mono[0], e[1] + mono[1], e[2] + mono[2])
            s = _mat_scale(m, coeff) if coeff != 1 else m
            cur = out.get(key)
            out[key] = s if cur is None else _mat_add(cur, s)
        return MatPoly(self.dim, {e: m for e, m in out.items() if not _mat_is_zero(m)})

    def mul_r2(self) -> "MatPoly":
        """Multiply by |x|^2 = x1^2 + x2^2 + x3^2."""
        return (
            self.mul_monomial((2, 0, 0))
            + self.mul_monomial((0, 2, 0))
            + self.mul_monomial((0, 0, 2))
        )

    # -- calculus ------------------------------------------------------
    def diff(self, axis: int) -> "MatPoly":
        out = {}
        for e, m in self.terms.items():
            if e[axis] == 0:
                continue
            ne = list(e)
            ne[axis] -= 1
            scaled = _mat_scale(m, e[axis])
            key = tuple(ne)
            cur = out.get(key)
            out[key] = scaled if cur is None else _mat_add(cur, scaled)
        return MatPoly(self.dim, {e: m for e, m in out.items() if not _mat_is_zero(m)})

    # -- queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, j: int) -> bool:
        return all(sum(e) == j for e in self.terms)

    def __eq__(self, other):
        return self.dim == other.dim and self.terms == other.terms

    def eval(self, x) -> np.ndarray:
        """Numerical evaluation in the weight basis; exact-to-float
        conversion happens last."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for e, m in self.terms.items():
            mat = np.array(
                [
                    [complex(0) + complex(g) * math.sqrt(f) for g, f in row]
                    for row in _weight_basis(m)
                ],
                dtype=np.complex128,
            )
            out += (x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]) * mat
        return out

    def to_json_obj(self):
        """JSON form in the weight basis: one record per monomial; each
        matrix entry is a list of [re, im, radicand] term triples (rationals
        as strings), with one triple for a nonzero entry and none for zero."""
        records = []
        for e in sorted(self.terms):
            mat = self.terms[e]
            records.append(
                {
                    "exponents": list(e),
                    "matrix": [
                        [
                            [] if g.is_zero() else [[str(g.re), str(g.im), f]]
                            for g, f in row
                        ]
                        for row in _weight_basis(mat)
                    ],
                }
            )
        return records


def _check_m(m: int):
    if m < 0 or m != int(m):
        raise ValueError("m must be a non-negative integer")
    if m > M_MAX_EXACT:
        raise CapabilityError(
            f"exact mode supports m <= {M_MAX_EXACT} (requested m={m}); "
            "use the numeric construction for larger types"
        )


def exact_generators(m: int):
    """Exact generators of the type-m irrep in the rational basis.

    Returns D^-1 A_i D for the weight-basis generators (A_1, A_2, A_3),
    where D = diag(d_p), d_p = prod_{q<p} sqrt(n_q) and
    n_q = (m - mu_q)(m + mu_q + 1).  A_1 = diag(i*mu) is unchanged; the
    ladder entries become 1/2 below the diagonal and +-n_q/2 above it
    (times i for A_2), so every entry is a GaussianRational.  For the
    weight-basis values, evaluate MatPoly.constant(g) (MatPoly.eval and
    MatPoly.to_json_obj both undo the similarity).
    """
    _check_m(m)
    d = 2 * m + 1
    half = _Q(1, 2)
    a1 = [[_GR_ZERO] * d for _ in range(d)]
    a2 = [[_GR_ZERO] * d for _ in range(d)]
    a3 = [[_GR_ZERO] * d for _ in range(d)]
    for p in range(d):
        mu = p - m
        if mu:
            a1[p][p] = GaussianRational(0, mu)
    for p in range(d - 1):
        mu = p - m
        n = (m - mu) * (m + mu + 1)
        # A_2 = i Jx: (i/2) sqrt(n) on both ladder entries -> i/2 below, i n/2 above
        # A_3 = i Jy: +(1/2) sqrt(n) below, -(1/2) sqrt(n) above -> 1/2 below, -n/2 above
        a2[p + 1][p] = GaussianRational(0, half)
        a2[p][p + 1] = GaussianRational(0, half * n)
        a3[p + 1][p] = GaussianRational(half)
        a3[p][p + 1] = GaussianRational(-half * n)
    return (
        tuple(tuple(r) for r in a1),
        tuple(tuple(r) for r in a2),
        tuple(tuple(r) for r in a3),
    )


@dataclass(frozen=True)
class CoeffTable:
    """The lowering scalars a_1..a_{2m} and the Casimir constant c = -m(m+1)."""

    m: int
    a: tuple
    c: object

    def as_floats(self) -> np.ndarray:
        return np.array([float(x) for x in self.a], dtype=np.float64)


def coeff_table(m: int) -> CoeffTable:
    """Closed-form lowering coefficients: a_1 = c and
    a_{k+1} = ((k+1)^2/(2k+1)) * (c + (k^2+2k)/4)."""
    if m < 0 or m != int(m):
        raise ValueError("m must be a non-negative integer")
    c = _Q(-m * (m + 1))
    a = []
    if m > 0:
        a.append(c)
        for k in range(1, 2 * m):
            a.append(_Q((k + 1) ** 2, 2 * k + 1) * (c + _Q(k * k + 2 * k, 4)))
    return CoeffTable(m=m, a=tuple(a), c=c)


def laplacian(P: MatPoly) -> MatPoly:
    """sum_i d^2 P / dx_i^2, exact."""
    out = MatPoly.zero(P.dim)
    for i in range(3):
        out = out + P.diff(i).diff(i)
    return out


def apply_dtau_op(gens, P: MatPoly) -> MatPoly:
    """The invariant operator sum_i A_i * dP/dx_i (left multiplication)."""
    dim = P.dim
    out = MatPoly.zero(dim)
    for i in range(3):
        out = out + (MatPoly.constant(gens[i]) @ P.diff(i))
    return out


def build_Q(m: int) -> list[MatPoly]:
    """The generator family Q_0..Q_{2m} by the lowering recursion
    Q_{j+1} = Q_1 Q_j - (r^2 a_j / (2j+1)) Q_{j-1}."""
    _check_m(m)
    gens = exact_generators(m)
    table = coeff_table(m)
    d = 2 * m + 1
    qs = [MatPoly.identity(d)]
    if m == 0:
        return qs
    qs.append(MatPoly.linear(gens))
    for j in range(1, 2 * m):
        coeff = table.a[j - 1] / (2 * j + 1)  # a_j / (2j+1)
        qs.append((qs[1] @ qs[j]) - qs[j - 1].mul_r2().scale(coeff))
    return qs


def vector_field_derivative(P: MatPoly, i: int) -> MatPoly:
    """Directional derivative of P along the linear field x -> Y_i x,
    where Y_i is the real 3x3 generator of rotations about axis i."""
    # hard-coded integer entries of the three rotation generators
    from .so3rep import SO3_GENERATORS

    y = SO3_GENERATORS[i]
    out = MatPoly.zero(P.dim)
    for a in range(3):
        da = P.diff(a)
        if da.is_zero():
            continue
        for b in range(3):
            c = int(y[a, b])
            if c:
                mono = [0, 0, 0]
                mono[b] = 1
                out = out + da.mul_monomial(tuple(mono), c)
    return out


def equivariance_defect(gens, P: MatPoly, i: int) -> MatPoly:
    """[A_i, P(x)] - dP(x)[Y_i x]; the zero polynomial iff P is equivariant
    at the infinitesimal level for axis i."""
    gi = MatPoly.constant(gens[i])
    bracket = (gi @ P) - (P @ gi)
    return bracket - vector_field_derivative(P, i)


def expand_in_q1_powers(qs: list[MatPoly], j: int) -> list:
    """Express Q_j as the monic polynomial Q_1^j + sum_k b_k r^{2k} Q_1^{j-2k}.

    The coefficients follow the recursion of build_Q with scalars in place
    of polynomials: b^{(0)} = b^{(1)} = [1] and
    b^{(l+1)}_k = b^{(l)}_k - (a_l / (2l+1)) b^{(l-1)}_{k-1}.
    Returns the rationals [1, b_1, b_2, ...] after rebuilding Q_j from the
    powers of Q_1 and checking that the difference is the zero polynomial;
    raises ValueError otherwise, also for a Q_j that is some other monic
    polynomial in Q_1 and r^2.
    """
    m = (len(qs) - 1) // 2
    a = coeff_table(m).a
    prev, coeffs = [_Q(1)], [_Q(1)]  # b^{(0)}, b^{(1)}
    for l in range(1, j):
        c = a[l - 1] / (2 * l + 1)
        nxt = coeffs + [_Q(0)] * (l % 2)  # b^{(l+1)} gains a term when l+1 is even
        for k in range(1, len(nxt)):
            nxt[k] -= c * prev[k - 1]
        prev, coeffs = coeffs, nxt
    # verify the full polynomial identity exactly
    dim = 2 * m + 1
    recon = MatPoly.zero(dim)
    q1p = MatPoly.identity(dim)
    q1_powers = [q1p]
    for _ in range(j):
        q1p = q1p @ qs[1]
        q1_powers.append(q1p)
    for k, b in enumerate(coeffs):
        term = q1_powers[j - 2 * k].scale(b)
        for _ in range(k):
            term = term.mul_r2()
        recon = recon + term
    if not (recon - qs[j]).is_zero():
        raise ValueError(f"Q_{j} does not re-expand over powers of Q_1")
    return coeffs
