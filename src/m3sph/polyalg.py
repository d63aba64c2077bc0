"""Exact matrix-polynomial algebra for the invariant generators Q_0..Q_{2m}.

Everything in this module is computed over an exact scalar domain so the
defining identities of the generator family (harmonicity, the lowering
identity D Q_j = a_j Q_{j-1}, the terminating product identity, and
infinitesimal equivariance) can be decided as exact zero polynomials, not
by tolerances.  The module also holds the exact vectors the numeric layer
rounds once: the diagonals of Q_l(e_1) (e1_diagonals, one scalar
recursion, cached per m) and the s = 1 coefficients of the spherical
functions.  Construction 1's are read off those diagonals,
u_l(j) = r_l(j) / (a_1 ... a_l) (unit_eigvec); construction 3's come from
the Lagrange product (lagrange_unit_eigvec).  The lowering scalars a_l are
a closed form (coeff_table).

Every coefficient is a real rational in the split form.  A MatPoly holds
them as Python int numerators over one common denominator, and the
generators B_i (exact_generators) are built once per m in that form, as
are the e_1 diagonals and the Lagrange product.  Fraction only builds
the values those functions return and the strings of the JSON form;
expand_in_q1_powers' few scalar coefficients are the one recursion left
in it.  Each B_i is diagonal or tridiagonal (the ladder structure),
so a product by it is at most three shifted elementwise products of P's
stacked numerators (_band_mul), O(d^2) per term.  Every product the layer
makes has a generator as its left factor: Q_1 P = sum_i B_i (y_i P)
(MatPoly.mul_q1, which serves build_Q, the powers of Q_1 and the
terminating product) and D_tau P = sum_i B_i (eta_i dP/dy_i)
(apply_dtau_op) are one generator sum (_left_generators), and
equivariance_defect forms the commutator [B_i, P].  Two changes of
coordinates make the coefficients real rationals, and every identity
above is invariant under both.

* A rescaled, rational basis.  The weight-basis generators have ladder
  entries proportional to sqrt((m-mu)(m+mu+1)); conjugating by the
  constant diagonal matrix D = diag(d_p), d_p = prod_{q<p} sqrt(n_q),
  removes the square roots.
* The split real form so(2,1) of so(3)_C (Weyl's unitary trick).
  Polynomials are held in y = (-i x_1, -i x_2, x_3), so x^e = i^(e1+e2) y^e.
  In y the generators are B = (i A_1, i A_2, A_3), whose entries are real
  rationals, and the metric |x|^2 becomes sum_i eta_i y_i^2 with
  eta = (-1, -1, 1).

Only numerical evaluation and the JSON form return to x and the weight
basis (see _weight_basis): the x^e coefficient is (-i)^(e1+e2) times the
y^e coefficient, and its entry (a, b) carries the factor d_a/d_b =
(p/q)*sqrt(f), with p, q integers and f square-free.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction as _Q
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .errors import CapabilityError, ConsistencyError
from .so3rep import check_type_index, check_weight_index

# exact mode is capped: the cost of build_Q and of the exact identity checks
# grows steeply with m, and m <= 4 keeps them to seconds
M_MAX_EXACT = 4

Monomial = tuple[int, int, int]

# the split-form metric: |x|^2 = sum_i eta_i y_i^2
_ETA = (-1, -1, 1)

# the exponents of y_1, y_2, y_3
_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# K_i = c_i S^-1 Y_i S, the rotation field x -> Y_i x of so3rep.SO3_GENERATORS
# written in y (x = S y, S = diag(i, i, 1)) and scaled by c = (i, i, 1) so it
# is real; each K_i as its nonzero entries (a, b, K_i[a, b])
_ROTATION_FIELDS = (
    ((1, 2, 1), (2, 1, 1)),
    ((0, 2, -1), (2, 0, -1)),
    ((0, 1, 1), (1, 0, -1)),
)

# (-i)^k = sign * (i if imag else 1) as (sign, imag) for k = 0..3: the x^e
# coefficient is (-i)^(e1+e2) R_e
_PHASES = ((1, False), (-1, True), (-1, False), (1, True))


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


@lru_cache(maxsize=None)
def _weight_factors(dim: int) -> tuple:
    """The factor d_a/d_b of every entry (a, b) as an integer triple
    (p, q, f) standing for (p/q)*sqrt(f), with f square-free.  d_a/d_b is
    sqrt(N) below the diagonal and 1/sqrt(N) above it, N the product of n_q
    over min(a, b) <= q < max(a, b)."""
    m = (dim - 1) // 2
    n = [(m - mu) * (m + mu + 1) for mu in range(-m, m)]
    rows = []
    for a in range(dim):
        row = []
        for b in range(dim):
            s, f = _square_free(math.prod(n[min(a, b):max(a, b)]))
            row.append((s, 1, f) if a >= b else (1, s * f, f))
        rows.append(tuple(row))
    return tuple(rows)


def _weight_basis(e: Monomial, num: np.ndarray, den: int) -> tuple[bool, list]:
    """The x^e coefficient (-i)^(e1+e2) D (num/den) D^-1 of the term
    (num/den) * y^e as (imag, rows): the coefficient is i*rows if imag, else
    rows, and each entry of rows is an integer triple (p, q, f) standing for
    (p/q)*sqrt(f), with q > 0 and f square-free (p = 0 for a zero entry)."""
    sign, imag = _PHASES[(e[0] + e[1]) % 4]
    return imag, [
        [(x * p * sign, den * q, f) for x, (p, q, f) in zip(row, frow)]
        for row, frow in zip(num, _weight_factors(len(num)))
    ]


def _reduced(dim: int, terms: dict, den: int) -> "MatPoly":
    """The canonical MatPoly sum_e terms[e] y^e / den: all-zero matrices are
    dropped and den is divided by its gcd with every numerator.  The zero
    test is any() over the flat iterator, which stops at the first nonzero
    entry (ndarray.any on an object array visits every entry)."""
    terms = {e: n for e, n in terms.items() if any(n.flat)}
    g = den
    for n in terms.values():
        if g == 1:
            break
        g = math.gcd(g, *n.flat)
    if g > 1:
        terms = {e: n // g for e, n in terms.items()}
    return MatPoly(dim, terms, den // g)


@dataclass(frozen=True)
class MatPoly:
    """Matrix-valued polynomial in the split-form variables y with real
    rational coefficients, held as integers over one common denominator.

    ``terms`` maps a monomial exponent triple e (of y^e) to a dim x dim
    numpy object array of Python int numerators in the rational basis, and
    the coefficient of y^e is terms[e] / den.  The form is canonical: no
    all-zero matrix is stored, den > 0 and gcd(den, every numerator) = 1.
    So the zero polynomial has no terms, and two polynomials are equal iff
    their dens and numerator arrays are.  ``eval`` and ``to_json_obj``
    give the polynomial in x and the weight basis.

    Numerator arrays are never written in place, so results share them
    freely: a factor of 1 (in ``__add__``'s common denominator, ``scale``
    and ``mul_monomial``) passes the arrays on, and a factor of -1 negates
    them with no gcd pass, as the canonical form is kept by both.
    """

    dim: int
    terms: dict
    den: int = 1

    # -- constructors --------------------------------------------------
    @staticmethod
    def zero(dim: int) -> "MatPoly":
        return MatPoly(dim, {})

    @staticmethod
    def identity(dim: int) -> "MatPoly":
        return MatPoly(dim, {(0, 0, 0): np.identity(dim, dtype=object)})

    # -- ring operations -----------------------------------------------
    def __add__(self, other: "MatPoly") -> "MatPoly":
        return self._signed_add(other, False)

    def __sub__(self, other: "MatPoly") -> "MatPoly":
        return self._signed_add(other, True)

    def _signed_add(self, other: "MatPoly", minus: bool) -> "MatPoly":
        """self + other, or self - other with ``minus``: other's terms are
        subtracted where self has the monomial and negated only where it
        does not, over the lcm of the denominators."""
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = dict(self.terms) if a == 1 else {e: a * n for e, n in self.terms.items()}
        for e, n in other.terms.items():
            if b != 1:
                n = b * n
            if e in out:
                out[e] = out[e] - n if minus else out[e] + n
            else:
                out[e] = -n if minus else n
        return _reduced(self.dim, out, den)

    def __neg__(self) -> "MatPoly":
        return MatPoly(self.dim, {e: -n for e, n in self.terms.items()}, self.den)

    def scale(self, s) -> "MatPoly":
        """Multiply by a rational scalar (a Fraction or an int)."""
        p, q = s.numerator, s.denominator
        if q == 1 and p == 1:
            return self
        if q == 1 and p == -1:
            return -self
        return _reduced(self.dim, {e: p * n for e, n in self.terms.items()}, self.den * q)

    def mul_monomial(self, mono: Monomial, coeff=1) -> "MatPoly":
        """Multiply by coeff * y^mono."""
        out = self.scale(coeff)
        return MatPoly(
            self.dim,
            {(e[0] + mono[0], e[1] + mono[1], e[2] + mono[2]): n for e, n in out.terms.items()},
            out.den,
        )

    def mul_r2(self) -> "MatPoly":
        """Multiply by |x|^2 = -y1^2 - y2^2 + y3^2."""
        return (
            self.mul_monomial((2, 0, 0), _ETA[0])
            + self.mul_monomial((0, 2, 0), _ETA[1])
            + self.mul_monomial((0, 0, 2), _ETA[2])
        )

    def mul_q1(self) -> "MatPoly":
        """Multiply by Q_1 = sum_i y_i B_i from the left (_left_generators),
        with the terms in the order of the dense product Q_1 P."""
        return _left_generators([self.mul_monomial(e) for e in _UNIT])

    # -- calculus ------------------------------------------------------
    def diff(self, axis: int) -> "MatPoly":
        """d/dy_axis."""
        out = {
            e[:axis] + (e[axis] - 1,) + e[axis + 1 :]: n if e[axis] == 1 else e[axis] * n
            for e, n in self.terms.items()
            if e[axis]
        }
        return _reduced(self.dim, out, self.den)

    # -- queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, j: int) -> bool:
        return all(sum(e) == j for e in self.terms)

    def __eq__(self, other):
        return (
            self.dim == other.dim
            and self.den == other.den
            and self.terms.keys() == other.terms.keys()
            and all(np.array_equal(n, other.terms[e]) for e, n in self.terms.items())
        )

    @cached_property
    def _float_terms(self) -> list:
        """(e, the x^e coefficient in the weight basis rounded once) per term."""
        out = []
        for e, n in self.terms.items():
            imag, rows = _weight_basis(e, n, self.den)
            # one correctly rounded integer division per entry, as float(Fraction(p, q))
            mat = np.array([[p / q * math.sqrt(f) for p, q, f in row] for row in rows])
            out.append((e, 1j * mat if imag else mat))
        return out

    def eval(self, x) -> np.ndarray:
        """Numerical evaluation in the weight basis (_float_terms) at a point
        x, (d, d), or at each of a batch of points, (..., 3) -> (..., d, d)."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim), dtype=np.complex128)
        for e, mat in self._float_terms:
            mono = x[..., 0] ** e[0] * x[..., 1] ** e[1] * x[..., 2] ** e[2]
            out += mono[..., None, None] * mat
        return out

    def eval_abs(self, x) -> np.ndarray:
        """sum_e |M_e| |x^e| with the terms of ``eval``, at a point (d, d) or
        at a batch (..., 3) -> (..., d, d): the scale of eval's rounding."""
        x = np.abs(np.asarray(x, dtype=np.float64))
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        for e, mat in self._float_terms:
            mono = x[..., 0] ** e[0] * x[..., 1] ** e[1] * x[..., 2] ** e[2]
            out += mono[..., None, None] * np.abs(mat)
        return out

    def to_json_obj(self):
        """JSON form in x and the weight basis: one record per monomial;
        each matrix entry is a list of [re, im, radicand] term triples
        (rationals as strings), with one triple for a nonzero entry and
        none for zero."""
        records = []
        for e in sorted(self.terms):
            imag, rows = _weight_basis(e, self.terms[e], self.den)
            cell = (lambda v, f: ["0", v, f]) if imag else (lambda v, f: [v, "0", f])
            matrix = [[[cell(str(_Q(p, q)), f)] if p else [] for p, q, f in row] for row in rows]
            records.append({"exponents": list(e), "matrix": matrix})
        return records


def _check_m(m: int):
    check_type_index(m)
    if m > M_MAX_EXACT:
        raise CapabilityError(
            f"exact mode supports m <= {M_MAX_EXACT} (requested m={m}); "
            "use the numeric construction for larger types"
        )


@lru_cache(maxsize=None)
def exact_generators(m: int) -> tuple:
    """Exact generators B = (i A_1, i A_2, A_3) of the type-m irrep in the
    split form and the rational basis, as constant MatPolys.

    (A_1, A_2, A_3) are the weight-basis generators carried to the rational
    basis, D^-1 A_i D with D = diag(d_p), d_p = prod_{q<p} sqrt(n_q) and
    n_q = (m - mu_q)(m + mu_q + 1).  So Q_1 = sum_i x_i A_i = sum_i y_i B_i.
    B_1 = diag(-mu); the ladder entries of B_2 are -1/2 below the diagonal
    and -n_q/2 above it, and those of B_3 are 1/2 below and -n_q/2 above.
    Every entry is a real rational, and twice every entry is an integer, so
    each B_i is built from those integers over the denominator 2.
    (sum_i y_i B_i).eval(e_i) is the weight-basis A_i: MatPoly.eval undoes
    both the substitution and the similarity.  Cached per m; the numerator
    arrays are read-only.
    """
    _check_m(m)
    d = 2 * m + 1
    twice = [np.zeros((d, d), dtype=object) for _ in range(3)]
    for p in range(d):
        twice[0][p, p] = 2 * (m - p)  # -mu
    for p in range(d - 1):
        mu = p - m
        n = (m - mu) * (m + mu + 1)
        # B_2 = i A_2 = -Jx: -(1/2) sqrt(n) on both ladder entries -> -1/2 below, -n/2 above
        # B_3 = A_3 = i Jy: +(1/2) sqrt(n) below, -(1/2) sqrt(n) above -> 1/2 below, -n/2 above
        twice[1][p + 1, p], twice[1][p, p + 1] = -1, -n
        twice[2][p + 1, p], twice[2][p, p + 1] = 1, -n
    gens = tuple(_reduced(d, {(0, 0, 0): t}, 2) for t in twice)
    for g in gens:
        for num in g.terms.values():
            num.setflags(write=False)
    return gens


@lru_cache(maxsize=None)
def _generator_bands(m: int) -> tuple:
    """Each exact_generators(m)[i] as (band, den): band lists the nonzero
    diagonals of its numerator as (rows, cols, v), v the diagonal and rows,
    cols the slices it spans, so v[t] is the entry (rows[t], cols[t]).
    B_1 has the main diagonal only, B_2 and B_3 the two ladder diagonals;
    at m = 0 every B_i is zero and has none.  Cached per m; the vectors are
    read-only."""
    d = 2 * m + 1
    out = []
    for g in exact_generators(m):
        num = g.terms.get((0, 0, 0), np.zeros((d, d), dtype=object))
        band = []
        for k in (-1, 0, 1):
            v = np.diagonal(num, k).copy()
            if any(v):
                v.setflags(write=False)
                band.append((slice(max(-k, 0), d - max(k, 0)), slice(max(k, 0), d - max(-k, 0)), v))
        out.append((tuple(band), g.den))
    return tuple(out)


def _stacked(P: MatPoly) -> np.ndarray:
    """P's numerator arrays as one (T, d, d) object array, in P's term order."""
    return np.array(list(P.terms.values()), dtype=object).reshape(-1, P.dim, P.dim)


def _band_mul(stack: np.ndarray, band: tuple, left: bool) -> np.ndarray:
    """B @ N (left) or N @ B for every N of a (T, d, d) object stack, with B
    given by the nonzero diagonals of _generator_bands: one shifted
    elementwise product per diagonal, O(d^2) per matrix, not O(d^3)."""
    out = np.zeros_like(stack)
    for rows, cols, v in band:
        if left:  # (B N)[r] += B[r, r+k] N[r+k]
            out[:, rows] += stack[:, cols] * v[:, None]
        else:  # (N B)[:, r+k] += N[:, r] B[r, r+k]
            out[:, :, cols] += stack[:, :, rows] * v
    return out


def _left_generators(xs) -> MatPoly:
    """sum_i B_i X_i for three MatPolys X_i of one type, B the split-form
    generators of exact_generators: each product banded (_band_mul), all
    three accumulated over the one denominator lcm_i(den(B_i) X_i.den) and
    reduced once.  A monomial keeps the place it first takes, i then X_i's
    order, which is the term order of the dense product sum_i B_i X_i."""
    bands = _generator_bands((xs[0].dim - 1) // 2)
    den = math.lcm(*(bden * x.den for (_, bden), x in zip(bands, xs)))
    out = {}
    for (band, bden), x in zip(bands, xs):
        prod = _band_mul(_stacked(x), band, left=True)
        f = den // (bden * x.den)
        for e, n in zip(x.terms, prod if f == 1 else f * prod):
            out[e] = out[e] + n if e in out else n
    return _reduced(xs[0].dim, out, den)


@dataclass(frozen=True)
class CoeffTable:
    """The lowering scalars a_1..a_{2m} and the Casimir constant c = -m(m+1)."""

    m: int
    a: tuple
    c: object

    def as_floats(self) -> np.ndarray:
        return np.array([float(x) for x in self.a], dtype=np.float64)


@lru_cache(maxsize=None, typed=True)
def coeff_table(m: int) -> CoeffTable:
    """The lowering scalars in closed form, a_l = l^2 (l^2 - d^2) / (4 (2l - 1))
    for l = 1..2m with d = 2m + 1, so a_1 = c.  (The lowering recursion
    gives a_{l} = (l^2/(2l-1)) (c + (l^2 - 1)/4), and 4c = 1 - d^2.)  No a_l
    vanishes, as l < d.  Cached per m and its type; the table is immutable,
    its numerators and denominators Python ints for a numpy int m too."""
    check_type_index(m)
    m = int(m)
    a = (_Q(l * l * (l * l - (2 * m + 1) ** 2), 4 * (2 * l - 1)) for l in range(1, 2 * m + 1))
    return CoeffTable(m=m, a=tuple(a), c=_Q(-m * (m + 1)))


def _lowest(num: np.ndarray, den: int) -> tuple:
    """The rationals num/den, num an object array of ints and den a nonzero
    int, over their least common denominator: one gcd pass."""
    g = math.gcd(den, *num)
    return num // g, den // g


def unit_eigvec(m: int, j: int) -> tuple:
    """The coefficients u_0..u_{2m} of Phi_{1,j} in the basis {f_l Q_l}: the
    eigenvector for the eigenvalue j of the tridiagonal operator at s = 1
    (superdiagonal a_1..a_{2m}, subdiagonal -1/(2l+3)), with u_0 = 1.

    Rows 0..2m-1 of (M - j) u = 0 give u_1 = j / a_1 and
    u_{l+1} = (j u_l + u_{l-1}/(2l+1)) / a_{l+1}, the e1_diagonals
    recursion at the weight mu = j divided by a_1 ... a_{l+1}; so
    u_l = r_l(j) / (a_1 ... a_l), read off e1_diagonals with the prefix
    products of the a_l's numerators and denominators as integers.  No a_l
    vanishes (coeff_table).  Row 2m closes iff r_{2m+1}(j) vanishes, which
    e1_diagonals decides for every j (ConsistencyError).  At scale s,
    coefficient l is s^l u_l.
    """
    check_weight_index(m, j)
    nums = accumulate((x.numerator for x in coeff_table(m).a), operator.mul, initial=1)
    dens = accumulate((x.denominator for x in coeff_table(m).a), operator.mul, initial=1)
    rows = (r[j + m] for r in e1_diagonals(m))
    return tuple(_Q(x.numerator * q, x.denominator * p) for x, p, q in zip(rows, nums, dens))


@lru_cache(maxsize=None, typed=True)
def lagrange_unit_eigvec(m: int, j: int) -> tuple:
    """Construction 3's coefficients at s = 1: (2m+1) prod_{l != j}
    (M - l)/(j - l) applied to e_0, the coefficient vector of the scalar
    spherical function, with M the operator of unit_eigvec.  The product
    projects e_0 onto the j eigenvector; it equals unit_eigvec(m, j).

    The vector is held as integer numerators over one denominator.  L, the
    lcm of the a_l's denominators and of 1, 3, ..., 4m + 1, makes L M an
    integer matrix, so each factor is the integer step
    v <- (L M) v - L l v over the denominator times L (j - l), and one gcd
    pass; 2m + 1 and j - l are taken as Python ints, so a numpy int m or j
    gives the same Fractions (a float index is refused by
    check_weight_index).  Cached per (m, j) and their types: the tuple of
    Fractions is immutable."""
    check_weight_index(m, j)
    a = coeff_table(m).a
    L = math.lcm(*(x.denominator for x in a), *range(1, 4 * m + 2, 2))
    # the diagonals of L M, each padded by a zero where np.roll wraps around
    sup = np.array([L * x.numerator // x.denominator for x in a] + [0], dtype=object)
    sub = np.array([0] + [-(L // k) for k in range(3, 4 * m + 2, 2)], dtype=object)
    v, den = np.array([1] + [0] * 2 * m, dtype=object), 1
    for l in range(-m, m + 1):
        if l != j:
            w = sup * np.roll(v, -1) + sub * np.roll(v, 1) - L * l * v
            v, den = _lowest(w, den * L * int(j - l))
    return tuple(_Q(len(v) * x, den) for x in v)


@lru_cache(maxsize=None, typed=True)
def e1_diagonals(m: int) -> tuple:
    """The rationals r_l with Q_l(e_1) = i^l diag(r_l), l = 0..2m: the
    build_Q recursion at x = e_1, where Q_1(e_1) = A_1 = diag(i mu) with
    mu = -m..m, gives r_0 = 1, r_1 = mu and
    r_{l+1} = mu r_l + (a_l/(2l+1)) r_{l-1}.  Each r_l is held as integer
    numerators over one denominator, and each step is one gcd pass.

    The recursion runs one step further: r_{2m+1} is the axis form of
    Q_{2m+1} = 0 (the terminating product) and must vanish on every weight.
    At the weight mu = j that is row 2m of the s = 1 operator closing on
    unit_eigvec(m, j), and ConsistencyError names the first j where it does
    not.  Cached per m and its type; the tuples are immutable."""
    mu = np.arange(-m, m + 1).astype(object)
    r = [(np.ones(2 * m + 1, dtype=object), 1), (mu, 1)]
    for l, x in enumerate(coeff_table(m).a, 1):
        (n1, d1), (n0, d0) = r[l], r[l - 1]
        q = x.denominator * (2 * l + 1) * d0
        r.append(_lowest(mu * n1 * q + n0 * x.numerator * d1, d1 * q))
    for j, x in enumerate(r[2 * m + 1][0], -m):
        if x:
            raise ConsistencyError(f"row 2m of the tridiagonal operator does not close at m={m}, j={j}")
    return tuple(tuple(_Q(x, d) for x in num) for num, d in r[: 2 * m + 1])


def laplacian(P: MatPoly) -> MatPoly:
    """sum_i d^2 P / dx_i^2 = sum_i eta_i d^2 P / dy_i^2, exact."""
    out = MatPoly.zero(P.dim)
    for i in range(3):
        out = out + P.diff(i).diff(i).scale(_ETA[i])
    return out


def apply_dtau_op(P: MatPoly) -> MatPoly:
    """The invariant operator sum_i A_i * dP/dx_i = sum_i eta_i B_i * dP/dy_i
    (left multiplication), with the split-form generators B of
    exact_generators for P's type: one generator sum (_left_generators)."""
    return _left_generators([P.diff(i).scale(_ETA[i]) for i in range(3)])


def build_Q(m: int) -> list[MatPoly]:
    """The generator family Q_0..Q_{2m} by the lowering recursion
    Q_{j+1} = Q_1 Q_j - (r^2 a_j / (2j+1)) Q_{j-1}, from
    Q_1 = sum_i y_i B_i; every product by Q_1 is MatPoly.mul_q1."""
    _check_m(m)
    table = coeff_table(m)
    qs = [MatPoly.identity(2 * m + 1)]
    if m == 0:
        return qs
    qs.append(qs[0].mul_q1())
    for j in range(1, 2 * m):
        coeff = table.a[j - 1] / (2 * j + 1)  # a_j / (2j+1)
        qs.append(qs[j].mul_q1() - qs[j - 1].mul_r2().scale(coeff))
    return qs


def equivariance_defect(P: MatPoly, i: int) -> MatPoly:
    """c_i ([A_i, P(x)] - dP(x)[Y_i x]) = [B_i, P(y)] - dP(y)[K_i y], with
    c = (i, i, 1), the split-form generators B of exact_generators for P's
    type and the real fields K_i of _ROTATION_FIELDS.  The zero polynomial
    iff P is equivariant at the infinitesimal level for axis i.  The
    commutator is formed on P's stacked numerators by two banded products
    (_band_mul), its terms in P's order."""
    band, den = _generator_bands((P.dim - 1) // 2)[i]
    stack = _stacked(P)
    comm = _band_mul(stack, band, left=True) - _band_mul(stack, band, left=False)
    out = _reduced(P.dim, dict(zip(P.terms, comm)), den * P.den)
    for a, b, k in _ROTATION_FIELDS[i]:
        out = out - P.diff(a).mul_monomial(_UNIT[b], k)
    return out


def expand_in_q1_powers(qs: list[MatPoly]) -> list:
    """Express each Q_j of a family Q_0..Q_{2m} as the monic polynomial
    Q_1^j + sum_k b_k r^{2k} Q_1^{j-2k}, in one pass over j.

    The coefficients follow the recursion of build_Q with scalars in place
    of polynomials: b^{(0)} = b^{(1)} = [1] and
    b^{(l+1)}_k = b^{(l)}_k - (a_l / (2l+1)) b^{(l-1)}_{k-1}.  Q_1^1 is
    qs[1], and each higher power is built once, as Q_1 Q_1^{j-1} with the
    type's Q_1 (mul_q1: 2m - 1 products for the family), and Q_j is
    rebuilt from the powers and compared exactly.  Returns, per
    j, the rationals [1, b_1, b_2, ...] where the difference is the zero
    polynomial, and None where it is not, also for a Q_j that is some other
    monic polynomial in Q_1 and r^2.
    """
    m = (len(qs) - 1) // 2
    a = coeff_table(m).a
    powers = [MatPoly.identity(qs[0].dim)] + qs[1:2]  # Q_1^0, Q_1^1
    prev, coeffs = [_Q(1)], [_Q(1)]  # b^{(0)}, b^{(1)}
    out = []
    for j, q in enumerate(qs):
        if j >= 2:
            powers.append(powers[-1].mul_q1())
            l = j - 1
            c = a[l - 1] / (2 * l + 1)
            nxt = coeffs + [_Q(0)] * (l % 2)  # b^{(l+1)} gains a term when l+1 is even
            for k in range(1, len(nxt)):
                nxt[k] -= c * prev[k - 1]
            prev, coeffs = coeffs, nxt
        recon = MatPoly.zero(q.dim)
        for k, b in enumerate(coeffs):
            term = powers[j - 2 * k].scale(b)
            for _ in range(k):
                term = term.mul_r2()
            recon = recon + term
        out.append(coeffs if (recon - q).is_zero() else None)
    return out
