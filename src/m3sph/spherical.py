"""Three constructions of the matrix spherical functions and their support.

A type-m spherical function Phi_{s,j} (s > 0, -m <= j <= m) is pinned down
by being a joint eigenfunction: eigenvalue -s^2 under the componentwise
Laplacian and s*j under the first-order invariant operator.  The three
routes implemented here must agree and their mutual agreement is the
central oracle of the package:

1. eigenvectors of the tridiagonal action on span{f_l^s Q_l},
2. a plane-wave average of spectral projections over the sphere (one
   projection per polar node, the azimuth summed by an FFT),
3. a Lagrange polynomial in the tridiagonal matrix applied to the
   coefficient vector of the scalar spherical function.

Constructions 1 and 3 are exact rational vectors u at s = 1, computed in
integers over one denominator and rounded once: construction 1's are the
exact e_1 diagonals over the products of the closed-form lowering scalars
(polyalg.unit_eigvec), construction 3's a Lagrange product that does not
read those diagonals (polyalg.lagrange_unit_eigvec); and
Phi_{s,j}(x) = sum_l u_l T_l(s|x|) Q_l(x/|x|) with the bounded axis kernels
T_l(t) = t^l f_l(t), so no power of s or |x| is formed; construction 2 is
the independent float oracle.  Every off-axis value of construction 1,
D_tau Phi (apply_dtau_stack) and the positive-type Gram matrices
(positive_type_stack) included, is a diagonal on the e_1 axis, moved to x
by _kernels.q_series.  One evaluator serves them: a stack of specs of one
m at their own points (_stack), each diagonal formed once per distinct
(spec, radius) pair in one q_series call; eval_phi_batch,
apply_dtau_analytic and check_positive_type are its one-element stacks.
Construction 2's spectral projections pass q_series too.

Indexing: j is canonically the integer with eigenvalue s*j; the projection
P_j(xi) projects onto the i*j*|xi| eigenspace of the axis matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, so3rep
from ._kernels import (M_MAX_NUMERIC, axis_diagonals, check_numeric_m,  # noqa: F401
                       f_table, q_series, radii)
from .errors import CapabilityError
from .polyalg import coeff_table, lagrange_unit_eigvec, unit_eigvec
from .radial import _check_scale
from .so3rep import check_type_index, check_weight_index


# the most polar nodes construction 2's sphere rule may have (degree 4095), the
# largest Gauss-Legendre rule; it refuses an s*|x| that would need more, before
# it builds any array
_MAX_POLAR_NODES = _kernels.GL_MAX_ORDER


# ---------------------------------------------------------------------------
# tridiagonal realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TridiagonalOperator:
    """Matrix of the invariant first-order operator on span{f_l^s Q_l}.

    Zero diagonal; superdiagonal a_1..a_{2m}; subdiagonal -s^2/(2l+3) for
    l = 0..2m-1.  Its spectrum is exactly {s*j : j = -m..m}.
    """

    m: int
    s: float
    superdiag: np.ndarray
    subdiag: np.ndarray

    @property
    def size(self) -> int:
        return 2 * self.m + 1

    def matrix(self) -> np.ndarray:
        return (
            np.diag(self.superdiag, k=1) + np.diag(self.subdiag, k=-1)
            if self.m
            else np.zeros((1, 1))
        )

    def eigenvalues(self) -> np.ndarray:
        """The known spectrum s*j, j = -m..m (ascending)."""
        return self.s * np.arange(-self.m, self.m + 1, dtype=np.float64)


def build_tridiagonal(m: int, s: float) -> TridiagonalOperator:
    _check_scale(s)
    sup = coeff_table(m).as_floats()
    ls = np.arange(0, 2 * m, dtype=np.float64)
    sub = -(s * s) / (2 * ls + 3)
    return TridiagonalOperator(m=m, s=float(s), superdiag=sup, subdiag=sub)


# ---------------------------------------------------------------------------
# spherical function specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphericalFunctionSpec:
    """(m, s, j) plus ``coeffs``, the s = 1 vector u of Phi_{1,j}.

    Phi_{s,j} has the coefficients s^l u_l in the basis {f_l^s Q_l}, and
    Phi_{s,j}(x) = sum_l u_l T_l(s|x|) Q_l(x/|x|), T_l(t) = t^l f_l(t).
    coeffs[0] = 1 always (Phi(0) = I).  ``method`` records which
    construction produced u.
    """

    m: int
    s: float
    j: int
    coeffs: np.ndarray
    method: int

    def __post_init__(self):
        self.coeffs.setflags(write=False)


def _check_params(m: int, s: float, j: int):
    check_type_index(m)
    _check_scale(s)
    check_weight_index(m, j)
    check_numeric_m(m)


@lru_cache(maxsize=None)
def unit_eigvecs(m: int) -> np.ndarray:
    """The coefficient vectors of Phi_{1,j}, j = -m..m, as row j+m of a
    read-only (2m+1, 2m+1) table: the exact polyalg.unit_eigvec rounded
    once.  Construction 1 and the inversion sum read it; an m above
    M_MAX_NUMERIC raises CapabilityError."""
    check_numeric_m(m)
    u = np.array([unit_eigvec(m, j) for j in range(-m, m + 1)], dtype=np.float64)
    u.setflags(write=False)
    return u


def phi_method1(m: int, s: float, j: int) -> SphericalFunctionSpec:
    """Construction 1: eigenvector of the tridiagonal operator.

    The spec holds row j+m of unit_eigvecs, the eigenvector of M(1) for j
    with leading coordinate 1; that of M(s) for s*j is it times s^l, since
    M(s) = s D M(1) D^-1 with D = diag(s^l).
    """
    _check_params(m, s, j)
    return SphericalFunctionSpec(m=m, s=float(s), j=j, coeffs=unit_eigvecs(m)[j + m], method=1)


def phi_method3(m: int, s: float, j: int) -> SphericalFunctionSpec:
    """Construction 3: Lagrange polynomial of the tridiagonal matrix.

    Applies prod_{l != j} (M - l I)/(j - l) at s = 1 to the coefficient
    vector of the scalar spherical function (the first basis vector) and
    scales by 2m+1, in exact rationals (polyalg.lagrange_unit_eigvec); the
    spec holds the result rounded once (the product at s is it times s^l).
    The leading coefficient comes out 1 automatically; that this matches
    construction 1's normalization is asserted in the test suite.
    """
    _check_params(m, s, j)
    coeffs = np.array(lagrange_unit_eigvec(m, j), dtype=np.float64)
    return SphericalFunctionSpec(m=m, s=float(s), j=j, coeffs=coeffs, method=3)


def eval_phi(spec: SphericalFunctionSpec, x) -> np.ndarray:
    """Evaluate sum_l u_l T_l(s|x|) Q_l(x/|x|) at one point."""
    return eval_phi_batch(spec, np.asarray(x, dtype=np.float64)[None, :])[0]


def eval_phi_batch(spec: SphericalFunctionSpec, xs: np.ndarray) -> np.ndarray:
    """Evaluate a spec on an (n, 3) batch of points; returns (n, d, d): the
    one-spec case of eval_phi_stack.  A NaN or infinite coordinate raises
    ValueError, a point whose |x| or s|x| leaves float range CapabilityError."""
    return eval_phi_stack([spec], [xs])[0]


def eval_phi_stack(specs, xss) -> list[np.ndarray]:
    """Construction 1 for a stack of specs of one type m: specs[i] at the
    (n_i, 3) points xss[i], an (n_i, d, d) array each.  The e_1 diagonal
    sum_l u_l T_l(s r) Q_l(e_1) is formed once per distinct (spec, float
    radius) pair and moved to the points by one q_series call (_stack)."""
    return _stack(_phi_diagonal, specs, xss)


def _phi_diagonal(m: int, rs, s, u) -> np.ndarray:
    """The (n_r, d) e_1 diagonals sum_l u_l T_l(s r) Q_l(e_1), one per row of
    the radii rs, scales s (n_r,) and s = 1 vectors u (n_r, 2m+1)."""
    return (f_table(2 * m, s * rs, axis=True).T * u) @ axis_diagonals(m)


def _stack(diagonal, specs, xss) -> list[np.ndarray]:
    """The values of an equivariant function of each spec, given by its e_1
    diagonals ``diagonal(m, rs, s, u)`` (row k at radius rs[k] for the scale
    s[k] and the s = 1 vector u[k]), at that spec's points; one q_series
    call, labelled by spec index, for the whole stack.  As every kernel is
    pointwise, a point's value is the one its spec alone gives, to the bit
    up to m = 5, except where the spec alone has one radius (numpy forms a
    lone diagonal as a matrix-vector product, which BLAS rounds apart from
    the rows of a matrix product); above m = 5 axis_transport's products may
    also round a point's row in the last bits with the batch around it.
    The specs must share m."""
    if len(specs) != len(xss):
        raise ValueError("a stack pairs each spec with one batch of points")
    if not specs:
        return []
    m = specs[0].m
    if any(spec.m != m for spec in specs):
        raise ValueError("a stack takes the specs of one type m")
    xss = [np.atleast_2d(np.asarray(xs, dtype=np.float64)) for xs in xss]
    s = np.array([spec.s for spec in specs])
    u = np.stack([spec.coeffs for spec in specs])

    counts = [xs.shape[0] for xs in xss]
    out = q_series(lambda rs, labels: diagonal(m, rs, s[labels], u[labels]),
                   np.concatenate(xss), np.repeat(np.arange(len(specs)), counts))
    return np.split(out, np.cumsum(counts)[:-1])


# ---------------------------------------------------------------------------
# spectral projections and the sphere-integral construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionFamily:
    """Spectral projections P_{-m}..P_m of the axis matrix for a direction.

    P_j is the rank-one orthogonal projection onto the i*j eigenspace of
    the axis matrix of the unit direction: the coordinate projection E_jj
    at e_1, moved to the direction by the frame W (``q_series``).
    """

    m: int
    direction: np.ndarray
    matrices: np.ndarray  # (2m+1, d, d), index j+m

    def P(self, j: int) -> np.ndarray:
        check_weight_index(self.m, j)
        return self.matrices[j + self.m]


def _projection_stack(m: int, xis: np.ndarray, j: int) -> np.ndarray:
    """P_j(xi) = W E_jj W^* for a batch of directions; returns (n, d, d)."""
    return q_series(lambda rs, _: np.eye(2 * m + 1)[np.full(rs.size, j + m)], xis)


def projections(m: int, xi) -> ProjectionFamily:
    """The projection family for the direction xi/|xi| (xi nonzero): each
    E_jj, labelled j, moved to xi by q_series.  xi is scaled by max |xi_k|
    before radii() normalises it, so every finite nonzero xi has a
    direction; a NaN or infinite xi, or an m that is no type index, raises
    ValueError."""
    check_type_index(m)
    xi = np.asarray(xi, dtype=np.float64)
    scale = np.max(np.abs(xi))
    if scale == 0:
        raise ValueError("direction must be a nonzero vector")
    with np.errstate(invalid="ignore"):  # inf/inf is NaN, which radii() refuses
        xin = xi / scale
    r = radii(xin[None, :])
    d = 2 * m + 1
    mats = q_series(lambda rs, js: np.eye(d)[js], np.broadcast_to(xin, (d, 3)), np.arange(d))
    return ProjectionFamily(m=m, direction=xin / r[0], matrices=mats)


@dataclass(frozen=True)
class SphereRule:
    """Product quadrature on the unit sphere, normalized to total mass 1.

    Gauss-Legendre in the cosine of the polar angle (measured from e_1,
    the distinguished axis) times a uniform azimuthal grid; integrates
    spherical polynomials up to ``degree`` exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=64)
def _polar_factor(n_polar: int):
    """The factors of the sphere rules with n_polar polar nodes, read-only:
    the Gauss-Legendre cosines mu of the polar angle from e_1
    (_kernels.gauss_legendre) and their sines, the node weights
    w / (2 n_az), and the cosines and sines of the n_az = 2 n_polar
    azimuths."""
    mu, w = _kernels.gauss_legendre(n_polar)
    az = 2.0 * np.pi * np.arange(2 * n_polar) / (2 * n_polar)
    factor = mu, np.sqrt(1.0 - mu**2), w / (4.0 * n_polar), np.cos(az), np.sin(az)
    for a in factor:
        a.setflags(write=False)
    return factor


@lru_cache(maxsize=64)
def sphere_rule(degree: int) -> SphereRule:
    """The rule of ``degree``, cached per degree with read-only arrays."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    mu, sin_t, wk, cos_az, sin_az = _polar_factor(max(1, math.ceil((degree + 1) / 2)))
    cols = np.broadcast_arrays(mu[:, None], sin_t[:, None] * cos_az, sin_t[:, None] * sin_az)
    nodes = np.stack(cols, axis=-1).reshape(-1, 3)
    weights = np.repeat(wk, len(cos_az))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return SphereRule(nodes=nodes, weights=weights, degree=degree)


def band_limit_degree(m: int, s: float, radius: float) -> int:
    """Quadrature degree heuristic for the plane-wave integrand:
    2m + ceil(e * s * |x|) + 10."""
    return 2 * m + math.ceil(math.e * s * radius) + 10


def phi_method2(m: int, s: float, j: int, x) -> np.ndarray:
    """Construction 2: (2m+1) * sum_a w_a exp(-i s <x, xi_a>) P_j(xi_a), on
    the sphere rule of degree band_limit_degree(m, s, |x|).  An s|x| whose
    rule would need more than _MAX_POLAR_NODES polar nodes is refused with
    CapabilityError before any array is built."""
    x = np.asarray(x, dtype=np.float64)
    return phi_method2_batch(m, s, j, x[None, :])[0]


def phi_method2_batch(m: int, s: float, j: int, xs: np.ndarray) -> np.ndarray:
    """phi_method2 at an (n, 3) batch of points, on the one rule that the
    largest |x| of the batch needs; (n, d, d).  The rule is a product around
    e_1, and a turn by phi about e_1 multiplies entry (a, b) of P_j by
    e^{-i(a-b) phi}, so polar node k adds P_j(theta_k, 0) times G_{a-b}(x, k),
    the length n_az FFT over the azimuths of the phases e^{-is<x, xi_kl>}
    (the discrete Jacobi-Anger expansion).  The points go in blocks, so no
    phase, FFT or gathered array holds more than _PHASE_ENTRIES entries.
    An empty batch gives an empty stack."""
    _check_params(m, s, j)
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    rs = radii(xs)
    if not rs.size:
        return np.empty((0, 2 * m + 1, 2 * m + 1), dtype=np.complex128)
    radius = float(np.max(rs))
    # ceil((band_limit_degree + 1) / 2) <= _MAX_POLAR_NODES, without the ceil of a huge float
    if not math.e * s * radius <= 2 * _MAX_POLAR_NODES - 2 * m - 11:
        raise CapabilityError(
            f"the sphere rule for s*|x| = {s * radius:.3g} at m={m} needs more than "
            f"{_MAX_POLAR_NODES} polar nodes (degree {2 * _MAX_POLAR_NODES - 1})"
        )
    n_polar = math.ceil((band_limit_degree(m, s, radius) + 1) / 2)
    mu, sin_t, wk, cos_az, sin_az = _polar_factor(n_polar)
    n_az, d = 2 * n_polar, 2 * m + 1
    base = np.stack([mu, sin_t, np.zeros(n_polar)], axis=1)  # the nodes at azimuth 0
    projs = _projection_stack(m, base, j) * wk[:, None, None]
    diffs = np.subtract.outer(np.arange(d), np.arange(d)) % n_az  # the FFT index of a - b
    out = np.empty((xs.shape[0], d, d), dtype=np.complex128)
    step = max(1, _kernels._PHASE_ENTRIES // (n_polar * max(n_az, d * d)))
    for p0 in range(0, xs.shape[0], step):
        x = xs[p0 : p0 + step]
        # <x, xi_kl> = x_1 mu_k + sin_k (x_2 cos phi_l + x_3 sin phi_l); its phase and FFT in place
        g = (x[:, 1:2] * cos_az + x[:, 2:3] * sin_az)[:, None, :] * sin_t[:, None]
        g += (x[:, :1] * mu)[:, :, None]
        g = g * (-1j * s)
        np.fft.fft(np.exp(g, out=g), axis=2, out=g)
        out[p0 : p0 + step] = np.einsum("pkab,kab->pab", g[:, :, diffs], projs)
    return (2 * m + 1) * out


# ---------------------------------------------------------------------------
# the first-order operator, on the e_1 axis
# ---------------------------------------------------------------------------


def apply_dtau_analytic(spec: SphericalFunctionSpec, x) -> np.ndarray:
    """sum_i A_i d/dx_i Phi(x), differentiated on the e_1 axis, at one point
    (d, d) or at an (n, 3) batch (n, d, d): the one-spec case of
    apply_dtau_stack.  A point refused by radii() raises there, one whose
    s|x| leaves float range CapabilityError."""
    x = np.asarray(x, dtype=np.float64)
    out = apply_dtau_stack([spec], [x])[0]
    return out[0] if x.ndim == 1 else out


def apply_dtau_stack(specs, xss) -> list[np.ndarray]:
    """D_tau Phi for a stack of specs of one type m: specs[i] at the (n_i, 3)
    points xss[i], an (n_i, d, d) array each, from one q_series call
    (_stack).

    D_tau Phi is equivariant and, at r e_1, commutes with the diagonal A_1:
    it is a diagonal, formed once per distinct (spec, radius) pair and moved
    to x by q_series.  With L = diag(lam) = Phi(r e_1), lam_l = u_l T_l(s r),
    the recurrence of the axis kernels T_l(t) = t^l f_l(t) gives
    d_1 Phi = diag(lam') and L/r from T_{l-1} and T_{l+1} alone (no power,
    no division by r, exact at x = 0):
      lam'_l  = s u_l (l T_{l-1} - (l+1) T_{l+1}/((2l+1)(2l+3))),
      (L/r)_l = s u_l (T_{l-1} + T_{l+1}/((2l+1)(2l+3))), l >= 1.
    [A_i, Phi(x)] = dPhi(x)[Y_i x] with Y_3 e_1 = -e_2, Y_2 e_1 = e_3 gives
    d_2 Phi = -[A_3, L]/r, d_3 Phi = [A_2, L]/r.  The diagonal of
    A_3 [A_2, L/r] - A_2 [A_3, L/r] is M (lam/r) with the constant
    M = diag(rowsum K) - K, K = A_3 o A_2^T - A_2 o A_3^T (entrywise
    products).
    """
    return _stack(_dtau_diagonal, specs, xss)


def _dtau_diagonal(m: int, rs, s, u) -> np.ndarray:
    """The (n_r, d) e_1 diagonals of D_tau Phi (apply_dtau_stack), one per
    row of rs, s and u as in _phi_diagonal."""
    a1, a2, a3 = so3rep.build_irrep(m).generators
    K = a3 * a2.T - a2 * a3.T
    M = np.diag(K.sum(axis=1)) - K
    ls = np.arange(2 * m + 1)
    su = s[:, None] * u
    T = f_table(ls.size, s * rs, axis=True).T  # (n_r, 2m+2): orders 0..2m+1
    # T_{l-1}; l = 0 reads none
    below = np.concatenate([np.zeros((len(T), 1)), T[:, :-2]], axis=1)
    above = T[:, 1:] / ((2 * ls + 1) * (2 * ls + 3))
    dlam = (su * (ls * below - (ls + 1) * above)) @ axis_diagonals(m)
    # L/r less its l = 0 term, which commutes with every A_i
    lam_r = (su * (below + above) * (ls > 0)) @ axis_diagonals(m)
    return np.diagonal(a1) * dlam + lam_r @ M.T


# ---------------------------------------------------------------------------
# positive type
# ---------------------------------------------------------------------------


def check_positive_type(spec: SphericalFunctionSpec, points, vectors) -> float:
    """Minimum eigenvalue of the Gram matrix <Phi(x_a - x_b) v_b, v_a>: the
    one-spec case of positive_type_stack.

    Positive-type functions give PSD Gram matrices, so the result should
    only dip below zero by rounding error.  It takes 1 to 12 points.
    """
    return positive_type_stack([spec], [points], [vectors])[0]


def positive_type_stack(specs, points, vectors) -> list[float]:
    """check_positive_type of specs[i] on points[i] and vectors[i], for every
    i of a stack of one type m, with every Gram value from one
    eval_phi_stack call."""
    if not len(specs) == len(points) == len(vectors):
        raise ValueError("a stack pairs each spec with one set of points and vectors")
    diffs, vecs = [], []
    for pts, v in zip(points, vectors):
        pts = np.asarray(pts, dtype=np.float64)
        v = np.asarray(v, dtype=np.complex128)
        n = pts.shape[0]
        if n != v.shape[0]:
            raise ValueError("points and vectors must pair up")
        if n == 0:
            raise ValueError("Gram check needs at least one point")
        if n > 12:
            raise ValueError("Gram check is limited to 12 points")
        radii(pts)  # the differences of refused points could overflow first
        diffs.append((pts[:, None, :] - pts[None, :, :]).reshape(n * n, 3))
        vecs.append(v)
    out = []
    for vals, v in zip(eval_phi_stack(specs, diffs), vecs):
        n, d = v.shape[0], vals.shape[-1]
        gram = np.einsum("ai,abij,bj->ab", v.conj(), vals.reshape(n, n, d, d), v)
        gram = 0.5 * (gram + gram.conj().T)
        out.append(float(np.linalg.eigvalsh(gram)[0]))
    return out
