"""The matrix spherical Fourier transform, its inverse, and field algebra.

Conventions (declared once, used everywhere):

* forward classical transform  Fhat(y) = int F(x) exp(-i<x,y>) dx  with no
  2*pi factors; the classical inverse then carries (2*pi)^-3;
* the spherical inversion constant is C = 1 / (2 pi^2 (2m+1)) with the
  sphere carrying its normalized invariant measure.  The Gaussian
  closed-form roundtrip fixes C analytically and the test suite enforces
  it.

A field F decomposes against the spectral projections: Fhat = sum_j h_j P_j
with h_j radial, and the spherical transform of F at (s, j) equals
h_{-j}(s) = Tr[P_{-j}(e_1) Fhat(s e_1)] - the "fast" path.  The "direct"
path integrates Tr[F(x) Phi_{s,j}(x)^*] over a grid; the two must agree.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import spherical
from ._kernels import f_table, fourier_grid_sum, grid_convolution, q_series
from .errors import DecompositionError
from .radial import RadialProfile, _spline_profile, double_factorial_odd
from .so3rep import Rotation, tau

_E1 = np.array([1.0, 0.0, 0.0])

# default quadrature geometry (overridable per call; Config feeds the CLI)
DEFAULT_PANEL_WIDTH = 4.0
DEFAULT_NODES_PER_PANEL = 32
DEFAULT_GRID_EXTENT = 8.0
DEFAULT_GRID_N = 41


def inversion_constant(m: int) -> float:
    """C = 1/(2 pi^2 (2m+1)) under the declared Fourier convention."""
    return 1.0 / (2.0 * math.pi**2 * (2 * m + 1))


def gl_panels(a: float, b: float, per_panel: int = DEFAULT_NODES_PER_PANEL,
              panel_width: float = DEFAULT_PANEL_WIDTH):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    n_panels = max(1, math.ceil((b - a) / panel_width))
    edges = np.linspace(a, b, n_panels + 1)
    x0, w0 = np.polynomial.legendre.leggauss(per_panel)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * x0)
        weights.append(half * w0)
    return np.concatenate(nodes), np.concatenate(weights)


# ---------------------------------------------------------------------------
# matrix-valued fields
# ---------------------------------------------------------------------------

# lattice-preserving rotations used by the ingest diagnostic: quarter turns
# about the axes map a symmetric cubic grid onto itself, so the
# equivariance defect can be measured without interpolation noise
_INGEST_ROTATIONS = [
    Rotation(axis=np.array([1.0, 0, 0]), angle=np.pi / 2),
    Rotation(axis=np.array([0, 1.0, 0]), angle=np.pi / 2),
    Rotation(axis=np.array([0, 0, 1.0]), angle=np.pi / 2),
    Rotation(axis=np.array([0, 0, 1.0]), angle=np.pi),
]


@dataclass
class MatrixField:
    """A matrix-valued field on R^3, in grid or radial-coefficient form.

    Grid form: samples on a uniform lattice, ``values`` of shape
    (nx, ny, nz, d, d).  Radial form: profiles g_0..g_{2m} with
    F(x) = sum_k g_k(|x|) Q_k(x), which is equivariant identically.
    """

    m: int
    form: str
    origin: np.ndarray | None = None
    spacing: float | None = None
    shape: tuple | None = None
    values: np.ndarray | None = None
    profiles: list | None = None
    r_grid: np.ndarray | None = None
    radial_samples: np.ndarray | None = field(default=None, repr=False)
    equivariance_residual: float | None = None

    # -- constructors ----------------------------------------------------
    @staticmethod
    def grid(m: int, origin, spacing: float, values: np.ndarray) -> "MatrixField":
        values = np.asarray(values, dtype=np.complex128)
        d = 2 * m + 1
        if values.ndim != 5 or values.shape[3:] != (d, d):
            raise ValueError(f"grid values must have shape (nx, ny, nz, {d}, {d})")
        return MatrixField(
            m=m,
            form="grid",
            origin=np.asarray(origin, dtype=np.float64),
            spacing=float(spacing),
            shape=values.shape[:3],
            values=values,
        )

    @staticmethod
    def radial(m: int, profiles, r_grid, samples: np.ndarray | None = None) -> "MatrixField":
        if len(profiles) != 2 * m + 1:
            raise ValueError(f"need {2*m+1} radial profiles for m={m}")
        return MatrixField(
            m=m,
            form="radial",
            profiles=list(profiles),
            r_grid=np.asarray(r_grid, dtype=np.float64),
            radial_samples=samples,
            equivariance_residual=0.0,
        )

    # -- geometry ----------------------------------------------------------
    @property
    def dim(self) -> int:
        return 2 * self.m + 1

    def axes(self):
        return [
            self.origin[i] + self.spacing * np.arange(self.shape[i]) for i in range(3)
        ]

    def grid_points(self) -> np.ndarray:
        ax = self.axes()
        g = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)
        return g.reshape(-1, 3)

    def values_flat(self) -> np.ndarray:
        return self.values.reshape(-1, self.dim, self.dim)

    def center_index(self) -> tuple:
        idx = -self.origin / self.spacing
        rounded = np.rint(idx).astype(int)
        if np.max(np.abs(idx - rounded)) > 1e-9:
            raise ValueError("grid does not contain the spatial origin")
        return tuple(int(i) for i in rounded)

    # -- evaluation ---------------------------------------------------------
    def sample_profiles(self) -> np.ndarray:
        """Radial samples g_k(r_grid), shape (n_r, 2m+1); cached."""
        if self.form != "radial":
            raise ValueError("sample_profiles applies to radial-form fields")
        if self.radial_samples is None:
            samples = np.stack(
                [np.asarray(p(self.r_grid), dtype=np.complex128) for p in self.profiles],
                axis=1,
            )
            self.radial_samples = samples
        return self.radial_samples

    def eval_points(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the field at an (n, 3) batch of points (radial form)."""
        if self.form != "radial":
            raise ValueError("pointwise evaluation is for radial-form fields")
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        r = np.linalg.norm(xs, axis=1)
        coeffs = np.stack(
            [np.asarray(p(r), dtype=np.complex128) for p in self.profiles], axis=1
        )
        rep = spherical._rep(self.m)
        return q_series(rep.generators, spherical._ajs(self.m), coeffs, xs)

    def to_grid(self, extent: float = DEFAULT_GRID_EXTENT, n: int = DEFAULT_GRID_N) -> "MatrixField":
        """Rasterize a radial-form field on a symmetric cubic lattice.

        n should be odd so the lattice contains the origin.
        """
        ax = np.linspace(-extent, extent, n)
        spacing = ax[1] - ax[0]
        pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        vals = self.eval_points(pts).reshape(n, n, n, self.dim, self.dim)
        out = MatrixField.grid(self.m, np.array([ax[0]] * 3), spacing, vals)
        out.equivariance_residual = self.equivariance_residual
        return out

    # -- diagnostics --------------------------------------------------------
    def equivariance_diagnostic(self) -> float | None:
        """Relative equivariance defect of a grid field under the
        lattice-preserving quarter-turn rotations; None when the lattice
        is not a symmetric cube.  Radial fields are equivariant by
        construction (0.0)."""
        if self.form == "radial":
            return 0.0
        n0, n1, n2 = self.shape
        ax = self.axes()
        symmetric = (
            n0 == n1 == n2
            and all(abs(a[0] + a[-1]) < 1e-9 * self.spacing for a in ax)
        )
        if not symmetric:
            return None
        rep = spherical._rep(self.m)
        pts = self.grid_points()
        flat = self.values_flat()
        scale = float(np.max(np.abs(flat))) or 1.0
        worst = 0.0
        for rot in _INGEST_ROTATIONS:
            rinv = rot.inverse().matrix
            src = pts @ rinv.T
            idx = np.rint((src - self.origin) / self.spacing).astype(int)
            lin = np.ravel_multi_index(idx.T, self.shape)
            tk = tau(rep, rot)
            transported = tk @ flat[lin] @ tk.conj().T
            worst = max(worst, float(np.max(np.abs(transported - flat))) / scale)
        self.equivariance_residual = worst
        return worst


# ---------------------------------------------------------------------------
# classical Fourier transform
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _proj_e1(m: int):
    return spherical.projections(m, _E1)


def _radial_quad(field: MatrixField, per_panel: int | None = None):
    if not all(p.decays if isinstance(p, RadialProfile) else False for p in field.profiles):
        raise ValueError(
            "classical transform requires decaying radial profiles "
            "(profiles must carry decay metadata)"
        )
    r_max = float(field.r_grid[-1])
    return gl_panels(0.0, r_max, per_panel or DEFAULT_NODES_PER_PANEL)


def _radial_ft_coeffs(field: MatrixField, s_arr: np.ndarray, per_panel: int | None = None):
    """Fourier coefficients c_k(s) with Fhat(s*eta) = sum_k c_k(s) Q_k(eta).

    c_k(s) = 4 pi (-i)^k int g_k(r) j_k(sr) r^{k+2} dr, via the normalized
    kernels: j_k(t) = t^k f_k(t) / (2k+1)!!.
    """
    m = field.m
    L = 2 * m + 1
    rq, wq = _radial_quad(field, per_panel)
    gv = np.stack([np.asarray(p(rq), dtype=np.complex128) for p in field.profiles])
    ts = np.multiply.outer(s_arr, rq)  # (n_s, n_r)
    fv = f_table(L - 1, ts)  # (L, n_s, n_r)
    out = np.empty((s_arr.size, L), dtype=np.complex128)
    for k in range(L):
        jk = (ts**k) * fv[k] / double_factorial_odd(k)
        integ = (jk * (rq ** (k + 2) * wq)) @ gv[k]
        out[:, k] = 4.0 * np.pi * (-1j) ** k * integ
    return out


def classical_ft(F: MatrixField, y, per_panel: int | None = None) -> np.ndarray:
    """Fhat(y) = int F(x) exp(-i<x,y>) dx.

    Grid form: trapezoid sum over the lattice (fields are assumed decayed
    at the boundary).  Radial form: the fast 1-D route through the radial
    kernels; its equivalence with the 3-D quadrature is part of the test
    suite.
    """
    y = np.asarray(y, dtype=np.float64)
    if F.form == "grid":
        return fourier_grid_sum(
            F.values_flat(), F.grid_points(), y[None, :], F.spacing**3
        )[0]
    s = float(np.linalg.norm(y))
    if s < 1e-300:
        c = _radial_ft_coeffs(F, np.array([0.0]), per_panel)[0]
        return c[0] * np.eye(F.dim, dtype=np.complex128)
    c = _radial_ft_coeffs(F, np.array([s]), per_panel)
    rep = spherical._rep(F.m)
    return q_series(rep.generators, spherical._ajs(F.m), c, (y / s)[None, :])[0]


def _ft_along_e1(F: MatrixField, s_arr: np.ndarray, per_panel: int | None = None) -> np.ndarray:
    """Fhat(s e_1) for a batch of scales; returns (n_s, d, d)."""
    if F.form == "grid":
        ys = np.outer(s_arr, _E1)
        return fourier_grid_sum(F.values_flat(), F.grid_points(), ys, F.spacing**3)
    c = _radial_ft_coeffs(F, s_arr, per_panel)
    qe1 = spherical.q_stack(F.m, _E1)  # (L, d, d), all diagonal
    return np.tensordot(c, qe1, axes=([1], [0]))


def h_decompose(F: MatrixField, s: float) -> np.ndarray:
    """h_j(s) = Tr(Fhat(s e_1) P_j(e_1)) for j = -m..m (index j+m)."""
    if s <= 0:
        raise ValueError("scale s must be positive")
    fhat = _ft_along_e1(F, np.array([float(s)]))[0]
    fam = _proj_e1(F.m)
    return np.array(
        [np.trace(fhat @ fam.P(j)) for j in range(-F.m, F.m + 1)], dtype=np.complex128
    )


def spherical_ft(
    F: MatrixField,
    s: float,
    j: int,
    mode: str = "fast",
    grid_extent: float = DEFAULT_GRID_EXTENT,
    grid_n: int = DEFAULT_GRID_N,
) -> complex:
    """The spherical Fourier transform of F at (s, j).

    fast:   Tr[P_{-j}(e_1) Fhat(s e_1)]  (= h_{-j}(s));
    direct: (1/(2m+1)) int Tr[F(x) Phi_{s,j}(x)^*] dx by 3-D quadrature.
    """
    if s <= 0:
        raise ValueError("scale s must be positive")
    if not -F.m <= j <= F.m:
        raise ValueError("index j out of range")
    if mode == "fast":
        fhat = _ft_along_e1(F, np.array([float(s)]))[0]
        return complex(np.trace(_proj_e1(F.m).P(-j) @ fhat))
    if mode != "direct":
        raise ValueError("mode must be 'fast' or 'direct'")
    G = F if F.form == "grid" else F.to_grid(grid_extent, grid_n)
    spec = spherical.phi_method1(F.m, s, j)
    phi = spherical.eval_phi_batch(spec, G.grid_points())
    acc = np.einsum("nab,nab->", G.values_flat(), phi.conj())
    return complex(acc) * G.spacing**3 / (2 * F.m + 1)


# ---------------------------------------------------------------------------
# spherical coefficients, inversion, multipliers
# ---------------------------------------------------------------------------


@dataclass
class SphericalCoefficients:
    """Sampled spherical transform: values[j+m, q] = F transformed at
    (s_grid[q], j); rows are the profiles s -> h_{-j}(s)."""

    m: int
    s_grid: np.ndarray
    s_weights: np.ndarray
    values: np.ndarray

    def profile(self, j: int) -> RadialProfile:
        return _spline_profile(
            self.s_grid,
            self.values[j + self.m],
            {"kind": "spherical-transform", "j": j, "decays": True},
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.m,
                "s_grid": self.s_grid.tolist(),
                "s_weights": self.s_weights.tolist(),
                "values": [[[z.real, z.imag] for z in row] for row in self.values],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "SphericalCoefficients":
        data = json.loads(text)
        vals = np.array(
            [[complex(re, im) for re, im in row] for row in data["values"]],
            dtype=np.complex128,
        )
        return SphericalCoefficients(
            m=int(data["m"]),
            s_grid=np.array(data["s_grid"], dtype=np.float64),
            s_weights=np.array(data["s_weights"], dtype=np.float64),
            values=vals,
        )


def estimate_decay_scale(F: MatrixField) -> float:
    """Crude spatial width estimate (second moment of the field mass)."""
    if F.form == "radial":
        r = F.r_grid
        w = np.max(np.abs(F.sample_profiles()), axis=1)
    else:
        r = np.linalg.norm(F.grid_points(), axis=1)
        w = np.max(np.abs(F.values_flat()), axis=(1, 2))
    num = float(np.sum(w * r**4))
    den = float(np.sum(w * r**2))
    if den <= 0:
        return 1.0
    return max(math.sqrt(num / den / 3.0), 1e-2)


def forward(
    F: MatrixField,
    s_max: float | None = None,
    per_panel: int = DEFAULT_NODES_PER_PANEL,
    panel_width: float = DEFAULT_PANEL_WIDTH,
) -> SphericalCoefficients:
    """Sample the spherical transform on a composite Gauss-Legendre s-grid.

    s_max defaults to 12 / (estimated spatial width), where the transform
    of a smooth decaying field is negligible.  For grid fields s_max is
    capped at the lattice Nyquist frequency pi/spacing: beyond it the
    discrete transform is pure aliasing.
    """
    if s_max is None:
        s_max = 12.0 / estimate_decay_scale(F)
    if F.form == "grid":
        nyquist = math.pi / F.spacing
        if s_max > nyquist:
            if s_max != 12.0 / estimate_decay_scale(F):
                warnings.warn(
                    f"requested s_max={s_max:.3g} exceeds the grid Nyquist "
                    f"frequency {nyquist:.3g}; capping",
                    stacklevel=2,
                )
            s_max = nyquist
    s_nodes, s_w = gl_panels(0.0, float(s_max), per_panel, panel_width)
    fhat = _ft_along_e1(F, s_nodes)
    fam = _proj_e1(F.m)
    vals = np.empty((F.dim, s_nodes.size), dtype=np.complex128)
    for j in range(-F.m, F.m + 1):
        vals[j + F.m] = np.einsum("qab,ba->q", fhat, fam.P(-j))
    return SphericalCoefficients(m=F.m, s_grid=s_nodes, s_weights=s_w, values=vals)


@lru_cache(maxsize=None)
def _unit_eigvecs(m: int) -> np.ndarray:
    """Method-1 coefficient vectors at s = 1; row j+m is u^{(1,j)}."""
    return np.stack(
        [spherical.phi_method1(m, 1.0, j).coeffs for j in range(-m, m + 1)]
    )


def inverse(
    coeffs: SphericalCoefficients,
    xs,
    truncation_tol: float = 1e-6,
) -> np.ndarray:
    """Reconstruct F at the given points from its spherical transform.

    F(x) = C sum_j int phi-transform(r, j) Phi_{r,j}(x) r^2 dr with
    C = 1/(2 pi^2 (2m+1)); the radial integral runs over the sampled grid
    (quadrature weights stored with the coefficients).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    m = coeffs.m
    L = 2 * m + 1
    s, w, vals = coeffs.s_grid, coeffs.s_weights, coeffs.values
    peak = float(np.max(np.abs(vals))) if vals.size else 0.0
    tail = float(np.max(np.abs(vals[:, -1]))) if vals.size else 0.0
    if peak > 0 and tail > truncation_tol * peak:
        warnings.warn(
            f"spherical coefficients not decayed at s_max={s[-1]:.3g} "
            f"(relative tail {tail/peak:.2e}); inversion may be truncated",
            stacklevel=2,
        )
    u = _unit_eigvecs(m)  # (L_j, L_l)
    powers = s[None, :] ** np.arange(L)[:, None]  # (L_l, n_s)
    r = np.linalg.norm(xs, axis=1)
    # inner[j, l] per point: sum_q w_q s_q^2 vals[j, q] s_q^l f_l(s_q r)
    base = vals * (w * s**2)[None, :]  # (L_j, n_s)
    c = np.empty((xs.shape[0], L), dtype=np.complex128)
    const = inversion_constant(m)
    block = max(1, int(2e6) // max(1, L * s.size))
    for b0 in range(0, xs.shape[0], block):
        rb = r[b0 : b0 + block]
        fv = f_table(L - 1, np.multiply.outer(rb, s))  # (L, nb, n_s)
        for p in range(rb.size):
            wmat = powers * fv[:, p, :]  # (L_l, n_s)
            inner = base @ wmat.T  # (L_j, L_l)
            c[b0 + p] = const * np.einsum("jl,jl->l", u, inner)
    rep = spherical._rep(m)
    return q_series(rep.generators, spherical._ajs(m), c, xs)


def apply_multiplier(coeffs: SphericalCoefficients, mu) -> SphericalCoefficients:
    """Pointwise multiplier on the transform side: values[j, q] *= mu(s_q, j)."""
    out = np.empty_like(coeffs.values)
    for j in range(-coeffs.m, coeffs.m + 1):
        factors = np.asarray(
            [mu(float(sq), j) for sq in coeffs.s_grid], dtype=np.complex128
        )
        if not np.all(np.isfinite(factors)):
            raise ValueError(f"multiplier unbounded on the sampled grid at j={j}")
        out[j + coeffs.m] = factors * coeffs.values[j + coeffs.m]
    return SphericalCoefficients(
        m=coeffs.m, s_grid=coeffs.s_grid, s_weights=coeffs.s_weights, values=out
    )


def schwartz_decompose(
    F: MatrixField,
    s_max: float | None = None,
    per_panel: int = DEFAULT_NODES_PER_PANEL,
    residual_tol: float = 1e-3,
    n_rho: int = 257,
) -> MatrixField:
    """Decompose a smooth decaying grid field as F(x) = sum_k g_k(|x|) Q_k(x).

    g_k(rho) = C sum_j u_k^{(1,j)} int h_{-j}(r) f_k(r rho) r^{k+2} dr.
    The reconstruction is compared against the input on a subsample of
    nodes; a residual above ``residual_tol`` (relative L-inf) raises
    DecompositionError - that is the failure mode for non-equivariant
    input.
    """
    if F.form != "grid":
        raise ValueError("schwartz_decompose expects a grid-form field")
    coeffs = forward(F, s_max=s_max, per_panel=per_panel)
    m = F.m
    L = 2 * m + 1
    u = _unit_eigvecs(m)
    s, w, vals = coeffs.s_grid, coeffs.s_weights, coeffs.values
    const = inversion_constant(m)

    def make_profile(k: int) -> RadialProfile:
        weight = w * s ** (k + 2)

        def ev(rho, _k=k, _weight=weight):
            rho = np.atleast_1d(np.asarray(rho, dtype=np.float64))
            ts = np.multiply.outer(rho, s)
            fk = f_table(_k, ts)[_k]  # (n_rho, n_s)
            integ = fk @ (vals * weight[None, :]).T  # (n_rho, L_j)
            out = const * integ @ u[:, _k]
            return out

        return RadialProfile(
            evaluator=ev, label={"kind": "schwartz-g", "k": k, "decays": True}
        )

    profiles = [make_profile(k) for k in range(L)]
    rho_max = float(np.max(np.linalg.norm(F.grid_points(), axis=1)))
    r_grid = np.linspace(0.0, rho_max, n_rho)
    out = MatrixField.radial(m, profiles, r_grid)

    # reconstruction residual on a node subsample
    pts = F.grid_points()
    stride = max(1, pts.shape[0] // 1500)
    sub = np.arange(0, pts.shape[0], stride)
    recon = out.eval_points(pts[sub])
    ref = F.values_flat()[sub]
    scale = float(np.max(np.abs(ref))) or 1.0
    residual = float(np.max(np.abs(recon - ref))) / scale
    if residual > residual_tol:
        raise DecompositionError(
            "field does not decompose into equivariant radial coefficients",
            residual,
        )
    out.equivariance_residual = F.equivariance_residual
    return out


def convolve(F1: MatrixField, F2: MatrixField) -> MatrixField:
    """Direct-quadrature convolution of two grid fields on one lattice.

    (F1 * F2)(x) = int F1(x - y) F2(y) dy, matrix product inside.  O(N^2);
    meant for oracle use on small grids.
    """
    if F1.form != "grid" or F2.form != "grid":
        raise ValueError("convolution expects grid-form fields")
    if F1.shape != F2.shape or abs(F1.spacing - F2.spacing) > 1e-12:
        raise ValueError("fields must share the lattice")
    center = F1.center_index()
    vol = F1.spacing**3
    v1 = F1.values
    v2 = F2.values
    out = grid_convolution(v1, v2, center, vol)
    return MatrixField.grid(F1.m, F1.origin, F1.spacing, out)
