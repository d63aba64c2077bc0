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
h_{-j}(s) = Tr[P_{-j}(e_1) Fhat(s e_1)] - the "fast" path.  In the weight
basis A_1 = diag(i j), so P_j(e_1) is the coordinate projection E_jj and
h_j(s) is the diagonal entry j+m of Fhat(s e_1).  The "direct" path
integrates Tr[F(x) Phi_{s,j}(x)^*] over a grid; the two must agree.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import spherical
from ._kernels import (
    BLOCK_ENTRIES,
    GL_MAX_ORDER,
    axis_diagonals,
    f_table,
    fourier_grid_sum,
    gauss_legendre,
    grid_convolution,
    q_series,
    radii,
)
from .errors import CapabilityError, DecompositionError, MalformedCoefficientsError
from .radial import RadialProfile, _check_scale, double_factorial_odd
from .so3rep import Rotation, _is_integer, build_irrep, check_weight_index, tau

# default quadrature geometry (overridable per call; Config feeds the CLI)
DEFAULT_PANEL_WIDTH = 4.0
DEFAULT_NODES_PER_PANEL = 32
DEFAULT_GRID_EXTENT = 8.0
DEFAULT_GRID_N = 41

# the Chebyshev interpolant of the inversion sum (_radial_sums)
_CHEB_EXTRA = 24       # nodes beyond s_max * R / 2 in the first try
_CHEB_TAIL = 8         # trailing coefficients that must be negligible
_CHEB_TAIL_TOL = 1e-14

# the most kernel evaluations one radial sum may make (_direct_sums), a bound
# on work, not memory, since the sum goes in blocks: the radial forward to
# s_max = 1000 at m = 1, r_grid to 12, makes 9.3e7
_MAX_KERNEL_ENTRIES = 2**27
_MAX_RULE_NODES = 2**20  # most nodes of one composite rule (gl_panels)
# the most entries of one array whose size the caller picks (a field on a
# cube, a CSV table), a bound on memory: the default 41^3 cube at m = 26
# holds 1.94e8
MAX_ARRAY_ENTRIES = 2**28


def check_array_entries(entries: int, what: str):
    """Raise CapabilityError if ``what`` would hold more than
    MAX_ARRAY_ENTRIES entries, before it is built."""
    if entries > MAX_ARRAY_ENTRIES:
        raise CapabilityError(f"{what} needs {entries:.3g} entries, over {MAX_ARRAY_ENTRIES}")


def _check_lattice(n: int, extent: float):
    """Raise ValueError unless n nodes per axis on [-extent, extent] make a
    lattice: extent positive and finite, n at least 2, and a finite
    spacing 2 extent / (n - 1).  The one check of a cube's size
    (MatrixField.cube, and Config's grid_n and grid_extent)."""
    if not 0 < extent < math.inf:
        raise ValueError("grid_extent must be positive and finite")
    if n < 2:
        raise ValueError("grid_n must be at least 2")
    if not math.isfinite(2 * extent / (n - 1)):
        raise ValueError("grid_extent must give a finite spacing 2 * grid_extent / (grid_n - 1)")


def inversion_constant(m: int) -> float:
    """C = 1/(2 pi^2 (2m+1)) under the declared Fourier convention."""
    return 1.0 / (2.0 * math.pi**2 * (2 * m + 1))


def gl_panels(a: float, b: float, per_panel: int = DEFAULT_NODES_PER_PANEL,
              panel_width: float = DEFAULT_PANEL_WIDTH):
    """Composite Gauss-Legendre nodes/weights on [a, b]: the rule
    gauss_legendre(per_panel) on each of max(1, ceil((b - a) / panel_width))
    equal panels, in one broadcast.  A rule of more than GL_MAX_ORDER nodes
    per panel, or of more than _MAX_RULE_NODES in all, raises
    CapabilityError before any array is built."""
    n_panels = max(1.0, float(np.ceil((b - a) / panel_width)))
    if not (per_panel <= GL_MAX_ORDER and n_panels * per_panel <= _MAX_RULE_NODES):
        raise CapabilityError(f"a Gauss-Legendre rule of {n_panels:.3g} x {per_panel} nodes is "
                              f"over {GL_MAX_ORDER} per panel or {_MAX_RULE_NODES} in all")
    x0, w0 = gauss_legendre(per_panel)
    edges = np.linspace(a, b, int(n_panels) + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x0).ravel(), (half[:, None] * w0).ravel()


def _axis_diagonal(g: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """The e_1 diagonals sum_k g_k(r) r^k Q_k(e_1) of q_series for the
    coefficients g, (n_r, 2m+1), at the radii rs.  A zero coefficient gives
    a zero axis weight at any radius, also where r^k alone overflows."""
    w = g * rs[:, None] ** np.arange(g.shape[1])
    w[g == 0] = 0.0
    return w @ axis_diagonals((g.shape[1] - 1) // 2)


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
    (nx, ny, nz, d, d).  Radial form: one ``profile`` mapping radii of
    shape S to the coefficients (g_0..g_{2m}) of shape S + (2m+1,), with
    F(x) = sum_k g_k(|x|) Q_k(x), which is equivariant identically.
    """

    m: int
    form: str
    origin: np.ndarray | None = None
    spacing: float | None = None
    shape: tuple | None = None
    values: np.ndarray | None = None
    profile: RadialProfile | None = None
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
    def cube(m: int, extent: float, n: int, sample) -> "MatrixField":
        """A grid field on the cube [-extent, extent]^3 with n nodes per axis:
        ``sample`` of that lattice (see sampled()).

        n should be odd so the lattice contains the origin.  A lattice
        _check_lattice refuses raises ValueError, and a field of more than
        MAX_ARRAY_ENTRIES entries CapabilityError, before any array is
        built.
        """
        _check_lattice(n, extent)
        check_array_entries(int(n) ** 3 * (2 * m + 1) ** 2, f"a field on a {n}^3 cube")
        ax = np.linspace(-extent, extent, n)
        lattice = MatrixField(
            m=m, form="grid", origin=np.full(3, ax[0]), spacing=float(ax[1] - ax[0]), shape=(n,) * 3
        )
        return lattice.sampled(sample)

    @staticmethod
    def radial(m: int, profile, r_grid, samples: np.ndarray | None = None) -> "MatrixField":
        """A radial-form field from its coefficient ``profile``, or from a
        list of 2m+1 scalar profiles g_0..g_{2m}, stacked here into one
        that decays when every one of them does."""
        if isinstance(profile, (list, tuple)):
            if len(profile) != 2 * m + 1:
                raise ValueError(f"need {2*m+1} radial profiles for m={m}")
            parts = profile
            profile = RadialProfile(
                evaluator=lambda r: np.stack(
                    [np.asarray(p(r), dtype=np.complex128) for p in parts], axis=-1),
                decays=all(isinstance(p, RadialProfile) and p.decays for p in parts),
            )
        return MatrixField(
            m=m,
            form="radial",
            profile=profile,
            r_grid=np.asarray(r_grid, dtype=np.float64),
            radial_samples=samples,
            equivariance_residual=0.0,
        )

    # -- geometry ----------------------------------------------------------
    @property
    def dim(self) -> int:
        return 2 * self.m + 1

    def axes(self):
        """Node coordinates along each axis.

        On a lattice that contains the spatial origin (see center_index)
        node i sits at spacing * (i - c), with c the index of the origin,
        so the axes are exactly antisymmetric about it: on a symmetric cube
        grid_points()[::-1] == -grid_points() exactly, and radii() gives
        nodes that differ by signs and axis permutations the same float.
        Any other lattice has nodes at origin + spacing * i.
        """
        try:
            c = self.center_index()
        except ValueError:
            return [self.origin[k] + self.spacing * np.arange(self.shape[k]) for k in range(3)]
        return [self.spacing * (np.arange(self.shape[k]) - c[k]) for k in range(3)]

    def grid_points(self) -> np.ndarray:
        """The lattice nodes in C order, shape (nx * ny * nz, 3); see axes()."""
        ax = self.axes()
        g = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)
        return g.reshape(-1, 3)

    def sampled(self, sample) -> "MatrixField":
        """The grid field on this field's lattice whose values are
        ``sample`` of its grid_points(): ``sample`` maps the (n, 3) nodes
        to the (n, d, d) values there, which are reshaped onto the
        lattice."""
        if self.form != "grid":
            raise ValueError("sampled applies to grid-form fields")
        vals = sample(self.grid_points())
        return MatrixField.grid(
            self.m, self.origin, self.spacing, vals.reshape(*self.shape, self.dim, self.dim)
        )

    def values_flat(self) -> np.ndarray:
        return self.values.reshape(-1, self.dim, self.dim)

    def center_index(self) -> tuple:
        idx = -self.origin / self.spacing
        rounded = np.rint(idx).astype(int)
        if np.max(np.abs(idx - rounded)) > 1e-9:
            raise ValueError("grid does not contain the spatial origin")
        return tuple(int(i) for i in rounded)

    # -- evaluation ---------------------------------------------------------
    def _coefficients(self, r: np.ndarray) -> np.ndarray:
        """profile(r) as complex coefficients of shape r.shape + (2m+1,);
        a profile of any other shape raises ValueError."""
        g = np.asarray(self.profile(r), dtype=np.complex128)
        want = r.shape + (self.dim,)
        if g.shape != want:
            raise ValueError(
                f"the radial profile of an m={self.m} field must map radii of shape "
                f"{r.shape} to shape {want}, got {g.shape}"
            )
        return g

    def sample_profiles(self) -> np.ndarray:
        """Radial samples g_k(r_grid), shape (n_r, 2m+1); cached."""
        if self.form != "radial":
            raise ValueError("sample_profiles applies to radial-form fields")
        if self.radial_samples is None:
            self.radial_samples = self._coefficients(self.r_grid)
        return self.radial_samples

    def eval_points(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the field at an (n, 3) batch of finite points (radial
        form); a NaN or infinite coordinate raises ValueError, a point whose
        |x| leaves float range CapabilityError."""
        if self.form != "radial":
            raise ValueError("pointwise evaluation is for radial-form fields")
        return q_series(lambda rs, _: _axis_diagonal(self._coefficients(rs), rs), xs)

    def to_grid(self, extent: float = DEFAULT_GRID_EXTENT, n: int = DEFAULT_GRID_N) -> "MatrixField":
        """Rasterize a radial-form field on the cube [-extent, extent]^3
        (see cube()).

        n should be odd so the lattice contains the origin.
        """
        out = MatrixField.cube(self.m, extent, n, self.eval_points)
        out.equivariance_residual = self.equivariance_residual
        return out

    # -- diagnostics --------------------------------------------------------
    def equivariance_diagnostic(self) -> float | None:
        """Relative equivariance defect of a grid field under the
        lattice-preserving quarter-turn rotations; None when the lattice
        is not a symmetric cube.  Radial fields are equivariant by
        construction (0.0).

        The defect is max_k max_x |tau(k) F(k^-1 x) tau(k)^* - F(x)| over
        the turns k in _INGEST_ROTATIONS, relative to max |F|; it is also
        stored as ``equivariance_residual``.  Each k^-1 is a signed
        permutation of the axes, so F(k^-1 x) is ``values`` with axes
        flipped and transposed (no point coordinates are rounded), and the
        transport is a product of the flattened matrices with
        kron(tau, conj tau)^T, taken over blocks of first-axis slabs (about
        BLOCK_ENTRIES entries) so that no full-size temporary is made.
        The modulus is a hypot, so no finite payload overflows.
        """
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
        rep = build_irrep(self.m)
        d2 = self.dim * self.dim
        turns = []
        for rot in _INGEST_ROTATIONS:
            # source index along axis k: i_{p(k)}, reversed where the sign is -1
            perm = np.rint(rot.inverse().matrix).astype(int)
            p = np.argmax(np.abs(perm), axis=1)
            flipped = np.flip(self.values, axis=tuple(np.flatnonzero(perm[np.arange(3), p] < 0)))
            tk = tau(rep, rot)
            turns.append((flipped.transpose(*np.argsort(p), 3, 4), np.kron(tk, tk.conj()).T))
        step = max(1, BLOCK_ENTRIES // (n1 * n2 * d2))
        scale = worst = 0.0
        for i in range(0, n0, step):
            flat = self.values[i:i + step].reshape(-1, d2)
            scale = max(scale, float(np.max(np.abs(flat))))
            for src, transport in turns:
                moved = src[i:i + step].reshape(-1, d2) @ transport
                moved -= flat
                worst = max(worst, float(np.max(np.abs(moved))))
        worst /= scale or 1.0
        self.equivariance_residual = worst
        return worst


# ---------------------------------------------------------------------------
# classical Fourier transform
# ---------------------------------------------------------------------------


def _r_nodes_per_panel(s_max: float) -> float:
    """max(32, ceil(s_max * 4 / pi) + 16), the nodes per panel of the
    r-rule, as a Python float: inf, with no warning, past float range."""
    return max(DEFAULT_NODES_PER_PANEL, float(np.ceil(s_max * DEFAULT_PANEL_WIDTH / math.pi)) + 16)


def _radial_ft_coeffs(field: MatrixField, s_arr: np.ndarray):
    """Fourier coefficients c_k(s) with Fhat(s*eta) = sum_k c_k(s) Q_k(eta).

    c_k(s) = 4 pi (-i)^k int g_k(r) j_k(sr) r^{k+2} dr, via the axis
    kernels: j_k(t) = T_k(t) / (2k+1)!!, T_k(t) = t^k f_k(t).  The r-rule has
    panels of width 4 on [0, r_grid[-1]] with max(32, ceil(s_max * 4 / pi)
    + 16) Gauss-Legendre nodes each, s_max = max |s_arr|: the integrand
    oscillates at frequency s_max, so the nodes per oscillation are fixed.
    The integral is the inversion's radial sum run the other way,
    sum_r H[k, r] T_k(s r) (_direct_sums), with the weight matrix
    H[k, r] = 4 pi (-i)^k g_k(r) w_r r^{k+2} / (2k+1)!!; the phases (-i)^k
    are exact.
    """
    if not (isinstance(field.profile, RadialProfile) and field.profile.decays):
        raise ValueError("classical transform requires a radial profile labelled as decaying")
    k = np.arange(field.dim)
    s_max = float(np.max(np.abs(s_arr), initial=0.0))
    rq, wq = gl_panels(0.0, float(field.r_grid[-1]), int(_r_nodes_per_panel(s_max)))
    scale = 4.0 * np.pi * np.array([1, -1j, -1, 1j])[k % 4] / [double_factorial_odd(j) for j in k]
    H = field._coefficients(rq).T * (rq ** (k[:, None] + 2) * wq) * scale[:, None]
    return _direct_sums(H, rq, s_arr, axis=True)


def classical_ft(F: MatrixField, y) -> np.ndarray:
    """Fhat(y) = int F(x) exp(-i<x,y>) dx.

    Grid form: trapezoid sum over the lattice (fields are assumed decayed
    at the boundary).  Radial form: the diagonal Fhat(|y| e_1) from the
    1-D radial kernel route, moved to y by q_series; its equivalence
    with the 3-D quadrature is part of the test suite.  A NaN or infinite
    coordinate of y raises ValueError, a |y| out of float range
    CapabilityError.
    """
    ys = np.asarray(y, dtype=np.float64)[None, :]
    if F.form == "grid":
        radii(ys)  # refuses the points q_series would refuse
        return fourier_grid_sum(F.values_flat(), F.grid_points(), ys, F.spacing**3)[0]
    return q_series(lambda s, _: _ft_along_e1(F, s), ys)[0]


def _ft_along_e1(F: MatrixField, s_arr: np.ndarray) -> np.ndarray:
    """The diagonal of Fhat(s e_1) for a batch of scales; returns (n_s, d).

    Grid form: the phase exp(-i s x_1) does not depend on x_2 and x_3, so
    the diagonals of the lattice values are first summed over them into
    slabs (O(N d)) and the transform is the 1-D sum
    h^3 sum_{x_1} exp(-i s x_1) slab(x_1), which holds for any origin and
    any (n0, n1, n2).  Radial form: the radial
    kernel coefficients against the diagonals of Q_k(e_1).
    """
    if F.form == "grid":
        x1 = F.axes()[0]
        slabs = np.diagonal(F.values, axis1=3, axis2=4).sum(axis=(1, 2))  # (n0, d)
        phases = np.exp(-1j * np.multiply.outer(s_arr, x1))  # (n_s, n0)
        return F.spacing**3 * (phases @ slabs)
    return _radial_ft_coeffs(F, s_arr) @ axis_diagonals(F.m)


def h_decompose(F: MatrixField, s: float) -> np.ndarray:
    """h_j(s) = Tr(Fhat(s e_1) P_j(e_1)) for j = -m..m (index j+m): the
    diagonal of Fhat(s e_1), since P_j(e_1) = E_jj."""
    _check_scale(s)
    return _ft_along_e1(F, np.array([float(s)]))[0].copy()


def spherical_ft(F: MatrixField, s: float, j: int, mode: str = "fast") -> complex:
    """The spherical Fourier transform of F at (s, j).

    fast:   Tr[P_{-j}(e_1) Fhat(s e_1)] = h_{-j}(s), the diagonal entry
            m-j of Fhat(s e_1);
    direct: (1/(2m+1)) int Tr[F(x) Phi_{s,j}(x)^*] dx by 3-D quadrature
            over a grid field's lattice; a radial field is rasterized with
            the to_grid() defaults.
    """
    _check_scale(s)
    check_weight_index(F.m, j)
    if mode == "fast":
        return complex(_ft_along_e1(F, np.array([float(s)]))[0, F.m - j])
    if mode != "direct":
        raise ValueError("mode must be 'fast' or 'direct'")
    G = F if F.form == "grid" else F.to_grid()
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
        """Parse the ``to_json`` document.  A missing key, a negative or
        non-integer m, values and weights whose shapes do not match
        (2m+1, len(s_grid)), a NaN or infinite entry, or a negative s_grid
        node raise MalformedCoefficientsError."""
        data = json.loads(text)
        try:
            m = data["m"]
            s_grid = np.array(data["s_grid"], dtype=np.float64)
            s_weights = np.array(data["s_weights"], dtype=np.float64)
            vals = np.array(
                [[complex(re, im) for re, im in row] for row in data["values"]],
                dtype=np.complex128,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedCoefficientsError(
                f"missing or malformed spherical-coefficient entry: {exc!r}"
            ) from exc
        if type(m) is not int or m < 0:
            raise MalformedCoefficientsError(f"m must be a non-negative integer, got {m!r}")
        if s_grid.ndim != 1 or s_weights.shape != s_grid.shape:
            raise MalformedCoefficientsError(
                f"s_weights shape {s_weights.shape} does not match s_grid shape {s_grid.shape}"
            )
        if vals.shape != (2 * m + 1, s_grid.size):
            raise MalformedCoefficientsError(
                f"values shape {vals.shape} is not (2m+1, len(s_grid)) = "
                f"{(2 * m + 1, s_grid.size)}"
            )
        for name, arr in (("s_grid", s_grid), ("s_weights", s_weights), ("values", vals)):
            if not np.all(np.isfinite(arr)):
                raise MalformedCoefficientsError(f"{name} holds NaN or infinite entries")
        if np.any(s_grid < 0):
            raise MalformedCoefficientsError("s_grid holds negative nodes")
        return SphericalCoefficients(m=m, s_grid=s_grid, s_weights=s_weights, values=vals)


def estimate_decay_scale(F: MatrixField) -> float:
    """Crude spatial width estimate (second moment of the field mass)."""
    if F.form == "radial":
        r = F.r_grid
        w = np.max(np.abs(F.sample_profiles()), axis=1)
    else:
        r = radii(F.grid_points())
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
    """Sample the spherical transform on a composite Gauss-Legendre s-grid
    of per_panel nodes per panel of width panel_width: values[j+m, q] =
    h_{-j}(s_q), the diagonal entry m-j of Fhat(s_q e_1).

    s_max defaults to 12 / (estimated spatial width), where the transform
    of a smooth decaying field is negligible.  For grid fields s_max is
    capped at the lattice Nyquist frequency pi/spacing: beyond it the
    discrete transform is pure aliasing.  A given s_max and panel_width
    must be positive, per_panel an integer of at least 1, and a given s_max
    finite (ValueError otherwise).  For a radial field, an s_max whose radial sum
    in _radial_ft_coeffs would make more than _MAX_KERNEL_ENTRIES kernel
    evaluations, (2m+1) n_s n_r, or whose r-rule would have more than
    GL_MAX_ORDER nodes per panel, is refused with CapabilityError before
    either rule is built; gl_panels refuses a rule it cannot build.
    """
    requested = s_max is not None
    if requested and not 0 < s_max < math.inf:
        raise ValueError(f"s_max must be positive and finite, got {s_max}")
    if not panel_width > 0:
        raise ValueError(f"panel_width must be positive, got {panel_width}")
    if not (_is_integer(per_panel) and per_panel >= 1):
        raise ValueError(f"per_panel must be an integer of at least 1, got {per_panel!r}")
    if not requested:
        s_max = 12.0 / estimate_decay_scale(F)
    if F.form == "grid":
        nyquist = math.pi / F.spacing
        if s_max > nyquist:
            if requested:
                warnings.warn(
                    f"requested s_max={s_max:.3g} exceeds the grid Nyquist "
                    f"frequency {nyquist:.3g}; capping",
                    stacklevel=2,
                )
            s_max = nyquist
    else:  # the kernel values and r-rule of _radial_ft_coeffs, sized before any rule is built
        r_per_panel = _r_nodes_per_panel(s_max)
        n_s = per_panel * max(1.0, float(np.ceil(s_max / panel_width)))
        r_panels = max(1.0, float(np.ceil(F.r_grid[-1] / DEFAULT_PANEL_WIDTH)))
        entries = F.dim * n_s * r_panels * r_per_panel
        if entries > _MAX_KERNEL_ENTRIES:
            raise CapabilityError(f"the radial transform to s_max = {s_max:.3g} needs a kernel "
                                  f"table of {entries:.3g} entries, over {_MAX_KERNEL_ENTRIES}")
        if r_per_panel > GL_MAX_ORDER:
            raise CapabilityError(f"the radial transform to s_max = {s_max:.3g} needs an r-rule of "
                                  f"{r_per_panel:.4g} nodes per panel, over {GL_MAX_ORDER}")
    s_nodes, s_w = gl_panels(0.0, float(s_max), per_panel, panel_width)
    vals = _ft_along_e1(F, s_nodes)[:, ::-1].T.copy()
    return SphericalCoefficients(m=F.m, s_grid=s_nodes, s_weights=s_w, values=vals)


def _radial_sums(coeffs: SphericalCoefficients, rs: np.ndarray) -> np.ndarray:
    """The Q_l coefficients of the inversion formula at the radii ``rs``,
    for l = 0..2m; returns (rs.size, 2m+1).

    c_l(r) = sum_q G[l, q] f_l(s_q r) (_direct_sums) with the
    r-independent matrix G[l, q] = C s_q^l w_q s_q^2 sum_j u_{j,l}
    values[j, q] (_inversion_matrix), where C = 1/(2 pi^2 (2m+1)) and
    u^{(1,j)} are the s = 1 coefficient vectors, spherical.unit_eigvecs.

    Each c_l is an even entire function of r, band-limited by s_max, so
    it is sampled at n Chebyshev-Lobatto points of [0, R], R = max |rs|,
    and evaluated at ``rs`` by the barycentric formula (_barycentric).
    n starts at ceil(s_max R / 2) + _CHEB_EXTRA and is accepted when the
    last _CHEB_TAIL Chebyshev coefficients of every c_l are at most
    _CHEB_TAIL_TOL times its largest one (_cheb_converged); otherwise n
    becomes 2n - 1, whose points include the old ones.  When n is not
    smaller than rs.size the direct sum at ``rs`` is returned instead, so
    small inputs never go through the interpolant.
    """
    s = coeffs.s_grid
    G = _inversion_matrix(coeffs)
    R = float(np.max(np.abs(rs), initial=0.0))
    n = math.ceil(float(np.max(s, initial=0.0)) * R / 2) + _CHEB_EXTRA
    if not (n < rs.size and 0.0 < R < math.inf):
        return _direct_sums(G, s, rs)
    nodes = _cheb_nodes(n, R)
    at_nodes = _direct_sums(G, s, nodes)
    while not _cheb_converged(at_nodes):
        n = 2 * n - 1
        if n >= rs.size:
            return _direct_sums(G, s, rs)
        nodes = _cheb_nodes(n, R)
        finer = np.empty((n, G.shape[0]), dtype=np.complex128)
        finer[0::2] = at_nodes
        finer[1::2] = _direct_sums(G, s, nodes[1::2])
        at_nodes = finer
    return _barycentric(nodes, at_nodes, np.abs(rs))


def _inversion_matrix(coeffs: SphericalCoefficients) -> np.ndarray:
    """G[l, q] = C s_q^l w_q s_q^2 sum_j u_{j,l} values[j, q] for l = 0..2m;
    (2m+1, n_s).  See _radial_sums."""
    s, w, vals = coeffs.s_grid, coeffs.s_weights, coeffs.values
    u = spherical.unit_eigvecs(coeffs.m)  # (L_j, n_l)
    powers = s[None, :] ** np.arange(u.shape[1])[:, None]  # (n_l, n_s)
    base = vals * (w * s**2)[None, :]  # (L_j, n_s)
    return inversion_constant(coeffs.m) * powers * (u.T @ base)


def _direct_sums(G: np.ndarray, s: np.ndarray, rs: np.ndarray, axis: bool = False) -> np.ndarray:
    """sum_q G[l, q] f_l(s_q r) at each radius of ``rs`` for the rows
    l = 0..n_l-1 of G, or with ``axis`` the same sums of the axis kernels
    T_l(s_q r) (f_table); (rs.size, n_l).  The one radial kernel sum: the
    inversion sums, and the radial forward transform with the r-rule as
    ``s`` and the scales as ``rs``.  Radii go in blocks of about 2e6 kernel
    values (one radius at least), and a call of more than
    _MAX_KERNEL_ENTRIES evaluations in all raises CapabilityError before
    any is made."""
    n_l = G.shape[0]
    if n_l * s.size * rs.size > _MAX_KERNEL_ENTRIES:
        raise CapabilityError(f"a radial kernel sum of {n_l * s.size * rs.size:.3g} "
                              f"evaluations is over {_MAX_KERNEL_ENTRIES}")
    c = np.empty((rs.size, n_l), dtype=np.complex128)
    block = max(1, int(2e6) // max(1, n_l * s.size))
    for b0 in range(0, rs.size, block):
        fv = f_table(n_l - 1, np.multiply.outer(rs[b0 : b0 + block], s), axis=axis)
        c[b0 : b0 + block] = np.einsum("lq,lpq->pl", G, fv)  # fv: (n_l, nb, n_s)
    return c


def _cheb_nodes(n: int, R: float) -> np.ndarray:
    """n Chebyshev-Lobatto points R/2 (1 - cos(pi k/(n-1))) of [0, R], from
    exactly 0.0 to exactly R; those of n nest in those of 2n - 1."""
    return 0.5 * R * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))


def _cheb_converged(values: np.ndarray) -> bool:
    """Whether, for every column, the last _CHEB_TAIL Chebyshev coefficients
    of the interpolant through ``values`` at _cheb_nodes are at most
    _CHEB_TAIL_TOL times its largest one.  The coefficients are read off
    an FFT of the even extension of the values."""
    n = values.shape[0]
    a = np.abs(np.fft.fft(np.concatenate([values, values[-2:0:-1]]), axis=0)[:n])
    a[[0, -1]] *= 0.5
    return bool(np.all(np.max(a[-_CHEB_TAIL:], axis=0) <= _CHEB_TAIL_TOL * np.max(a, axis=0)))


def _barycentric(nodes: np.ndarray, values: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """The polynomial through (nodes, values) at ``rs`` by the second
    barycentric formula with the Chebyshev-Lobatto weights (-1)^k, halved
    at both ends; a radius equal to a node gets that node's values.  The
    (ascending) nodes a radius equals are found by binary search, and the
    real weight matrix meets the (n, 2L) float view of the complex values
    in one real product.  Radii go in blocks to bound the (block, n) weight
    matrix."""
    n = nodes.size
    wts = np.where(np.arange(n) % 2, -1.0, 1.0)
    wts[[0, -1]] *= 0.5
    re_im = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    at = np.minimum(np.searchsorted(nodes, rs), n - 1)
    hit = np.flatnonzero(nodes[at] == rs)
    out = np.empty((rs.size, values.shape[1]), dtype=np.complex128)
    block = max(1, int(2e6) // n)
    for b0 in range(0, rs.size, block):
        kern = rs[b0 : b0 + block, None] - nodes[None, :]
        h = hit[(hit >= b0) & (hit < b0 + block)]
        kern[h - b0, at[h]] = 1.0  # any nonzero; those rows are set below
        np.divide(wts, kern, out=kern)
        out[b0 : b0 + block] = (kern @ re_im).view(np.complex128) / np.sum(kern, axis=1)[:, None]
    out[hit] = values[at[hit]]
    return out


def inverse_profile(coeffs: SphericalCoefficients) -> RadialProfile:
    """The decaying radial profile (g_0..g_{2m}) of the inverse transform,
    F(x) = sum_k g_k(|x|) Q_k(x), with g_k the inversion sum c_k of
    _radial_sums: one sum gives every k.  A sum out of float range raises
    CapabilityError."""
    def ev(rho):
        with np.errstate(over="ignore", invalid="ignore"):
            c = _radial_sums(coeffs, rho.ravel())
        if not np.isfinite(c).all():
            raise CapabilityError("the inverse transform's radial profile is not finite: "
                                  "it is out of float range")
        return c.reshape(rho.shape + (2 * coeffs.m + 1,))

    return RadialProfile(evaluator=ev, decays=True)


def inverse(
    coeffs: SphericalCoefficients,
    xs,
    truncation_tol: float = 1e-6,
) -> np.ndarray:
    """Reconstruct F at the given points from its spherical transform.

    F(x) = C sum_j int phi-transform(r, j) Phi_{r,j}(x) r^2 dr with
    C = 1/(2 pi^2 (2m+1)); the radial integral runs over the sampled grid
    (quadrature weights stored with the coefficients).  The Q_l
    coefficients c_l(|x|), l = 0..2m, are the inversion sums of
    _radial_sums, computed once per distinct float radius and passed to
    q_series as the e_1 diagonals of sum_l c_l(r) r^l Q_l (_axis_diagonal).
    A NaN or infinite point raises ValueError, a radius out of float range
    CapabilityError.
    """
    vals = coeffs.values
    peak = float(np.max(np.abs(vals))) if vals.size else 0.0
    tail = float(np.max(np.abs(vals[:, -1]))) if vals.size else 0.0
    if peak > 0 and tail > truncation_tol * peak:
        warnings.warn(
            f"spherical coefficients not decayed at s_max={coeffs.s_grid[-1]:.3g} "
            f"(relative tail {tail/peak:.2e}); inversion may be truncated",
            stacklevel=2,
        )
    return q_series(lambda rs, _: _axis_diagonal(_radial_sums(coeffs, rs), rs), xs)


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


SCHWARTZ_RESIDUAL_TOL = 1e-3
SCHWARTZ_N_RHO = 257


def schwartz_decompose(F: MatrixField) -> MatrixField:
    """Decompose a smooth decaying grid field as F(x) = sum_k g_k(|x|) Q_k(x).

    g_k(rho) = C sum_j u_k^{(1,j)} int h_{-j}(r) f_k(r rho) r^{k+2} dr, the
    inversion sum of forward(F) on its default s-grid (see
    inverse_profile), sampled at SCHWARTZ_N_RHO radii.
    The reconstruction is compared against the input on a subsample of
    nodes; a residual above SCHWARTZ_RESIDUAL_TOL (relative L-inf) raises
    DecompositionError - that is the failure mode for non-equivariant
    input.
    """
    if F.form != "grid":
        raise ValueError("schwartz_decompose expects a grid-form field")
    coeffs = forward(F)
    rho_max = float(np.max(radii(F.grid_points())))
    r_grid = np.linspace(0.0, rho_max, SCHWARTZ_N_RHO)
    out = MatrixField.radial(F.m, inverse_profile(coeffs), r_grid)

    # reconstruction residual on a node subsample
    pts = F.grid_points()
    stride = max(1, pts.shape[0] // 1500)
    sub = np.arange(0, pts.shape[0], stride)
    recon = out.eval_points(pts[sub])
    ref = F.values_flat()[sub]
    scale = float(np.max(np.abs(ref))) or 1.0
    residual = float(np.max(np.abs(recon - ref))) / scale
    if residual > SCHWARTZ_RESIDUAL_TOL:
        raise DecompositionError(
            "field does not decompose into equivariant radial coefficients",
            residual,
        )
    out.equivariance_residual = F.equivariance_residual
    return out


def convolve(F1: MatrixField, F2: MatrixField) -> MatrixField:
    """Direct-quadrature convolution of two grid fields on one lattice.

    (F1 * F2)(x) = int F1(x - y) F2(y) dy, matrix product inside, as the
    truncated lattice sum (grid_convolution); meant for oracle use.
    """
    if F1.form != "grid" or F2.form != "grid":
        raise ValueError("convolution expects grid-form fields")
    if F1.shape != F2.shape or abs(F1.spacing - F2.spacing) > 1e-12:
        raise ValueError("fields must share the lattice")
    out = grid_convolution(F1.values, F2.values, F1.center_index(), F1.spacing**3)
    return MatrixField.grid(F1.m, F1.origin, F1.spacing, out)
