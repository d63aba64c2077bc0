"""Runnable invariant suites behind the ``check`` command.

Each suite exercises the documented invariants of one module and returns a
dict with the case count, the worst residual, and pass/fail.  Everything
is driven by one seeded generator in a fixed order, so a report for a
given (seed, profile, ms) is byte-identical across runs.  For each type m
the spherical suite first draws every random input of its (s, j) cases,
in case order, then takes every construction-1 value of those cases (and
of their parity partners), every D_tau Phi value and every positive-type
Gram matrix from one stacked evaluation each (spherical.eval_phi_stack,
apply_dtau_stack, positive_type_stack; a stack holds at most
_STACK_ENTRIES matrix entries) and reads each case from a slice of the
results.  Construction 2 takes the same runs, with the polar projections
of every draw from one q_series call (spherical.phi_method2_stack), and
every tau(k) of a run comes from one so3rep.tau_stack, its equivariance
residuals from one stacked conjugation.  The polyalg suite evaluates each
Q_j once at every draw of its rotation check, with every tau(k) from one
tau_stack, and forms each derivative of a Q_j once (MatPoly.diff keeps
it); the radial suite reads each of its grids from one kernel table
(f_upto).
"""

from __future__ import annotations

import numpy as np
from scipy.special import spherical_jn

from . import polyalg, radial, spherical, transform
from ._kernels import check_numeric_m
from .errors import ConsistencyError
from .fieldio import synthesize
from .polyalg import M_MAX_EXACT
from .so3rep import Rotation, build_irrep, dtau, tau, tau_stack


class _Recorder:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.max_residual = 0.0
        self.failures: list[str] = []

    def case(self, label: str, residual: float, tol: float):
        self.cases += 1
        residual = float(residual)
        self.max_residual = max(self.max_residual, residual)
        if not residual <= tol:
            self.failures.append(f"{label}: residual {residual:.3e} > tol {tol:.1e}")

    def exact(self, label: str, ok: bool):
        self.cases += 1
        if not ok:
            self.failures.append(f"{label}: exact identity failed")

    def result(self) -> dict:
        return {
            "suite": self.name,
            "cases": self.cases,
            "max_residual": self.max_residual,
            "pass": not self.failures,
            "failures": self.failures,
        }


_EPS = np.finfo(np.float64).eps

# the casimir residual's bound in rounding units of m(m+1): the residual is
# at most 1.0 of them for every m <= 26 (1.137e-13 at m = 23, 24 and 26,
# where a fixed 1e-13 failed), so 2 keeps a margin of 2 or more
_CASIMIR_UNITS = 2


def _random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def suite_so3rep(ms, rng, profile: str) -> dict:
    rec = _Recorder("so3rep")
    for m in ms:
        rep = build_irrep(m)
        a1, a2, a3 = rep.generators
        eye = np.eye(rep.dim)
        rec.case(f"m={m} bracket 12", np.max(np.abs(a1 @ a2 - a2 @ a1 + a3)), 1e-14 * (m + 1) ** 2)
        rec.case(f"m={m} bracket 23", np.max(np.abs(a2 @ a3 - a3 @ a2 + a1)), 1e-14 * (m + 1) ** 2)
        rec.case(f"m={m} bracket 31", np.max(np.abs(a3 @ a1 - a1 @ a3 + a2)), 1e-14 * (m + 1) ** 2)
        rec.case(
            f"m={m} casimir",
            np.max(np.abs(a1 @ a1 + a2 @ a2 + a3 @ a3 + m * (m + 1) * eye)),
            _CASIMIR_UNITS * _EPS * m * (m + 1),
        )
        for g in rep.generators:
            rec.case(f"m={m} skew-hermitian", np.max(np.abs(g + g.conj().T)), 1e-14 * (m + 1))
        rec.case(
            f"m={m} axis diagonal",
            np.max(np.abs(a1 - np.diag(1j * np.arange(-m, m + 1)))),
            0.0,
        )
        for _ in range(3):
            xi = _random_unit(rng)
            spec = np.sort(np.linalg.eigvals(dtau(rep, xi)).imag)
            rec.case(f"m={m} unit spectrum", np.max(np.abs(spec - np.arange(-m, m + 1))), 1e-12)
            scale = float(rng.uniform(0.3, 4.0))
            spec = np.sort(np.linalg.eigvals(dtau(rep, scale * xi)).imag)
            rec.case(
                f"m={m} scaled spectrum",
                np.max(np.abs(spec - scale * np.arange(-m, m + 1))),
                1e-12 * max(1.0, scale),
            )
        for _ in range(3):
            k = Rotation.random(rng)
            tk = tau(rep, k)
            rec.case(f"m={m} unitarity", np.max(np.abs(tk @ tk.conj().T - eye)), 1e-12)
            k2 = Rotation.random(rng)
            prod = Rotation.from_matrix(k.matrix @ k2.matrix)
            rec.case(
                f"m={m} homomorphism",
                np.max(np.abs(tau(rep, prod) - tk @ tau(rep, k2))),
                1e-11,
            )
            x = rng.normal(size=3)
            rec.case(
                f"m={m} equivariance",
                np.max(np.abs(tk @ dtau(rep, x) @ tk.conj().T - dtau(rep, k.apply(x)))),
                1e-11 * (1 + np.linalg.norm(x)),
            )
    return rec.result()


def suite_polyalg(ms, rng, profile: str) -> dict:
    rec = _Recorder("polyalg")
    for m in ms:
        if m > M_MAX_EXACT:
            continue
        table = polyalg.coeff_table(m)
        qs = polyalg.build_Q(m)
        rec.exact(f"m={m} a_1 = casimir", len(table.a) == 2 * m and (m == 0 or table.a[0] == table.c))
        for j, q in enumerate(qs):
            rec.exact(f"m={m} Q_{j} homogeneous", q.is_homogeneous(j) and not q.is_zero())
            rec.exact(f"m={m} laplacian Q_{j} = 0", polyalg.laplacian(q).is_zero())
            if j >= 1:
                lowered = polyalg.apply_dtau_op(q) - qs[j - 1].scale(table.a[j - 1])
                rec.exact(f"m={m} D Q_{j} = a_{j} Q_{j-1}", lowered.is_zero())
            for i in range(3):
                rec.exact(
                    f"m={m} equivariance Q_{j} axis {i}",
                    polyalg.equivariance_defect(q, i).is_zero(),
                )
        if m >= 1:
            top = qs[2 * m].mul_q1() - polyalg.apply_dtau_op(qs[2 * m]).mul_r2().scale(
                polyalg.rational(1, 4 * m + 1)
            )
            rec.exact(f"m={m} terminating product", top.is_zero())
        # the spectrum {j} as an exact identity: e1_diagonals raises unless
        # row 2m closes at every j; as u_l(j) = r_l(j) / (a_1 ... a_l), method
        # 1 = method 3 decides every entry of the e_1 diagonals too
        try:
            units = [polyalg.unit_eigvec(m, j) for j in range(-m, m + 1)]
        except ConsistencyError:
            units = None
        rec.exact(f"m={m} row 2m closes", units is not None)
        rec.exact(
            f"m={m} method 1 = method 3",
            units is not None
            and all(u == polyalg.lagrange_unit_eigvec(m, j) for j, u in enumerate(units, -m)),
        )
        if m <= 3:
            for j, coeffs in enumerate(polyalg.expand_in_q1_powers(qs)):
                rec.exact(f"m={m} Q_{j} monic in Q_1", coeffs is not None and coeffs[0] == 1)
        # finite-rotation equivariance, numeric spot check: every draw first
        rep = build_irrep(m)
        ks, xs = zip(*((Rotation.random(rng), rng.normal(size=3))
                       for _ in range(3 if profile == "quick" else 6)))
        tks = tau_stack(rep, ks)
        defects = [_rotation_defects(q, ks, tks, np.array(xs)) for q in qs]
        for p in range(len(ks)):
            for j, (residual, tol) in enumerate(defects):
                rec.case(f"m={m} Q_{j} rotation equivariance", residual[p], tol[p])
    return rec.result()


def _rotation_defects(q, ks, tks, xs) -> tuple[np.ndarray, np.ndarray]:
    """max |Q(k x) - tau(k) Q(x) tau(k)^*| for each rotation k of ``ks``,
    tks[p] = tau(ks[p]), at its point xs[p], and its bound
    128 eps (S(k x) + S(x)), S(y) the largest entry of q.eval_abs(y): the
    residual is the rounding of the two monomial sums, at most 14 of those
    units on 25-60 draws per m for m <= 8.  One q.eval and one q.eval_abs
    take every x and k x."""
    pts = np.concatenate([xs, [k.apply(x) for k, x in zip(ks, xs)]])
    n = len(xs)
    vals, scale = q.eval(pts), np.max(q.eval_abs(pts), axis=(1, 2))
    moved = tks @ vals[:n] @ tks.conj().transpose(0, 2, 1)
    residual = np.max(np.abs(vals[n:] - moved), axis=(1, 2))
    return residual, 128 * _EPS * (scale[n:] + scale[:n])


_FD_STEPS = np.array([-2.0, -1.0, 1.0, 2.0])  # the stencil of _fd_derivative, in units of h


def _fd_derivative(vals, h: float):
    """Five-point-stencil derivative, O(h^4), from the values at
    r + h * _FD_STEPS along the last axis of ``vals``."""
    return (-vals[..., 3] + 8 * vals[..., 2] - 8 * vals[..., 1] + vals[..., 0]) / (12 * h)


def suite_radial(rng, profile: str) -> dict:
    rec = _Recorder("radial")
    rs = np.linspace(0.05, 50.0, 200 if profile == "quick" else 600)
    jmax = 8
    fv = radial.f_scaled(0, 1.0, rs)  # warm path; also the closed form below
    rec.case("f_0 closed form", np.max(np.abs(fv - np.sin(rs) / rs)), 1e-14)
    table = radial.f_upto(jmax + 1, rs)
    for j in range(1, jmax + 1):
        resid = table[j] - table[j - 1] - rs**2 / ((2 * j + 1) * (2 * j + 3)) * table[j + 1]
        rec.case(f"recurrence j={j}", np.max(np.abs(resid)), 1e-12)
    # bessel oracle: f_j = (2j+1)!! j_j(r) / r^j
    for j in range(jmax + 1):
        oracle = radial.double_factorial_odd(j) * spherical_jn(j, rs) / rs**j
        rec.case(f"bessel oracle j={j}", np.max(np.abs(table[j] - oracle)), 1e-12)
    bounded = radial.f_upto(jmax, np.linspace(0.0, 100.0, 400))
    for j in range(jmax + 1):
        rec.case(f"bounded j={j}", np.max(np.abs(bounded[j])) - 1.0, 1e-12)
    # one table of f_0..f_4 on every stencil and at its centre, unscaled and scaled
    rd, s, h = np.array([0.7, 2.3, 11.0]), 1.7, 5e-3
    pts = np.concatenate([rd[:, None] + h * _FD_STEPS, rd[:, None]], axis=1)  # (3, 5)
    fj, fs = radial.f_upto(4, pts), radial.f_upto(4, s * pts)
    for j in range(4):
        d, ds = _fd_derivative(fj[j, :, :4], h), _fd_derivative(fs[j, :, :4], h)
        for i, r in enumerate(rd):
            rec.case(
                f"differential relation j={j}",
                abs(d[i] / r + fj[j + 1, i, 4] / (2 * j + 3)),
                1e-10,
            )
            rec.case(
                f"scaled differential relation j={j}",
                abs(ds[i] / (s * s * r) + fs[j + 1, i, 4] / (2 * j + 3)),
                1e-10,
            )
    for j, s, r in ((0, 1.0, 2.0), (3, 2.0, 0.5), (5, 0.7, 7.0)):
        rec.case(f"ode j={j}", abs(radial.check_ode(j, s, r, 1e-2)), 1e-6)
    return rec.result()


def _jacobi_spectrum(op) -> np.ndarray:
    """The eigenvalues of a tridiagonal operator, ascending.  When every
    product b_l c_l of its super- and subdiagonal is positive, op is similar
    to the symmetric Jacobi matrix with off-diagonals sqrt(b_l c_l), whose
    eigvalsh is stable at every m (Wilkinson, The Algebraic Eigenvalue
    Problem, 1965), where eigvals of the nonsymmetric op is off by O(1)
    from m = 38.  A product <= 0 gives inf, which fails any bound."""
    prod = op.superdiag * op.subdiag
    if not np.all(prod > 0):
        return np.full(op.size, np.inf)
    off = np.diag(np.sqrt(prod), 1)
    return np.linalg.eigvalsh(off + off.T)


# the most matrix entries (4 MB of complex values) of one stacked evaluation
# of the spherical suite's (s, j) cases; in the quick profile every case of
# one m up to m = 5 is one stack (m = 3 holds 49 392 entries), and m = 26
# takes one case at a time
_STACK_ENTRIES = 2**18


def suite_spherical(ms, rng, profile: str) -> dict:
    rec = _Recorder("spherical")
    svals = (0.5, 1.0, 2.0, 7.3)
    top = spherical.M_MAX_NUMERIC
    for m in sorted(set(list(ms) + ([4, 6, top] if profile == "full" else []))):
        for s in svals:
            op = spherical.build_tridiagonal(m, s)
            rec.case(
                f"m={m} s={s} spectrum",
                np.max(np.abs(_jacobi_spectrum(op) - op.eigenvalues())),
                1e-10 * s,
            )
    if profile == "full":
        # the top of the numeric range, at one point near |x| = 1; construction
        # 2 costs ~10 ms a call there, one FFT over the azimuth per polar node
        s, x = 1.0, np.array([0.3, -0.4, 0.8])
        for j in (-top, 0, top):
            spec1 = spherical.phi_method1(top, s, j)
            rec.case(
                f"m={top} s={s} j={j} method1 vs method3",
                np.max(np.abs(spec1.coeffs - spherical.phi_method3(top, s, j).coeffs)),
                1e-10,
            )
            rec.case(
                f"m={top} s={s} j={j} method1 vs method2",
                np.max(np.abs(spherical.eval_phi(spec1, x) - spherical.phi_method2(top, s, j, x))),
                1e-6,
            )
            lap = _laplacian_fd(lambda p: spherical.eval_phi_batch(spec1, p), x[None, :], 1e-2)[0]
            rec.case(
                f"m={top} s={s} j={j} laplacian eigenfunction",
                np.max(np.abs(lap + s * s * spherical.eval_phi(spec1, x))),
                1e-5 * (1 + s * s),
            )
    n_x = 5 if profile == "quick" else 20
    n_lap = 2 if profile == "quick" else 4
    n_pts = 1 + 3 * n_x + 13 * n_lap + 6  # the points of one (s, j) case, its parity partner's too
    for m in ms:
        rep = build_irrep(m)
        eye = np.eye(rep.dim)
        # every random input of the type's (s, j) cases first, in case order,
        # then the cases in runs of at most _STACK_ENTRIES values
        draws = []
        for s in (0.5, 1.0, 2.0):
            for j in range(-m, m + 1):
                xs = rng.uniform(-5 / np.sqrt(3), 5 / np.sqrt(3), size=(n_x, 3))
                ks, ys = zip(*((Rotation.random(rng), rng.normal(size=3)) for _ in range(3)))
                draws.append((s, j, xs, ks, ys))
        per_run = max(1, _STACK_ENTRIES // (n_pts * rep.dim**2))
        for r0 in range(0, len(draws), per_run):
            _phi_cases(rec, rep, draws[r0 : r0 + per_run], n_lap)
        # projections: every draw first, then every tau(k) from one stack
        proj_draws = [(_random_unit(rng) * rng.uniform(0.5, 2.0), Rotation.random(rng))
                      for _ in range(2 if profile == "quick" else 4)]
        tks = tau_stack(rep, [k for _, k in proj_draws])
        for (xi, k), tk in zip(proj_draws, tks):
            fam = spherical.projections(m, xi)
            famneg = spherical.projections(m, -xi)
            total = np.zeros((rep.dim, rep.dim), dtype=np.complex128)
            dmat = dtau(rep, fam.direction)
            for j in range(-m, m + 1):
                p = fam.P(j)
                total += p
                rec.case(f"m={m} P_{j} idempotent", np.max(np.abs(p @ p - p)), 1e-12)
                rec.case(f"m={m} P_{j} hermitian", np.max(np.abs(p - p.conj().T)), 1e-12)
                rec.case(
                    f"m={m} P_{j} eigenspace",
                    np.max(np.abs(dmat @ p - 1j * j * p)),
                    1e-12 * (1 + m),
                )
                for l in range(-m, j):
                    rec.case(
                        f"m={m} P_{j} P_{l} orthogonal",
                        np.max(np.abs(p @ fam.P(l))),
                        1e-12,
                    )
                rec.case(
                    f"m={m} P_{-j}(xi) = P_{j}(-xi)",
                    np.max(np.abs(fam.P(-j) - famneg.P(j))),
                    1e-12,
                )
            rec.case(f"m={m} resolution of identity", np.max(np.abs(total - eye)), 1e-12)
            fam2 = spherical.projections(m, k.apply(fam.direction))
            for j in (-m, 0, m):
                rec.case(
                    f"m={m} P_{j} covariance",
                    np.max(np.abs(fam2.P(j) - tk @ fam.P(j) @ tk.conj().T)),
                    1e-10,
                )
        # positive type: every draw first, then every Gram matrix from one
        # stacked evaluation
        if m <= 3:
            draws = [
                (s, j, rng.uniform(-2, 2, size=(6, 3)),
                 rng.normal(size=(6, rep.dim)) + 1j * rng.normal(size=(6, rep.dim)))
                for s in (1.0, 2.0)
                for j in range(-m, m + 1)
                for _ in range(2 if profile == "quick" else 10)
            ]
            ss, js, pts, vecs = zip(*draws)
            specs = [spherical.phi_method1(m, s, j) for s, j in zip(ss, js)]
            for spec, lam in zip(specs, spherical.positive_type_stack(specs, pts, vecs)):
                rec.case(f"m={m} s={spec.s} j={spec.j} positive type", max(0.0, -lam), 1e-8)
    return rec.result()


def _phi_cases(rec, rep, run, n_lap: int):
    """Record the construction-1 cases of a run of (s, j, xs, ks, ys) draws
    of type rep.m.  Every value of Phi comes from one stacked evaluation
    (per case the origin, xs, -xs, the Laplacian stencils at the first n_lap
    of xs, k^-1 y and y, then Phi_{s,-j} at -xs), every D_tau Phi from a
    second and every construction-2 value from a third
    (spherical.phi_method2_stack); every tau(k) of the run comes from one
    tau_stack, and the equivariance residuals from one stacked conjugation
    tau(k) Phi(k^-1 y) tau(k)^*.  Each case reads slices of them."""
    m, eye, n_x = rep.m, np.eye(rep.dim), len(run[0][2])
    specs, pts = [], []
    for s, j, xs, ks, ys in run:
        eq_pts = np.array([k.inverse().apply(y) for k, y in zip(ks, ys)] + list(ys))
        lap_pts = _laplacian_points(xs[:n_lap], 1e-2)
        specs += [spherical.phi_method1(m, s, j), spherical.phi_method1(m, s, -j)]
        pts += [np.concatenate([np.zeros((1, 3)), xs, -xs, lap_pts, eq_pts]), -xs]
    vals = spherical.eval_phi_stack(specs, pts)
    dts = spherical.apply_dtau_stack(specs[::2], [xs[:n_lap] for _, _, xs, _, _ in run])
    method2 = spherical.phi_method2_stack(m, [(s, j, xs) for s, j, xs, _, _ in run])
    # tau(k) Phi(k^-1 y) tau(k)^* against Phi(y), for every rotation of the run at once
    n_k = len(run[0][3])
    eq = np.array([vals[2 * i][-2 * n_k:] for i in range(len(run))])  # (run, 2 n_k, d, d)
    tks = tau_stack(rep, [k for *_, ks, _ in run for k in ks]).reshape(len(run), n_k, rep.dim, rep.dim)
    moved = tks @ eq[:, :n_k] @ tks.conj().swapaxes(-1, -2)
    eq_defects = np.max(np.abs(moved - eq[:, n_k:]), axis=(2, 3))
    for i, (s, j, xs, ks, _) in enumerate(run):
        spec1 = specs[2 * i]
        rec.case(
            f"m={m} s={s} j={j} method1 vs method3",
            np.max(np.abs(spec1.coeffs - spherical.phi_method3(m, s, j).coeffs)),
            1e-10,
        )
        v = spec1.coeffs * s ** np.arange(2 * m + 1)
        rec.case(
            f"m={m} s={s} j={j} eigenvector scaling",
            np.max(np.abs(spherical.build_tridiagonal(m, s).matrix() @ v - s * j * v)),
            1e-9 * max(1.0, s) ** (2 * m),
        )
        phi0, vals1, valsc, vals_lap, _ = np.split(
            vals[2 * i], np.cumsum([1, n_x, n_x, 13 * n_lap])
        )
        rec.case(f"m={m} s={s} j={j} phi(0) = I", np.max(np.abs(phi0[0] - eye)), 1e-12)
        rec.case(
            f"m={m} s={s} j={j} method1 vs method2",
            np.max(np.abs(vals1 - method2[i])),
            1e-6,
        )
        rec.case(f"m={m} s={s} j={j} parity", np.max(np.abs(vals1 - vals[2 * i + 1])), 1e-10)
        rec.case(
            f"m={m} s={s} j={j} conjugate symmetry",
            np.max(np.abs(vals1.conj().transpose(0, 2, 1) - valsc)),
            1e-10,
        )
        lap = _laplacian_combine(vals_lap, 1e-2)
        for p in range(n_lap):
            rec.case(
                f"m={m} s={s} j={j} laplacian eigenfunction",
                np.max(np.abs(lap[p] + s * s * vals1[p])),
                1e-5 * (1 + s * s),
            )
            rec.case(
                f"m={m} s={s} j={j} first-order eigenfunction",
                np.max(np.abs(dts[i][p] - s * j * vals1[p])),
                1e-6 * (1 + s),
            )
        for defect in eq_defects[i]:
            rec.case(f"m={m} s={s} j={j} equivariance", defect, 1e-8)


def _laplacian_points(xs, h: float) -> np.ndarray:
    """The (13 n, 3) points of the five-point-stencil Laplacian at the
    (n, 3) points ``xs``: ``xs`` themselves, then each one's 12 neighbours
    x + h * _FD_STEPS e_i."""
    steps = np.multiply.outer(h * _FD_STEPS, np.eye(3))  # (4, 3, 3)
    return np.concatenate([xs, (xs[:, None, None, :] + steps).reshape(-1, 3)])


def _laplacian_combine(vals, h: float) -> np.ndarray:
    """The Laplacian, O(h^4), from the values (13 n, d, d) at the points
    of _laplacian_points(xs, h); (n, d, d)."""
    n = vals.shape[0] // 13
    f = vals[n:].reshape((n, 4, 3) + vals.shape[1:]).sum(axis=2)
    return (-f[:, 0] + 16 * f[:, 1] + 16 * f[:, 2] - f[:, 3] - 90 * vals[:n]) / (12 * h * h)


def _laplacian_fd(evaluate, xs, h: float) -> np.ndarray:
    """The five-point-stencil Laplacian, O(h^4), of a batch evaluator
    (n, 3) -> (n, d, d) at the (n, 3) points ``xs``, from one call.  At
    h = 1e-2 the rounding of Phi's (~eps/h^2) and its truncation both stay
    near 1e-9, far below the tolerances."""
    return _laplacian_combine(evaluate(_laplacian_points(xs, h)), h)


def suite_transform(ms, rng, profile: str) -> dict:
    rec = _Recorder("transform")
    gauss_ft = lambda s: (2 * np.pi) ** 1.5 * np.exp(-s * s / 2.0)
    for m in ms:
        if m > 2:
            continue
        F = synthesize("gaussian", m, {"sigma": 1.0})
        svals = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
        for s in svals:
            for j in range(-m, m + 1):
                val = transform.spherical_ft(F, float(s), j, mode="fast")
                rec.case(
                    f"m={m} s={s} j={j} gaussian transform",
                    abs(val - gauss_ft(s)),
                    1e-4,
                )
        hvals = transform.h_decompose(F, 1.3)
        fam = spherical.projections(m, [1.0, 0.0, 0.0])
        fhat = transform.classical_ft(F, np.array([1.3, 0.0, 0.0]))
        recon = sum(hvals[j + m] * fam.P(j) for j in range(-m, m + 1))
        rec.case(f"m={m} h-decomposition", np.max(np.abs(recon - fhat)), 1e-8)
        coeffs = transform.forward(F)
        n_pts = 3 if profile == "quick" else 10
        pts = rng.uniform(-3 / np.sqrt(3), 3 / np.sqrt(3), size=(n_pts, 3))
        recon_pts = transform.inverse(coeffs, pts)
        ref = F.eval_points(pts)
        rec.case(f"m={m} gaussian roundtrip", np.max(np.abs(recon_pts - ref)), 1e-3)
        # direct vs fast
        G = F.to_grid(n=33 if profile == "quick" else 41)
        for _ in range(1 if profile == "quick" else 3):
            s = float(rng.uniform(0.3, 2.0))
            j = int(rng.integers(-m, m + 1))
            fast = transform.spherical_ft(F, s, j, mode="fast")
            direct = transform.spherical_ft(G, s, j, mode="direct")
            rec.case(
                f"m={m} direct vs fast",
                abs(direct - fast) / (1 + abs(fast)),
                1e-4,
            )
            # parity route: integral of Tr[F(x) Phi_{s,-j}(x)] equals the fast path
            specm = spherical.phi_method1(m, s, -j)
            phi = spherical.eval_phi_batch(specm, G.grid_points())
            via_parity = (
                np.einsum("nab,nba->", G.values_flat(), phi) * G.spacing**3 / (2 * m + 1)
            )
            rec.case(
                f"m={m} parity route",
                abs(via_parity - fast) / (1 + abs(fast)),
                1e-4,
            )
        # convolution homomorphism (full profile only): the convolution is a
        # lattice one, by zero-padded FFT, independent of the spherical transform
        if profile == "full" and m == 1:
            F2 = synthesize("gaussian", m, {"sigma": 1.2, "component": 1})
            G1 = F.to_grid(6.0, 13)
            G2 = F2.to_grid(6.0, 13)
            G3 = transform.convolve(G1, G2)
            for s in (0.8, 1.5):
                for j in range(-m, m + 1):
                    lhs = transform.spherical_ft(G3, s, j, mode="fast")
                    rhs = transform.spherical_ft(G1, s, j, mode="fast") * transform.spherical_ft(
                        G2, s, j, mode="fast"
                    )
                    rec.case(
                        f"m={m} s={s} j={j} convolution homomorphism",
                        abs(lhs - rhs) / (1 + abs(rhs)),
                        1e-3,
                    )
        # multipliers
        ident = transform.apply_multiplier(coeffs, lambda s_, j_: 1.0)
        rec.case(
            f"m={m} unit multiplier",
            np.max(np.abs(ident.values - coeffs.values)),
            0.0,
        )
        lap_coeffs = transform.apply_multiplier(coeffs, lambda s_, j_: -s_ * s_)
        pts_small = rng.uniform(-1.5, 1.5, size=(2, 3))
        lap_field = transform.inverse(lap_coeffs, pts_small)
        fd = _laplacian_fd(F.eval_points, pts_small, 0.05)
        scale = np.max(np.abs(fd)) + 1.0
        rec.case(
            f"m={m} laplacian multiplier",
            np.max(np.abs(lap_field - fd)) / scale,
            1e-3,
        )
    return rec.result()


_SUITES = ("so3rep", "polyalg", "radial", "spherical", "transform")


def run_checks(ms=(0, 1), seed: int = 0, profile: str = "quick") -> dict:
    """Run every suite and assemble the deterministic report."""
    if profile not in ("quick", "full"):
        raise ValueError("profile must be 'quick' or 'full'")
    ms = sorted(set(int(m) for m in ms))
    for m in ms:  # an m above the numeric range is refused before any suite runs
        check_numeric_m(m)
    rng = np.random.default_rng(seed)
    exact_ms = [m for m in ms if m <= M_MAX_EXACT]
    if profile == "full":
        exact_ms = sorted(set(exact_ms + list(range(M_MAX_EXACT + 1))))
    suites = [
        suite_so3rep(ms, rng, profile),
        suite_polyalg(exact_ms, rng, profile),
        suite_radial(rng, profile),
        suite_spherical(ms, rng, profile),
        suite_transform(ms, rng, profile),
    ]
    return {
        "ms": ms,
        "seed": int(seed),
        "profile": profile,
        "suites": suites,
        "pass": all(s["pass"] for s in suites),
    }
