"""Acceptance suite: one test per criterion, at the declared tolerances.

Each test prints a single PASS line (visible with pytest -s) carrying the
worst observed residual, and asserts the same bound.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import spherical_jn

from m3sph import fieldio, polyalg, radial, spherical, transform
from m3sph.checks import run_checks
from m3sph.so3rep import Rotation, build_irrep, dtau, tau


def _report(name: str, detail: str):
    print(f"{name} PASS {detail}")


# ---------------------------------------------------------------------------


def test_A1_exact_identity_suite():
    t0 = time.time()
    for m in range(5):
        table = polyalg.coeff_table(m)
        qs = polyalg.build_Q(m)
        for j, q in enumerate(qs):
            assert polyalg.laplacian(q).is_zero(), f"laplacian Q_{j} m={m}"
            if j >= 1:
                defect = polyalg.apply_dtau_op(q) - qs[j - 1].scale(table.a[j - 1])
                assert defect.is_zero(), f"lowering Q_{j} m={m}"
        if m >= 1:
            top = qs[2 * m].mul_q1() - polyalg.apply_dtau_op(qs[2 * m]).mul_r2().scale(
                polyalg.rational(1, 4 * m + 1)
            )
            assert top.is_zero(), f"terminating identity m={m}"
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _report("A1", f"exact zero polynomials for m=0..4 in {elapsed:.1f}s")


def test_A2_tridiagonal_spectrum():
    worst = 0.0
    for m in range(7):
        for s in (0.5, 1.0, 2.0, 7.3):
            op = spherical.build_tridiagonal(m, s)
            eigs = np.sort(np.linalg.eigvals(op.matrix()).real)
            resid = float(np.max(np.abs(eigs - op.eigenvalues())))
            assert resid <= 1e-10 * s, (m, s, resid)
            worst = max(worst, resid / s)
    _report("A2", f"spectrum residual <= {worst:.2e} * s for m<=6")


def test_A3_three_method_agreement():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst13, worst12 = 0.0, 0.0
    for m in range(4):
        for s in (0.5, 1.0, 2.0):
            xs = rng.uniform(-1, 1, size=(20, 3))
            xs *= (5.0 * rng.uniform(0, 1, size=(20, 1)) ** (1 / 3)) / np.linalg.norm(
                xs, axis=1, keepdims=True
            )
            for j in range(-m, m + 1):
                v1 = spherical.eval_phi_batch(spherical.phi_method1(m, s, j), xs)
                v3 = spherical.eval_phi_batch(spherical.phi_method3(m, s, j), xs)
                d13 = float(np.max(np.abs(v1 - v3)))
                assert d13 <= 1e-10, (m, s, j, d13)
                v2 = spherical.phi_method2_batch(m, s, j, xs)
                d12 = float(np.max(np.abs(v1 - v2)))
                assert d12 <= 1e-6, (m, s, j, d12)
                worst13, worst12 = max(worst13, d13), max(worst12, d12)
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    _report("A3", f"|1-3| <= {worst13:.2e}, |1-2| <= {worst12:.2e} in {elapsed:.1f}s")


def test_A4_eigenfunction_residuals():
    rng = np.random.default_rng(4)
    h = 1e-4
    worst_lap, worst_first = 0.0, 0.0
    for m in range(4):
        for s in (0.5, 1.0, 2.0):
            for j in range(-m, m + 1):
                spec = spherical.phi_method1(m, s, j)
                xs = rng.uniform(-2.5, 2.5, size=(4, 3))
                for x in xs:
                    f0 = spherical.eval_phi(spec, x)
                    acc = np.zeros_like(f0)
                    for i in range(3):
                        e = np.zeros(3)
                        e[i] = h
                        acc += (
                            spherical.eval_phi(spec, x + e)
                            - 2 * f0
                            + spherical.eval_phi(spec, x - e)
                        )
                    lap_resid = float(np.max(np.abs(acc / (h * h) + s * s * f0)))
                    assert lap_resid <= 1e-5 * (1 + s * s), (m, s, j, lap_resid)
                    worst_lap = max(worst_lap, lap_resid / (1 + s * s))
                    dt = spherical.apply_dtau_analytic(spec, x)
                    first_resid = float(np.max(np.abs(dt - s * j * f0)))
                    assert first_resid <= 1e-6 * (1 + s), (m, s, j, first_resid)
                    worst_first = max(worst_first, first_resid / (1 + s))
    _report(
        "A4",
        f"laplacian residual <= {worst_lap:.2e}(1+s^2), "
        f"first-order residual <= {worst_first:.2e}(1+s)",
    )


def test_A5_structural_identities():
    rng = np.random.default_rng(5)
    worst = {"origin": 0.0, "equiv": 0.0, "parity": 0.0, "conj": 0.0, "proj": 0.0, "cov": 0.0}
    for m in range(4):
        rep = build_irrep(m)
        eye = np.eye(rep.dim)
        for s in (0.5, 1.0, 2.0):
            for j in range(-m, m + 1):
                spec = spherical.phi_method1(m, s, j)
                d0 = float(np.max(np.abs(spherical.eval_phi(spec, np.zeros(3)) - eye)))
                assert d0 <= 1e-12
                worst["origin"] = max(worst["origin"], d0)
                xs = rng.normal(size=(6, 3))
                specm = spherical.phi_method1(m, s, -j)
                a = spherical.eval_phi_batch(spec, xs)
                dp = float(np.max(np.abs(a - spherical.eval_phi_batch(specm, -xs))))
                assert dp <= 1e-10
                worst["parity"] = max(worst["parity"], dp)
                dc = float(
                    np.max(np.abs(a.conj().transpose(0, 2, 1) - spherical.eval_phi_batch(spec, -xs)))
                )
                assert dc <= 1e-10
                worst["conj"] = max(worst["conj"], dc)
            spec = spherical.phi_method1(m, s, min(m, 1))
            for _ in range(20):
                k = Rotation.random(rng)
                x = rng.normal(size=3)
                tk = tau(rep, k)
                de = float(
                    np.max(
                        np.abs(
                            tk @ spherical.eval_phi(spec, k.inverse().apply(x)) @ tk.conj().T
                            - spherical.eval_phi(spec, x)
                        )
                    )
                )
                assert de <= 1e-8
                worst["equiv"] = max(worst["equiv"], de)
        # projection family
        for _ in range(5):
            xi = rng.normal(size=3)
            fam = spherical.projections(m, xi)
            total = np.zeros((rep.dim, rep.dim), dtype=complex)
            for j in range(-m, m + 1):
                p = fam.P(j)
                total += p
                dpj = float(np.max(np.abs(p @ p - p)))
                assert dpj <= 1e-12
                worst["proj"] = max(worst["proj"], dpj)
                for l in range(-m, j):
                    do = float(np.max(np.abs(p @ fam.P(l))))
                    assert do <= 1e-12
                    worst["proj"] = max(worst["proj"], do)
            dr = float(np.max(np.abs(total - eye)))
            assert dr <= 1e-12
            worst["proj"] = max(worst["proj"], dr)
            k = Rotation.random(rng)
            fam2 = spherical.projections(m, k.apply(fam.direction))
            tk = tau(rep, k)
            for j in (-m, 0, m):
                dcov = float(np.max(np.abs(fam2.P(j) - tk @ fam.P(j) @ tk.conj().T)))
                assert dcov <= 1e-10
                worst["cov"] = max(worst["cov"], dcov)
    _report("A5", ", ".join(f"{k} <= {v:.2e}" for k, v in worst.items()))


def test_A6_positive_type():
    rng = np.random.default_rng(6)
    worst = 0.0
    for m in range(4):
        d = 2 * m + 1
        for s in (1.0, 2.0):
            for j in range(-m, m + 1):
                spec = spherical.phi_method1(m, s, j)
                for _ in range(10):
                    pts = rng.uniform(-2.5, 2.5, size=(6, 3))
                    vecs = rng.normal(size=(6, d)) + 1j * rng.normal(size=(6, d))
                    lam = spherical.check_positive_type(spec, pts, vecs)
                    assert lam >= -1e-8, (m, s, j, lam)
                    worst = min(worst, lam)
    _report("A6", f"minimum Gram eigenvalue >= {worst:.2e}")


def test_A7_radial_identities():
    rs = np.linspace(0.01, 50.0, 1200)
    table = np.stack([radial.f(j, rs) for j in range(11)])
    worst_rec = 0.0
    for j in range(1, 9):
        resid = float(
            np.max(
                np.abs(
                    table[j] - table[j - 1] - rs**2 / ((2 * j + 1) * (2 * j + 3)) * table[j + 1]
                )
            )
        )
        assert resid <= 1e-10, (j, resid)
        worst_rec = max(worst_rec, resid)
    worst_diff = 0.0
    # scipy's assembled derivative cancels below r ~ 2, so that range gets a
    # high-precision oracle instead
    import mpmath as mp

    mp.mp.dps = 30

    def f_mp(j, r):
        r = mp.mpf(r)
        return mp.gamma(mp.mpf(3) / 2 + j) * mp.besselj(j + mp.mpf(1) / 2, r) / (r / 2) ** (
            j + mp.mpf(1) / 2
        )

    rs_small = np.linspace(0.01, 2.0, 25)
    for j in range(0, 9):
        for r in rs_small:
            d = float(mp.diff(lambda t, _j=j: f_mp(_j, t), mp.mpf(r)))
            resid = abs(d / r + float(radial.f(j + 1, r)) / (2 * j + 3))
            assert resid <= 1e-10, (j, r, resid)
            worst_diff = max(worst_diff, resid)
        big = rs >= 2.0
        rb = rs[big]
        c = radial.double_factorial_odd(j)
        fprime = c * (
            spherical_jn(j, rb, derivative=True) / rb**j
            - j * spherical_jn(j, rb) / rb ** (j + 1)
        )
        resid = float(np.max(np.abs(fprime / rb + table[j + 1][big] / (2 * j + 3))))
        assert resid <= 1e-10, (j, resid)
        worst_diff = max(worst_diff, resid)
    d0 = float(np.max(np.abs(table[0] - np.sin(rs) / rs)))
    assert d0 <= 1e-14
    _report(
        "A7",
        f"recurrence <= {worst_rec:.2e}, differential <= {worst_diff:.2e}, "
        f"f_0 closed form <= {d0:.2e}",
    )


def test_A8_transform_roundtrip():
    t0 = time.time()
    rng = np.random.default_rng(8)
    gauss = lambda s: (2 * np.pi) ** 1.5 * np.exp(-s * s / 2.0)
    worst_ft, worst_rt, worst_df = 0.0, 0.0, 0.0
    for m in (0, 1, 2):
        F = fieldio.synthesize("gaussian", m, {"sigma": 1.0})
        for s in np.linspace(0.1, 4.0, 14):
            for j in range(-m, m + 1):
                val = transform.spherical_ft(F, float(s), j, mode="fast")
                err = abs(val - gauss(s))
                assert err <= 1e-4, (m, s, j, err)
                worst_ft = max(worst_ft, err)
        coeffs = transform.forward(F)
        pts = rng.uniform(-3 / np.sqrt(3), 3 / np.sqrt(3), size=(10, 3))
        rec = transform.inverse(coeffs, pts)
        ref = F.eval_points(pts)
        err = float(np.max(np.abs(rec - ref)))
        assert err <= 1e-3, (m, err)
        worst_rt = max(worst_rt, err)
        for _ in range(3):
            s = float(rng.uniform(0.2, 3.0))
            j = int(rng.integers(-m, m + 1))
            fast = transform.spherical_ft(F, s, j, mode="fast")
            direct = transform.spherical_ft(F.to_grid(extent=8.0, n=41), s, j, mode="direct")
            rel = abs(direct - fast) / (1 + abs(fast))
            assert rel <= 1e-4, (m, s, j, rel)
            worst_df = max(worst_df, rel)
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    _report(
        "A8",
        f"gaussian transform <= {worst_ft:.2e}, roundtrip <= {worst_rt:.2e}, "
        f"direct-vs-fast <= {worst_df:.2e} in {elapsed:.1f}s",
    )


def test_A9_multiplier_filtering():
    m = 1
    F = fieldio.synthesize("gaussian", m, {"sigma": 1.5})
    rep = build_irrep(m)
    coeffs = transform.forward(F)
    # interior lattice of the default rasterization geometry
    ax = np.linspace(-6.0, 6.0, 25)[4:-4]
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    h = 0.05
    lap_fd = np.zeros((pts.shape[0], 3, 3), dtype=complex)
    dt_fd = np.zeros_like(lap_fd)
    f0 = F.eval_points(pts)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fp = F.eval_points(pts + e)
        fm = F.eval_points(pts - e)
        fp2 = F.eval_points(pts + 2 * e)
        fm2 = F.eval_points(pts - 2 * e)
        lap_fd += (-fp2 + 16 * fp - 30 * f0 + 16 * fm - fm2) / (12 * h * h)
        dt_fd += np.einsum("ab,nbc->nac", rep.generators[i], (-fp2 + 8 * fp - 8 * fm + fm2) / (12 * h))
    lap = transform.inverse(transform.apply_multiplier(coeffs, lambda s, j: -s * s), pts)
    rel_lap = float(np.max(np.abs(lap - lap_fd)) / np.max(np.abs(lap_fd)))
    assert rel_lap <= 1e-3, rel_lap
    dt = transform.inverse(transform.apply_multiplier(coeffs, lambda s, j: s * j), pts)
    rel_dt = float(np.max(np.abs(dt - dt_fd)) / np.max(np.abs(dt_fd)))
    assert rel_dt <= 1e-3, rel_dt
    _report("A9", f"laplacian filter <= {rel_lap:.2e}, first-order filter <= {rel_dt:.2e} (rel)")


def test_A10_determinism_and_format(tmp_path):
    r1 = json.dumps(run_checks(ms=(0, 1), seed=11, profile="quick"), sort_keys=True)
    r2 = json.dumps(run_checks(ms=(0, 1), seed=11, profile="quick"), sort_keys=True)
    assert r1 == r2
    for m, form in ((0, "radial"), (1, "grid"), (2, "radial")):
        F = fieldio.synthesize("gaussian", m)
        if form == "grid":
            F = F.to_grid(extent=3.0, n=7)
        p1, p2 = tmp_path / f"{m}a.m3sf", tmp_path / f"{m}b.m3sf"
        fieldio.write_field(F, str(p1))
        fieldio.write_field(fieldio.read_field(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
    _report("A10", "byte-identical reports and bit-exact field roundtrips")
