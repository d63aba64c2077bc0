"""The `check` report's shape: which cases run, in what order, and how many
evaluator calls the suites make for them."""

import hashlib
import json

import numpy as np
import pytest

from m3sph import _kernels, checks, polyalg, radial, spherical, transform
from m3sph.errors import CapabilityError
from m3sph.so3rep import Rotation, build_irrep, tau


@pytest.mark.parametrize(
    "ms, seed, counts, digest",
    [
        ([3], 5, [23, 73, 54, 411, 0],
         "cb68c800f970a62cd4696e84f0b64dbf7f6855e99aaf66767e46975c06e90ed1"),
        ([0, 1, 2], 0, [69, 98, 54, 521, 63],
         "e474e83c00d1445b10c1b5454b1c5bf319b672eed056f81862560fd97798a91c"),
    ],
)
def test_case_labels_keep_their_order(monkeypatch, ms, seed, counts, digest):
    # the digest of the label sequence pins every case's label and position:
    # a dropped, duplicated or reordered case changes it
    labels = []
    case, exact = checks._Recorder.case, checks._Recorder.exact

    def record_case(self, label, residual, tol):
        labels.append(label)
        case(self, label, residual, tol)

    def record_exact(self, label, ok):
        labels.append(label)
        exact(self, label, ok)

    monkeypatch.setattr(checks._Recorder, "case", record_case)
    monkeypatch.setattr(checks._Recorder, "exact", record_exact)
    report = checks.run_checks(ms, seed=seed, profile="quick")
    assert report["pass"]
    assert [suite["cases"] for suite in report["suites"]] == counts
    assert len(labels) == sum(counts)
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == digest


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_spherical_suite_evaluates_each_spec_in_one_call(monkeypatch):
    # at m = 3, quick: one stack for every construction-1 value of the 21
    # (s, j) cases and their parity partners, one for every D_tau value and
    # one for every positive-type Gram matrix; none through the one-spec
    # evaluators.  q_series takes those 3 stacks, the 6 projection families
    # and the polar projections of every construction-2 draw in one call
    # (one per draw made 21).  Every tau(k) comes from one tau_stack per
    # run of cases and one for the projection covariance, none from tau
    stacks = _counting(monkeypatch, spherical, "_stack")
    calls = _counting(monkeypatch, spherical, "q_series")
    one_spec = [_counting(monkeypatch, spherical, name)
                for name in ("eval_phi_batch", "apply_dtau_analytic", "check_positive_type",
                             "phi_method2_batch")]
    method2 = _counting(monkeypatch, spherical, "phi_method2_stack")
    taus, tau_stacks = _counting(monkeypatch, checks, "tau"), _counting(monkeypatch, checks, "tau_stack")
    assert checks.suite_spherical([3], np.random.default_rng(0), "quick")["pass"]
    assert len(stacks) == 3
    assert len(calls) == 3 + 6 + 1
    assert one_spec == [[], [], [], []]
    assert len(method2) == 1
    assert (len(taus), len(tau_stacks)) == (0, 2)


@pytest.mark.parametrize("budget, runs", [(2**14, [13, 2, 6, 6, 6, 3]),
                                           (2**13, [6, 6, 3] + [3] * 7)])
def test_report_is_the_same_in_runs_of_any_size(monkeypatch, budget, runs):
    # quick, m = 2, 3: 48 points a case, so 1 200 and 2 352 entries; the 15
    # and 21 cases are one run each under the 2^16 budget and several runs
    # of many cases under the smaller ones, with every other blocked pass
    # split too, and the report is byte-identical
    sizes = []
    phi_cases = checks._phi_cases

    def recorded(rec, rep, run, n_lap):
        sizes.append(len(run))
        phi_cases(rec, rep, run, n_lap)

    monkeypatch.setattr(checks, "_phi_cases", recorded)
    whole = json.dumps(checks.run_checks([2, 3], seed=0, profile="quick"), sort_keys=True)
    assert sizes == [15, 21]
    sizes.clear()
    monkeypatch.setattr(_kernels, "BLOCK_ENTRIES", budget)
    assert json.dumps(checks.run_checks([2, 3], seed=0, profile="quick"), sort_keys=True) == whole
    assert sizes == runs


def test_polyalg_suite_evaluates_each_q_once_for_its_rotation_check(monkeypatch):
    # at m = 3: one eval and one eval_abs per Q_j, each at every draw's x and kx
    evals = _counting(monkeypatch, polyalg.MatPoly, "eval")
    abs_evals = _counting(monkeypatch, polyalg.MatPoly, "eval_abs")
    assert checks.suite_polyalg([3], np.random.default_rng(0), "quick")["pass"]
    assert len(evals) == len(abs_evals) == 7


def test_polyalg_suite_forms_each_derivative_once(monkeypatch):
    # at m = 3: the first and the second derivative of each of the 7 Q_j
    # along each axis, which laplacian, apply_dtau_op and equivariance_defect
    # share (each forming its own made 105)
    calls = _counting(monkeypatch, polyalg, "_derivative")
    assert checks.suite_polyalg([3], np.random.default_rng(0), "quick")["pass"]
    assert len(calls) == 42


def test_spherical_suite_builds_each_projection_family_once(monkeypatch):
    # at m = 3, quick: per direction xi one family at xi, one at -xi and one
    # at the rotated xi (two directions)
    calls = _counting(monkeypatch, spherical, "projections")
    assert checks.suite_spherical([3], np.random.default_rng(0), "quick")["pass"]
    assert len(calls) == 6


def test_transform_suite_rasterizes_each_field_once(monkeypatch):
    # full profile at m = 0, 1: one grid per m, shared by the direct and the
    # parity routes, and the two small grids of the convolution case
    calls = _counting(monkeypatch, transform.MatrixField, "to_grid")
    assert checks.suite_transform([0, 1], np.random.default_rng(0), "full")["pass"]
    assert len(calls) == 4


def test_radial_suite_reads_each_stencil_from_one_table(monkeypatch):
    # one f_upto per grid: f_0's closed form, the recurrence and Bessel
    # table, the bounded table, the stencils unscaled and scaled, and the
    # three ODE cases; so `check --m 3` makes 11 f_table calls in all (3 in
    # the spherical suite), where one call per order made 34
    calls = _counting(monkeypatch, radial, "f_upto")
    assert checks.suite_radial(np.random.default_rng(0), "quick")["pass"]
    assert len(calls) == 8
    tables = []
    f_table = _kernels.f_table
    for module in (_kernels, radial, spherical, transform):
        monkeypatch.setattr(module, "f_table", lambda *a, **k: tables.append(None) or f_table(*a, **k))
    assert checks.run_checks([3], seed=0, profile="quick")["pass"]
    assert len(tables) == 11


def test_laplacian_fd_is_its_points_and_their_combination():
    # _laplacian_fd is the composition the spherical suite takes apart
    spec = spherical.phi_method1(2, 1.3, 1)
    xs = np.random.default_rng(3).normal(size=(3, 3))
    pts = checks._laplacian_points(xs, 1e-2)
    assert pts.shape == (39, 3)
    assert np.array_equal(pts[:3], xs)
    lap = checks._laplacian_fd(lambda p: spherical.eval_phi_batch(spec, p), xs, 1e-2)
    assert np.array_equal(lap, checks._laplacian_combine(spherical.eval_phi_batch(spec, pts), 1e-2))


def test_rotation_equivariance_bound_holds_past_the_exact_cap(monkeypatch):
    # at m = 7, where |Q_14(x)| is ~5e13, the residual stays within 128 eps
    # times the rounding scale sum_e |M_e| |x^e| of the two evaluations
    # (the absolute 1e-10 (1 + |x|)^(2m) failed here while Q_j is right)
    monkeypatch.setattr(polyalg, "M_MAX_EXACT", 7)
    qs = polyalg.build_Q(7)
    rep = build_irrep(7)
    rng = np.random.default_rng(7)
    ks, xs = zip(*((Rotation.random(rng), rng.normal(size=3)) for _ in range(20)))
    tks = np.array([tau(rep, k) for k in ks])
    for q in qs:
        residual, tol = checks._rotation_defects(q, ks, tks, np.array(xs))
        assert np.all(residual <= tol)


def test_so3rep_suite_passes_at_the_top_of_the_numeric_range():
    # the casimir residual reaches 1.137e-13 at m = 23, 24 and 26, one
    # rounding unit of m(m+1) at most; its bound scales with m(m+1)
    report = checks.suite_so3rep([23, 24, 25, 26], np.random.default_rng(0), "quick")
    assert report["pass"], report["failures"]


@pytest.mark.parametrize("m", [0, 1, 26, 38, 46, 80])
def test_spectrum_case_holds_past_the_numeric_range(m):
    # the Jacobi form keeps the spectrum residual far inside 1e-10 s where
    # eigvals of the nonsymmetric operator was off by 6.7-610 (m = 38-80)
    for s in (0.5, 7.3):
        op = spherical.build_tridiagonal(m, s)
        assert np.max(np.abs(checks._jacobi_spectrum(op) - op.eigenvalues())) <= 1e-12 * s


def test_spectrum_case_fails_an_off_diagonal_product_of_the_wrong_sign():
    op = spherical.build_tridiagonal(3, 1.0)
    sup = op.superdiag.copy()
    sup[2] = -sup[2]
    bad = type(op)(m=op.m, s=op.s, superdiag=sup, subdiag=op.subdiag)
    assert not np.max(np.abs(checks._jacobi_spectrum(bad) - bad.eigenvalues())) <= 1e-10


def test_above_the_numeric_range_is_refused_before_any_suite(monkeypatch):
    def refuse(*args):
        raise AssertionError("a suite ran before the refusal")

    for suite in ("so3rep", "polyalg", "radial", "spherical", "transform"):
        monkeypatch.setattr(checks, f"suite_{suite}", refuse)
    top = spherical.M_MAX_NUMERIC
    with pytest.raises(CapabilityError, match=rf"\(requested m={top + 1}\)"):
        checks.run_checks([top + 374, 0, top + 1])


@pytest.mark.parametrize("m", [1, 3, 26])
def test_so3rep_suite_fails_a_generator_off_by_1e12(monkeypatch, m):
    # the casimir bound, 2 rounding units of m(m+1), is far below what a
    # relative perturbation of 1e-12 in one generator leaves
    rep = build_irrep(m)
    gens = rep.generators.copy()
    gens[1] *= 1 + 1e-12
    monkeypatch.setattr(checks, "build_irrep", lambda m: type(rep)(m=rep.m, dim=rep.dim, generators=gens))
    report = checks.suite_so3rep([m], np.random.default_rng(0), "quick")
    assert any(f.startswith(f"m={m} casimir:") for f in report["failures"])
