import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from m3sph import fieldio, radial, spherical, transform
from m3sph.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_phi_compare_at_origin(capsys):
    code, out, _ = run_cli(
        capsys, "phi", "--m", "1", "--s", "1", "--j", "0", "--at", "0,0,0", "--method", "compare"
    )
    assert code == 0
    rec = json.loads(out)
    mat = np.array([[complex(re, im) for re, im in row] for row in rec["matrix"]])
    assert np.allclose(mat, np.eye(3), atol=1e-12)
    assert rec["max_deviation_12"] <= 1e-6
    assert rec["max_deviation_13"] <= 1e-10


def test_phi_m0_value(capsys):
    code, out, _ = run_cli(capsys, "phi", "--m", "0", "--s", "2", "--j", "0", "--at", "1,0,0")
    assert code == 0
    rec = json.loads(out)
    assert rec["matrix"][0][0][0] == pytest.approx(np.sin(2) / 2, abs=1e-12)


def test_phi_j_out_of_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "phi", "--m", "1", "--s", "1", "--j", "5", "--at", "0,0,0")
    assert code == 2
    assert "out of range" in err


def test_phi_points_file_and_methods(capsys, tmp_path):
    pf = tmp_path / "pts.txt"
    pf.write_text("0.5,0,0\n0,1,0.5\n")
    for method in ("1", "2", "3"):
        code, out, _ = run_cli(
            capsys,
            "phi", "--m", "1", "--s", "1.5", "--j", "1",
            "--points-file", str(pf), "--method", method,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_phi_non_finite_point_is_usage_error(capsys, tmp_path, coord):
    phi = ("phi", "--m", "1", "--s", "1", "--j", "0")
    code, out, err = run_cli(capsys, *phi, f"--at={coord},0,0")
    assert (code, out) == (2, "")
    assert err
    pf = tmp_path / "pts.txt"
    pf.write_text(f"0.5,0,0\n0,{coord},0.5\n")
    code, out, err = run_cli(capsys, *phi, "--points-file", str(pf))
    assert (code, out) == (2, "")
    assert err


def test_phi_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "phi", "--m", "0", "--s", "1", "--j", "0", "--table", "5", "--rmax", "4"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("r,phi_00_re")
    assert len(lines) == 6


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_phi_non_finite_s_is_usage_error(capsys, value):
    for method in ("1", "2", "3", "compare"):
        code, out, err = run_cli(
            capsys, "phi", "--m", "1", f"--s={value}", "--j", "0", "--method", method,
            "--at", "0.1,0.2,0.3",
        )
        assert (code, out) == (2, "")
        assert err


def test_phi_compare_at_m12_agrees(capsys):
    code, out, _ = run_cli(
        capsys, "phi", "--m", "12", "--s", "1", "--j", "0", "--at", "0.1,0.2,0.3",
        "--method", "compare",
    )
    assert code == 0
    assert json.loads(out)["max_deviation_12"] <= 1e-10


def test_phi_compare_at_m14_agrees(capsys):
    code, out, _ = run_cli(
        capsys, "phi", "--m", "14", "--s", "1.3", "--j", "0", "--at", "0.4,-0.7,1.1",
        "--method", "compare",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["max_deviation_12"] <= 1e-10
    assert rec["max_deviation_13"] <= 1e-10


def test_phi_above_the_numeric_range_is_refused(capsys):
    m = str(spherical.M_MAX_NUMERIC + 1)
    for method in ("1", "3", "compare"):
        code, out, err = run_cli(
            capsys, "phi", "--m", m, "--s", "1", "--j", "0", "--at", "0.1,0.2,0.3",
            "--method", method,
        )
        assert (code, out) == (2, "")
        assert "numeric" in err


def test_phi_method3_at_tiny_s(capsys):
    phi = ("phi", "--m", "1", "--s", "1e-300", "--j", "0", "--at", "0.1,0.2,0.3")
    code, out, _ = run_cli(capsys, *phi, "--method", "compare")
    assert code == 0
    assert json.loads(out)["max_deviation_13"] <= 1e-12
    code, out, _ = run_cli(capsys, *phi, "--method", "3")
    mat = np.array([[complex(re, im) for re, im in row] for row in json.loads(out)["matrix"]])
    assert np.allclose(mat, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("s, methods", [
    ("1e200", ("2", "compare")),
    ("1e8", ("2",)),
])
def test_phi_beyond_float_range_is_usage_error(capsys, s, methods):
    # construction 2's sphere rule would exceed its byte budget
    for method in methods:
        code, out, err = run_cli(
            capsys, "phi", "--m", "1", "--s", s, "--j", "0", "--at", "0.1,0.2,0.3",
            "--method", method,
        )
        assert (code, out) == (2, "")
        assert "overflow" in err or "sphere rule" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_phi_table_non_finite_rmax_is_usage_error(capsys, value):
    code, out, err = run_cli(
        capsys, "phi", "--m", "0", "--s", "1", "--j", "0", "--table", "3", f"--rmax={value}"
    )
    assert (code, out) == (2, "")
    assert err


@pytest.mark.parametrize("argv, flag", [
    (("phi", "--m", "0", "--s", "1", "--j", "0", "--table", "-3"), "--table"),
    (("radial", "--table", "--n", "-2"), "--n"),
])
def test_negative_row_count_names_its_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{flag} must be a non-negative row count" in err


def test_radial_table(capsys):
    code, out, _ = run_cli(capsys, "radial", "--table", "--jmax", "1", "--rmax", "1", "--n", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,f_0,f_1"
    row = lines[2].split(",")
    assert float(row[1]) == pytest.approx(np.sin(1.0), abs=1e-15)


# values whose %.17g forms differ in sign, exponent width and subnormal
# digits: a signed zero, the smallest subnormal and a tiny normal number
_CSV_SPECIALS = [-0.0, 5e-324, 1e-300, -1.7976931348623157e308, 0.1, -2.5e-7, 1.0, 0.0]


def _radial_rows_reference(rs, cols):
    """The per-row writer radial --table had: the reference for its CSV."""
    jmax = cols.shape[0] - 1
    lines = ["r," + ",".join(f"f_{j}" for j in range(jmax + 1))]
    for i, r in enumerate(rs):
        lines.append(",".join([f"{r:.17g}"] + [f"{cols[j, i]:.17g}" for j in range(jmax + 1)]))
    return "".join(line + "\n" for line in lines)


def _phi_rows_reference(rs, vals):
    """The per-row writer phi --table had: the reference for its CSV."""
    d = vals.shape[1]
    names = [f"phi_{a}{b}_{part}" for a in range(d) for b in range(d) for part in ("re", "im")]
    lines = ["r," + ",".join(names)]
    for i, r in enumerate(rs):
        row = [f"{r:.17g}"]
        for a in range(d):
            for b in range(d):
                row.append(f"{vals[i, a, b].real:.17g}")
                row.append(f"{vals[i, a, b].imag:.17g}")
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_table_csv_bytes_are_the_per_row_writer(capsys, monkeypatch, n):
    # the kernels are replaced by tables that cycle through the special
    # values (each of them at n = 5), so every byte of both CSV writers is
    # pinned, also for a table of no rows
    jmax, m = 2, 1
    cols = np.resize(_CSV_SPECIALS, (jmax + 1, n))
    monkeypatch.setattr("m3sph.cli.f_upto", lambda j, t: cols)
    code, out, _ = run_cli(capsys, "radial", "--table", "--jmax", str(jmax), "--rmax", "1e-300",
                           "--n", str(n))
    assert code == 0
    assert out == _radial_rows_reference(np.linspace(0.0, 1e-300, n), cols)
    vals = np.resize(_CSV_SPECIALS, (n, 3, 3)) + 1j * np.resize(_CSV_SPECIALS[::-1], (n, 3, 3))
    monkeypatch.setattr(spherical, "eval_phi_batch", lambda spec, xs: vals)
    code, out, _ = run_cli(capsys, "phi", "--m", str(m), "--s", "1", "--j", "0", "--table", str(n),
                           "--rmax", "3")
    assert code == 0
    assert out == _phi_rows_reference(np.linspace(0.0, 3.0, n), vals)


def test_radial_table_above_the_kernel_orders_is_refused(capsys):
    code, out, err = run_cli(
        capsys, "radial", "--table", "--jmax", "150", "--rmax", "2", "--n", "3"
    )
    assert (code, out) == (2, "")
    assert "orders" in err
    assert "requested 150" in err


def test_radial_table_is_one_kernel_call(capsys, monkeypatch):
    calls = []
    table = radial.f_table
    monkeypatch.setattr(radial, "f_table", lambda *args: calls.append(args) or table(*args))
    code, out, _ = run_cli(
        capsys, "radial", "--table", "--jmax", "12", "--s", "1.5", "--rmax", "30", "--n", "61"
    )
    assert code == 0
    assert len(calls) == 1
    rows = np.array([[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]])
    for j in range(13):
        assert np.max(np.abs(rows[:, j + 1] - radial.f(j, 1.5 * rows[:, 0]))) <= 1e-15


@pytest.mark.parametrize("method", ["1", "2", "compare"])
def test_phi_radius_out_of_float_range_is_refused_without_warnings(capsys, method):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "phi", "--m", "1", "--s", "1e-30", "--j", "0", "--at", "1e200,0,0",
            "--method", method,
        )
    assert (code, out) == (2, "")
    assert "radius" in err


@pytest.mark.parametrize("argv", [
    ("--m", "4", "--s", "1e10", "--at", "1e300,0,0", "--method", "1"),
    ("--m", "1", "--s", "1e-30", "--at", "1e200,0,0"),
])
def test_phi_out_of_float_range_far_out_is_refused(capsys, argv):
    # s|x| or |x| overflows: the point is refused rather than printed as NaN
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "phi", "--j", "0", *argv)
    assert (code, out) == (2, "")
    assert "not finite" in err


@pytest.mark.parametrize("argv", [
    ("--m", "24", "--s", "0.01", "--j", "0", "--at", "1e6,0,0"),
    ("--m", "4", "--s", "1e-48", "--j", "0", "--at", "1e50,0,0", "--method", "1"),
    ("--m", "1", "--s", "1e200", "--j", "1", "--at", "0.1,0.2,0.3", "--method", "1"),
    ("--m", "1", "--s", "1e200", "--j", "1", "--at", "0.1,0.2,0.3", "--method", "3"),
])
def test_phi_far_out_and_at_huge_scales_against_mpmath(capsys, argv, phi_oracle):
    # Phi is formed from the bounded kernels (s|x|)^l f_l(s|x|): no power of
    # s or |x| underflows or overflows on the way
    code, out, _ = run_cli(capsys, "phi", *argv)
    assert code == 0
    rec = json.loads(out)
    mat = np.array([[complex(re, im) for re, im in row] for row in rec["matrix"]])
    ref = phi_oracle(rec["m"], rec["s"], rec["j"], rec["x"])
    assert np.max(np.abs(mat - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("flag", ["--s", "--rmax"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_radial_table_non_finite_flag_is_usage_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "radial", "--table", flag, value)
    assert (code, out) == (2, "")
    assert err


def test_rep_json(capsys):
    code, out, _ = run_cli(capsys, "rep", "--m", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["dim"] == 5


def test_qpoly_json(capsys):
    code, out, _ = run_cli(capsys, "qpoly", "--m", "1")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["Q"]) == 3
    assert rec["Q"][2]["terms"]


# sha256 of the full stdout (trailing newline included).  The JSON holds only
# exact rationals and integer radicands, so the bytes do not depend on the
# platform.
_QPOLY_SHA256 = {
    0: "7587a7a570a1d789e5c1e4983f5890d69b3e3674babb2f87502d1a730b734cb1",
    1: "6aab1f706f2a356aac3e20f03ecc06b6b762f24d2fc9d04acb8449f244e29e52",
    2: "0741b7e10ebee50506d841df3b59ca4e4629ad27943de41efb44a47f37682b60",
    3: "74c96478ab3e9df772b16ccbf1fabf69c54bd58b901a4ea810fa8d6f58a402ba",
    4: "a9234cfa9fe30082a54e9b5f1ac478143f7dafca1e444f5434cb29e5ca405068",
}


@pytest.mark.parametrize("m", sorted(_QPOLY_SHA256))
def test_qpoly_golden_bytes(capsys, m):
    code, out, _ = run_cli(capsys, "qpoly", "--m", str(m))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _QPOLY_SHA256[m]


def test_transform_pipeline(capsys, tmp_path):
    field_path = tmp_path / "g.m3sf"
    coeff_path = tmp_path / "c.json"
    out_path = tmp_path / "o.m3sf"
    code, _, _ = run_cli(capsys, "synth", "gaussian", "--m", "1", "--out", str(field_path))
    assert code == 0
    code, _, _ = run_cli(
        capsys, "transform", "forward", "--in", str(field_path), "--out", str(coeff_path)
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys,
        "transform", "inverse", "--in", str(coeff_path), "--out", str(out_path),
        "--grid-n", "7", "--grid-extent", "2",
    )
    assert code == 0
    G = fieldio.read_field(str(out_path))
    F = fieldio.synthesize("gaussian", 1)
    ref = F.eval_points(G.grid_points()).reshape(G.values.shape)
    assert np.max(np.abs(G.values - ref)) < 1e-3


def test_filter_identity_multiplier(capsys, tmp_path):
    field_path = tmp_path / "g.m3sf"
    out_path = tmp_path / "f.m3sf"
    # spacing 0.5 keeps the lattice Nyquist frequency clear of the transform
    F = fieldio.synthesize("gaussian", 1).to_grid(extent=6.0, n=25)
    fieldio.write_field(F, str(field_path))
    table = {"0": {"s": [0.0, 20.0], "re": [1.0, 1.0]},
             "1": {"s": [0.0, 20.0], "re": [1.0, 1.0]},
             "-1": {"s": [0.0, 20.0], "re": [1.0, 1.0]}}
    tab_path = tmp_path / "mu.json"
    tab_path.write_text(json.dumps(table))
    code, _, _ = run_cli(
        capsys, "filter", "--in", str(field_path), "--out", str(out_path),
        "--multiplier", str(tab_path),
    )
    assert code == 0
    G = fieldio.read_field(str(out_path))
    assert np.max(np.abs(G.values - F.values)) < 1e-3


def test_filter_laplacian(capsys, tmp_path):
    field_path = tmp_path / "g.m3sf"
    out_path = tmp_path / "l.m3sf"
    # sigma 1 is well decayed at the extent-6 box edge (e^-18), so the
    # lattice transform is clean out to its Nyquist frequency
    F = fieldio.synthesize("gaussian", 0, {"sigma": 1.0}).to_grid(extent=6.0, n=25)
    fieldio.write_field(F, str(field_path))
    code, _, _ = run_cli(
        capsys, "filter", "--in", str(field_path), "--out", str(out_path),
        "--multiplier", "laplacian",
    )
    assert code == 0
    G = fieldio.read_field(str(out_path))
    # laplacian of exp(-r^2/2) = (r^2 - 3) exp(-r^2/2)
    pts = G.grid_points()
    r2 = np.sum(pts**2, axis=1)
    expected = (r2 - 3.0) * np.exp(-r2 / 2.0)
    got = G.values_flat()[:, 0, 0].real
    interior = r2 < 4.0**2
    assert np.max(np.abs(got - expected)[interior]) < 1e-3


def test_check_command_passes_and_is_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "check", "--m", "0,1", "--seed", "3", "--profile", "quick")
    assert code == 0
    report = json.loads(out1)
    assert report["pass"] is True
    assert {s["suite"] for s in report["suites"]} == {
        "so3rep", "polyalg", "radial", "spherical", "transform",
    }
    code, out2, _ = run_cli(capsys, "check", "--m", "0,1", "--seed", "3", "--profile", "quick")
    assert out1 == out2


def test_io_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "transform", "forward", "--in", str(tmp_path / "missing.m3sf"),
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 3
    assert err


def test_json_error_stream(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "--json", "transform", "forward",
        "--in", str(tmp_path / "missing.m3sf"), "--out", str(tmp_path / "x.json"),
    )
    assert code == 3
    rec = json.loads(err.strip().split("\n")[-1])
    assert "error" in rec


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--m", "1"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["qpoly", "--m", "1", "--emit"])  # no such flag
    assert exc.value.code == 2


def test_cli_import_leaves_checks_and_scipy_unloaded():
    # only `check` needs m3sph.checks and scipy.special; every other command
    # should not pay for importing them
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (
        "import sys, m3sph.cli; "
        "print(sorted(k for k in sys.modules if k == 'm3sph.checks' or k.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_python_dash_m_runs_the_cli(capsys):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "m3sph", "rep", "--m", "1"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == run_cli(capsys, "rep", "--m", "1")[1]


@pytest.fixture
def coeff_file(capsys, tmp_path):
    field_path = tmp_path / "g.m3sf"
    coeff_path = tmp_path / "c.json"
    assert run_cli(capsys, "synth", "gaussian", "--m", "0", "--out", str(field_path))[0] == 0
    code, _, _ = run_cli(
        capsys, "transform", "forward", "--in", str(field_path), "--out", str(coeff_path)
    )
    assert code == 0
    return field_path, coeff_path


@pytest.mark.parametrize(
    "direction,flags",
    [
        ("inverse", ["--grid-n", "1"]),
        ("inverse", ["--grid-n", "0"]),
        ("inverse", ["--grid-extent", "-2"]),
        ("inverse", ["--grid-extent", "0"]),
        ("forward", ["--nr", "0"]),
        ("forward", ["--smax", "-1"]),
        ("forward", ["--smax", "inf"]),
        ("forward", ["--smax", "nan"]),
        ("inverse", ["--grid-extent", "inf"]),
    ],
)
def test_degenerate_flag_is_usage_error(capsys, tmp_path, coeff_file, direction, flags):
    infile = coeff_file[1] if direction == "inverse" else coeff_file[0]
    out_path = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(
            capsys, "transform", direction, "--in", str(infile), "--out", str(out_path), *flags
        )
    assert code == 2
    assert err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "direction,line",
    [
        ("inverse", "grid_n = 0"),
        ("inverse", "grid_n = 1"),
        ("inverse", "grid_extent = -2"),
        ("forward", "panel_width = 0"),
        ("forward", "s_max = -1"),
        ("forward", "threads = 2"),
        ("forward", "grid_n = 2.7"),
        ("forward", "s_max = inf"),
        ("forward", "panel_width = inf"),
        ("forward", "truncation_tol = inf"),
        ("inverse", "grid_extent = inf"),
        ("inverse", "grid_extent = 1e308"),
        ("forward", "s_max = abc"),
    ],
)
def test_degenerate_config_is_usage_error(capsys, tmp_path, coeff_file, direction, line):
    infile = coeff_file[1] if direction == "inverse" else coeff_file[0]
    conf = tmp_path / "m3s.conf"
    conf.write_text(line + "\n")
    out_path = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "transform", direction, "--in", str(infile), "--out", str(out_path),
        "--config", str(conf),
    )
    assert code == 2
    assert f"{conf}:1: " in err
    assert not out_path.exists()


def test_infinite_smax_on_a_grid_file_is_usage_error(capsys, tmp_path, coeff_file):
    grid_path = tmp_path / "grid.m3sf"
    code, _, _ = run_cli(
        capsys, "transform", "inverse", "--in", str(coeff_file[1]), "--out", str(grid_path),
        "--grid-n", "9",
    )
    assert code == 0
    out_path = tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, "transform", "forward", "--in", str(grid_path), "--out", str(out_path),
        "--smax", "inf",
    )
    assert code == 2
    assert "s_max" in err
    assert not out_path.exists()


@pytest.mark.parametrize("smax", ["1e4", "1e6", "1e300"])
def test_radial_forward_refuses_a_kernel_table_it_cannot_build(capsys, tmp_path, smax):
    # the r-rule of a radial field grows with s_max; beyond 2^27 kernel
    # entries forward refuses before it builds either rule (at 1e6 numpy
    # would ask for 11.8 TiB, at 1e300 for an array past its size limit)
    field_path, out_path = tmp_path / "g.m3sf", tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "synth", "gaussian", "--m", "1", "--out", str(field_path))
    assert code == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "transform", "forward", "--in", str(field_path), "--out", str(out_path),
            "--smax", smax,
        )
    assert code == 2
    assert "kernel table" in err and "s_max" in err
    assert out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["transform", "forward", "--nr", "100000"],
    ["synth", "bump", "--params", '{"s0": 1e6}'],
    ["synth", "bump", "--params", '{"s0": 1e300}'],
], ids=["forward-nr", "bump-1e6", "bump-1e300"])
def test_rule_that_cannot_be_built_is_refused(capsys, tmp_path, argv):
    # 100 000 nodes per panel, or a bump s-grid of 8e6 and 2.5e300 nodes:
    # refused by the rule's size before it is built (numpy would ask for
    # 74.5 GiB, run for minutes, or pass its array size limit)
    field_path, out_path = tmp_path / "g.m3sf", tmp_path / "out"
    assert run_cli(capsys, "synth", "gaussian", "--m", "1", "--out", str(field_path))[0] == 0
    io = ["--in", str(field_path)] if argv[0] == "transform" else ["--m", "1"]
    code, out, err = run_cli(capsys, *argv, *io, "--out", str(out_path))
    assert code == 2
    assert "Gauss-Legendre rule" in err
    assert out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("argv,what", [
    (["transform", "inverse", "--grid-n", "646"], "646^3 cube"),
    (["filter", "--multiplier", "laplacian", "--grid-n", "646"], "646^3 cube"),
    (["phi", "--m", "1", "--s", "1", "--j", "0", "--table", "29826162"], "29826162 rows"),
    (["radial", "--table", "--n", "268435457"], "268435457 rows"),
    (["radial", "--table", "--jmax", "-3", "--n", "268435457"], "268435457 rows"),
], ids=["transform-grid-n", "filter-grid-n", "phi-table", "radial-table", "radial-negative-jmax"])
def test_array_over_the_entry_budget_is_refused(capsys, tmp_path, coeff_file, argv, what):
    # each just over transform.MAX_ARRAY_ENTRIES = 2^28 entries: 646^3 at
    # m = 0, 29 826 162 rows of 3x3 matrices, 268 435 457 rows of f_0 (or
    # of r alone, for a jmax that f_upto refuses after the r column is
    # built); refused before any array is built, so no memory limit is needed
    assert 646**3 > transform.MAX_ARRAY_ENTRIES >= 645**3
    assert 29826162 * 9 > transform.MAX_ARRAY_ENTRIES >= 29826161 * 9
    field_path, coeff_path = coeff_file
    out_path = tmp_path / "out"
    io = {"transform": ["--in", str(coeff_path), "--out", str(out_path)],
          "filter": ["--in", str(field_path), "--out", str(out_path)]}.get(argv[0], [])
    code, out, err = run_cli(capsys, *argv, *io)
    assert code == 2
    assert what in err and f"over {2**28}" in err
    assert out == ""
    assert not out_path.exists()


def test_grid_extent_whose_spacing_overflows_is_usage_error(capsys, tmp_path, coeff_file):
    # 2 * 1e308 overflows, so the spacing 2 extent / (n - 1) is not finite;
    # Config names the flag's key before numpy sees the extent
    out_path = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "transform", "inverse", "--in", str(coeff_file[1]), "--out", str(out_path),
            "--grid-extent", "1e308",
        )
    assert code == 2
    assert "grid_extent" in err and "spacing" in err
    assert "RuntimeWarning" not in err and out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["rep"], ["qpoly"], ["radial", "--table"], ["phi", "--s", "1", "--j", "0", "--at", "0,0,0"],
    ["synth", "gaussian", "--out", "never.m3sf"], ["check"],
], ids=lambda argv: argv[0])
def test_negative_type_index_is_named(capsys, tmp_path, monkeypatch, argv):
    # the type index is checked before anything that depends on it
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--m", "-1")
    assert code == 2
    assert "non-negative integer" in err
    assert out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["rep"], ["synth", "gaussian", "--out", "never.m3sf"], ["synth", "bump", "--out", "never.m3sf"],
    ["check"],
], ids=["rep", "synth-gaussian", "synth-bump", "check"])
def test_huge_type_index_is_refused_before_allocation(capsys, tmp_path, monkeypatch, argv):
    # the size of type m is checked before anything of that size is built
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv, "--m", "1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "m=1000000000" in err and "Traceback" not in err
    assert peak < 32 << 20
    assert not any(tmp_path.iterdir())


def test_config_key_given_twice_is_usage_error(capsys, tmp_path, coeff_file):
    conf = tmp_path / "m3s.conf"
    conf.write_text("grid_n = 9\ns_max = 4\ngrid_n = 11\n")
    out_path = tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, "transform", "forward", "--in", str(coeff_file[0]), "--out", str(out_path),
        "--config", str(conf),
    )
    assert code == 2
    assert f"{conf}:3: duplicate key 'grid_n'" in err
    assert not out_path.exists()


def test_config_value_that_is_not_a_number_names_its_line(capsys, tmp_path, coeff_file):
    conf = tmp_path / "m3s.conf"
    conf.write_text("grid_n = 9\ns_max = abc\n")
    out_path = tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, "transform", "forward", "--in", str(coeff_file[0]), "--out", str(out_path),
        "--config", str(conf),
    )
    assert code == 2
    assert f"{conf}:2: s_max must be a number, got 'abc'" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "breakage",
    ["missing_key", "values_shape", "weights_length", "negative_m", "nan_value", "inf_s_grid",
     "negative_s_grid"],
)
def test_malformed_coefficients_is_format_error(capsys, tmp_path, coeff_file, breakage):
    doc = json.loads(coeff_file[1].read_text())
    if breakage == "missing_key":
        del doc["s_weights"]
    elif breakage == "values_shape":
        doc["values"] = [row[:-1] for row in doc["values"]]
    elif breakage == "weights_length":
        doc["s_weights"] = doc["s_weights"][:-1]
    elif breakage == "nan_value":
        doc["values"][0][3] = [float("nan"), 0.0]
    elif breakage == "inf_s_grid":
        doc["s_grid"][2] = float("inf")
    elif breakage == "negative_s_grid":
        doc["s_grid"] = [-s for s in doc["s_grid"]]
    else:
        doc["m"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out_path = tmp_path / "out.m3sf"
    code, _, err = run_cli(
        capsys, "transform", "inverse", "--in", str(bad), "--out", str(out_path)
    )
    assert code == 3
    assert err
    assert not out_path.exists()


@pytest.mark.parametrize("breakage", ["short_n", "negative_spacing", "text_spacing", "nan_payload"])
def test_malformed_field_is_format_error(capsys, tmp_path, breakage):
    F = fieldio.synthesize("gaussian", 1).to_grid(extent=2.0, n=5)
    if breakage == "nan_payload":
        F.values[2, 2, 2, 1, 1] = np.nan
    path = tmp_path / "f.m3sf"
    fieldio.write_field(F, str(path))
    head, payload = path.read_bytes().split(b"\n", 1)
    h = json.loads(head)
    if breakage == "short_n":
        h["grid"]["n"] = [5, 25]
    elif breakage == "negative_spacing":
        h["grid"]["spacing"] = -1.0
    elif breakage == "text_spacing":
        h["grid"]["spacing"] = "abc"
    path.write_bytes(json.dumps(h).encode() + b"\n" + payload)
    out_path = tmp_path / "out.m3sf"
    code, _, err = run_cli(
        capsys, "filter", "--in", str(path), "--out", str(out_path), "--multiplier", "laplacian"
    )
    assert code == 3
    assert err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "kind,params",
    [
        ("gaussian", "[1, 2]"),
        ("gaussian", "[]"),
        ("gaussian", "{not json"),
        ("gaussian", '{"sigma": -1}'),
        ("gaussian", '{"sigma": 0}'),
        ("gaussian", '{"sigma": "nan"}'),
        ("gaussian", '{"sigma": [1]}'),
        ("gaussian", '{"amplitude": "nan"}'),
        ("gaussian", '{"component": 1.7}'),
        ("gaussian", '{"component": "1"}'),
        ("plane-wave-packet", '{"s0": "inf"}'),
        ("plane-wave-packet", '{"sigma": -2}'),
        ("bump", '{"width": 0}'),
        ("bump", '{"width": -0.5}'),
        ("bump", '{"s0": -20}'),
        ("bump", '{"amplitude": "inf"}'),
    ],
)
def test_malformed_synth_params_is_usage_error(capsys, tmp_path, kind, params):
    out_path = tmp_path / "f.m3sf"
    code, out, err = run_cli(
        capsys, "synth", kind, "--m", "1", "--out", str(out_path), "--params", params
    )
    assert (code, out) == (2, "")
    assert err
    assert not out_path.exists()


def test_synth_negative_m_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "f.m3sf"
    code, out, err = run_cli(capsys, "synth", "gaussian", "--m", "-1", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "m must be a non-negative integer" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "table",
    [
        [1, 2],
        {"0": [1, 2]},
        {"0": {"s": [0.0, 20.0]}},
        {"0": {"s": [0.0, 20.0, 10.0], "re": [1.0, 1.0, 1.0]}},
        {"0": {"s": [0.0, 0.0], "re": [1.0, 1.0]}},
        {"2": {"s": [0.0, 20.0], "re": [1.0, 1.0]}},
        {"x": {"s": [0.0, 20.0], "re": [1.0, 1.0]}},
        {"0": {"s": [0.0, 20.0], "re": [1.0]}},
        {"0": {"s": [0.0, 20.0], "re": [1.0, 1.0], "im": [0.0]}},
        {"0": {"s": [], "re": []}},
        {"0": {"s": 20.0, "re": 1.0}},
        {"0": {"s": [0.0, float("nan")], "re": [1.0, 1.0]}},
        {"0": {"s": [0.0, 20.0], "re": [1.0, float("inf")]}},
        {"0": {"s": [0.0, 20.0], "re": [1.0, "1"]}},
        {"1": {"s": [0.0, 20.0], "re": [1.0, 1.0]}, "01": {"s": [0.0, 20.0], "re": [2.0, 2.0]}},
        '{"1": {"s": [0.0, 20.0], "re": [1.0, 1.0]}, "1": {"s": [0.0, 20.0], "re": [2.0, 2.0]}}',
    ],
    ids=[
        "list", "entry_list", "no_re", "s_decreasing", "s_repeated", "j_outside",
        "j_not_integer", "re_length", "im_length", "empty", "scalars", "nan_s",
        "inf_re", "text_re", "j_twice", "key_twice",
    ],
)
def test_malformed_multiplier_table_is_format_error(capsys, tmp_path, table):
    F = fieldio.synthesize("gaussian", 1).to_grid(extent=2.0, n=5)
    path = tmp_path / "f.m3sf"
    fieldio.write_field(F, str(path))
    tab_path = tmp_path / "mu.json"
    # a str is the file's text as it stands (json.dumps cannot repeat a key)
    tab_path.write_text(table if isinstance(table, str) else json.dumps(table))
    out_path = tmp_path / "out.m3sf"
    code, _, err = run_cli(
        capsys, "filter", "--in", str(path), "--out", str(out_path), "--multiplier", str(tab_path)
    )
    assert code == 3
    assert err
    assert not out_path.exists()
