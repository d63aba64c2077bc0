import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from m3sph import fieldio, transform
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


def test_phi_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "phi", "--m", "0", "--s", "1", "--j", "0", "--table", "5", "--rmax", "4"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("r,phi_00_re")
    assert len(lines) == 6


def test_radial_table(capsys):
    code, out, _ = run_cli(capsys, "radial", "--table", "--jmax", "1", "--rmax", "1", "--n", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,f_0,f_1"
    row = lines[2].split(",")
    assert float(row[1]) == pytest.approx(np.sin(1.0), abs=1e-15)


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
    ],
)
def test_degenerate_flag_is_usage_error(capsys, tmp_path, coeff_file, direction, flags):
    infile = coeff_file[1] if direction == "inverse" else coeff_file[0]
    out_path = tmp_path / "out"
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
    assert err
    assert not out_path.exists()
