import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3sph import fieldio, transform
from m3sph.errors import (
    ChecksumMismatchError,
    MalformedHeaderError,
    PayloadLengthError,
    UnsupportedVersionError,
)
from m3sph.fieldio import Config, read_field, synthesize, write_field


@pytest.mark.parametrize("m", [0, 1, 2, 8])
def test_radial_roundtrip_bit_exact(m, tmp_path):
    F = synthesize("gaussian", m, {"sigma": 1.3})
    p1, p2 = tmp_path / "a.m3sf", tmp_path / "b.m3sf"
    write_field(F, str(p1))
    F2 = read_field(str(p1))
    write_field(F2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert F2.m == m and F2.form == "radial"
    # samples are bit-preserved; off-node evaluation is spline-accurate
    assert np.array_equal(F2.sample_profiles(), F.sample_profiles())
    rr = np.linspace(0, 3, 9)
    assert np.max(np.abs(F2.profiles[0](rr) - F.profiles[0](rr))) < 1e-5


@pytest.mark.parametrize("m", [0, 1, 2])
def test_grid_roundtrip_bit_exact(m, tmp_path):
    F = synthesize("gaussian", m, {"sigma": 1.0}).to_grid(extent=3.0, n=7)
    p1, p2 = tmp_path / "a.m3sf", tmp_path / "b.m3sf"
    write_field(F, str(p1))
    F2 = read_field(str(p1))
    write_field(F2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(F.values, F2.values)
    assert F2.shape == F.shape and F2.spacing == F.spacing


def test_header_shape_arithmetic(tmp_path):
    F = synthesize("gaussian", 1).to_grid(extent=4.0, n=16 + 1)  # odd for symmetry
    path = tmp_path / "f.m3sf"
    write_field(F, str(path))
    head = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert head["magic"] == "M3SF"
    assert head["version"] == 1
    assert head["form"] == "grid"
    assert head["grid"]["n"] == [17, 17, 17]
    payload = path.read_bytes().split(b"\n", 1)[1]
    assert len(payload) == 17**3 * 9 * 16


def test_error_taxonomy(tmp_path):
    F = synthesize("gaussian", 1).to_grid(extent=2.0, n=5)
    path = tmp_path / "f.m3sf"
    write_field(F, str(path))
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.m3sf"
    bad.write_bytes(b"not json at all\n" + bytes(raw.split(b"\n", 1)[1]))
    with pytest.raises(MalformedHeaderError):
        read_field(str(bad))

    head, payload = bytes(raw).split(b"\n", 1)
    h = json.loads(head)
    h["magic"] = "XXXX"
    bad.write_bytes(json.dumps(h).encode() + b"\n" + payload)
    with pytest.raises(MalformedHeaderError):
        read_field(str(bad))

    h = json.loads(head)
    h["version"] = 99
    bad.write_bytes(json.dumps(h).encode() + b"\n" + payload)
    with pytest.raises(UnsupportedVersionError):
        read_field(str(bad))

    bad.write_bytes(head + b"\n" + payload[:-8])
    with pytest.raises(PayloadLengthError):
        read_field(str(bad))

    flipped = bytearray(payload)
    flipped[37] ^= 0x40
    bad.write_bytes(head + b"\n" + bytes(flipped))
    with pytest.raises(ChecksumMismatchError):
        read_field(str(bad))


@settings(max_examples=25, deadline=None)
@given(bit=st.integers(0, 8 * 16 * 27 - 1))
def test_single_bit_corruption_always_detected(bit, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corrupt")
    rng = np.random.default_rng(0)
    vals = (rng.normal(size=(3, 3, 3, 1, 1)) + 1j * rng.normal(size=(3, 3, 3, 1, 1)))
    F = transform.MatrixField.grid(0, np.array([-1.0] * 3), 1.0, vals)
    path = tmp / "f.m3sf"
    write_field(F, str(path))
    head, payload = path.read_bytes().split(b"\n", 1)
    mutated = bytearray(payload)
    mutated[bit // 8] ^= 1 << (bit % 8)
    bad = tmp / "bad.m3sf"
    bad.write_bytes(head + b"\n" + bytes(mutated))
    with pytest.raises(ChecksumMismatchError):
        read_field(str(bad))


def test_ingest_warns_on_non_equivariant(tmp_path):
    F = synthesize("gaussian", 1).to_grid(extent=3.0, n=7)
    vals = F.values.copy()
    vals[1, 2, 3, 0, 1] += 0.3
    H = transform.MatrixField.grid(1, F.origin, F.spacing, vals)
    path = tmp_path / "h.m3sf"
    write_field(H, str(path))
    with pytest.warns(UserWarning, match="equivariance"):
        read_field(str(path))


def test_synthesize_kinds_and_errors():
    with pytest.raises(ValueError):
        synthesize("vortex", 1)
    with pytest.raises(ValueError):
        synthesize("gaussian", 1, {"sigma": 1.0, "bogus": 2})
    with pytest.raises(ValueError):
        synthesize("gaussian", 1, {"component": 7})
    F = synthesize("gaussian", 1, {"sigma": 2.0, "amplitude": 0.5})
    rr = np.linspace(0, 4, 9)
    assert np.allclose(F.profiles[0](rr), 0.5 * np.exp(-(rr**2) / 8))
    P = synthesize("plane-wave-packet", 0, {"s0": 3.0, "sigma": 1.0})
    assert np.allclose(P.profiles[0](rr), np.cos(3 * rr) * np.exp(-(rr**2) / 2))


def test_bump_roundtrips_through_transform():
    B = synthesize("bump", 0, {"s0": 2.0, "width": 0.5})
    coeffs = transform.forward(B, s_max=6.0)
    peak_s = coeffs.s_grid[np.argmax(np.abs(coeffs.values[0]))]
    assert abs(peak_s - 2.0) < 0.15
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, size=(6, 3))
    err = np.max(np.abs(transform.inverse(coeffs, pts) - B.eval_points(pts)))
    assert err < 1e-3


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "m3s.conf"
    path.write_text(
        """
# quadrature
radial_nodes_per_panel = 48
s_max = 9.5
grid_n = 21   # comment after value
"""
    )
    cfg = Config.from_file(str(path))
    assert cfg.radial_nodes_per_panel == 48
    assert cfg.s_max == 9.5
    assert cfg.grid_n == 21
    assert cfg.ingest_tol == 1e-6  # untouched default


def test_config_env_default(tmp_path, monkeypatch):
    path = tmp_path / "m3s.conf"
    path.write_text("grid_extent = 5.0\n")
    monkeypatch.setenv("M3S_CONFIG", str(path))
    assert Config.default().grid_extent == 5.0
    monkeypatch.delenv("M3S_CONFIG")
    assert Config.default().grid_extent == 8.0


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        Config(ingest_tol=0.0)
    bad = tmp_path / "bad.conf"
    bad.write_text("no_such_key = 3\n")
    with pytest.raises(ValueError):
        Config.from_file(str(bad))
    bad.write_text("just a line\n")
    with pytest.raises(ValueError):
        Config.from_file(str(bad))


def test_config_rejects_degenerate_geometry():
    for bad in ({"grid_n": 1}, {"grid_n": 0}, {"grid_extent": 0.0}, {"grid_extent": -2.0},
                {"panel_width": 0.0}, {"s_max": -1.0}, {"truncation_tol": float("nan")}):
        with pytest.raises(ValueError):
            Config(**bad)
    assert Config(s_max=0.0, grid_n=2).s_max == 0.0  # 0 still means "estimate"


def test_write_is_atomic(tmp_path):
    F = synthesize("gaussian", 0)
    target = tmp_path / "out.m3sf"
    write_field(F, str(target))
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".m3sf-")]
    assert leftovers == []
    assert target.exists()
