import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3sph import _kernels, fieldio, spherical, transform
from m3sph.cli import main
from m3sph.errors import (
    CapabilityError,
    ChecksumMismatchError,
    FieldFormatError,
    MalformedHeaderError,
    NonFinitePayloadError,
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
    assert np.max(np.abs(F2.profile(rr)[..., 0] - F.profile(rr)[..., 0])) < 1e-5


def _per_component_spline_field(path):
    """A radial file read with one real spline pair per component g_k."""
    from scipy.interpolate import CubicSpline

    F = read_field(str(path))
    lo, hi = F.r_grid[0], F.r_grid[-1]

    def component(g):
        re, im = CubicSpline(F.r_grid, g.real), CubicSpline(F.r_grid, g.imag)
        return fieldio.RadialProfile(
            evaluator=lambda r: np.where((r >= lo) & (r <= hi), re(r) + 1j * im(r), 0.0 + 0.0j),
            decays=True,
        )

    samples = F.sample_profiles()
    return transform.MatrixField.radial(
        F.m, [component(samples[:, k]) for k in range(F.dim)], F.r_grid, samples=samples
    )


@pytest.mark.parametrize("kind, m, params", [
    ("gaussian", 2, {"sigma": 1.2, "component": 3}),
    ("plane-wave-packet", 1, {"s0": 1.7}),
    ("bump", 2, {}),
])
def test_radial_file_forward_matches_per_component_splines(tmp_path, kind, m, params):
    # the one spline through all real and imaginary columns is the per-component
    # pair to the bit, so the forward JSON keeps its bytes
    path = tmp_path / "f.m3sf"
    write_field(synthesize(kind, m, params), str(path))
    F = read_field(str(path))
    rr = np.linspace(-1.0, F.r_grid[-1] + 1.0, 301)
    ref = _per_component_spline_field(path)
    assert np.array_equal(F.profile(rr), ref.profile(rr))
    assert transform.forward(F).to_json() == transform.forward(ref).to_json()


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


@pytest.mark.parametrize("m,form", [(1, "grid"), (2, "radial")])
def test_trailing_payload_bytes_are_a_length_error(tmp_path, m, form):
    F = synthesize("gaussian", m)
    path = tmp_path / "f.m3sf"
    write_field(F.to_grid(extent=2.0, n=5) if form == "grid" else F, str(path))
    path.write_bytes(path.read_bytes() + bytes(16))
    with pytest.raises(PayloadLengthError):
        read_field(str(path))


@pytest.mark.parametrize("content,error", [
    (b"", MalformedHeaderError),
    (b"M3SF", MalformedHeaderError),
    ("header", PayloadLengthError),  # a valid header line with no newline after it
])
def test_a_file_without_a_newline_is_all_header(capsys, tmp_path, content, error):
    F = synthesize("gaussian", 1).to_grid(extent=2.0, n=5)
    path = tmp_path / "f.m3sf"
    write_field(F, str(path))
    if content == "header":
        content = path.read_bytes().split(b"\n", 1)[0]
    path.write_bytes(content)
    with pytest.raises(error):
        read_field(str(path))
    out_path = tmp_path / "out.m3sf"
    code = main(["filter", "--in", str(path), "--out", str(out_path), "--multiplier", "laplacian"])
    err = capsys.readouterr().err
    assert code == 3
    assert err and "Traceback" not in err
    assert not out_path.exists()


def test_read_values_are_writable_and_aligned(tmp_path):
    # the payload lands in a buffer of its own: no copy, and no misaligned
    # view at the header's byte offset
    G = synthesize("gaussian", 1).to_grid(extent=2.0, n=5)
    R = synthesize("gaussian", 2, {"component": 3})
    for F, name in ((G, "g.m3sf"), (R, "r.m3sf")):
        write_field(F, str(tmp_path / name))
    values = read_field(str(tmp_path / "g.m3sf")).values
    samples = read_field(str(tmp_path / "r.m3sf")).sample_profiles()
    for arr, ref in ((values, G.values), (samples, R.sample_profiles())):
        assert arr.flags.writeable and arr.flags.aligned
        assert np.array_equal(arr, ref)
        arr[0] += 1.0
        assert arr[0].ravel()[0] == ref[0].ravel()[0] + 1.0


def test_read_field_reads_a_pipe(tmp_path):
    # a pipe reports no size: the payload is whatever follows the header
    F = synthesize("gaussian", 1).to_grid(extent=2.0, n=5)
    path, fifo = tmp_path / "f.m3sf", tmp_path / "pipe"
    write_field(F, str(path))
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        G = read_field(str(fifo))
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert np.array_equal(G.values, F.values)


def _rewrite_header(src, dst, edit):
    head, payload = src.read_bytes().split(b"\n", 1)
    h = json.loads(head)
    edit(h)
    dst.write_bytes(json.dumps(h).encode() + b"\n" + payload)


@pytest.mark.parametrize(
    "key,value",
    [
        ("n", [5, 25]),
        ("n", [5, 5, 0]),
        ("n", [5, 5, -5]),
        ("n", [5, 5, 5.0]),
        ("n", "555"),
        ("spacing", -1.0),
        ("spacing", 0.0),
        ("spacing", "abc"),
        ("spacing", float("nan")),
        ("spacing", float("inf")),
        ("origin", [0.0, float("nan"), 0.0]),
        ("origin", [float("-inf"), 0.0, 0.0]),
        ("origin", [0.0, 0.0]),
        ("m", -1),
        ("m", 1.5),
        ("m", "1"),
    ],
)
def test_malformed_grid_header_is_format_error(tmp_path, key, value):
    F = synthesize("gaussian", 1).to_grid(extent=2.0, n=5)
    path, bad = tmp_path / "f.m3sf", tmp_path / "bad.m3sf"
    write_field(F, str(path))

    def edit(h):
        (h if key == "m" else h["grid"])[key] = value

    _rewrite_header(path, bad, edit)
    with pytest.raises(FieldFormatError):
        read_field(str(bad))


@pytest.mark.parametrize("breakage", ["nan_node", "text_node", "nested", "unsorted", "repeated",
                                      "negative_node", "one_node", "empty"])
def test_malformed_radial_header_is_format_error(tmp_path, breakage):
    # the header is refused before its payload is read, so the edits that
    # shorten r_grid are refused for the grid, not for the payload length
    path, bad = tmp_path / "f.m3sf", tmp_path / "bad.m3sf"
    write_field(synthesize("gaussian", 0), str(path))

    def edit(h):
        r_grid = h["radial"]["r_grid"]  # edits above "one_node" keep its length
        if breakage == "nan_node":
            r_grid[3] = float("nan")
        elif breakage == "text_node":
            r_grid[3] = "abc"
        elif breakage == "unsorted":
            r_grid[3], r_grid[4] = r_grid[4], r_grid[3]
        elif breakage == "repeated":
            r_grid[4] = r_grid[3]
        elif breakage == "negative_node":
            r_grid[0] = -1.0
        elif breakage == "one_node":
            del r_grid[1:]
        elif breakage == "empty":
            r_grid.clear()
        else:
            h["radial"]["r_grid"] = [[r] for r in r_grid]

    _rewrite_header(path, bad, edit)
    with pytest.raises(MalformedHeaderError):
        read_field(str(bad))


@pytest.mark.parametrize("form", ["grid", "radial"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_payload_is_format_error(tmp_path, form, bad):
    F = synthesize("gaussian", 1)
    if form == "grid":
        F = F.to_grid(extent=2.0, n=5)
        F.values[1, 2, 3, 0, 1] = bad
    else:
        F.radial_samples = F.sample_profiles().copy()
        F.radial_samples[3, 1] = bad
    path = tmp_path / "f.m3sf"
    write_field(F, str(path))
    with pytest.raises(NonFinitePayloadError):
        read_field(str(path))


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
    assert np.allclose(F.profile(rr)[..., 0], 0.5 * np.exp(-(rr**2) / 8))
    P = synthesize("plane-wave-packet", 0, {"s0": 3.0, "sigma": 1.0})
    assert np.allclose(P.profile(rr)[..., 0], np.cos(3 * rr) * np.exp(-(rr**2) / 2))


# widths whose 2 w^2 is no positive normal float, or whose sample grid end
# r_max (12 sigma, or 12 / width for the bump) has an overflowing square
UNREPRESENTABLE_WIDTHS = [
    ("gaussian", 1, {"sigma": 1e-300}, "sigma"),
    ("gaussian", 1, {"sigma": 1e300}, "sigma"),
    ("bump", 0, {"width": 1e-300}, "width"),
    ("plane-wave-packet", 0, {"sigma": 5e153}, "sigma"),
    ("bump", 0, {"width": 2e-154}, "width"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, m, params, key", UNREPRESENTABLE_WIDTHS)
def test_synthesize_refuses_a_width_its_formula_cannot_represent(kind, m, params, key):
    with pytest.raises(ValueError, match=f"^{key}[ =]"):
        synthesize(kind, m, params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s0", [1.7e308, -1.7e308, 1.5e307])
def test_plane_wave_packet_refuses_an_s0_whose_phase_leaves_float_range(s0):
    # the samples run to r_max = 12 sigma = 12, where s0 r overflows
    with pytest.raises(ValueError, match="^s0="):
        synthesize("plane-wave-packet", 1, {"s0": s0})
    served = synthesize("plane-wave-packet", 1, {"s0": 1.4e307}).sample_profiles()
    assert np.isfinite(served).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [1e307, 1.7e308])
def test_bump_whose_inversion_sums_leave_float_range_is_refused(amplitude):
    # the bump's profile is the inversion sum of its coefficients, which
    # overflows in the barycentric interpolant (1e307) or in the inversion
    # matrix (1.7e308); its samples are refused, not written as NaN
    B = synthesize("bump", 1, {"amplitude": amplitude})
    with pytest.raises(CapabilityError, match="float range"):
        B.sample_profiles()
    assert np.isfinite(synthesize("bump", 1, {"amplitude": 1e306}).sample_profiles()).all()


@pytest.mark.parametrize("kind", ["gaussian", "bump", "plane-wave-packet"])
def test_synthesize_refuses_a_negative_m_first(kind):
    with pytest.raises(ValueError, match="m must be a non-negative integer"):
        synthesize(kind, -1)


def test_bump_roundtrips_through_transform():
    B = synthesize("bump", 0, {"s0": 2.0, "width": 0.5})
    coeffs = transform.forward(B, s_max=6.0)
    peak_s = coeffs.s_grid[np.argmax(np.abs(coeffs.values[0]))]
    assert abs(peak_s - 2.0) < 0.15
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, size=(6, 3))
    err = np.max(np.abs(transform.inverse(coeffs, pts) - B.eval_points(pts)))
    assert err < 1e-3


def _bump_profile_closed_form(m, k, rho, s0, width):
    """g_k(rho) = C (sum_j u_k^{(1,j)}) sum_q w_q s_q^{k+2} bump(s_q) f_k(s_q rho)."""
    s, w = transform.gl_panels(0.0, s0 + 10.0 * width)
    bump = np.exp(-((s - s0) ** 2) / (2 * width * width))
    fk = _kernels.f_table(k, np.multiply.outer(rho, s))[k]
    usum = np.sum(spherical.unit_eigvecs(m)[:, k])
    return transform.inversion_constant(m) * usum * (fk @ (bump * w * s ** (k + 2)))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_bump_profiles_match_closed_form(m):
    B = synthesize("bump", m, {"s0": 1.5, "width": 0.4})
    rho = np.linspace(0.0, 12.0, 31)
    ref = [_bump_profile_closed_form(m, k, rho, 1.5, 0.4) for k in range(2 * m + 1)]
    scale = max(np.max(np.abs(r)) for r in ref)
    for k in range(2 * m + 1):
        assert np.max(np.abs(B.profile(rho)[..., k] - ref[k])) <= 1e-13 * scale


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


def test_config_refuses_a_key_given_twice(tmp_path):
    path = tmp_path / "m3s.conf"
    path.write_text("grid_n = 9\n# the same key again\ngrid_n = 11\n")
    with pytest.raises(ValueError, match=r"m3s.conf:3: duplicate key 'grid_n'"):
        Config.from_file(str(path))


def test_config_integer_keys_reject_fractions(tmp_path):
    path = tmp_path / "m3s.conf"
    for raw, expected in (("5", 5), ("5.0", 5)):
        path.write_text(f"grid_n = {raw}\nradial_nodes_per_panel = {raw}\n")
        cfg = Config.from_file(str(path))
        assert (cfg.grid_n, cfg.radial_nodes_per_panel) == (expected, expected)
        assert type(cfg.grid_n) is int
    for line in ("grid_n = 2.7", "radial_nodes_per_panel = 4.9", "grid_n = nan"):
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="integer"):
            Config.from_file(str(path))


def test_config_rejects_degenerate_geometry():
    for bad in ({"grid_n": 1}, {"grid_n": 0}, {"grid_extent": 0.0}, {"grid_extent": -2.0},
                {"panel_width": 0.0}, {"s_max": -1.0}, {"truncation_tol": float("nan")},
                {"s_max": float("inf")}, {"s_max": float("nan")}, {"panel_width": float("inf")},
                {"grid_extent": float("inf")}, {"ingest_tol": float("inf")},
                {"truncation_tol": float("inf")}):
        with pytest.raises(ValueError):
            Config(**bad)
    assert Config(s_max=0.0, grid_n=2).s_max == 0.0  # 0 still means "estimate"


def test_write_refuses_a_profile_of_the_wrong_width(tmp_path):
    # at m = 1 the profile must give 3 coefficients per radius, not 2
    F = transform.MatrixField.radial(
        1, lambda r: np.stack([np.exp(-r * r), r * 0.0], axis=-1), np.linspace(0.0, 6.0, 31)
    )
    target = tmp_path / "out.m3sf"
    with pytest.raises(ValueError, match=r"\(31, 3\)"):
        write_field(F, str(target))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_the_mode_the_umask_gives(tmp_path, umask, mode):
    # the temporary file is made 0600; the renamed output must not keep that
    old = os.umask(umask)
    try:
        write_field(synthesize("gaussian", 0), str(tmp_path / "out.m3sf"))
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "out.m3sf").st_mode & 0o777 == mode


def test_write_is_atomic(tmp_path):
    F = synthesize("gaussian", 0)
    target = tmp_path / "out.m3sf"
    write_field(F, str(target))
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".m3sf-")]
    assert leftovers == []
    assert target.exists()
