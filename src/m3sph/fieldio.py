"""Field persistence (the M3SF format), synthesis, and configuration.

M3SF layout: one JSON header line terminated by a newline, then a raw
little-endian payload of IEEE-754 doubles in (re, im) pairs.

* grid form: node-major over the C-ordered lattice, then row-major matrix
  entries; payload length = n_nodes * (2m+1)^2 * 16 bytes.
* radial form: r-node-major samples of the coefficient profile
  (g_0..g_{2m}); payload length = n_r * (2m+1) * 16 bytes.

The header carries a 64-bit checksum of the payload (first 16 hex digits
of its SHA-256), so single-bit corruption is detected on read.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import json
import math
import numbers
import os
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import transform
from ._kernels import check_numeric_m
from .errors import (
    ChecksumMismatchError,
    MalformedHeaderError,
    NonFinitePayloadError,
    PayloadLengthError,
    UnsupportedVersionError,
)
from .radial import RadialProfile, _spline_profile
from .so3rep import check_type_index
from .transform import MatrixField

MAGIC = "M3SF"
VERSION = 1


@dataclass
class Config:
    """Numerical knobs shared by the CLI; flat key=value file on disk.

    The environment variable M3S_CONFIG names a default file.  All
    tolerances must be positive, the lattice needs at least two nodes per
    axis on a positive extent whose spacing is finite, every float must be
    finite, and an s_max of 0 means "estimate from the field".  A cube of
    grid_n^3 nodes holding more than 2^28 matrix entries is refused when
    it is sampled (transform.MatrixField.cube).  radial_nodes_per_panel and
    panel_width size forward()'s s-grid; the r-rule of the radial-form
    transform has max(32, ceil(4 s_max / pi) + 16) nodes per panel of
    width 4 (transform._radial_ft_coeffs), and forward() refuses an s_max
    whose one radial sum over the two rules would make more than 2^27
    kernel evaluations.  Every rule comes from one cached Gauss-Legendre
    source (_kernels.gauss_legendre); one of more than 2048 nodes per
    panel, or 2^20 in all, is refused (CapabilityError).
    """

    radial_nodes_per_panel: int = transform.DEFAULT_NODES_PER_PANEL
    panel_width: float = transform.DEFAULT_PANEL_WIDTH
    s_max: float = 0.0  # 0 = estimate from the field
    grid_extent: float = transform.DEFAULT_GRID_EXTENT
    grid_n: int = transform.DEFAULT_GRID_N
    ingest_tol: float = 1e-6
    truncation_tol: float = 1e-6

    def __post_init__(self):
        for name in ("ingest_tol", "truncation_tol", "panel_width", "grid_extent"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.radial_nodes_per_panel < 4:
            raise ValueError("radial_nodes_per_panel must be at least 4")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        if not math.isfinite(2 * self.grid_extent / (self.grid_n - 1)):
            raise ValueError("grid_extent must give a finite spacing 2 * grid_extent / (grid_n - 1)")
        if not 0 <= self.s_max < math.inf:
            raise ValueError("s_max must be non-negative and finite (0 = estimate)")

    @staticmethod
    def from_file(path: str) -> "Config":
        fields = {f.name: f.type for f in dataclasses.fields(Config)}
        kwargs = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, _, raw = line.partition("=")
                key, raw = key.strip(), raw.strip()
                if key not in fields:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                if key in kwargs:
                    raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
                default = getattr(Config, key)
                try:
                    value = float(raw)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {key} must be a number, got {raw!r}") from None
                if isinstance(default, int):
                    if not value.is_integer():
                        raise ValueError(f"{path}:{lineno}: {key} must be an integer, got {raw!r}")
                    value = int(value)
                try:
                    Config(**{key: value})  # every other field at its valid default
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                kwargs[key] = value
        return Config(**kwargs)

    @staticmethod
    def default() -> "Config":
        path = os.environ.get("M3S_CONFIG")
        if path and os.path.exists(path):
            return Config.from_file(path)
        return Config()

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


def _checksum(payload) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def write_field(field: MatrixField, path: str) -> None:
    """Write a field in the bit-exact M3SF format (atomic temp + rename)."""
    if field.form == "grid":
        geometry = {
            "n": [int(n) for n in field.shape],
            "spacing": field.spacing,
            "origin": field.origin.tolist(),
        }
        payload = memoryview(np.ascontiguousarray(field.values, dtype="<c16"))
        geo_key = "grid"
    else:
        geometry = {"r_grid": field.r_grid.tolist()}
        payload = memoryview(np.ascontiguousarray(field.sample_profiles(), dtype="<c16"))
        geo_key = "radial"
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "m": field.m,
        "form": field.form,
        geo_key: geometry,
        "endianness": "little",
        "checksum": _checksum(payload),
    }
    line = json.dumps(header, sort_keys=True) + "\n"
    atomic_write(path, line.encode("ascii"), payload)


def atomic_write(path: str, *chunks) -> None:
    """Write the chunks to ``path`` through a temporary file in the same
    directory and a rename, so ``path`` never holds a partial file.  The
    file gets the mode open() gives, 0666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    # a fresh random name, created exclusively with mode 0666 so that the
    # kernel applies the umask: mkstemp makes 0600, and reading the umask
    # means setting it, which races with other threads
    tmp = os.path.join(directory, f".m3sf-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _check_geometry(path: str, form: str, geometry: dict) -> None:
    """Raise MalformedHeaderError unless the geometry describes a lattice
    (three positive integer sizes, a finite positive spacing, a finite
    origin) or a radial grid (a list of at least two finite numbers,
    strictly increasing from a first node >= 0)."""
    if form == "grid":
        n, spacing, origin = (geometry.get(k) for k in ("n", "spacing", "origin"))
        if not (isinstance(n, list) and len(n) == 3 and all(type(v) is int and v > 0 for v in n)):
            raise MalformedHeaderError(f"{path}: grid n must be three positive integers, got {n!r}")
        if not (_finite_number(spacing) and spacing > 0):
            raise MalformedHeaderError(
                f"{path}: grid spacing must be a finite positive number, got {spacing!r}"
            )
        if not (isinstance(origin, list) and len(origin) == 3 and all(map(_finite_number, origin))):
            raise MalformedHeaderError(
                f"{path}: grid origin must be three finite numbers, got {origin!r}"
            )
    else:
        r_grid = geometry.get("r_grid")
        if not (isinstance(r_grid, list) and all(map(_finite_number, r_grid))):
            raise MalformedHeaderError(f"{path}: radial r_grid must be a list of finite numbers")
        if not (len(r_grid) >= 2 and r_grid[0] >= 0
                and all(a < b for a, b in zip(r_grid, r_grid[1:]))):
            raise MalformedHeaderError(
                f"{path}: radial r_grid must hold at least two nodes, strictly increasing "
                "from a first node >= 0"
            )


def read_field(path: str, ingest_tol: float = 1e-6) -> MatrixField:
    """Read an M3SF file; verifies the header, the payload length and
    checksum, and that every payload value is finite.  A malformed header
    raises MalformedHeaderError, a NaN or infinite value
    NonFinitePayloadError.

    Grid fields get an equivariance diagnostic attached; a defect above
    ``ingest_tol`` (relative) is reported as a warning, not an error -
    sampled real data is never exactly equivariant.
    """
    with open(path, "rb") as fh:
        raw = fh.readline()
        # one read into a buffer of its own, so the values start aligned
        payload = bytearray(max(0, os.fstat(fh.fileno()).st_size - len(raw)))
        del payload[fh.readinto(payload):]
        payload += fh.read()  # what the size did not count (a pipe, a growing file)
    try:
        head = json.loads(raw.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeaderError(f"{path}: unparseable header ({exc})") from exc
    if not isinstance(head, dict) or head.get("magic") != MAGIC:
        raise MalformedHeaderError(f"{path}: missing or wrong magic")
    if head.get("version") != VERSION:
        raise UnsupportedVersionError(
            f"{path}: version {head.get('version')!r} not supported (expected {VERSION})"
        )
    form = head.get("form")
    if form not in ("grid", "radial") or "m" not in head:
        raise MalformedHeaderError(f"{path}: incomplete header")
    m = head["m"]
    if type(m) is not int or m < 0:
        raise MalformedHeaderError(f"{path}: m must be a non-negative integer, got {m!r}")
    geometry = head.get(form)
    if not isinstance(geometry, dict):
        raise MalformedHeaderError(f"{path}: missing {form} geometry")
    _check_geometry(path, form, geometry)
    d = 2 * m + 1
    rows = math.prod(geometry["n"]) * d if form == "grid" else len(geometry["r_grid"])
    expected = rows * d * 16
    if len(payload) != expected:
        raise PayloadLengthError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    if _checksum(payload) != head.get("checksum", ""):
        raise ChecksumMismatchError(f"{path}: payload checksum mismatch")
    data = np.frombuffer(payload, dtype="<c16")
    if not np.all(np.isfinite(data)):
        raise NonFinitePayloadError(f"{path}: payload holds NaN or infinite values")
    if form == "grid":
        values = data.reshape(*geometry["n"], d, d)
        fld = MatrixField.grid(
            m,
            np.array(geometry["origin"], dtype=np.float64),
            float(geometry["spacing"]),
            values,
        )
        resid = fld.equivariance_diagnostic()
        if resid is not None and resid > ingest_tol:
            warnings.warn(
                f"{path}: field equivariance defect {resid:.2e} exceeds "
                f"ingest tolerance {ingest_tol:.1e}",
                stacklevel=2,
            )
        return fld
    r_grid = np.array(geometry["r_grid"], dtype=np.float64)
    samples = data.reshape(r_grid.size, d)
    profile = _spline_profile(r_grid, samples)
    return MatrixField.radial(m, profile, r_grid, samples=samples)


# ---------------------------------------------------------------------------
# synthetic fields
# ---------------------------------------------------------------------------


def synthesize(kind: str, m: int, params: dict | None = None) -> MatrixField:
    """Generate a radial-form test field.

    kinds:
      gaussian          g_k(r) = amplitude * exp(-r^2 / (2 sigma^2)) at one
                        component index k (default 0), zero elsewhere;
      plane-wave-packet g_0(r) = amplitude * cos(s0 r) exp(-r^2/(2 sigma^2));
      bump              transform-side Gaussian bump at s0 of the given
                        width, pushed through the inversion formula.

    m must be a non-negative integer and params a mapping.  sigma and width
    must be finite and positive, amplitude and s0 finite (s0 >= 0 for the
    bump), and component an integer; anything else raises ValueError.
    """
    check_type_index(m)
    if params is not None and not isinstance(params, Mapping):
        raise ValueError(f"synthesis parameters must be a mapping, got {params!r}")
    params = dict(params or {})
    L, n_r = 2 * m + 1, 257
    transform.check_array_entries(n_r * L, f"a radial profile of {n_r} samples at m={m}")

    def in_column(k, g):
        """The evaluator with g(r) in column k and zeros elsewhere."""

        def ev(r):
            out = np.zeros(r.shape + (L,), dtype=np.complex128)
            out[..., k] = g(r)
            return out

        return ev

    if kind == "gaussian":
        sigma = _positive_param(params, "sigma", 1.0)
        amp = _finite_param(params, "amplitude", 1.0, complex)
        comp = params.pop("component", 0)
        if isinstance(comp, float) and comp.is_integer():
            comp = int(comp)
        if isinstance(comp, bool) or not isinstance(comp, numbers.Integral):
            raise ValueError(f"component must be an integer, got {comp!r}")
        comp = int(comp)
        _reject_unknown(kind, params)
        if not 0 <= comp < L:
            raise ValueError(f"component must be in [0, {L-1}]")
        profile = RadialProfile(
            evaluator=in_column(
                comp, lambda r: amp * np.exp(-(r**2) / (2 * sigma * sigma)).astype(np.complex128)
            ),
            decays=True,
        )
        r_max = 12.0 * sigma
    elif kind == "plane-wave-packet":
        sigma = _positive_param(params, "sigma", 1.0)
        s0 = _finite_param(params, "s0", 2.0)
        amp = _finite_param(params, "amplitude", 1.0, complex)
        _reject_unknown(kind, params)
        profile = RadialProfile(
            evaluator=in_column(
                0, lambda r: amp * np.cos(s0 * r) * np.exp(-(r**2) / (2 * sigma * sigma))
            ),
            decays=True,
        )
        r_max = 12.0 * sigma
    elif kind == "bump":
        s0 = _finite_param(params, "s0", 2.0)
        if s0 < 0:
            raise ValueError(f"bump s0 must be non-negative, got {s0!r}")
        width = _positive_param(params, "width", 0.5)
        amp = _finite_param(params, "amplitude", 1.0, complex)
        _reject_unknown(kind, params)
        check_numeric_m(m)
        s_nodes, s_w = transform.gl_panels(0.0, s0 + 10.0 * width)
        bump_vals = amp * np.exp(-((s_nodes - s0) ** 2) / (2 * width * width))
        # every one of the 2m+1 transform rows carries the same bump
        bump = transform.SphericalCoefficients(
            m=m, s_grid=s_nodes, s_weights=s_w, values=np.tile(bump_vals, (L, 1))
        )
        profile = transform.inverse_profile(bump)
        r_max = max(12.0 / width, 12.0)
    else:
        raise ValueError(f"unknown field kind {kind!r}")

    return MatrixField.radial(m, profile, np.linspace(0.0, r_max, n_r))


def _finite_param(params: dict, key: str, default, convert=float):
    """Pop ``key`` from params as a finite float (or complex) number."""
    raw = params.pop(key, default)
    try:
        value = convert(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {raw!r}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"{key} must be finite, got {raw!r}")
    return value


def _positive_param(params: dict, key: str, default) -> float:
    value = _finite_param(params, key, default)
    if not value > 0:
        raise ValueError(f"{key} must be positive, got {value!r}")
    return value


def _reject_unknown(kind: str, params: dict):
    if params:
        raise ValueError(f"unknown parameters for {kind!r}: {sorted(params)}")
