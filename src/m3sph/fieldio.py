"""Field persistence (the M3SF format), synthesis, and configuration.

M3SF layout: one JSON header line terminated by a newline, then a raw
little-endian payload of IEEE-754 doubles in (re, im) pairs.

* grid form: node-major over the C-ordered lattice, then row-major matrix
  entries; payload length = n_nodes * (2m+1)^2 * 16 bytes.
* radial form: r-node-major samples of the coefficient profiles
  g_0..g_{2m}; payload length = n_r * (2m+1) * 16 bytes.

The header carries a 64-bit checksum of the payload (first 16 hex digits
of its SHA-256), so single-bit corruption is detected on read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from . import transform
from .errors import (
    ChecksumMismatchError,
    MalformedHeaderError,
    PayloadLengthError,
    UnsupportedVersionError,
)
from .radial import RadialProfile, _spline_profile
from .transform import MatrixField

MAGIC = "M3SF"
VERSION = 1


@dataclass
class Config:
    """Numerical knobs shared by the CLI; flat key=value file on disk.

    The environment variable M3S_CONFIG names a default file.  All
    tolerances must be positive, the lattice needs at least two nodes per
    axis on a positive extent, and an s_max of 0 means "estimate from the
    field".
    """

    radial_nodes_per_panel: int = 32
    panel_width: float = 4.0
    s_max: float = 0.0  # 0 = estimate from the field
    grid_extent: float = 8.0
    grid_n: int = 41
    ingest_tol: float = 1e-6
    truncation_tol: float = 1e-6

    def __post_init__(self):
        for name in ("ingest_tol", "truncation_tol", "panel_width", "grid_extent"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.radial_nodes_per_panel < 4:
            raise ValueError("radial_nodes_per_panel must be at least 4")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        if not self.s_max >= 0:
            raise ValueError("s_max must be non-negative (0 = estimate)")

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
                default = getattr(Config, key)
                kwargs[key] = type(default)(raw) if not isinstance(default, int) else int(float(raw))
        return Config(**kwargs)

    @staticmethod
    def default() -> "Config":
        path = os.environ.get("M3S_CONFIG")
        if path and os.path.exists(path):
            return Config.from_file(path)
        return Config()

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class FieldHeader:
    """Parsed M3SF header."""

    magic: str
    version: int
    m: int
    form: str
    geometry: dict
    checksum: str

    def expected_payload_bytes(self) -> int:
        d = 2 * self.m + 1
        if self.form == "grid":
            n = self.geometry["n"]
            return int(n[0]) * int(n[1]) * int(n[2]) * d * d * 16
        return len(self.geometry["r_grid"]) * d * 16


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def write_field(field: MatrixField, path: str) -> None:
    """Write a field in the bit-exact M3SF format (atomic temp + rename)."""
    if field.form == "grid":
        geometry = {
            "n": [int(n) for n in field.shape],
            "spacing": field.spacing,
            "origin": field.origin.tolist(),
        }
        payload = np.ascontiguousarray(field.values, dtype="<c16").tobytes()
        geo_key = "grid"
    else:
        geometry = {"r_grid": field.r_grid.tolist()}
        payload = np.ascontiguousarray(field.sample_profiles(), dtype="<c16").tobytes()
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
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".m3sf-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(line.encode("ascii"))
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_field(path: str, ingest_tol: float = 1e-6) -> MatrixField:
    """Read an M3SF file; verifies length and checksum.

    Grid fields get an equivariance diagnostic attached; a defect above
    ``ingest_tol`` (relative) is reported as a warning, not an error -
    sampled real data is never exactly equivariant.
    """
    with open(path, "rb") as fh:
        raw = fh.readline()
        payload = fh.read()
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
    geometry = head.get(form)
    if geometry is None:
        raise MalformedHeaderError(f"{path}: missing {form} geometry")
    header = FieldHeader(
        magic=head["magic"],
        version=head["version"],
        m=int(head["m"]),
        form=form,
        geometry=geometry,
        checksum=head.get("checksum", ""),
    )
    expected = header.expected_payload_bytes()
    if len(payload) != expected:
        raise PayloadLengthError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    if _checksum(payload) != header.checksum:
        raise ChecksumMismatchError(f"{path}: payload checksum mismatch")
    d = 2 * header.m + 1
    data = np.frombuffer(payload, dtype="<c16")
    if form == "grid":
        n = [int(v) for v in geometry["n"]]
        values = data.reshape(n[0], n[1], n[2], d, d).copy()
        fld = MatrixField.grid(
            header.m,
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
    samples = data.reshape(r_grid.size, d).copy()
    profiles = [
        _spline_profile(
            r_grid, samples[:, k], {"kind": "from-file", "k": k, "decays": True}
        )
        for k in range(d)
    ]
    return MatrixField.radial(header.m, profiles, r_grid, samples=samples)


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
    """
    params = dict(params or {})
    L = 2 * m + 1

    def zero_profile(k):
        return RadialProfile(
            evaluator=lambda r: np.zeros_like(np.asarray(r, dtype=np.float64), dtype=np.complex128),
            label={"kind": "zero", "k": k, "decays": True},
        )

    if kind == "gaussian":
        sigma = float(params.pop("sigma", 1.0))
        amp = complex(params.pop("amplitude", 1.0))
        comp = int(params.pop("component", 0))
        _reject_unknown(kind, params)
        if not 0 <= comp < L:
            raise ValueError(f"component must be in [0, {L-1}]")
        profiles = [zero_profile(k) for k in range(L)]
        profiles[comp] = RadialProfile(
            evaluator=lambda r, _a=amp, _s=sigma: _a
            * np.exp(-np.asarray(r, dtype=np.float64) ** 2 / (2 * _s * _s)).astype(np.complex128),
            label={"kind": "gaussian", "k": comp, "sigma": sigma, "decays": True},
        )
        r_max = 12.0 * sigma
    elif kind == "plane-wave-packet":
        sigma = float(params.pop("sigma", 1.0))
        s0 = float(params.pop("s0", 2.0))
        amp = complex(params.pop("amplitude", 1.0))
        _reject_unknown(kind, params)
        profiles = [zero_profile(k) for k in range(L)]
        profiles[0] = RadialProfile(
            evaluator=lambda r, _a=amp, _s=sigma, _k=s0: (
                _a
                * np.cos(_k * np.asarray(r, dtype=np.float64))
                * np.exp(-np.asarray(r, dtype=np.float64) ** 2 / (2 * _s * _s))
            ).astype(np.complex128),
            label={"kind": "plane-wave-packet", "s0": s0, "sigma": sigma, "decays": True},
        )
        r_max = 12.0 * sigma
    elif kind == "bump":
        s0 = float(params.pop("s0", 2.0))
        width = float(params.pop("width", 0.5))
        amp = complex(params.pop("amplitude", 1.0))
        _reject_unknown(kind, params)
        s_nodes, s_w = transform.gl_panels(0.0, s0 + 10.0 * width)
        bump_vals = amp * np.exp(-((s_nodes - s0) ** 2) / (2 * width * width))
        u = transform._unit_eigvecs(m)
        const = transform.inversion_constant(m)

        def make_profile(k):
            weight = s_w * s_nodes ** (k + 2)

            def ev(rho, _k=k, _weight=weight):
                from ._kernels import f_table

                rho = np.atleast_1d(np.asarray(rho, dtype=np.float64))
                fk = f_table(_k, np.multiply.outer(rho, s_nodes))[_k]
                # all 2m+1 transform rows carry the same bump profile
                usum = np.sum(u[:, _k])
                return const * usum * (fk @ (bump_vals * _weight))

            return RadialProfile(
                evaluator=ev, label={"kind": "bump-g", "k": k, "s0": s0, "decays": True}
            )

        profiles = [make_profile(k) for k in range(L)]
        r_max = max(12.0 / width, 12.0)
    else:
        raise ValueError(f"unknown field kind {kind!r}")

    n_r = 257
    return MatrixField.radial(m, profiles, np.linspace(0.0, r_max, n_r))


def _reject_unknown(kind: str, params: dict):
    if params:
        raise ValueError(f"unknown parameters for {kind!r}: {sorted(params)}")
