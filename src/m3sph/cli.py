"""Command-line surface: construction, evaluation, validation, transforms.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O or format
error.  With --json, errors go to stderr as structured JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import polyalg, spherical, transform
from .errors import FieldFormatError, M3sphError
from .fieldio import Config, read_field, synthesize, write_field
from .radial import f as radial_f
from .so3rep import build_irrep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _emit_error(message: str, as_json: bool):
    if as_json:
        print(json.dumps({"error": message}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


def _parse_vec(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'x,y,z', got {text!r}")
    return np.array([float(p) for p in parts])


def _atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".m3sph-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _matrix_json(mat: np.ndarray):
    return [[[z.real, z.imag] for z in row] for row in mat]


def _load_config(args) -> Config:
    cfg = Config.from_file(args.config) if getattr(args, "config", None) else Config.default()
    flags = {
        "s_max": "smax",
        "radial_nodes_per_panel": "nr",
        "grid_n": "grid_n",
        "grid_extent": "grid_extent",
    }
    overrides = {
        key: getattr(args, flag)
        for key, flag in flags.items()
        if getattr(args, flag, None) is not None
    }
    return cfg.replace(**overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_rep(args) -> int:
    rep = build_irrep(args.m)
    print(rep.to_json())
    return EXIT_OK


def cmd_qpoly(args) -> int:
    qs = polyalg.build_Q(args.m)
    records = [{"j": j, "terms": q.to_json_obj()} for j, q in enumerate(qs)]
    print(json.dumps({"m": args.m, "Q": records}, sort_keys=True))
    return EXIT_OK


def cmd_radial(args) -> int:
    if not args.table:
        raise _Usage("radial currently only emits tables; pass --table")
    jmax = args.jmax if args.jmax is not None else 2 * args.m
    rs = np.linspace(0.0, args.rmax, args.n)
    cols = np.stack([radial_f(j, args.s * rs) for j in range(jmax + 1)])
    header = "r," + ",".join(f"f_{j}" for j in range(jmax + 1))
    print(header)
    for i, r in enumerate(rs):
        print(",".join([f"{r:.17g}"] + [f"{cols[j, i]:.17g}" for j in range(jmax + 1)]))
    return EXIT_OK


def cmd_phi(args) -> int:
    m, s, j = args.m, args.s, args.j
    if not -m <= j <= m:
        raise _Usage(f"index j={j} out of range for m={m}")
    if s <= 0:
        raise _Usage("scale s must be positive")
    if args.at is not None:
        points = [_parse_vec(args.at)]
    elif args.points_file is not None:
        with open(args.points_file) as fh:
            points = [_parse_vec(line.strip()) for line in fh if line.strip()]
    elif args.table is not None:
        return _phi_table(m, s, j, args)
    else:
        raise _Usage("need --at, --points-file, or --table")
    method = args.method
    spec1 = spherical.phi_method1(m, s, j) if method in ("1", "compare") else None
    spec3 = spherical.phi_method3(m, s, j) if method in ("3", "compare") else None
    for x in points:
        record = {"m": m, "s": s, "j": j, "x": list(x)}
        if method == "1":
            record["matrix"] = _matrix_json(spherical.eval_phi(spec1, x))
        elif method == "3":
            record["matrix"] = _matrix_json(spherical.eval_phi(spec3, x))
        elif method == "2":
            record["matrix"] = _matrix_json(spherical.phi_method2(m, s, j, x))
        else:
            v1 = spherical.eval_phi(spec1, x)
            v2 = spherical.phi_method2(m, s, j, x)
            v3 = spherical.eval_phi(spec3, x)
            record["matrix"] = _matrix_json(v1)
            record["max_deviation_12"] = float(np.max(np.abs(v1 - v2)))
            record["max_deviation_13"] = float(np.max(np.abs(v1 - v3)))
        print(json.dumps(record))
    return EXIT_OK


def _phi_table(m: int, s: float, j: int, args) -> int:
    rs = np.linspace(0.0, args.rmax, args.table)
    spec = spherical.phi_method1(m, s, j)
    xs = np.zeros((rs.size, 3))
    xs[:, 0] = rs
    vals = spherical.eval_phi_batch(spec, xs)
    d = 2 * m + 1
    names = [f"phi_{a}{b}_{part}" for a in range(d) for b in range(d) for part in ("re", "im")]
    print("r," + ",".join(names))
    for i, r in enumerate(rs):
        row = [f"{r:.17g}"]
        for a in range(d):
            for b in range(d):
                row.append(f"{vals[i, a, b].real:.17g}")
                row.append(f"{vals[i, a, b].imag:.17g}")
        print(",".join(row))
    return EXIT_OK


def _inverse_on_cube(coeffs, cfg: Config):
    """Inverse transform sampled on the cube [-grid_extent, grid_extent]^3
    with grid_n nodes per axis, as a grid-form field."""
    n = cfg.grid_n
    ax = np.linspace(-cfg.grid_extent, cfg.grid_extent, n)
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = transform.inverse(coeffs, pts, truncation_tol=cfg.truncation_tol)
    d = 2 * coeffs.m + 1
    return transform.MatrixField.grid(
        coeffs.m, np.array([ax[0]] * 3), ax[1] - ax[0], vals.reshape(n, n, n, d, d)
    )


def cmd_transform(args) -> int:
    cfg = _load_config(args)
    if args.direction == "forward":
        field = read_field(args.infile, ingest_tol=cfg.ingest_tol)
        coeffs = transform.forward(
            field,
            s_max=cfg.s_max or None,
            per_panel=cfg.radial_nodes_per_panel,
            panel_width=cfg.panel_width,
        )
        _atomic_write_text(args.outfile, coeffs.to_json() + "\n")
    else:
        with open(args.infile) as fh:
            coeffs = transform.SphericalCoefficients.from_json(fh.read())
        write_field(_inverse_on_cube(coeffs, cfg), args.outfile)
    return EXIT_OK


def _multiplier_from_spec(spec: str):
    if spec == "laplacian":
        return lambda s, j: -s * s
    if spec == "dtau":
        return lambda s, j: s * j
    with open(spec) as fh:
        table = json.load(fh)
    # custom table: {"j": {"s": [...], "re": [...], "im": [...]}, ...}
    curves = {
        int(jkey): (
            np.array(entry["s"], dtype=np.float64),
            np.array(entry["re"], dtype=np.float64),
            np.array(entry.get("im", [0.0] * len(entry["s"])), dtype=np.float64),
        )
        for jkey, entry in table.items()
    }

    def mu(s, j):
        if j not in curves:
            return 1.0
        sk, re, im = curves[j]
        return complex(np.interp(s, sk, re), np.interp(s, sk, im))

    return mu


def cmd_filter(args) -> int:
    cfg = _load_config(args)
    field = read_field(args.infile, ingest_tol=cfg.ingest_tol)
    mu = _multiplier_from_spec(args.multiplier)
    coeffs = transform.forward(
        field,
        s_max=cfg.s_max or None,
        per_panel=cfg.radial_nodes_per_panel,
        panel_width=cfg.panel_width,
    )
    filtered = transform.apply_multiplier(coeffs, mu)
    if field.form == "grid":
        pts = field.grid_points()
        vals = transform.inverse(filtered, pts, truncation_tol=cfg.truncation_tol)
        out = transform.MatrixField.grid(
            field.m,
            field.origin,
            field.spacing,
            vals.reshape(*field.shape, field.dim, field.dim),
        )
    else:
        out = _inverse_on_cube(filtered, cfg)
    write_field(out, args.outfile)
    return EXIT_OK


def cmd_synth(args) -> int:
    params = json.loads(args.params) if args.params else {}
    field = synthesize(args.kind, args.m, params)
    write_field(field, args.outfile)
    return EXIT_OK


def cmd_check(args) -> int:
    from .checks import run_checks  # scipy.special is only needed here

    ms = [int(v) for v in args.m.split(",")] if args.m else [0, 1]
    report = run_checks(ms=ms, seed=args.seed, profile=args.profile)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


class _Usage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m3sph",
        description="Matrix spherical analysis of the 3-D Euclidean motion group",
    )
    parser.add_argument("--json", action="store_true", help="structured errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rep", help="emit irrep generator data as JSON")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("qpoly", help="emit the exact invariant polynomials as JSON")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--emit", action="store_true", help="kept for symmetry; output is always emitted")
    p.set_defaults(func=cmd_qpoly)

    p = sub.add_parser("radial", help="CSV table of the radial kernels")
    p.add_argument("--table", action="store_true")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--jmax", type=int, default=None)
    p.add_argument("--rmax", type=float, default=20.0)
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--s", type=float, default=1.0)
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("phi", help="evaluate spherical functions")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--method", choices=["1", "2", "3", "compare"], default="1")
    p.add_argument("--at", type=str, default=None, help="point 'x,y,z'")
    p.add_argument("--points-file", type=str, default=None)
    p.add_argument("--table", type=int, default=None, help="emit CSV along e_1 with N rows")
    p.add_argument("--rmax", type=float, default=10.0)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("transform", help="spherical Fourier transform of a field")
    p.add_argument("direction", choices=["forward", "inverse"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--smax", type=float, default=None)
    p.add_argument("--nr", type=int, default=None)
    p.add_argument("--grid-n", type=int, default=None)
    p.add_argument("--grid-extent", type=float, default=None)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("filter", help="apply a transform-side multiplier to a field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--multiplier", required=True, help="laplacian | dtau | table.json")
    p.add_argument("--smax", type=float, default=None)
    p.add_argument("--nr", type=int, default=None)
    p.add_argument("--grid-n", type=int, default=None)
    p.add_argument("--grid-extent", type=float, default=None)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("synth", help="write a synthetic test field")
    p.add_argument("kind", choices=["gaussian", "bump", "plane-wave-packet"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--params", type=str, default=None, help="JSON parameter object")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("check", help="run the invariant suites")
    p.add_argument("--m", type=str, default="0,1", help="comma-separated type indices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=["quick", "full"], default="quick")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        _emit_error(str(exc), args.json)
        return EXIT_USAGE
    except (FieldFormatError, OSError, json.JSONDecodeError) as exc:
        _emit_error(str(exc), args.json)
        return EXIT_IO
    except (M3sphError, ValueError) as exc:
        _emit_error(str(exc), args.json)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
