"""Seeded input generator; runs in its own process, before the measured one.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes DIR/inputs.json and the files it names.  The same seed gives the
same files.  The measured process receives only these inputs, so input
generation stays out of its timings and out of its peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

import m3sph
import m3sph.cli  # noqa: F401  (compiles every module once, before set-up is timed)
from m3sph.radial import RadialProfile
from m3sph.transform import MatrixField

SCATTERED_INPUTS = 6  # point sets and field chains a run cycles through
SCATTERED_POINTS = 5000
SCATTERED_RADIUS = 3.0
KINDS = ("gaussian", "plane-wave-packet", "bump")
CHECK_SEEDS = 4  # distinct check seeds; later ops repeat them


def laplacian_of_gaussian(k: int, sigma: float) -> MatrixField:
    """The analytic Laplacian of exp(-r^2/2 sigma^2) Q_k at m = 1, radial form.

    Q_k is harmonic and homogeneous of degree k, so
    Laplacian(g Q_k) = (g'' + (2k+2) g'/r) Q_k = (r^2/sigma^4 - (3+2k)/sigma^2) g Q_k.
    """

    def zero(r):
        return np.zeros(np.shape(r), dtype=np.complex128)

    def lap(r, _k=k, _s=sigma):
        r = np.asarray(r, dtype=np.float64)
        return ((r * r / _s**4 - (3 + 2 * _k) / _s**2) * np.exp(-r * r / (2 * _s * _s))).astype(np.complex128)

    profiles = [RadialProfile(evaluator=lap if j == k else zero) for j in range(3)]
    return MatrixField.radial(1, profiles, np.linspace(0.0, 12.0 * sigma, 257))


def gen_lattice_filter(rng, out):
    # sigma stays at 1: over sigma in [0.8, 1.2] the filter's accuracy runs
    # from 6 to 12 digits (the lattice Nyquist cap below 1, the s_max
    # estimate above), so a seeded sigma would make accuracy_digits a
    # property of the seed.  Every component k is in every run.
    sigma = 1.0
    entries = []
    for e, k in enumerate(rng.permutation(3)):
        k = int(k)
        amplitude = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        params = {"sigma": sigma, "component": k, "amplitude": amplitude}
        grid = m3sph.synthesize("gaussian", 1, params).to_grid()
        path = os.path.join(out, f"in{e}.m3sf")
        m3sph.write_field(grid, path)
        ref = amplitude * laplacian_of_gaussian(k, sigma).eval_points(grid.grid_points())
        np.save(os.path.join(out, f"ref{e}.npy"), ref)
        entries.append({"field": f"in{e}.m3sf", "ref": f"ref{e}.npy", "k": k,
                        "nodes": int(np.prod(grid.shape))})
    return {"entries": entries}


def _chain_params(kind, m, rng):
    if kind == "gaussian":
        return {"sigma": float(rng.uniform(1.05, 1.25)), "component": int(rng.integers(0, 2 * m + 1))}
    if kind == "plane-wave-packet":
        return {"sigma": float(rng.uniform(1.05, 1.25)), "s0": float(rng.uniform(1.5, 2.5))}
    # the bump's accuracy moves by two digits with (s0, width), so it keeps
    # the library's defaults and accuracy_digits stays a property of the code
    return {}


def gen_scattered_roundtrip(rng, out):
    # the kind of each link is seeded through a rotation offset; every run
    # holds each offset equally often, so all runs do the same mix of work
    entries = []
    offsets = rng.permutation(np.arange(SCATTERED_INPUTS) % 3)
    for e, offset in enumerate(offsets):
        # uniform in a ball; continuous radii, so all distinct
        direction = rng.normal(size=(SCATTERED_POINTS, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        radius = SCATTERED_RADIUS * rng.uniform(0.0, 1.0, SCATTERED_POINTS) ** (1.0 / 3.0)
        pts = direction * radius[:, None]
        if np.unique(np.linalg.norm(pts, axis=1)).size != SCATTERED_POINTS:
            raise RuntimeError("scattered points share a radius")
        np.save(os.path.join(out, f"pts{e}.npy"), pts)
        chain = []
        for m in range(5):
            kind = KINDS[(m + int(offset)) % 3]
            params = _chain_params(kind, m, rng)
            ref = f"ref{e}_{m}.npy"
            np.save(os.path.join(out, ref), m3sph.synthesize(kind, m, params).eval_points(pts))
            chain.append({"m": m, "kind": kind, "params": params, "ref": ref})
        entries.append({"points": f"pts{e}.npy", "chain": chain})
    return {"entries": entries}


def gen_exact_check(rng, out):
    return {"seeds": [int(s) for s in rng.choice(2**31, size=CHECK_SEEDS, replace=False)]}


GENERATORS = {
    "lattice-filter": gen_lattice_filter,
    "scattered-roundtrip": gen_scattered_roundtrip,
    "exact-check": gen_exact_check,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    manifest = GENERATORS[args.workload](rng, args.out)
    manifest.update(workload=args.workload, seed=args.seed)
    with open(os.path.join(args.out, "inputs.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)


if __name__ == "__main__":
    main()
