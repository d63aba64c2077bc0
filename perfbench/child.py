"""The measured process: one workload as a closed loop with one client.

    python3 perfbench/child.py --workload NAME --inputs DIR --seconds T
        --trace 0|1 --result FILE [--setup N] [--ops N] [--perturb]

Each op is prepared (inputs loaded), run (timed) and checked against an
independent reference (untimed).  The first op warms caches and is not
timed.  With --trace 1, timed ops alternate between untraced and traced,
so the traced run also measures its own overhead.  --setup N times N
fresh interpreters running `import m3sph.cli`, between ops and spread
evenly over the run, so that they see the same host as the ops do.
--ops stops after N timed ops instead of after T seconds; --perturb
scales every output before it is checked, so each op must fail its check.
"""

import time

_T0 = time.perf_counter()
import m3sph.cli  # noqa: E402  (timed: the import every CLI invocation pays)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import m3sph  # noqa: E402
import tracing  # noqa: E402

PERTURBATION = 1.0 + 1e-3
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class CheckFailed(Exception):
    pass


def _max_rel_error(out, ref) -> float:
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(np.asarray(out) - ref))) / scale


class LatticeFilter:
    """`m3sph filter --multiplier laplacian` on an M3SF grid field, in-process.

    Reference: the analytic Laplacian of the Gaussian input, evaluated on the
    grid nodes by the generator.
    """

    tolerance = 1e-8

    def __init__(self, manifest, inputs, perturb):
        self.entries = manifest["entries"]
        self.inputs = inputs
        self.perturb = perturb
        self.out = os.path.join(inputs, "out.m3sf")

    def prepare(self, i):
        return self.entries[i % len(self.entries)]

    def run(self, entry):
        argv = ["filter", "--in", os.path.join(self.inputs, entry["field"]),
                "--out", self.out, "--multiplier", "laplacian"]
        return m3sph.cli.main(argv)

    def check(self, entry, rc):
        if rc != 0:
            raise CheckFailed(f"filter exited {rc}")
        with open(self.out, "rb") as fh:
            head = json.loads(fh.readline())
            payload = fh.read()
        if (head.get("magic"), head.get("form"), head.get("m")) != ("M3SF", "grid", 1):
            raise CheckFailed(f"unexpected header {head}")
        if hashlib.sha256(payload).hexdigest()[:16] != head.get("checksum"):
            raise CheckFailed("payload checksum mismatch")
        vals = np.frombuffer(payload, dtype="<c16").reshape(-1, 3, 3)
        if self.perturb:
            vals = vals * PERTURBATION
        err = _max_rel_error(vals, np.load(os.path.join(self.inputs, entry["ref"])))
        return err, entry["nodes"]


class ScatteredRoundtrip:
    """synthesize -> forward (radial quadrature) -> inverse at scattered
    points, for m = 0..4.  Reference: MatrixField.eval_points of the same
    field, evaluated by the generator."""

    tolerance = 1e-6

    def __init__(self, manifest, inputs, perturb):
        self.entries = manifest["entries"]
        self.inputs = inputs
        self.perturb = perturb

    def prepare(self, i):
        entry = self.entries[i % len(self.entries)]
        return entry["chain"], np.load(os.path.join(self.inputs, entry["points"]))

    def run(self, prepared):
        chain, pts = prepared
        return [
            m3sph.inverse(m3sph.forward(m3sph.synthesize(link["kind"], link["m"], link["params"])), pts)
            for link in chain
        ]

    def check(self, prepared, outs):
        chain, pts = prepared
        worst = 0.0
        for link, out in zip(chain, outs):
            if self.perturb:
                out = out * PERTURBATION
            worst = max(worst, _max_rel_error(out, np.load(os.path.join(self.inputs, link["ref"]))))
        return worst, len(chain) * pts.shape[0]


class ExactCheck:
    """`m3sph check --m 3 --profile quick --seed S`, in-process.

    Gate: exit 0, "pass": true, and the same report bytes every time a seed
    repeats.  Accuracy: the largest max_residual in the report.
    """

    tolerance = float("inf")

    def __init__(self, manifest, inputs, perturb):
        self.seeds = manifest["seeds"]
        self.perturb = perturb
        self.reports = {}

    def prepare(self, i):
        return self.seeds[i % len(self.seeds)]

    def run(self, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = m3sph.cli.main(["check", "--m", "3", "--profile", "quick", "--seed", str(seed)])
        return rc, buf.getvalue()

    def check(self, seed, output):
        rc, text = output
        if self.perturb:
            text = text.replace('"pass": true', '"pass": false')
        if rc != 0:
            raise CheckFailed(f"check exited {rc}")
        report = json.loads(text)
        if report.get("pass") is not True:
            raise CheckFailed("report says pass: false")
        if self.reports.setdefault(seed, text) != text:
            raise CheckFailed(f"report for seed {seed} differs from its earlier report")
        err = max(suite["max_residual"] for suite in report["suites"])
        return err, sum(suite["cases"] for suite in report["suites"])


WORKLOADS = {
    "lattice-filter": LatticeFilter,
    "scattered-roundtrip": ScatteredRoundtrip,
    "exact-check": ExactCheck,
}


def _openblas_threads():
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                paths.add(path)
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        threads = _openblas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "m3sph_backend": m3sph.backend() if hasattr(m3sph, "backend") else None,
        "blas": blas_name,
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup_sample() -> float:
    """Wall time of a fresh interpreter running `import m3sph.cli`."""
    # a blocking wait: waiting with a timeout polls, in steps of up to 50 ms
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import m3sph.cli"])
    try:
        rc = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)
    return elapsed


def measure(op, seconds, trace, max_ops, setup):
    """Warm-up op, then timed ops until `seconds` of op time (or `max_ops`),
    with `setup` set-up samples between them."""
    tracer = tracing.Tracer() if trace else None
    res = {"attempted": 0, "failed": 0, "errors": [], "worst_error": 0.0,
           "op_s": [], "traced_op_s": [], "work": 0, "setup_s": []}

    def attempt(i, traced):
        res["attempted"] += 1
        prepared = op.prepare(i)
        try:
            if traced:
                tracer.install()
                try:
                    out, dt = tracer.run_op(lambda: op.run(prepared))
                finally:
                    tracer.uninstall()
            else:
                start = time.perf_counter()
                out = op.run(prepared)
                dt = time.perf_counter() - start
            err, work = op.check(prepared, out)
            if not err <= op.tolerance:
                raise CheckFailed(f"relative error {err:.3e} above tolerance {op.tolerance:.1e}")
        except Exception as exc:  # every failure is counted and the loop goes on
            res["failed"] += 1
            if len(res["errors"]) < 5:
                res["errors"].append("".join(traceback.format_exception_only(type(exc), exc)).strip())
            return None
        res["worst_error"] = max(res["worst_error"], err)
        return dt, work

    attempt(0, False)
    measured, i = 0.0, 1
    while (measured < seconds) if max_ops is None else (i <= max_ops):
        if len(res["setup_s"]) < setup and measured >= seconds * len(res["setup_s"]) / setup:
            res["setup_s"].append(setup_sample())
        traced = trace and i % 2 == 0
        start = time.perf_counter()
        outcome = attempt(i, traced)
        i += 1
        if outcome is None:
            measured += time.perf_counter() - start  # failures still end the run
            continue
        dt, work = outcome
        measured += dt
        if traced:
            res["traced_op_s"].append(dt)
        else:
            res["op_s"].append(dt)
            res["work"] += work
    while len(res["setup_s"]) < setup:
        res["setup_s"].append(setup_sample())
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res, tracer


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup", type=int, default=0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()
    # asked to stop: unwind, so that a running set-up sample is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.abspath(m3sph.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"m3sph was imported from {m3sph.__file__}, not from {SRC}")
    with open(os.path.join(args.inputs, "inputs.json")) as fh:
        manifest = json.load(fh)
    op = WORKLOADS[args.workload](manifest, args.inputs, args.perturb)
    res, tracer = measure(op, args.seconds, bool(args.trace), args.ops, args.setup)
    res["import_s"] = IMPORT_S
    res["env"] = environment()
    if tracer is not None:
        if res["traced_op_s"] and res["op_s"]:
            overhead = float(np.median(res["traced_op_s"]) / np.median(res["op_s"])) - 1.0
        else:
            overhead = 0.0
        res["per_layer"] = tracer.metrics(IMPORT_S, overhead)
        res["spans"] = tracer.spans
    with open(args.result, "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main()
