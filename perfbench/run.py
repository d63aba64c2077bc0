#!/usr/bin/env python3
"""End-to-end benchmark of m3sph, with a traced run for the per-layer view.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke        # one op of each workload, self-checks
    python3 perfbench/run.py --write-spec   # regenerate BENCHMARK.json

Run from the root of a source checkout; the package is imported from
./src.  Each run goes through three processes:

1. perfbench/gen.py writes the seeded inputs (and the lattice reference);
2. perfbench/child.py runs the workload as a closed loop with one client
   and checks every output against its reference; with --trace 0 it also
   times fresh interpreters running `import m3sph.cli` (setup_s), spread
   over the run.

With --trace 0 the last line of output carries the end-to-end metrics, with
--trace 1 the per-layer metrics; earlier lines give the same figures for a
reader, with the environment the run saw.  The last run of each workload
and mode is recorded under .perfbench/last/, spans included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import tracing  # noqa: E402

# name -> (why it exists, what one unit of work is)
WORKLOADS = {
    "lattice-filter": (
        "CLI filter on the 41^3 grid at m=1: the only one with M3SF I/O, the ingest "
        "diagnostic, lattice Fourier sums and shared radii (about 1% distinct)",
        "lattice nodes filtered",
    ),
    "scattered-roundtrip": (
        "synthesize->forward->inverse at 5000 scattered points, m=0..4: distinct radii, "
        "no lattice sum, no I/O, so lattice-only gains must leave it unchanged",
        "points reconstructed, summed over m",
    ),
    "exact-check": (
        "CLI check --m 3 --profile quick: the only one in the exact polynomial layer "
        "and three-method agreement; the transform suite is skipped at m=3",
        "check cases",
    ),
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which a later change may worsen the metric before it counts as a regression.
# Timings get the widest bound: on a shared 2-core Xeon their quartile spread
# over ten seeded runs of the same code was 3-6% on lattice-filter and 9-15%
# on the two workloads that run mostly pure Python, whose speed follows the
# load on the host over tens of seconds.  exact-check's accuracy is its worst
# residual at seeded points, which spreads by ~3%.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("accuracy_digits", "digits", "higher", 0.15),
]

RUN_SECONDS = 28
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it
TAIL_FLOOR = 75.0  # ... and is never below the upper quartile
DEADLINE_S = 160  # a run ends within this, or is abandoned
STOP_GRACE_S = 10  # how long a child may take to stop when asked
# One BLAS thread: the library's BLAS calls are small, two threads were no
# faster on a 2-core machine, and they made op times depend on whether the
# second core happened to be free.
BLAS_THREADS = 1


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in tracing.per_layer_metrics()],
    }


class Run:
    """One benchmark run: a private work directory and a deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(STATE, f"work-{os.getpid()}-{workload}")
        self.deadline = time.monotonic() + DEADLINE_S
        threads = str(BLAS_THREADS)
        self.env = dict(os.environ)
        self.env.pop("M3S_CONFIG", None)
        self.env.update(
            PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            TMPDIR=self.work,
        )

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def call(self, argv):
        """Run a child to completion.  On a timeout or an interrupt the child
        is asked to stop (it then stops what it started), killed if it does
        not, and waited for."""
        remaining = self.deadline - time.monotonic()
        proc = subprocess.Popen([sys.executable] + argv, env=self.env, cwd=ROOT, stdout=sys.stderr)
        try:
            rc = proc.wait(timeout=max(1.0, remaining))
        except BaseException:
            proc.terminate()
            try:
                proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
        if rc != 0:
            raise subprocess.CalledProcessError(rc, argv)

    def generate(self):
        self.call([os.path.join(HERE, "gen.py"), "--workload", self.workload,
                   "--seed", str(self.seed), "--out", self.work])

    def child(self, seconds, trace, ops=None, perturb=False, setup_repeats=0) -> dict:
        result = os.path.join(self.work, "result.json")
        argv = [os.path.join(HERE, "child.py"), "--workload", self.workload,
                "--inputs", self.work, "--seconds", str(seconds),
                "--trace", str(trace), "--result", result, "--setup", str(setup_repeats)]
        if ops is not None:
            argv += ["--ops", str(ops)]
        if perturb:
            argv.append("--perturb")
        self.call(argv)
        with open(result) as fh:
            return json.load(fh)


def tail(times):
    """(value, percentile, ops beyond): the op time at the highest percentile
    that leaves at least TAIL_BEYOND ops beyond it, but never below TAIL_FLOOR.

    A run of a few-second ops holds 8-20 of them, too few for ten beyond any
    percentile above the median; there the tail is the upper quartile.  On a
    shared host the fastest ops of a run are the least repeatable, as they
    come from moments when the host happens to be idle.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n == 1:
        return ordered[0], 100.0, 0
    pct = max(TAIL_FLOOR, 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1))
    pos = pct / 100.0 * (n - 1)
    low = int(pos)
    high = min(low + 1, n - 1)
    value = ordered[low] + (pos - low) * (ordered[high] - ordered[low])
    return value, pct, n - 1 - low


def end_to_end(workload: str, res: dict) -> list:
    """[(name, value, unit, note)] for every end-to-end metric."""
    times = res["op_s"]
    tail_s, pct, beyond = tail(times)
    work_unit = WORKLOADS[workload][1]
    worst = res["worst_error"]
    rows = {
        "setup_s": (statistics.median(res["setup_s"]),
                    f"median of {len(res['setup_s'])} fresh interpreters running `import m3sph.cli`, "
                    "spread over the run"),
        "op_p50_s": (statistics.median(times), f"median of {len(times)} timed ops"),
        "op_tail_s": (tail_s, f"p{pct:.0f} of {len(times)} ops, {beyond} beyond it"),
        "work_per_s": (res["work"] / sum(times), f"{work_unit} per second of op time"),
        "peak_rss_mb": (res["peak_rss_mb"], "peak RSS of the measured process"),
        "accuracy_digits": (-math.log10(max(worst, 1e-18)), f"worst error {worst:.3e} against the reference"),
    }
    return [(name, rows[name][0], unit, rows[name][1]) for name, unit, _, _ in END_TO_END]


def describe_env(res: dict) -> str:
    env = res["env"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return (
        f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} cpu={cpu!r} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"backend={env['m3sph_backend']} blas={env['blas']!r} blas_threads={env['blas_threads']} "
        f"(OPENBLAS_NUM_THREADS={env['blas_threads_env']}) commit={commit}"
    )


def measure(workload, seed, seconds, trace, ops=None, perturb=False, setup_repeats=SETUP_REPEATS):
    """One run; returns (child result, metrics {name: (value, unit, note)})."""
    with Run(workload, seed) as run:
        run.generate()
        res = run.child(seconds, trace, ops=ops, perturb=perturb,
                        setup_repeats=0 if trace else setup_repeats)
    if trace:
        metrics = {name: (m["value"], m["unit"], "") for name, m in res["per_layer"].items()}
    elif res["op_s"]:
        metrics = {name: (v, u, note) for name, v, u, note in end_to_end(workload, res)}
    else:
        metrics = {}
    return res, metrics


def record(workload, trace, res, metrics, env_line):
    os.makedirs(os.path.join(STATE, "last"), exist_ok=True)
    path = os.path.join(STATE, "last", f"{workload}-trace{trace}.json")
    out = dict(res, env_line=env_line, metrics={k: v[:2] for k, v in metrics.items()})
    with open(path, "w") as fh:
        json.dump(out, fh)
    return path


def report(workload, seed, seconds, trace):
    res, metrics = measure(workload, seed, seconds, trace)
    env_line = describe_env(res)
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={trace} (closed loop, one client)")
    print(env_line)
    attempted, failed = res["attempted"], res["failed"]
    for name, (value, unit, note) in metrics.items():
        if trace and not value:
            continue
        print(f"  {name:<52} {value:>14.6g} {unit:<8} {note}")
    print(f"  {'failed_frac':<52} {failed / attempted:>14.6g} {'fraction':<8} {failed} of {attempted} ops")
    for err in res["errors"]:
        print(f"  failure: {err}")
    if trace:
        layers = sum(v for k, (v, _, _) in metrics.items() if k.endswith(".self_s"))
        total = layers + metrics["trace.bookkeeping_s"][0]
        print(f"  layer self times + bench.self_s + bookkeeping = {total:.6g} s per traced op; "
              f"trace.op_s = {metrics['trace.op_s'][0]:.6g} s")
    print(f"  recorded in {record(workload, trace, res, metrics, env_line)}")
    correct = failed == 0 and bool(metrics)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(line))


def smoke() -> bool:
    """One op of each workload: names and units, trace sums, perturbed gates."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        ok = ok and cond

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        expect(json.load(fh) == spec(), "BENCHMARK.json matches the benchmark's own tables")
    want_e2e = {n: u for n, u, _, _ in END_TO_END}
    want_layer = {n: u for n, u, _ in tracing.per_layer_metrics()}
    for workload in WORKLOADS:
        print(workload)
        res, metrics = measure(workload, 0, 0, 0, ops=1, setup_repeats=1)
        expect(res["failed"] == 0, f"one op passes its check ({res['errors']})")
        expect({k: v[1] for k, v in metrics.items()} == want_e2e, "every end-to-end metric, with its unit")
        res, metrics = measure(workload, 0, 0, 1, ops=2)
        expect(res["failed"] == 0 and len(res["traced_op_s"]) == 1, "traced op passes its check")
        expect({k: v[1] for k, v in metrics.items()} == want_layer, "every per-layer metric, with its unit")
        parts = sum(v for k, (v, _, _) in metrics.items() if k.endswith(".self_s"))
        parts += metrics["trace.bookkeeping_s"][0]
        whole = metrics["trace.op_s"][0]
        expect(abs(parts - whole) <= 1e-6 * whole, f"self times add up to the traced op ({parts:.6f} vs {whole:.6f} s)")
        res, _ = measure(workload, 0, 0, 0, ops=1, perturb=True, setup_repeats=1)
        expect(res["failed"] == res["attempted"] == 2, "perturbed outputs all fail their check")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isfile(os.path.join(SRC, "m3sph", "__init__.py")):
        print(f"perfbench: no m3sph sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if smoke() else 1
    if args.workload is None:
        parser.error("--workload is required")
    report(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
