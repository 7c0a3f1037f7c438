"""segpart benchmark: time to solution of three workloads, one process per run.

    python3 perfbench/run.py --workload sweep_rect48 --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 20 --trace 0

Run from the root of a source checkout; segpart is imported from ``src/``.
A run writes the workload's configs, then times set-up (importing segpart,
parsing the configs, building the domains) in this process and in
``SETUP_CHILDREN`` fresh ones, then repeats the workload's unit of work
until ``--seconds`` have passed (at least once), checking each repeat's
outputs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of one unit of work;
* ``cpu_s``: median user plus system CPU time of the same units, all
  threads of the process (BLAS uses both cores);
* ``peak_rss_mb``: peak resident memory of the run's process;
* ``setup_s``: median set-up time over the samples above.

The share of failed operations, ``failed_frac = failed / attempted``, is
printed with them; it is 0 on a correct run, so the result carries it as
``failed`` and ``attempted`` rather than as a metric.

``--trace 1`` runs traced units until ``--seconds`` have passed (at least
once) and reports the per-layer metrics of ``spans.py``, medians over the
units, with ``trace.overhead_s``: the time the wrappers spent outside
their spans, i.e. traced wall time minus the same unit's untraced cost.
Differencing a traced and an untraced unit instead would bury the
milliseconds tracing adds under seconds of run-to-run noise, and double
the traced run.  Spans go to ``spans.json`` in the run's output directory.

``--smoke`` runs every workload at n=32, once; ``--workload all`` runs
each workload in its own process and exits 1 unless all are correct.
Each run also writes ``result.json`` with the environment: core count,
library versions, BLAS and its thread variables, and git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_CHILDREN = 2
UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "SEGPART_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="n=32, one repeat")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
    }


def timed_setup(workload, paths: dict, seed: int):
    t0 = time.perf_counter()
    ctx = workload.setup(paths, seed)
    elapsed = time.perf_counter() - t0
    import segpart

    if not os.path.abspath(segpart.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"segpart imported from {segpart.__file__}, not {SRC}")
    return ctx, elapsed


def child_setup_seconds(args) -> float:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure(workload, ctx, seconds: float, once: bool, traced: bool = False):
    """Repeat the unit of work; returns per-repeat records and check totals."""
    reps, attempted, failures = [], 0, []
    start = time.perf_counter()
    while not reps or (not once and time.perf_counter() - start < seconds):
        tracer = restore = None
        if traced:
            tracer = spans.Tracer()
            restore = spans.install(tracer)
        try:
            c0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            if tracer is None:
                out = workload.run(ctx)
            else:
                with tracer.span(spans.ROOT):
                    out = workload.run(ctx)
            wall = time.perf_counter() - t0
            c1 = resource.getrusage(resource.RUSAGE_SELF)
        finally:
            if restore is not None:
                restore()
        cpu = (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime)
        t0 = time.perf_counter()
        n, fails = workload.check(ctx, out)
        check = time.perf_counter() - t0
        attempted += n
        failures += fails
        reps.append({"wall_s": wall, "cpu_s": cpu, "check_s": check, "tracer": tracer})
    return reps, attempted, failures


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    outdir = os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    configs = workload.configs(args.seed, args.smoke, outdir)
    paths = {label: os.path.join(outdir, f"config-{label}.json") for label in configs}
    if args.setup_only:  # the parent wrote the configs
        _, elapsed = timed_setup(workload, paths, args.seed)
        print(repr(elapsed))
        return 0

    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    for label, cfg in configs.items():
        with open(paths[label], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1)
    ctx, setup_main = timed_setup(workload, paths, args.seed)

    if args.trace == 0:
        setup = [setup_main] + [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]
        reps, attempted, failures = measure(workload, ctx, args.seconds, args.smoke)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = UNITS
        detail = {"setup_samples_s": setup}
    else:
        t_start = time.perf_counter()
        reps, attempted, failures = measure(
            workload, ctx, args.seconds, args.smoke, traced=True
        )
        per_rep = [r["tracer"].layer_metrics() for r in reps]
        units = dict(spans.layer_units())
        units.update({"trace.overhead_s": "s", "trace.spans": "count"})
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        values["trace.overhead_s"] = statistics.median(r["tracer"].overhead_s for r in reps)
        values["trace.spans"] = statistics.median(len(r["tracer"].spans) for r in reps)
        detail = {}
        with open(os.path.join(outdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([r["tracer"].records(t_start) for r in reps], fh)

    env = environment()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, failures=failures, env=env,
                  repeats=[{k: r[k] for k in ("wall_s", "cpu_s", "check_s")} for r in reps],
                  **detail)
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} repeat(s), outputs in {os.path.relpath(outdir, ROOT)}")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted})")
    for msg in failures:
        print(f"  FAILED {msg}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; exits 1 unless all are correct."""
    verdicts = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        correct = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        verdicts[name] = "correct" if correct else "FAILED"
    print("summary: " + ", ".join(f"{k} {v}" for k, v in verdicts.items()))
    return 0 if all(v == "correct" for v in verdicts.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "segpart", "__init__.py")):
        print(f"no segpart source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
