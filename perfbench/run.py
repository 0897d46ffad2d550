"""Benchmark of the bmwtower engine: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports the program from ``src/``.  It
sets the workload up (import, fields, and for query_mix the reps), then runs
passes over the workload's job list, one job after another, until the next
pass would end after ``--seconds``.  Every job's output is checked against
``reference.json``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead; it writes the spans of the last traced pass
to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread for numpy.linalg.eigvals; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# setup_s is the median of MIN_SETUPS to MAX_SETUPS set-ups (this process and
# fresh interpreters); more are made while they took under SETUP_BUDGET_S.
MIN_SETUPS, MAX_SETUPS = 3, 5
SETUP_BUDGET_S = 8.0
PROBE_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "pass_s": "s", "largest_job_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def environment(loadavg):
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "numpy": metadata.version("numpy"),
        "sympy_ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
    }


def run_pass(wl, reference, tracer=None):
    """One pass over the job list: (wall time per job key, jobs failed).

    A tracer, if given, is active only while a job runs, not while its
    output is checked.
    """
    times, failed = {}, 0
    for index, job in enumerate(wl.jobs):
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                output = job.run()
        except Exception as exc:  # a raising job counts as failed; keep measuring
            times[job.key] = time.perf_counter() - t0
            print(f"FAILED {job.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            continue
        times[job.key] = time.perf_counter() - t0
        try:
            ok = workloads.is_correct(job, output, reference, wl.point)
        except Exception as exc:  # unreadable output is a wrong output
            print(f"FAILED {job.key}: unreadable output: {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"FAILED {job.key}: output differs from the reference", file=sys.stderr)
            failed += 1
    return times, failed


def timed_run(wl, reference, seconds):
    """Untraced passes until the next one would likely end after ``seconds``."""
    passes, failed, start = [], 0, time.perf_counter()
    while True:
        times, f = run_pass(wl, reference)
        passes.append(times)
        failed += f
        if time.perf_counter() - start + sum(times.values()) > seconds:
            return passes, failed


def traced_run(wl, reference, seconds):
    """Alternate untraced and traced passes; per-layer medians over traced ones."""
    plain, traced, per_layer, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        times, f = run_pass(wl, reference)
        plain.append(sum(times.values()))
        failed += f
        tracer = tracing.Tracer()
        times, f = run_pass(wl, reference, tracer)
        traced.append(sum(times.values()))
        failed += f
        per_layer.append(tracing.layer_metrics(tracer))
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    metrics = {name: statistics.median_low(m[name] for m in per_layer)
               for name in per_layer[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, tracer, 2 * len(plain), failed


def setup_probe(workload, seed):
    """Set-up time measured in a fresh interpreter, so the import is included."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def report(metrics, units, attempted, failed):
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bmwtower" / "cli.py").is_file():
        print(f"bmwtower sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    loadavg = os.getloadavg()

    t0 = time.perf_counter()
    wl = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = workloads.load_reference()
    env = environment(loadavg)
    print(f"workload {wl.name} seed {args.seed} point {workloads.point_key(wl.point)} "
          f"jobs {[job.key for job in wl.jobs]}")
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics, tracer, npasses, failed = traced_run(wl, reference, args.seconds)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed,
                       "point": workloads.point_key(wl.point), "environment": env,
                       "metrics": metrics, "span_fields": ["id", "parent", "job", "name",
                                                           "t0", "t1"],
                       "jobs": [job.key for job in wl.jobs], "spans": tracer.spans}, fh)
        print(f"{npasses} passes, half of them traced; spans of the last in {path}")
        report(metrics, tracing.PER_LAYER, npasses * len(wl.jobs), failed)
        return 0

    passes, failed = timed_run(wl, reference, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s]
    while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS
                                       and sum(setups) < SETUP_BUDGET_S):
        setups.append(setup_probe(wl.name, args.seed))
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(sum(p.values()) for p in passes),
        "largest_job_s": statistics.median(p[wl.largest] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"medians of {len(passes)} passes and {len(setups)} set-ups; "
          f"largest job: {wl.largest}")
    report(metrics, END_TO_END, len(passes) * len(wl.jobs), failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
