"""Benchmark runner for thetalab: one workload, one seed, one timed window.

    python3 bench/run.py --workload verify-trig --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The runner

  1. times set-up (import thetalab and generate the inputs) in SETUP_PROBES
     fresh processes and keeps the median as `setup_s` (untraced runs only);
  2. imports thetalab, generates the seeded inputs and runs one untimed
     warm-up operation;
  3. runs operations, one at a time, until the window of --seconds has
     passed and at least MIN_OPS operations have completed (a floor that
     binds only when operations run slower than a third of the window);
  4. reads the peak resident set, then checks every output (see checks.py);
  5. prints one JSON line: correct, attempted, failed and the metrics.

Set-up time is scaled to a reference speed: each probe's wall time is
multiplied by CAL_REF over the time of the reference loop `calibrate`, run
in the same process right after it.  On a shared 2-core VM the speed
drifts by 20-50% over minutes, and a probe and its loop, half a second
apart, see the same speed.  Operation times are wall times: a short
loop between operations of several seconds does not see the speed they ran
at, and scaling by it made op_s less steady, not more.

With --trace 0 the metrics are the end-to-end ones: op_s (median wall time
of one operation), ops_per_s, peak_rss_mb and setup_s.  With --trace 1 the
tracer in spans.py wraps each layer's public functions and the metrics are
the per-layer ones (per operation, median over the window); they are also
written to bench/results/trace-<workload>-<seed>.json.  End-to-end numbers
never come from a traced run.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
# a probe costs about 0.9 s of wall time with its calibration; scaled probes
# of the same set-up still vary by about a tenth, so the median takes several
SETUP_PROBES = 7
# a median of three can drop one slow operation
MIN_OPS = 3
# seconds `calibrate` takes at the reference speed: about its median in a
# fresh probe process on the 2-core box of the README's figures, so scaled
# set-up times read close to wall times
CAL_REF = 0.25


def calibrate() -> float:
    """Wall time of a fixed reference loop that runs no thetalab code.

    It mixes the three kinds of work in a plan: interpreted complex
    arithmetic (the quadrature and sheet tracking), many small numpy calls
    and passes over a large array (the theta sums)."""
    import cmath
    import numpy as np
    a = np.linspace(0.0, 1.0, 200_000)
    t0 = time.perf_counter()
    z = 0j
    for i in range(75_000):
        z = cmath.sqrt(z * z + complex(i, 1.0)) * 0.5
    x = np.zeros(8)
    for _ in range(10_000):
        x = np.sqrt(x + 1.0)
    for _ in range(20):
        np.exp(1j * a) * a
    return time.perf_counter() - t0


def _use_checkout_source():
    if not os.path.isfile(os.path.join(SRC, "thetalab", "__init__.py")):
        print(f"error: no thetalab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _setup_probe(workload: str, seed: int, workdir: str) -> tuple[float, float]:
    """(set-up wall time, calibration time right after it)."""
    t0 = time.perf_counter()
    import thetalab  # noqa: F401
    import workloads
    workloads.Workload(workload, seed, workdir)
    return time.perf_counter() - t0, calibrate()


def measure_setup(workload: str, seed: int, workdir: str) -> list[tuple[float, float]]:
    """_setup_probe in SETUP_PROBES fresh processes."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--workdir", workdir],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup, cal = proc.stdout.split()[-2:]
        probes.append((float(setup), float(cal)))
    return probes


def run_window(wl, seconds: float, tracer=None):
    """Warm up once, then run operations until the window is done.

    Returns (warm, records, window_s): the warm-up (op, output), and one
    record per timed operation: (op, duration or None if it raised,
    collected output, trace snapshot)."""
    op = wl.next_op()
    warm = (op, op.collect(op()))
    records = []
    start = time.perf_counter()
    while True:
        op = wl.next_op()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            raw = op()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            records.append((op, None, None, None))
        else:
            dt = time.perf_counter() - t0
            out = op.collect(raw)
            snap = None
            if tracer is not None:
                snap = tracer.snapshot()
                snap["thomae.reports"] = op.reports(out)
            records.append((op, dt, out, snap))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= MIN_OPS:
            return warm, records, elapsed


def check_records(warm, records, seed: int) -> tuple[int, list[str]]:
    """(failed operations, errors in the outputs of the others)."""
    import numpy as np
    import thetalab.theta
    import checks
    import workloads

    failed = 0
    errors: list[str] = []
    warm_op, warm_out = warm
    reference: dict[str, bytes] = {}
    if isinstance(warm_op, workloads.VerifyOp):
        reference = {p.label: jsonl for p, (_, jsonl) in zip(warm_op.plans, warm_out)}
    done = []
    for op, dt, out, _ in records:
        if dt is None or (isinstance(op, workloads.VerifyOp) and any(rc for rc, _ in out)):
            failed += 1
            continue
        if isinstance(op, workloads.VerifyOp):
            for p, (rc, jsonl) in zip(op.plans, out):
                errs = checks.check_verify_output(p.plan, rc, jsonl, reference.get(p.label))
                errors += [f"{p.label}: {e}" for e in errs]
        else:
            errs = [e for o in out for e in checks.check_theta_bounds(o, workloads.THETA_TOL)]
            errors += [f"{op.label}: {e}" for e in errs]
            done.append((op, out))
    if done:
        # one seeded matrix per genus of one seeded batch against the box sum
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        op, out = done[int(rng.integers(0, len(done)))]
        per_genus = len(workloads.THETA_MIN_EIGS) * workloads.THETA_REPEATS
        for gi in range(len(workloads.THETA_GENERA)):
            i = gi * per_genus + int(rng.integers(0, per_genus))
            errs = (checks.check_theta_oracle(op.batch[i], out[i])
                    + checks.check_theta_identities(thetalab.theta, op.batch[i], out[i],
                                                    workloads.THETA_TOL, rng))
            errors += [f"{op.label} item {i}: {e}" for e in errs]
    return failed, errors


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _use_checkout_source()
    if args.setup_probe:
        print(*map(repr, _setup_probe(args.workload, args.seed, args.workdir)))
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        probes = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
        t0 = time.perf_counter()
        wl = workloads.Workload(args.workload, args.seed, workdir)
        setup_here = time.perf_counter() - t0
        if args.trace:
            import spans
            with spans.Tracer() as tracer:
                warm, records, window = run_window(wl, args.seconds, tracer)
        else:
            warm, records, window = run_window(wl, args.seconds)
        rss = peak_rss_mb()
        failed, errors = check_records(warm, records, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    durations = [dt for _, dt, _, _ in records if dt is not None]
    completed = len(durations)
    if not completed:
        print("error: every operation failed", file=sys.stderr)
        return 1
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "window_s": window, "op_durations_s": durations,
            "setup_probes_s": probes, "setup_in_process_s": setup_here}
    if args.trace:
        import spans
        snaps = [snap for _, dt, _, snap in records if dt is not None]
        per_layer = {name: statistics.median(s[name] for s in snaps)
                     for name in spans.METRICS}
        metrics = {name: {"value": per_layer[name],
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name in spans.PER_LAYER}
        info |= {"traced_op_s": statistics.median(durations), "per_layer": per_layer}
        out_name = f"trace-{args.workload}-{args.seed}.json"
    else:
        metrics = {
            "op_s": {"value": statistics.median(durations), "unit": "s"},
            "ops_per_s": {"value": completed / window, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
            "setup_s": {"value": statistics.median(s * CAL_REF / c for s, c in probes),
                        "unit": "s"},
        }
        out_name = f"e2e-{args.workload}-{args.seed}.json"
    result = {"correct": not errors, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(RESULTS, out_name), "w") as fh:
        json.dump(info | result, fh, indent=1)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
