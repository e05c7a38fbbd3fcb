"""Run the benchmark over several seeds and report medians and quartiles.

    python3 bench/spread.py --seeds 1-10                 # every workload
    python3 bench/spread.py --workloads verify-trig --seeds 1-5
    python3 bench/spread.py --seeds 1-3 --trace 1        # per-layer figures

For each workload and metric it prints the median, the first and third
quartile (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  A spread at or above a
third of the bound is marked `!`, at or above the bound `!!`.  With
--trace 1 every seed runs untraced and then traced, and the table also gives
the traced median op_s and the tracing overhead (traced over untraced median
op_s, minus one).  The raw results go to bench/results/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in command]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output, exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default=None)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    label = args.label or f"trace{args.trace}-{args.seeds}"

    raw: dict[str, list[dict]] = {}
    table = []
    for workload in args.workloads.split(","):
        runs = raw[workload] = []
        untraced = []
        for seed in seeds:
            if args.trace:
                res = run_one(bench["command"], workload, seed, args.seconds, 0)
                untraced.append(res["metrics"]["op_s"]["value"])
            res = run_one(bench["command"], workload, seed, args.seconds, args.trace)
            if args.trace:
                trace_file = os.path.join(BENCH_DIR, "results", f"trace-{workload}-{seed}.json")
                with open(trace_file) as fh:
                    traced = json.load(fh)["traced_op_s"]
                res["metrics"]["traced_op_s"] = {"value": traced, "unit": "s"}
                res["metrics"]["untraced_op_s"] = {"value": untraced[-1], "unit": "s"}
            runs.append(res | {"seed": seed})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            mark = ""
            if bound:
                mark = "!!" if s["spread"] >= bound else "!" if s["spread"] >= bound / 3 else ""
            table.append((workload, name, s, bound, mark))
        if args.trace:
            overhead = (statistics.median(r["metrics"]["traced_op_s"]["value"] for r in runs)
                        / statistics.median(untraced) - 1.0)
            table.append((workload, "trace_overhead", {"values": round(overhead, 4)}, None, ""))
        shares = {r["failed"] / r["attempted"] for r in runs}
        table.append((workload, "failed_share", {"values": sorted(shares)}, None, ""))

    print(f"\n| workload | metric | median | q1 | q3 | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload, name, s, bound, mark in table:
        if "values" in s:
            print(f"| {workload} | {name} | {s['values']} | | | | |")
            continue
        print(f"| {workload} | {name} | {s['median']:.5g} | {s['q1']:.5g} | "
              f"{s['q3']:.5g} | {s['spread']:.3f}{mark} | {bound if bound else ''} |")
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "results", f"spread-{label}.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
