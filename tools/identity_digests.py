"""Digests of the outputs that a behaviour-preserving change must keep byte for byte.

    python3 tools/identity_digests.py > digests.txt

Run from anywhere inside a source checkout; the program is run from that
checkout's `src/` directory.  For each of the 12 benchmark plans
(`trig_plan(s)` and `hyp_plan(s, g)` of bench/workloads.py, s = 1..3,
g = 2..4), the README example plan and tools/picard-g3.json (a Picard curve,
w^3 = f with deg f = 4) it writes the `thetalab verify --out`
JSONL and the `thetalab periods --out` JSON of the plan's curve, and it
runs `thetalab theta` on the README input.  It prints one `sha256  name`
line per output, so two checkouts give the same outputs exactly when
`diff` of the two printouts is empty.  Any command that exits non-zero
stops the script with that command's exit code.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench.workloads import hyp_plan, trig_plan  # noqa: E402

README_PLAN = {
    "curve": {"n": 2, "lambdas": [[0, 0], [1, 0], [2, 0]]},
    "seed": 11,
    "tasks": [{"id": "period_sanity"}, {"id": "thomae_const_hyp"},
              {"id": "thomae_deriv_hyp", "include_infinity": True},
              {"id": "quotient_hyp", "ks": [1, 2, 3]}],
}
README_THETA = {"tau": [[[0.0, 1.0]]], "eps": [0], "delta": [0], "zeta": [[0.0, 0.0]]}


def plans() -> list[tuple[str, dict]]:
    out = [(f"trig-q2-s{s}", trig_plan(s)) for s in (1, 2, 3)]
    out += [(f"hyp-g{g}-s{s}", hyp_plan(s, g)) for s in (1, 2, 3) for g in (2, 3, 4)]
    with open(os.path.join(ROOT, "tools", "picard-g3.json")) as fh:
        return out + [("readme", README_PLAN), ("picard-g3", json.load(fh))]


def run_thetalab(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, "-m", "thetalab.cli", *args],
                         capture_output=True, env=env)
    if run.returncode != 0:
        sys.stderr.write(f"thetalab {' '.join(args)} exited {run.returncode}\n"
                         + run.stderr.decode(errors="replace"))
        raise SystemExit(run.returncode)
    return run.stdout


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        def path(name: str, obj=None) -> str:
            p = os.path.join(tmp, name)
            if obj is not None:
                with open(p, "w") as fh:
                    json.dump(obj, fh)
            return p

        def digest(name: str, data: bytes):
            print(f"{hashlib.sha256(data).hexdigest()}  {name}", flush=True)

        for label, plan in plans():
            for command, src, name in (("verify", plan, f"{label}.jsonl"),
                                       ("periods", plan["curve"], f"{label}.periods.json")):
                run_thetalab(command, path(f"{label}.{command}.in.json", src),
                             "--out", path(name))
                with open(path(name), "rb") as fh:
                    digest(name, fh.read())
        digest("readme.theta.out", run_thetalab("theta", path("theta.in.json", README_THETA)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
