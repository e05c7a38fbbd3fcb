"""How far the verify and periods outputs move between two source checkouts.

    python3 tools/report_drift.py OLD NEW

OLD and NEW are the roots of two source checkouts.  On each plan of
tools/identity_digests.py (the 12 benchmark plans, the README example plan
and the Picard plan, taken from this script's own checkout) it runs `thetalab verify` and
`thetalab periods` from both checkouts' `src/`, and `thetalab theta` on the
README input.  For each plan it prints whether the outputs are byte for byte
the same, the largest entry of |tau_NEW - tau_OLD|, and for each identity the
largest relative change of its reports' `ratios` and, on each side, the worst
residual max(modulus_error, phase_residual, spread) of its root tags, so that
an accuracy change reads as a number.  Every change of a report's
identity, partition, `passed` flag or root index, of the number of reports
or ratios, or of the periods' `K_characteristic` or `quad_order` is printed
on a `CHANGED` line, and the exit code is then 1; otherwise it is 0.  A
command that exits with a code other than 0 (or 1, a failed report, for
`verify`) stops the script with that code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from identity_digests import README_THETA, plans  # noqa: E402


def run_thetalab(checkout: str, *args: str, ok=(0,)) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    run = subprocess.run([sys.executable, "-m", "thetalab.cli", *args],
                         capture_output=True, env=env)
    if run.returncode not in ok:
        sys.stderr.write(f"{checkout}: thetalab {' '.join(args)} exited {run.returncode}\n"
                         + run.stderr.decode(errors="replace"))
        raise SystemExit(run.returncode)
    return run.stdout


def outputs(checkout: str, tmp: str, label: str, plan: dict) -> tuple[bytes, bytes]:
    """(verify JSONL, periods JSON) of one plan run from one checkout."""
    out = []
    for command, src, ok in (("verify", plan, (0, 1)), ("periods", plan["curve"], (0,))):
        inp = os.path.join(tmp, f"{label}.{command}.in.json")
        res = os.path.join(tmp, f"{label}.{command}.out")
        with open(inp, "w") as fh:
            json.dump(src, fh)
        run_thetalab(checkout, command, inp, "--out", res, ok=ok)
        with open(res, "rb") as fh:
            out.append(fh.read())
    return out[0], out[1]


def complex_array(pairs) -> complex:
    return [complex(re, im) for re, im in pairs]


def residual(report: dict) -> float:
    """How far a report's ratios are from its root of unity: 0 when exact."""
    tag = report["root_tag"]
    return max(tag["modulus_error"], tag["phase_residual"], report["spread"])


def compare(label: str, old: tuple[bytes, bytes], new: tuple[bytes, bytes]) -> list[str]:
    """Print one plan's drift; return its structural changes."""
    changes = []
    p_old, p_new = json.loads(old[1]), json.loads(new[1])
    for key in ("K_characteristic", "quad_order"):
        if p_old[key] != p_new[key]:
            changes.append(f"{key} {p_old[key]} -> {p_new[key]}")
    d_tau = max(abs(a - b) for r_old, r_new in zip(p_old["tau"], p_new["tau"])
                for a, b in zip(complex_array(r_old), complex_array(r_new)))

    r_old = [json.loads(line) for line in old[0].splitlines()]
    r_new = [json.loads(line) for line in new[0].splitlines()]
    if len(r_old) != len(r_new):
        changes.append(f"{len(r_old)} reports -> {len(r_new)}")
    drift: dict[str, float] = defaultdict(float)
    worst: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for i, (a, b) in enumerate(zip(r_old, r_new)):
        index = [(r["root_tag"] or {}).get("index") for r in (a, b)]
        for key, va, vb in (("identity", a["identity"], b["identity"]),
                            ("partition", a["partition"], b["partition"]),
                            ("passed", a["passed"], b["passed"]),
                            ("root index", *index),
                            ("ratio count", len(a["ratios"]), len(b["ratios"]))):
            if va != vb:
                changes.append(f"report {i} {key} {va!r} -> {vb!r}")
        for x, y in zip(complex_array(a["ratios"]), complex_array(b["ratios"])):
            drift[a["identity"]] = max(drift[a["identity"]], abs(y - x) / abs(x))
        for side, r in enumerate((a, b)):
            if r["root_tag"]:
                w = worst[r["identity"]]
                w[side] = max(w[side], residual(r))

    same = ["same" if o == n else "differ" for o, n in zip(old, new)]
    print(f"{label}: verify bytes {same[0]}, periods bytes {same[1]}, "
          f"max |d tau| {d_tau:.1e}")
    for identity, value in drift.items():
        print(f"    {identity:<22} max relative ratio drift {value:.1e}, "
              "worst residual {:.1e} -> {:.1e}".format(*worst[identity]))
    for change in changes:
        print(f"    CHANGED {change}")
    return changes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    old, new = argv
    n_changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, plan in plans():
            n_changed += bool(compare(label, outputs(old, tmp, f"{label}.old", plan),
                                      outputs(new, tmp, f"{label}.new", plan)))
        theta_in = os.path.join(tmp, "theta.in.json")
        with open(theta_in, "w") as fh:
            json.dump(README_THETA, fh)
        same = run_thetalab(old, "theta", theta_in) == run_thetalab(new, "theta", theta_in)
        print(f"readme theta: bytes {'same' if same else 'differ'}")
    print(f"{n_changed} of {len(plans())} plans changed")
    return 1 if n_changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
