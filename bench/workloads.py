"""Seeded inputs and single operations for each benchmark workload.

Every workload is a closed loop with one client: the runner calls one
operation at a time and starts the next only when the previous returned.
Inputs depend only on the seed and the workload name; the program sees only
the generated curves, plans and matrices.

Branch points sit on a jittered ring: each point of a regular polygon of
radius 2 moves by up to 7.5% of the chord to its neighbour in each
coordinate.  The orientation is fixed because the homology basis, and with
it the conditioning of tau and the size of the largest lattice sum, follow
the orientation; a random rotation moved the peak lattice cache of a g=4
plan between 0.9 and 3.6 MB.  So the cost and memory of a plan stay nearly
independent of the seed while every seed still gives a different curve.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import thetalab.cli
import thetalab.theta

WORKLOADS = ("verify-trig", "verify-hyp", "theta-fresh")

TRIG_TASKS = ("period_sanity", "alpha_trig", "deriv_trig_t1", "deriv_trig_t2",
              "quotient_trig", "matrix_form_trig", "simple_zeros_trig")

# theta-fresh: one batch holds THETA_REPEATS matrices per (genus, smallest
# eigenvalue of Im tau); the levels span the 0.2 .. 2 range that the curves'
# own period matrices show.  The slowest slots (genus 5, min eig 0.2) set
# most of a batch's time and the peak memory, so fixed levels keep both
# nearly independent of the seed; the seed draws the eigenvectors, Re tau,
# the characteristic and the argument.
THETA_GENERA = (1, 2, 3, 4, 5)
THETA_MIN_EIGS = (0.2, 0.45, 1.0, 2.0)
THETA_REPEATS = 2
THETA_TOL = 1e-10               # the `thetalab theta` default


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def ring_lambdas(count: int, rng: np.random.Generator,
                 radius: float = 2.0, jitter: float = 0.15) -> list[list[float]]:
    """Branch points on a jittered ring, as [re, im] pairs."""
    chord = 2.0 * radius * np.sin(np.pi / count)
    out = []
    for k in range(count):
        z = radius * np.exp(2j * np.pi * k / count)
        z += jitter * chord * complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        out.append([float(z.real), float(z.imag)])
    return out


def trig_plan(seed: int) -> dict:
    """The seven-task trigonal plan on one q=2 (genus 4) curve."""
    return {"curve": {"n": 3, "lambdas": ring_lambdas(5, _rng(seed, 3, 2))},
            "seed": seed, "tasks": [{"id": t} for t in TRIG_TASKS]}


def hyp_plan(seed: int, g: int) -> dict:
    tasks = [{"id": "period_sanity"}, {"id": "thomae_const_hyp"},
             {"id": "thomae_deriv_hyp", "include_infinity": True},
             {"id": "quotient_hyp"}, {"id": "matrix_form_hyp"}]
    return {"curve": {"n": 2, "lambdas": ring_lambdas(2 * g + 1, _rng(seed, 2, g))},
            "seed": seed, "tasks": tasks}


# ----------------------------------------------------------------------------
# theta-fresh inputs


@dataclass(frozen=True)
class ThetaInput:
    tau: np.ndarray
    eps: tuple[Fraction, ...]
    delta: tuple[Fraction, ...]
    zeta: np.ndarray


def riemann_matrix(g: int, min_eig: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric tau whose Im tau has eigenvalues min_eig + 1.2 i / (g - 1),
    i = 0 .. g-1, along seeded orthonormal eigenvectors.

    A fixed spectrum keeps det Im tau, and with it the lattice sizes, the same
    for every seed; with random other eigenvalues the largest lattice of a run
    (and so peak_rss_mb) moved by half between seeds."""
    q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    eigs = min_eig + 1.2 * np.arange(g) / max(g - 1, 1)
    y = q @ np.diag(eigs) @ q.T
    x = rng.uniform(-0.5, 0.5, size=(g, g))
    return (x + x.T) / 2.0 + 1j * (y + y.T) / 2.0


def theta_batch(seed: int, index: int) -> list[ThetaInput]:
    """Batch `index` of the theta-fresh stream, ordered by genus, then min eig."""
    rng = _rng(seed, 7, index)
    out = []
    for g in THETA_GENERA:
        for min_eig in [e for e in THETA_MIN_EIGS for _ in range(THETA_REPEATS)]:
            tau = riemann_matrix(g, min_eig, rng)
            eps = tuple(Fraction(int(k), 3) for k in rng.integers(0, 6, size=g))
            delta = tuple(Fraction(int(k), 3) for k in rng.integers(0, 6, size=g))
            zeta = rng.uniform(-0.5, 0.5, size=g) + tau @ rng.uniform(-0.5, 0.5, size=g)
            out.append(ThetaInput(tau, eps, delta, zeta))
    return out


@dataclass(frozen=True)
class ThetaOutput:
    value: complex
    value_bound: float
    gradient: np.ndarray
    gradient_bound: float
    radius: float


# ----------------------------------------------------------------------------
# Workload objects


@dataclass(frozen=True)
class PlanFile:
    label: str
    plan: dict
    plan_path: str
    out_path: str


@dataclass
class VerifyOp:
    """`thetalab verify` on each plan in turn; output is one (exit code,
    JSONL) pair per plan."""

    label: str
    plans: list[PlanFile]

    def __call__(self) -> list[int]:
        summary = io.StringIO()
        with contextlib.redirect_stdout(summary):
            return [thetalab.cli.main(["verify", p.plan_path, "--out", p.out_path])
                    for p in self.plans]

    def collect(self, rcs: list[int]) -> list[tuple[int, bytes]]:
        out = []
        for p, rc in zip(self.plans, rcs):
            with open(p.out_path, "rb") as fh:
                out.append((rc, fh.read()))
        return out

    @staticmethod
    def reports(out: list[tuple[int, bytes]]) -> int:
        """Reports written: one JSONL line each."""
        return sum(len(jsonl.splitlines()) for _, jsonl in out)


@dataclass
class ThetaOp:
    """Build and evaluate every matrix of one batch, as `thetalab theta` does."""

    label: str
    batch: list[ThetaInput]

    def __call__(self) -> list[ThetaOutput]:
        th = thetalab.theta
        out = []
        for item in self.batch:
            tau = th.RiemannMatrix(item.tau)
            char = th.Characteristic.of(item.eps, item.delta)
            val = th.theta_eval(char, item.zeta, tau, THETA_TOL)
            grad = th.theta_grad(char, item.zeta, tau, max(THETA_TOL, 1e-8))
            radius = th.truncation_radius(tau, THETA_TOL)
            out.append(ThetaOutput(val.value, val.truncation_bound, grad.values,
                                   grad.truncation_bound, radius))
        return out

    def collect(self, out):
        return out

    @staticmethod
    def reports(out) -> int:
        return 0


class Workload:
    """Inputs of one workload and the operation a run repeats.

    A verify operation runs every plan of the workload once, so the same
    plans repeat (and their JSONL can be compared across operations);
    theta-fresh draws a new batch for every operation."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self._next_batch = 0
        if name == "theta-fresh":
            return
        if name == "verify-trig":
            plans = [("trig-q2", trig_plan(seed))]
        else:
            plans = [(f"hyp-g{g}", hyp_plan(seed, g)) for g in (2, 3, 4)]
        files = []
        for label, plan in plans:
            plan_path = os.path.join(workdir, f"{label}.plan.json")
            with open(plan_path, "w") as fh:
                json.dump(plan, fh)
            files.append(PlanFile(label, plan, plan_path,
                                  os.path.join(workdir, f"{label}.jsonl")))
        self._verify = VerifyOp(name, files)

    def next_op(self):
        """The next operation to run; theta-fresh draws its batch here, before
        the runner starts the operation's clock."""
        if self.name != "theta-fresh":
            return self._verify
        k = self._next_batch
        self._next_batch += 1
        return ThetaOp(f"batch-{k}", theta_batch(self.seed, k))
