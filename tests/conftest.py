import json
import os

import numpy as np
import pytest

from thetalab.curves import CurveSpec
from thetalab.periods import build_periods


def random_curve(n: int, count: int, seed: int, box: float = 2.0,
                 min_gap: float = 0.8) -> CurveSpec:
    rng = np.random.default_rng(seed)
    lams: list[complex] = []
    while len(lams) < count:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - l) > min_gap for l in lams):
            lams.append(z)
    return CurveSpec.of(n, lams)


def run_plan_tasks(monkeypatch, curve, pd, tasks, task_tol):
    """Every task handler of the curve's cover degree at task_tol on a fresh
    theta table, each task entry tasks[id] or {"id": id}: all reports must
    pass, and no task builds a partition's characteristic twice.  Returns
    each (characteristic, tol, grad) that reached the kernel, in order."""
    import thetalab.periods
    import thetalab.thomae
    from thetalab.cli import TASKS, Plan
    name = "char_from_partition_hyp" if curve.n == 2 else "char_from_partition_trig"
    summed, built = [], []
    kernel, build = thetalab.periods.theta_sums, getattr(thetalab.thomae, name)

    def counted(chars, zeta, tau, tol, grad):
        assert not np.any(zeta)
        summed.extend((ch, tol, grad) for ch in chars)
        return kernel(chars, zeta, tau, tol, grad)

    def building(p, periods):
        built.append(p)
        return build(p, periods)
    monkeypatch.setattr(thetalab.periods, "theta_sums", counted)
    monkeypatch.setattr(thetalab.thomae, name, building)
    monkeypatch.setattr(pd, "_theta_table", {})
    plan = Plan(curve, pd)
    for task_id, (degree, handler, _) in TASKS.items():
        if degree in (None, curve.n):
            built.clear()
            task = tasks.get(task_id, {"id": task_id})
            assert all(rep.passed for rep in handler(plan, task, task_tol, 0))
            assert len(set(built)) == len(built), task_id
    return summed


# trigonal q=2 curves with one close pair of branch points: every cycle's
# radius shrinks with that gap, so strand legs start within a radius of a
# branch point
CLOSE_PAIR_LAMBDAS = {
    "close-pair-1": [-903.839869 - 329.449957j, -1617.870426 + 283.905113j,
                     110.6819 + 294.447725j, -339.531009 + 962.12855j,
                     -350.530219 + 928.42158j],
    "close-pair-2": [970.522895 + 724.01923j, 518.511481 + 917.624958j,
                     532.587543 + 932.612403j, -357.798008 + 212.550986j,
                     -223.2956 - 466.388093j],
}
# a trigonal q=2 cluster 0.03 across, 2.9 from the origin
CLUSTER_LAMBDAS = [2.938652 - 0.002674j, 2.938034 - 0.003803j, 2.939832 - 0.015489j,
                   2.934047 - 0.004639j, 2.912861 - 0.012501j]
# trigonal q=2 curves whose dumbbells give a degenerate intersection form
DEGENERATE_FORM_LAMBDAS = {
    "spread": [272.768776 - 1732.134842j, -1233.328664 - 83.696193j,
               -958.265205 - 1163.225973j, 1600.019089 - 629.288094j,
               202.882441 - 488.005823j],
    "cluster": [-0.385892 - 0.009807j, -0.375901 - 0.001732j, -0.371699 - 0.012894j,
                -0.396428 + 0.000207j, -0.382565 - 0.000379j],
}

G7_PLAN = os.path.join(os.path.dirname(__file__), "..", "tools", "trig-q3-g7.json")


@pytest.fixture(scope="session")
def trig_q3_g7():
    """The genus-7 trigonal curve of tools/trig-q3-g7.json with its periods."""
    with open(G7_PLAN) as fh:
        c = CurveSpec.from_json(json.load(fh)["curve"])
    return c, build_periods(c)


@pytest.fixture(scope="session")
def hyp_g1():
    c = CurveSpec.of(2, [0, 1, 2])
    return c, build_periods(c)


@pytest.fixture(scope="session")
def hyp_g2():
    c = CurveSpec.of(2, [0, 1, 2, 3, 4])
    return c, build_periods(c)


@pytest.fixture(scope="session")
def hyp_g2_batch():
    """Five seeded random genus-2 hyperelliptic curves with their periods."""
    out = []
    for seed in (101, 202, 303, 404, 505):
        c = random_curve(2, 5, seed)
        out.append((c, build_periods(c)))
    return out


@pytest.fixture(scope="session")
def hyp_g3():
    c = random_curve(2, 7, 42, box=3.0, min_gap=0.9)
    return c, build_periods(c)


@pytest.fixture(scope="session")
def trig_q1():
    c = CurveSpec.of(3, [0, 1])
    return c, build_periods(c)


@pytest.fixture(scope="session")
def trig_q2():
    c = random_curve(3, 5, 7)
    return c, build_periods(c)


@pytest.fixture(scope="session")
def trig_q2_batch(trig_q2):
    """Three q=2 trigonal curves (the shared one plus two more)."""
    out = [trig_q2]
    for seed in (99, 1234):
        c = random_curve(3, 5, seed, min_gap=0.9)
        out.append((c, build_periods(c)))
    return out


def random_riemann_matrix(g: int, rng) -> np.ndarray:
    a = rng.normal(size=(g, g))
    y = a @ a.T + (0.4 + 0.6 * g) * np.eye(g)
    x = rng.normal(size=(g, g)) * 0.4
    return (x + x.T) / 2.0 + 1j * y
