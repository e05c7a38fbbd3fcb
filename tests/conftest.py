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
