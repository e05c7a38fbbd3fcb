"""The shared signed sigma-row contraction against the loops it replaced, bit
for bit.

The right-hand sides read only `periods.C`, so a seeded stand-in C serves
every genus, q = 3 included (its periods are out of the theta layer's
reach).  The trigonal cases cover every infinity placement, including those
that put infinity in the sigma set (deriv1 with infinity in L1 or L2, deriv2
with infinity in L2), where the trigonal sign differs from the row's by
(-1)^drop.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import random_curve
from thetalab.algebra import INF
from jacobians import TrigConfiguration, aj_jacobian_hyper_closed, aj_jacobian_trig_closed
from thetalab.periods import SurfacePoint
from thetalab.thomae import (_deriv_rhs, enumerate_partitions_hyp, enumerate_partitions_trig,
                             trig_alpha)


def stand_in_periods(g: int, seed: int) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    return SimpleNamespace(C=rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g)))


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_hyp_deriv_rhs_matches_frozen_loop(g):
    curve = random_curve(2, 2 * g + 1, 10 + g, box=3.0, min_gap=0.5)
    periods = stand_in_periods(g, g)
    parts = enumerate_partitions_hyp(g, 1)
    assert any(INF not in p.parts[1] for p in parts)
    assert g == 1 or any(INF in p.parts[1] for p in parts)       # I1 is empty at g = 1
    for p in parts:
        new = _deriv_rhs(curve, periods, p)
        assert new.tobytes() == oracles.hyp_deriv_rhs(curve, periods, p).tobytes(), p.label()


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("kind", ["deriv1", "deriv2"])
def test_trig_deriv_rhs_matches_frozen_loop(q, kind):
    curve = random_curve(3, 3 * q - 1, 20 + q, box=3.0, min_gap=0.5)
    periods = stand_in_periods(curve.genus, 30 + q)
    alpha = trig_alpha(curve.genus)
    for loc in (0, 1, 2):
        for p in enumerate_partitions_trig(q, kind, infinity_in=loc):
            new = _deriv_rhs(curve, periods, p)
            old = oracles.trig_deriv_rhs(curve, periods, p, alpha)
            assert new.tobytes() == old.tobytes(), p.label()


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_hyper_closed_jacobian_matches_frozen_loop(g):
    curve = random_curve(2, 2 * g + 1, 40 + g, box=3.0, min_gap=0.5)
    periods = stand_in_periods(g, 50 + g)
    rng = np.random.default_rng(g)
    for _ in range(3):
        zs = rng.normal(size=g) * 3 + 1j * rng.normal(size=g) * 3
        pts = [SurfacePoint(z, curve.w_principal(z)) for z in zs]
        new = aj_jacobian_hyper_closed(curve, periods, pts)
        assert new.tobytes() == oracles.aj_jacobian_hyper_closed(curve, periods, pts).tobytes()


@pytest.mark.parametrize("q", [1, 2, 3])
def test_trig_closed_jacobian_matches_frozen_loop(q):
    curve = random_curve(3, 3 * q - 1, 60 + q, box=3.0, min_gap=0.5)
    periods = stand_in_periods(curve.genus, 70 + q)
    rng = np.random.default_rng(q)
    for _ in range(3):
        anchors = rng.permutation(np.arange(1, 3 * q))[: 2 * q - 1]
        config = TrigConfiguration(tuple(int(a) for a in anchors))
        new = aj_jacobian_trig_closed(curve, periods, config)
        old = oracles.aj_jacobian_trig_closed(curve, periods, config)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(new, old))
