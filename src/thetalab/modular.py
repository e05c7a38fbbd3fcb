"""Genus-1 modular utilities: SL2(Z) reduction and the Klein j-invariant."""

from __future__ import annotations

import numpy as np


def sl2_reduce(tau: complex, max_steps: int = 200) -> complex:
    """Move tau into the standard fundamental domain |Re| <= 1/2, |tau| >= 1."""
    t = complex(tau)
    if t.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    for _ in range(max_steps):
        t = complex(t.real - round(t.real), t.imag)
        if abs(t) < 1.0 - 1e-15:
            t = -1.0 / t
        else:
            return t
    return t


def _sigma(k: int, n: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def j_invariant(tau: complex, terms: int = 60) -> complex:
    """Klein j from Eisenstein q-expansions after fundamental-domain reduction."""
    t = sl2_reduce(tau)
    q = np.exp(2j * np.pi * t)
    e4 = 1.0 + 0.0j
    e6 = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, terms + 1):
        qn = qn * q
        e4 += 240.0 * _sigma(3, n) * qn
        e6 -= 504.0 * _sigma(5, n) * qn
    disc = (e4 ** 3 - e6 ** 2) / 1728.0
    return complex(e4 ** 3 / disc)

