"""Superelliptic curve specifications w^n = f(z) and their differential bases.

Supported covers: n >= 2 and N = deg f >= 2 with gcd(n, N) = 1, of genus
(n-1)(N-1)/2.  Every branch value is a simple root of f, and there is exactly
one point over infinity; all of them are fully ramified.  The paper's
identities need n = 2, or n = 3 with N = 3q-1 (CurveSpec.q).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import c2j, j2c

MIN_SEPARATION = 1e-8   # relative distance below which two branch points coincide


class CurveSpecError(ValueError):
    pass


class BranchPointsNotDistinct(CurveSpecError):
    """Two branch points closer than MIN_SEPARATION times their scale."""


@dataclass(frozen=True)
class Differential:
    """The differential z^a dz / w^m."""

    a: int
    m: int


@dataclass(frozen=True)
class CurveSpec:
    n: int
    lambdas: tuple[complex, ...]

    def __post_init__(self):
        N = len(self.lambdas)
        if self.n < 2 or N < 2 or math.gcd(self.n, N) != 1:
            raise CurveSpecError(
                f"w^n = f needs n >= 2, deg f >= 2 and gcd(n, deg f) = 1, "
                f"got n = {self.n} and {N} branch values")
        if not all(cmath.isfinite(x) for x in self.lambdas):
            raise CurveSpecError("branch points must be finite")
        scale = max(1.0, max(abs(x) for x in self.lambdas))
        for i in range(N):
            for j in range(i + 1, N):
                if abs(self.lambdas[i] - self.lambdas[j]) < MIN_SEPARATION * scale:
                    raise BranchPointsNotDistinct(
                        f"branch points not distinct: lambda_{i+1} and lambda_{j+1} "
                        f"closer than {MIN_SEPARATION:g} * scale")

    @classmethod
    def of(cls, n: int, lambdas: Sequence[complex]) -> "CurveSpec":
        return cls(int(n), tuple(complex(x) for x in lambdas))

    @property
    def num_branch(self) -> int:
        return len(self.lambdas)

    @property
    def q(self) -> int:
        if self.n != 3 or len(self.lambdas) % 3 != 2:
            raise CurveSpecError("q is defined for w^3 = f with deg f = 3q-1 only")
        return (len(self.lambdas) + 1) // 3

    @property
    def genus(self) -> int:
        return (self.n - 1) * (len(self.lambdas) - 1) // 2

    def lam(self, index: int) -> complex:
        """Branch value by 1-based index."""
        return self.lambdas[index - 1]

    @property
    def lam_map(self) -> dict[int, complex]:
        return {i + 1: v for i, v in enumerate(self.lambdas)}

    def w_principal(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """Deterministic reference branch: exp(sum of principal logs / n), at
        one point (a complex) or elementwise over an array of points (the
        same floats: the logs are summed in the same order)."""
        s = 0.0 + 0.0j
        for lam in self.lambdas:
            s = s + np.log(z - lam)
        out = np.exp(s / self.n)
        return out if np.ndim(out) else complex(out)

    def differentials(self) -> list[Differential]:
        """Holomorphic basis ordered so that row l of the period matrix C
        corresponds to entry l-1 here: the z^a dz / w^m, 1 <= m < n, that
        are holomorphic at infinity (local_order), m descending, then a
        ascending; sum_m floor(m N / n) = g of them.  At n = 2 the
        z^{l-1} dz / w; at n = 3, N = 3q-1 the z^{l-1} dz / w^2, l < 2q,
        then the z^{l-2q} dz / w."""
        cands = (Differential(a, m) for m in range(self.n - 1, 0, -1)
                 for a in range(self.num_branch))
        return [d for d in cands if self.local_order(d, "inf") >= 0]

    def local_order(self, diff: Differential, place) -> int:
        """Order of vanishing of z^a dz / w^m at a branch place.

        place: 1-based branch index, or the string "inf" for the point over
        infinity.  Uses exact exponent arithmetic: with t the local parameter,
        z - lambda_i = t^n at a finite branch point and z = t^{-n} over
        infinity."""
        a, m = diff.a, diff.m
        N = self.num_branch
        if place == "inf":
            # ord(z^a) = -n a, ord(dz) = -(n+1), ord(w) = -N
            return m * N - self.n * (a + 1) - 1
        lam = self.lam(place)
        ord_za = a * self.n if lam == 0 else 0
        # z^a contributes only over z=0; dz has order n-1; w has order 1
        return ord_za + (self.n - 1) - m

    def to_json(self) -> dict:
        return {"n": self.n, "lambdas": [c2j(x) for x in self.lambdas]}

    @classmethod
    def from_json(cls, obj: dict) -> "CurveSpec":
        try:
            n = obj["n"]
            if not isinstance(n, int) or isinstance(n, bool):
                raise TypeError(f"n must be an integer, got {n!r}")
            lambdas = [j2c(p) for p in obj["lambdas"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CurveSpecError(f"malformed curve spec: {exc}") from exc
        return cls.of(n, lambdas)

