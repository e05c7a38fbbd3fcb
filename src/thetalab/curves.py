"""Superelliptic curve specifications w^n = f(z) and their differential bases.

Supported covers: n = 2 with deg f = 2g+1 (hyperelliptic, branched over
infinity) and n = 3 with deg f = 3q-1 (trigonal with total ramification over
infinity).  In both cases every finite branch value is a simple root of f and
there is exactly one point over infinity.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import derivative_at_root, principal_power

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
        if self.n not in (2, 3):
            raise CurveSpecError(f"cover degree must be 2 or 3, got {self.n}")
        N = len(self.lambdas)
        if self.n == 2:
            if N < 3 or N % 2 == 0:
                raise CurveSpecError(
                    f"hyperelliptic curve needs an odd number >= 3 of branch values, got {N}")
        else:
            if N < 2 or N % 3 != 2:
                raise CurveSpecError(
                    f"trigonal curve needs 3q-1 branch values (q >= 1), got {N}")
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
        if self.n != 3:
            raise CurveSpecError("q is defined for trigonal curves only")
        return (len(self.lambdas) + 1) // 3

    @property
    def genus(self) -> int:
        if self.n == 2:
            return (len(self.lambdas) - 1) // 2
        return 3 * self.q - 2

    def lam(self, index: int) -> complex:
        """Branch value by 1-based index."""
        return self.lambdas[index - 1]

    @property
    def lam_map(self) -> dict[int, complex]:
        return {i + 1: v for i, v in enumerate(self.lambdas)}

    def f(self, z: complex) -> complex:
        out = 1.0 + 0.0j
        for lam in self.lambdas:
            out *= z - lam
        return out

    def f_prime_at_branch(self, index: int) -> complex:
        """f'(lambda_k) as the exact product of differences (f is monic)."""
        return derivative_at_root(self.lambdas, index - 1)

    def w_values(self, z: complex) -> np.ndarray:
        """All n sheets of w = f(z)^{1/n} at a non-branch z."""
        fz = self.f(z)
        base = principal_power(fz, 1.0 / self.n)
        rots = np.exp(2j * np.pi * np.arange(self.n) / self.n)
        return base * rots

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
        corresponds to entry l-1 here.

        n=2: z^{l-1} dz / w       for 1 <= l <= g
        n=3: z^{l-1} dz / w^2     for 1 <= l <= 2q-1, then
             z^{l-2q} dz / w      for 2q <= l <= 3q-2
        (the second family's exponent is fixed by requiring holomorphy at
        infinity; see local_order)."""
        if self.n == 2:
            return [Differential(a, 1) for a in range(self.genus)]
        q = self.q
        fam1 = [Differential(a, 2) for a in range(2 * q - 1)]
        fam2 = [Differential(a, 1) for a in range(q - 1)]
        return fam1 + fam2

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
        return {"n": self.n,
                "lambdas": [[float(np.real(x)), float(np.imag(x))] for x in self.lambdas]}

    @classmethod
    def from_json(cls, obj: dict) -> "CurveSpec":
        try:
            n = int(obj["n"])
            lambdas = [complex(float(p[0]), float(p[1])) for p in obj["lambdas"]]
        except (KeyError, TypeError, IndexError) as exc:
            raise CurveSpecError(f"malformed curve spec: {exc}") from exc
        return cls.of(n, lambdas)

