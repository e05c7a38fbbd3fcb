"""Exact combinatorial and polynomial primitives shared by the whole pipeline.

Branch points are addressed by 1-based integer indices plus the distinguished
symbol ``INF`` for the point over infinity.  Index sets keep their members in
ascending order with ``INF`` last, so every product below has a reproducible
sign from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


class _Infinity:
    """Singleton marker for the branch point over infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


@dataclass(frozen=True)
class IndexSet:
    """Ordered set of branch indices: ascending integers, INF last."""

    finite: tuple[int, ...]
    infinity: bool = False

    @classmethod
    def of(cls, members: Iterable) -> "IndexSet":
        fins = []
        has_inf = False
        for m in members:
            if m is INF:
                if has_inf:
                    raise ValueError("INF appears more than once")
                has_inf = True
            else:
                fins.append(int(m))
        if len(set(fins)) != len(fins):
            raise ValueError("duplicate finite indices in IndexSet")
        return cls(tuple(sorted(fins)), has_inf)

    def __iter__(self):
        yield from self.finite
        if self.infinity:
            yield INF

    def __len__(self):
        return len(self.finite) + (1 if self.infinity else 0)

    def __contains__(self, m):
        if m is INF:
            return self.infinity
        return m in self.finite

    def union(self, other: "IndexSet") -> "IndexSet":
        if self.infinity and other.infinity:
            raise ValueError("both sets contain INF")
        return IndexSet.of(list(self) + list(other))

    def without(self, *members) -> "IndexSet":
        drop_inf = any(m is INF for m in members)
        drop_fin = {m for m in members if m is not INF}
        return IndexSet(
            tuple(i for i in self.finite if i not in drop_fin),
            self.infinity and not drop_inf,
        )

    def label(self) -> str:
        parts = [str(i) for i in self.finite]
        if self.infinity:
            parts.append("inf")
        return "{" + ",".join(parts) + "}"


@dataclass(frozen=True)
class RootOfUnityTag:
    """Nearest n-th root of unity to a ratio, with classification residuals.

    The nearest index is always reported; ``ok`` records whether both the
    modulus deviation and the phase residual stayed inside the tolerance.
    """

    order: int
    index: int
    phase_residual: float
    modulus_error: float
    ok: bool

    @property
    def value(self) -> complex:
        return np.exp(2j * np.pi * self.index / self.order)


def principal_power(z: complex, p: float) -> complex:
    """Principal branch of z^p, |z|^p exp(i p arg z); 0 at z = 0."""
    if z == 0:
        return 0.0 + 0.0j
    return abs(z) ** p * np.exp(1j * np.angle(z) * p)


def c2j(z: complex) -> list[float]:
    """A complex number as the [re, im] pair of the JSON interfaces."""
    return [float(np.real(z)), float(np.imag(z))]


def j2c(pair) -> complex:
    """The complex number of an [re, im] pair, the inverse of c2j; ValueError
    unless pair holds exactly two numbers, neither of them a bool."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        raise ValueError(f"expected an [re, im] pair of numbers, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def classify_root_of_unity(z: complex, order: int, tol: float) -> RootOfUnityTag:
    """Classify ``z`` as the nearest ``order``-th root of unity.

    ``ok`` is False when ``| |z| - 1 | > tol`` or the angular residual
    (in radians) exceeds ``tol``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    z = complex(z)
    mod_err = abs(abs(z) - 1.0)
    ang = np.angle(z)
    k = int(np.round(ang * order / (2.0 * np.pi))) % order
    residual = abs(np.angle(z * np.exp(-2j * np.pi * k / order)))
    ok = (mod_err <= tol) and (residual <= tol)
    return RootOfUnityTag(order=order, index=k, phase_residual=float(residual),
                          modulus_error=float(mod_err), ok=bool(ok))


def all_elementary_symmetric(values: Sequence[complex]) -> np.ndarray:
    """All sigma_0..sigma_k of the inputs at once (k = len(values))."""
    vals = list(values)
    e = np.zeros(len(vals) + 1, dtype=complex)
    e[0] = 1.0
    for i, x in enumerate(vals):
        for j in range(i + 1, 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e


def sigma_row(values: Sequence[complex], rows: Sequence[int],
              drop: int = 0) -> dict[int, complex]:
    """l -> (-1)^(top-l) sigma_{top-l-drop}(values) over the rows l of one
    block of C, top = rows[-1]; drop = 1 when infinity is in the sigma set.
    Rows whose degree is out of range are left out."""
    sig = all_elementary_symmetric(values)
    top = rows[-1]
    return {l: (-1) ** (top - l) * sig[top - l - drop] for l in rows
            if 0 <= top - l - drop < len(sig)}


def sigma_contract(pref: complex, row: Mapping[int, complex],
                   C: np.ndarray) -> np.ndarray:
    """pref * sum_l row[l] C[l-1, s] per column s, in row order: a scalar loop,
    since numpy's array complex product (row @ C) can round differently."""
    out = np.zeros(C.shape[1], dtype=complex)
    for s in range(C.shape[1]):
        acc = 0.0 + 0.0j
        for l, coeff in row.items():
            acc += coeff * C[l - 1, s]
        out[s] = pref * acc
    return out


def vandermonde_delta(I: IndexSet, lam: Mapping[int, complex]) -> complex:
    """Product of (lambda_i - lambda_j) over ordered pairs i < j in I, INF skipped."""
    idx = I.finite
    out = 1.0 + 0.0j
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            out *= lam[idx[a]] - lam[idx[b]]
    return out


def pair_delta(A: IndexSet, B: IndexSet, lam: Mapping[int, complex]) -> complex:
    """Product of (lambda_i - lambda_j) over i in A, j in B, INF excluded."""
    overlap = set(A.finite) & set(B.finite)
    if overlap or (A.infinity and B.infinity):
        raise ValueError(f"pair_delta requires disjoint sets, overlap={overlap or '{INF}'}")
    out = 1.0 + 0.0j
    for i in A.finite:
        for j in B.finite:
            out *= lam[i] - lam[j]
    return out


def derivative_at_root(roots: Sequence[complex], r_index: int) -> complex:
    """F'(root_r) for F = prod (z - root_i): the product of differences."""
    zr = roots[r_index]
    out = 1.0 + 0.0j
    for i, x in enumerate(roots):
        if i != r_index:
            out *= zr - x
    return complex(out)
