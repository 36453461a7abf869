"""Truncated vector-valued weight-1/2 Rademacher sums.

The partial sum runs over bottom rows (c, d) with 0 <= c < K, |d| < K^2 of a
level-n group, each completed deterministically to a matrix; the c = 0
stratum contributes exactly the polar term q^(-1/4m) on the basis vector with
index 1.  The convergence kernel is the truncated half-integral exponential
series with principal-branch square roots.  No convergence is asserted
anywhere: the module reports partial sums and Cauchy differences only.

Multipliers are pluggable: any callable mapping an integer matrix to a
complex matrix works.  The default is the dual theta multiplier, whose local
Weil matrices are lifted exactly from F_ell (structural zeros stay exact) and
corrected to the principal branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import numpy as np

from .sl2 import Mat, Sl2Mod, Sl2Word, word_decompose, word_for
from .weil import get_weil_rep, lift_class, local_spaces

TWO_PI_I = 2j * math.pi


def _e(x) -> complex:
    return cmath.exp(TWO_PI_I * complex(x))


class ThetaDualMultiplier:
    """nu(gamma) for the index-m theta vector, on the principal branch.

    The transpose of the Weil matrix of gamma, signed for the principal
    sqrt(c tau + d).  Local factors are memoized by gamma mod the conductor;
    a miss lifts the key's canonical word exactly from F_ell, so structural
    zeros are exact, and as in ``TraceTable`` a D-type entry keeps the lift
    class of that word to sign the other lift.
    """

    def __init__(self, m: int):
        self.m = m
        self.spaces = local_spaces(m)
        self.reps = [get_weil_rep(sp) for sp in self.spaces]
        self._memo: list[dict] = [{} for _ in self.spaces]
        # index grids from (Z/2m)^2 to the local coordinates
        x = np.arange(2 * m)
        self._index = [np.ix_(x % sp.size, x % sp.size) for sp in self.spaces]

    def _local_matrix(self, i: int, word: Sl2Word) -> np.ndarray:
        sp = self.spaces[i]
        cond = sp.conductor
        a, b, c, d = word.mat()
        key = (a % cond, b % cond, c % cond, d % cond)
        entry = self._memo[i].get(key)
        if entry is None:
            w0 = word_for(Sl2Mod(cond, *key))
            mat = self.reps[i].lifted_matrix(w0).to_complex_array()
            entry = self._memo[i][key] = (lift_class(w0) if sp.kind == "D" else None), mat
        bit0, mat = entry
        return mat if bit0 is None or lift_class(word) == bit0 else -mat

    def __call__(self, gamma: Mat) -> np.ndarray:
        word = word_decompose(gamma)
        out = np.ones((2 * self.m, 2 * self.m), dtype=complex)
        for i, index in enumerate(self._index):
            out = out * self._local_matrix(i, word)[index]
        return word.principal_sign() * out.T


@dataclass
class RademacherParams:
    """Data of a truncated Rademacher sum."""

    level: int
    index: int
    multiplier: Callable[[Mat], np.ndarray] | None = None
    truncation: int = 5
    kernel_depth: int = 30

    def __post_init__(self):
        if self.level < 1 or self.index < 1 or self.truncation < 1 or self.kernel_depth < 1:
            raise ValueError("level, index, truncation and depth must be positive")
        if self.multiplier is None:
            self.multiplier = ThetaDualMultiplier(self.index)
        t_val = self.multiplier((1, 1, 0, 1))[1, 1]
        want = _e(Fraction(1, 4 * self.index))
        if abs(t_val - want) > 1e-9:
            raise ValueError("multiplier must send T to e(1/4m) on component 1")
        ident = self.multiplier((1, 0, 0, 1))
        if not np.allclose(ident, np.eye(ident.shape[0]), atol=1e-12):
            raise ValueError("multiplier must send the identity to the identity")


def kernel_r(alpha, gamma: Mat, tau: complex, depth: int) -> complex:
    """Convergence kernel: 1 on the translation subgroup, else the truncated
    half-integral exponential series with principal branches.

    The truncation error is bounded by the first omitted term.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    a, b, c, d = gamma
    if c == 0:
        return 1.0 + 0j
    w = complex(alpha) / (c * (c * tau + d))
    z = -TWO_PI_I * w
    if z == 0:
        return 0j
    root = cmath.sqrt(z)
    total = 0j
    term = root
    for k in range(depth):
        total += term / math.gamma(k + 1.5)
        term *= z
    return _e(w) * total


def coset_reps(level: int, K: int) -> list[Mat]:
    """One matrix per translation coset with 0 <= c < K, |d| < K^2, c = 0 mod level.

    The completion (a, b) takes the least nonnegative a inverse to d mod c;
    the c = 0 stratum contributes exactly the identity.
    """
    if K < 1:
        raise ValueError("K must be positive")
    out: list[Mat] = [(1, 0, 0, 1)]
    for c in range(level, K, level):
        for d in range(-K * K + 1, K * K):
            if gcd(c, d) != 1:
                continue
            a = pow(d, -1, c)
            b = (a * d - 1) // c
            out.append((a, b, c, d))
    return out


def _term(params: RademacherParams, gamma: Mat, tau: complex) -> np.ndarray:
    """The summand of one coset representative."""
    a, b, c, d = gamma
    alpha = Fraction(-1, 4 * params.index)
    col = params.multiplier(gamma)[:, 1]
    phase = cmath.exp(TWO_PI_I * complex(alpha) * (a * tau + b) / (c * tau + d))
    scale = 1.0 / cmath.sqrt(c * tau + d)
    return col * phase * scale * kernel_r(alpha, gamma, tau, params.kernel_depth)


def truncated_sum(params: RademacherParams, tau: complex) -> np.ndarray:
    """Partial Rademacher sum at tau over the K-truncated coset list."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    return sum((_term(params, g, tau) for g in coset_reps(params.level, params.truncation)), 0)


def cauchy_table(params: RademacherParams, tau: complex, truncations: list[int]) -> list[tuple]:
    """Rows (K, component, real, imag, cauchy_delta) across a ladder of K values.

    The coset lists are nested in K: each term is computed once, and each row
    adds them in ``truncated_sum`` order, equal to it bit for bit.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    level = params.level
    terms = {g: _term(params, g, tau) for g in coset_reps(level, max(truncations, default=1))}
    rows = []
    prev = None
    for K in truncations:
        vec = sum((terms[g] for g in coset_reps(level, K)), 0)
        for r, v in enumerate(vec):
            delta = abs(v - prev[r]) if prev is not None else float("nan")
            rows.append((K, r, v.real, v.imag, delta))
        prev = vec
    return rows


def write_diagnostics_csv(path: str, rows: list[tuple]):
    with open(path, "w") as f:
        f.write("K,component,real,imag,cauchy_delta\n")
        for K, r, re, im, delta in rows:
            f.write(f"{K},{r},{re!r},{im!r},{delta!r}\n")
