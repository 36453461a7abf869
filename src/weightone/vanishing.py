"""Elementary exponent-based vanishing criterion for J_{1,m}(4M).

A nonzero form forces a solution (r, s, t) of r^2 (M/m) + s^2 t = 0 mod 4M
with 0 < r < m and t a divisor of M; when the congruence has no solution the
space vanishes.  The criterion is one-directional: an Inconclusive outcome
carries a witness but says nothing about nonvanishing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import divisors


@dataclass(frozen=True)
class ExponentWitness:
    r: int
    s: int
    t: int

    def check(self, m: int, aux: int) -> bool:
        if not (0 < self.r < m) or aux % self.t:
            return False
        mprime = aux // m
        return (self.r * self.r * mprime + self.s * self.s * self.t) % (4 * aux) == 0


@dataclass(frozen=True)
class CriterionOutcome:
    vanishes: bool
    witness: ExponentWitness | None = None


_CHUNK = 1 << 13  # values of s per step


def exponent_criterion(m: int, aux: int) -> CriterionOutcome:
    """Exhaustive scan of the obstruction congruence; m must divide M.

    s ranges over a full period [0, 4M) of the congruence, so the bounded
    scan is complete.  It runs in chunks of s against every divisor t and
    every target -r^2 M/m, in O(chunk * |divisors(M)|) memory.  Returns the
    lexicographically least witness in (r, s, t) order when one exists.
    """
    if m < 1 or aux < 1 or aux % m:
        raise ValueError("need positive m dividing M")
    mod = 4 * aux
    # s*s and (s*s % mod) * t stay below 16 M^2; past int64, Python ints
    dtype = np.int64 if 16 * aux * aux < 1 << 63 else object
    ts = np.array(divisors(aux), dtype=dtype)
    witness = None
    for s0 in range(0, mod, _CHUNK):
        rs = range(1, m if witness is None else witness.r)  # only a smaller r can win
        if not rs:
            break
        s = np.arange(s0, min(s0 + _CHUNK, mod), dtype=dtype)
        prod = (s * s % mod)[:, None] * ts % mod
        for r in rs:
            hit = np.flatnonzero(prod == (-r * r * (aux // m)) % mod)
            if hit.size:
                i, j = divmod(int(hit[0]), len(ts))
                witness = ExponentWitness(r, s0 + i, int(ts[j]))
                break
    return CriterionOutcome(witness is None, witness)


def expsapp_suite(a_max: int) -> dict[tuple[int, int], CriterionOutcome]:
    """Vanishing scan for the index 2, 3, 4 prime-power families.

    Runs the criterion for (m, M) = (2, 2^a), (3, 3^a) and (4, 2^a), for every
    exponent a <= a_max making m | M, and insists on a Vanishes outcome each
    time.
    """
    if a_max < 1:
        raise ValueError("a_max must be at least 1")
    out = {}
    for m, base in ((2, 2), (3, 3), (4, 2)):
        for a in range(0, a_max + 1):
            aux = base**a
            if aux % m:
                continue
            res = exponent_criterion(m, aux)
            if not res.vanishes:
                raise AssertionError(f"criterion unexpectedly inconclusive at (m={m}, M={aux})")
            out[(m, aux)] = res
    return out
