"""Finite special linear groups SL2(Z/QZ) and words in the generators T, S.

Group elements mod Q are lifted deterministically to SL2(Z) and decomposed as
words T^t0 S T^t1 S ... T^tk by a continued-fraction reduction.  Words are the
canonical carriers of metaplectic lifts: substituting the generator lifts
(T, 1) and (S, tau^(1/2)) into a word gives a well-defined element of the
metaplectic double cover.  -I is never absorbed into a sign; the central
element is always an explicit block of S letters.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterator

import numpy as np

from .arith import factorize, prime_part, psi_index, xgcd

Mat = tuple[int, int, int, int]  # (a, b, c, d) row-major

T_MAT: Mat = (1, 1, 0, 1)
S_MAT: Mat = (0, -1, 1, 0)


def mat_mul(x: Mat, y: Mat) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


@dataclass(frozen=True)
class Sl2Mod:
    """An element of SL2(Z/QZ)."""

    q: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "a", self.a % self.q)
        object.__setattr__(self, "b", self.b % self.q)
        object.__setattr__(self, "c", self.c % self.q)
        object.__setattr__(self, "d", self.d % self.q)
        if (self.a * self.d - self.b * self.c) % self.q != 1 % self.q:
            raise ValueError("determinant is not 1 mod Q")

    @staticmethod
    def from_mat(m: Mat, q: int) -> "Sl2Mod":
        return Sl2Mod(q, m[0], m[1], m[2], m[3])

    def mat(self) -> Mat:
        return (self.a, self.b, self.c, self.d)

    def mul(self, other: "Sl2Mod") -> "Sl2Mod":
        assert self.q == other.q
        return Sl2Mod.from_mat(mat_mul(self.mat(), other.mat()), self.q)

    def reduce(self, q: int) -> "Sl2Mod":
        if self.q % q != 0:
            raise ValueError("can only reduce to a divisor of the modulus")
        return Sl2Mod(q, self.a, self.b, self.c, self.d)


class Sl2Word:
    """A word T^t0 S T^t1 S ... S T^tk in the generators of SL2(Z).

    ``texps`` has k+1 entries and the word contains k letters S.  The integer
    matrix value is computed once and cached; evaluating the word always
    reproduces it exactly.
    """

    __slots__ = ("texps", "_mat", "_ups")

    def __init__(self, texps: tuple[int, ...]):
        if not texps:
            texps = (0,)
        self.texps = tuple(int(t) for t in texps)
        m: Mat = (1, self.texps[0], 0, 1)
        for t in self.texps[1:]:
            m = mat_mul(m, S_MAT)
            if t:
                m = mat_mul(m, (1, t, 0, 1))
        self._mat = m
        self._ups = None

    def mat(self) -> Mat:
        return self._mat

    @property
    def s_count(self) -> int:
        return len(self.texps) - 1

    def concat(self, other: "Sl2Word") -> "Sl2Word":
        t = self.texps[:-1] + (self.texps[-1] + other.texps[0],) + other.texps[1:]
        return Sl2Word(t)

    def upsilon_at_i(self) -> complex:
        """Value at tau = i of the branch picked out by the word.

        The metaplectic lift of the word is (matrix, upsilon) with
        upsilon(tau)^2 = c*tau + d; this returns upsilon(i), computed by the
        cocycle rule with the principal branch for each S letter.
        """
        if self._ups is not None:
            return self._ups
        tau0 = 1j
        m: Mat = (1, self.texps[-1], 0, 1)
        u = 1 + 0j
        for t in reversed(self.texps[:-1]):
            a, b, c, d = m
            u = cmath.sqrt((a * tau0 + b) / (c * tau0 + d)) * u
            m = mat_mul(S_MAT, m)
            if t:
                m = mat_mul((1, t, 0, 1), m)
        assert m == self._mat
        self._ups = u
        return u

    def principal_sign(self) -> int:
        """+1 if the word's branch is the principal sqrt(c*i + d), else -1."""
        c, d = self._mat[2], self._mat[3]
        ratio = self.upsilon_at_i() / cmath.sqrt(c * 1j + d)
        if abs(ratio - 1) < 1e-6:
            return 1
        if abs(ratio + 1) < 1e-6:
            return -1
        raise ArithmeticError("branch tracking lost precision")

    def __repr__(self) -> str:
        return f"Sl2Word{self.texps}"


CENTRAL_WORD = Sl2Word((0, 0, 0, 0, 0))  # S^4: covers the identity, lift class -1


def lift_to_integers(g: Sl2Mod) -> Mat:
    """Deterministic lift of g to SL2(Z).

    Entry magnitudes are bounded by a small polynomial in Q: the bottom row is
    at most Q + Q^2 in absolute value and the top row at most Q times larger.
    """
    q = g.q
    c = g.c if g.c else q
    d = g.d
    while gcd(c, d) != 1:
        d += q
    x0, y0, gg = xgcd(d, -c)  # x0*d - y0*c = 1
    assert gg == 1
    alpha = (g.a - x0) % q
    beta = (g.b - y0) % q
    u, v, _ = xgcd(c, d)
    s = (alpha * u + beta * v) % q
    a = x0 + s * c
    b = y0 + s * d
    assert a * d - b * c == 1
    assert (a - g.a) % q == 0 and (b - g.b) % q == 0
    assert (c - g.c) % q == 0 and (d - g.d) % q == 0
    return (a, b, c, d)


def word_decompose(m: Mat) -> Sl2Word:
    """Continued-fraction decomposition of an SL2(Z) matrix into T and S.

    Evaluating the word gives back exactly ``m``.  For -gamma the result ends
    with an explicit S S block; signs are never silently absorbed.
    """
    a, b, c, d = m
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    exps: list[int] = []
    while c != 0:
        t = (2 * a + abs(c)) // (2 * c)
        exps.append(t)
        a, b, c, d = c, d, -(a - t * c), -(b - t * d)
    if a == 1:
        exps.append(b)
    else:  # a = d = -1: remaining matrix is S^2 T^{-b}
        exps.extend([0, 0, -b])
    w = Sl2Word(tuple(exps))
    assert w.mat() == m
    return w


def word_for(g: Sl2Mod) -> Sl2Word:
    """Canonical word of the canonical integer lift of g."""
    return word_decompose(lift_to_integers(g))


def group_order(q: int) -> int:
    """|SL2(Z/qZ)| = q^3 prod_{p|q} (1 - p^-2)."""
    out = q**3
    for p in factorize(q):
        out = out * (p * p - 1) // (p * p)
    return out


def gamma0_image_size(n: int, q: int) -> int:
    if q % n != 0:
        raise ValueError("need N | Q")
    return group_order(q) // psi_index(n)


def gamma0_image(n: int, q: int) -> Iterator[Sl2Mod]:
    """Stream the image of the level-n congruence subgroup in SL2(Z/qZ).

    This is exactly {g mod q : c = 0 mod n}, enumerated deterministically by
    (c, d, a, b).
    """
    if q % n != 0:
        raise ValueError("need N | Q")
    for c in range(0, q, n):
        gq = gcd(c, q)
        for d in range(q):
            if gcd(gq, gcd(d, q)) != 1:
                continue
            dinv_mod = pow(d % gq, -1, gq) if gq > 1 else 0
            step = q // gq
            for a in range(dinv_mod if gq > 1 else 0, q, gq if gq > 1 else 1):
                rhs = (a * d - 1) % q
                if rhs % gq:
                    continue
                if c:
                    b0 = (rhs // gq) * pow(c // gq, -1, step) % step
                    for t in range(gq):
                        yield Sl2Mod(q, a, b0 + t * step, c, d)
                else:
                    if rhs:
                        continue
                    for b in range(q):
                        yield Sl2Mod(q, a, b, c, d)


def _unit_generators(q: int) -> list[int]:
    """A few units that generate (Z/qZ)^*, picked greedily from 2 upwards."""
    gens, span = [], {1 % q}
    for u in range(2, q):
        if gcd(u, q) != 1 or u in span:
            continue
        gens.append(u)
        while True:
            grown = span | {x * u % q for x in span}
            if grown == span:
                break
            span = grown
    return gens


def _conjugators(n: int, q: int) -> list[Mat]:
    if n == 1:
        return [T_MAT, S_MAT]
    return [T_MAT, (1, 0, n, 1)] + [(u, 0, 0, pow(u, -1, q)) for u in _unit_generators(q)]


def conjugation_orbits(n: int, q: int) -> list[tuple[Sl2Mod, int]]:
    """Orbits of H = {g in SL2(Z/qZ) : c = 0 mod n} under conjugation.

    The conjugators are T and S for n = 1, and T, [[1, 0], [n, 1]] and
    diag(u, 1/u) for a few units u otherwise.  All of them lie in H, so each
    orbit lies in one conjugacy class of H; a set that generates less than H
    only splits classes into more orbits.  The orbits are the components of
    the graph g -- h g h^-1, found by a vectorized union-find that always
    hooks a root under the smaller one.  Returns each orbit's least element,
    in (a, b, c, d) order, with the orbit size.
    """
    elems = np.fromiter((v for g in gamma0_image(n, q) for v in g.mat()),
                        dtype=np.int64).reshape(-1, 4)
    keys = ((elems[:, 0] * q + elems[:, 1]) * q + elems[:, 2]) * q + elems[:, 3]
    order = np.argsort(keys)
    elems, keys = elems[order], keys[order]
    a, b, c, d = elems.T
    edges = []
    for (x, y, z, w) in _conjugators(n, q):
        # h g h^-1 with h^-1 = (w, -y, -z, x)
        ha, hb, hc, hd = x * a + y * c, x * b + y * d, z * a + w * c, z * b + w * d
        conj = [(ha * w - hb * z) % q, (hb * x - ha * y) % q,
                (hc * w - hd * z) % q, (hd * x - hc * y) % q]
        ckeys = ((conj[0] * q + conj[1]) * q + conj[2]) * q + conj[3]
        nb = np.searchsorted(keys, ckeys)
        assert np.array_equal(keys[nb], ckeys), "conjugator left the subgroup"
        edges.append(nb)
    parent = np.arange(len(keys))
    while True:
        for nb in edges:
            ri, rj = parent.copy(), parent[nb]
            lo = np.minimum(ri, rj)
            np.minimum.at(parent, ri, lo)
            np.minimum.at(parent, rj, lo)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        if all(np.array_equal(parent, parent[nb]) for nb in edges):
            break
    sizes = np.bincount(parent, minlength=len(keys))
    reps = np.flatnonzero(sizes)
    assert int(sizes.sum()) == gamma0_image_size(n, q)
    return [(Sl2Mod(q, *(int(v) for v in elems[r])), int(sizes[r])) for r in reps]


@lru_cache(maxsize=16)
def _p1(n: int) -> tuple[tuple[tuple[int, int], ...], dict]:
    """Points of P^1(Z/nZ) and the map from each primitive (c, d) to its point.

    A point is the least (u c, u d) over the units u mod n.
    """
    units = [u for u in range(n) if gcd(u, n) == 1]
    canon = {}
    for c in range(n):
        for d in range(n):
            if gcd(gcd(c, d), n) == 1:
                canon[(c, d)] = min(((u * c) % n, (u * d) % n) for u in units)
    return tuple(sorted(set(canon.values()))), canon


def perm_character(n: int, g: Sl2Mod) -> int:
    """Number of cosets of the level-n subgroup fixed by right translation by g.

    Cosets are identified with points (c : d) of P^1(Z/nZ) via bottom rows.
    """
    if g.q % n != 0:
        raise ValueError("modulus of g must be a multiple of n")
    if n == 1:
        return 1
    a, b, c0, d0 = g.reduce(n).mat()
    points, canon = _p1(n)
    return sum(canon[((c * a + d * c0) % n, (c * b + d * d0) % n)] == (c, d)
               for (c, d) in points)


def coset_space_size(p_squared: int) -> int:
    """Size p^2 + p of the coset space at level p^2, p an odd prime."""
    fac = factorize(p_squared)
    if len(fac) != 1:
        raise ValueError("argument must be p^2 for an odd prime p")
    p, e = next(iter(fac.items()))
    if e != 2 or p == 2:
        raise ValueError("argument must be p^2 for an odd prime p")
    return p * p + p


def double_coset_count(p: int) -> int:
    """Number of (B, B) double cosets in SL2(Z/p^2 Z), B the c = 0 subgroup."""
    if p == 2 or any(p % k == 0 for k in range(2, p)):
        raise ValueError("p must be an odd prime")
    n = p * p
    units = [u for u in range(n) if gcd(u, n) == 1]
    pts, canon = _p1(n)
    index = {pt: i for i, pt in enumerate(pts)}
    # B acts on columns (x : y) by left multiplication; generators: T, diag(u, 1/u)
    gens = [(1, 1, 0, 1)]
    for u in units:
        gens.append((u, 0, 0, pow(u, -1, n)))
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (x, y) in enumerate(pts):
        for (a, b, c, d) in gens:
            xx, yy = (a * x + b * y) % n, (c * x + d * y) % n
            j = index[canon[(xx, yy)]]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return len({find(i) for i in range(len(pts))})


def crt_local_lift(g: Sl2Mod, p: int) -> Mat:
    """Integer matrix congruent to g at the p-part of Q and to I elsewhere."""
    q = g.q
    if q % p != 0:
        raise ValueError("p must divide the modulus")
    qp = prime_part(q, p)
    qr = q // qp
    def crt(x, y):  # x mod qp, y mod qr
        if qr == 1:
            return x % qp
        inv, _, _ = xgcd(qp, qr)  # qp * inv = 1 mod qr
        return (x + qp * ((y - x) * inv % qr)) % q
    loc = Sl2Mod(q, crt(g.a, 1), crt(g.b, 0), crt(g.c, 0), crt(g.d, 1))
    return lift_to_integers(loc)
