"""Exact arithmetic in cyclotomic fields Q(zeta_L).

A value is stored in the redundant length-L power basis e(j/L), j = 0..L-1,
where e(x) = exp(2*pi*i*x), with rational coefficients.  Multiplication is a
cyclic convolution; equality is decided by reducing the difference modulo the
L-th cyclotomic polynomial.  Keeping reduction out of the arithmetic keeps
hot loops cheap.

Square roots of integers are never stored as radicals: sqrt(n) is materialized
as a cyclotomic element (via quadratic Gauss sums), so every Weil matrix for a
quadratic space of size n lives in a single field Q(zeta_L).

The module also provides an integer-vector matrix type (ExactCycMatrix) used
for exact linear algebra over Z[zeta_L] with a common denominator, and the
embeddings of Z[zeta_L] into a prime field F_ell (PrimeEmbeddings) through
which trace tables evaluate words and recover certified integer coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .arith import factorize

TWO_PI = 2.0 * math.pi
_EPS = 2.3e-16


class PrecisionError(ValueError):
    """Requested floating-point precision cannot be certified."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the L-th cyclotomic polynomial."""
    if L == 1:
        return (-1, 1)
    # Phi_L = (x^L - 1) / prod_{d | L, d < L} Phi_d, exact integer division.
    num = [0] * (L + 1)
    num[0], num[L] = -1, 1
    for d in range(1, L):
        if L % d == 0:
            num = _poly_divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_divide_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % den[dd] == 0
        q = c // den[dd]
        out[i - dd] = q
        for j, dc in enumerate(den):
            num[i - dd + j] -= q * dc
    assert all(c == 0 for c in num)
    return out


def _reduce_mod_phi(coeffs: Sequence[Fraction], L: int) -> tuple[Fraction, ...]:
    """Canonical form: remainder mod Phi_L, degree < phi(L)."""
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c == 0:
            continue
        work[i] = Fraction(0)
        for j in range(deg):
            work[i - deg + j] -= c * phi[j]
    return tuple(work[:deg])


class CycNumber:
    """Exact element of Q(zeta_L), as sum_j coeffs[j] * e(j/L)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Fraction]):
        if order < 1:
            raise ValueError("order must be positive")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != order:
            raise ValueError("need exactly `order` coefficients")
        self.order = order
        self.coeffs = cs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value, order: int = 1) -> "CycNumber":
        cs = [Fraction(0)] * order
        cs[0] = Fraction(value)
        return CycNumber(order, cs)

    @staticmethod
    def zero(order: int = 1) -> "CycNumber":
        return CycNumber.rational(0, order)

    # -- representation plumbing -------------------------------------------

    def promoted(self, order: int) -> "CycNumber":
        """Lossless coercion into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot promote order {self.order} into {order}")
        step = order // self.order
        cs = [Fraction(0)] * order
        for j, c in enumerate(self.coeffs):
            cs[j * step] = c
        return CycNumber(order, cs)

    @staticmethod
    def common_order(x: "CycNumber", y: "CycNumber") -> int:
        return x.order * y.order // gcd(x.order, y.order)

    def canonical(self) -> tuple[Fraction, ...]:
        """Reduced coefficient tuple mod Phi_L (unique within fixed order)."""
        return _reduce_mod_phi(self.coeffs, self.order)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "CycNumber":
        other = _coerce(other)
        L = CycNumber.common_order(self, other)
        a, b = self.promoted(L), other.promoted(L)
        return CycNumber(L, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "CycNumber":
        return CycNumber(self.order, [-c for c in self.coeffs])

    def __sub__(self, other) -> "CycNumber":
        return self.__add__(-_coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(_coerce(other))

    def __mul__(self, other) -> "CycNumber":
        other = _coerce(other)
        L = CycNumber.common_order(self, other)
        a, b = self.promoted(L), other.promoted(L)
        out = [Fraction(0)] * L
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(b.coeffs):
                if cb == 0:
                    continue
                k = i + j
                out[k - L if k >= L else k] += ca * cb
        return CycNumber(L, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "CycNumber":
        if n < 0:
            raise ValueError("negative powers not supported")
        acc = CycNumber.rational(1, self.order)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def conjugate(self) -> "CycNumber":
        cs = [Fraction(0)] * self.order
        for j, c in enumerate(self.coeffs):
            cs[(-j) % self.order] = c
        return CycNumber(self.order, cs)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.canonical())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNumber.rational(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # redundant representation; use canonical() if needed

    def rational_value(self) -> Fraction:
        red = self.canonical()
        if any(c != 0 for c in red[1:]):
            raise ValueError("value is not rational")
        return red[0]

    # -- numeric backend -----------------------------------------------------

    def to_complex(self, precision: float | None = None) -> complex:
        """Floating value; certified |error| <= precision when one is given."""
        re = 0.0
        im = 0.0
        mass = 0.0
        L = self.order
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cf = float(c)
            ang = TWO_PI * j / L
            re += cf * math.cos(ang)
            im += cf * math.sin(ang)
            mass += abs(cf)
        if precision is not None:
            bound = 8.0 * _EPS * (mass + 1.0)
            if bound > precision:
                raise PrecisionError(
                    f"double backend certifies only {bound:.3e} > {precision:.3e}"
                )
        return complex(re, im)

    def __repr__(self) -> str:
        parts = [f"{c}*e({j}/{self.order})" for j, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(parts) if parts else "0"


def _coerce(x) -> CycNumber:
    if isinstance(x, CycNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNumber.rational(x)
    raise TypeError(f"cannot coerce {type(x)!r} to CycNumber")


def embed_root(L: int, j: int) -> CycNumber:
    """The root of unity e(j/L)."""
    if L < 1:
        raise ValueError("L must be positive")
    cs = [Fraction(0)] * L
    cs[j % L] = Fraction(1)
    return CycNumber(L, cs)


def galois_apply(a: int, x: CycNumber) -> CycNumber:
    """Galois automorphism e(j/L) -> e(a*j/L); requires gcd(a, L) = 1."""
    if gcd(a, x.order) != 1:
        raise ValueError(f"{a} is not coprime to the order {x.order}")
    cs = [Fraction(0)] * x.order
    for j, c in enumerate(x.coeffs):
        cs[(a * j) % x.order] += c
    return CycNumber(x.order, cs)


def sqrt_as_cyclotomic(n: int, order: int | None = None) -> CycNumber:
    """sqrt(n) for a positive integer n, as an exact cyclotomic element.

    Built from quadratic Gauss sums: sqrt(2) = e(1/8) + e(-1/8), and for an
    odd prime p, sum_x e(x^2/p) equals sqrt(p) or i*sqrt(p) according to
    p mod 4.  The natural order is lcm over the odd-multiplicity primes of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    square = 1
    f = 1
    nn = n
    p = 2
    while p * p <= nn:
        while nn % (p * p) == 0:
            square *= p
            nn //= p * p
        if nn % p == 0:
            f *= p
            nn //= p
        p += 1
    if nn > 1:
        f *= nn
    val = CycNumber.rational(square)
    ff = f
    if ff % 2 == 0:
        val = val * (embed_root(8, 1) + embed_root(8, -1))
        ff //= 2
    p = 3
    while ff > 1:
        if ff % p == 0:
            g = CycNumber.zero(p)
            for x in range(p):
                g = g + embed_root(p, x * x % p)
            if p % 4 == 3:
                g = embed_root(4, -1) * g  # divide out the i of the Gauss sum
            val = val * g
            ff //= p
        p += 2
    if order is not None:
        val = val.promoted(order)
    return val


def gauss_sigma(space) -> int:
    """Exponent j with sigma_A = e(j/8) for a finite quadratic space.

    ``space`` must provide ``size`` and ``q(x)`` (the quadratic form value in
    Q/Z as a Fraction).  Computes G = sum_x e(-Q(x)) exactly, checks
    G * conj(G) = |A|, and identifies G / sqrt(|A|) among the eighth roots.
    Raises ValueError when the space is degenerate.
    """
    size = space.size
    dens = [Fraction(space.q(x)).denominator for x in range(size)]
    L = 1
    for d in dens:
        L = L * d // gcd(L, d)
    L = L * 8 // gcd(L, 8)
    g = CycNumber.zero(L)
    for x in range(size):
        g = g + embed_root(L, int(-Fraction(space.q(x)) * L))
    if (g * g.conjugate()) != size:
        raise ValueError("Gauss sum has wrong modulus; quadratic space is degenerate")
    root = sqrt_as_cyclotomic(size, order=L * 8 // gcd(L, 8) if L % 8 else L)
    Lc = CycNumber.common_order(g, root)
    for j in range(8):
        if g.promoted(Lc) == root * embed_root(8, j):
            return j
    raise ValueError("Gauss sum is not sqrt(|A|) times an eighth root of unity")


# ---------------------------------------------------------------------------
# Integer-vector exact matrices over Q(zeta_L)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fold_index(L: int) -> np.ndarray:
    # idx[c, e] = (e - c) mod L, so B[..., idx] is the circulant expansion
    e = np.arange(L)
    return (e[None, :] - np.arange(L)[:, None]) % L


@lru_cache(maxsize=None)
def _phi_reduction_matrix(L: int) -> np.ndarray:
    """(L, phi(L)) integer matrix expressing x^j mod Phi_L in the reduced basis."""
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    out = np.zeros((L, deg), dtype=np.int64)
    rows = [[0] * deg for _ in range(L)]
    for j in range(deg):
        rows[j][j] = 1
    for j in range(deg, L):
        # x^j = x * x^(j-1) mod Phi_L
        prev = rows[j - 1]
        shifted = [0] + prev[:-1]
        top = prev[-1]
        if top:
            for i in range(deg):
                shifted[i] -= top * phi[i]
        rows[j] = shifted
    for j in range(L):
        out[j] = rows[j]
    return out


def _int_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over int64, refusing operands whose product could overflow."""
    ma = int(np.abs(a).max(initial=1))
    mb = int(np.abs(b).max(initial=1))
    if ma * mb * a.shape[-1] >= (1 << 62):
        raise OverflowError("exact integer product would overflow int64")
    return a @ b


def _vec_from_cyc(x: CycNumber, L: int) -> tuple[np.ndarray, int]:
    x = x.promoted(L)
    den = 1
    for c in x.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    v = np.array([int(c * den) for c in x.coeffs], dtype=np.int64)
    return v, den


class ExactCycMatrix:
    """n x n matrix over Q(zeta_L): integer tensor (n, n, L) over a common denominator."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: np.ndarray, den: int):
        self.order = order
        self.num = num
        self.den = den

    @staticmethod
    def identity(n: int, order: int) -> "ExactCycMatrix":
        num = np.zeros((n, n, order), dtype=np.int64)
        idx = np.arange(n)
        num[idx, idx, 0] = 1
        return ExactCycMatrix(order, num, 1)

    @property
    def n(self) -> int:
        return self.num.shape[0]

    def _reduced(self) -> "ExactCycMatrix":
        if self.den == 1:
            return self
        g = int(np.gcd.reduce(np.abs(self.num), axis=None))
        g = gcd(g, self.den)
        if g <= 1:
            return self
        return ExactCycMatrix(self.order, self.num // g, self.den // g)

    def __matmul__(self, other: "ExactCycMatrix") -> "ExactCycMatrix":
        assert self.order == other.order
        L = self.order
        ma = int(np.abs(self.num).max(initial=1))
        mb = int(np.abs(other.num).max(initial=1))
        if ma * mb * self.n * L >= (1 << 62):
            raise OverflowError("exact matmul would overflow int64")
        bc = other.num[:, :, _fold_index(L)]  # (n, n, L, L)
        out = np.einsum("ikc,kjce->ije", self.num, bc)
        return ExactCycMatrix(L, out, self.den * other.den)._reduced()

    def mul_diag_power(self, diag_exps: np.ndarray, t: int) -> "ExactCycMatrix":
        """Right-multiply by diag(e(d_j * t / L)); diag_exps holds d_j mod L."""
        L = self.order
        shifts = (diag_exps * t) % L
        out = np.empty_like(self.num)
        for j in range(self.n):
            out[:, j] = np.roll(self.num[:, j], int(shifts[j]), axis=-1)
        return ExactCycMatrix(L, out, self.den)

    def conj_transpose(self) -> "ExactCycMatrix":
        rev = np.concatenate([self.num[..., :1], self.num[..., :0:-1]], axis=-1)
        return ExactCycMatrix(self.order, rev.transpose(1, 0, 2), self.den)

    def entry(self, i: int, j: int) -> CycNumber:
        return CycNumber(self.order, [Fraction(int(c), self.den) for c in self.num[i, j]])

    def trace(self) -> CycNumber:
        v = self.num.diagonal().sum(axis=-1)  # diagonal() puts the axes last
        return CycNumber(self.order, [Fraction(int(c), self.den) for c in v])

    def trace_perm(self, perm: np.ndarray) -> CycNumber:
        """sum_x M[perm[x], x], e.g. the P-twisted trace for a permutation P."""
        v = self.num[perm, np.arange(self.n)].sum(axis=0)
        return CycNumber(self.order, [Fraction(int(c), self.den) for c in v])

    def __eq__(self, other) -> bool:
        """Entrywise equality in Q(zeta_L), decided in integers.

        The cross-multiplied difference num * other.den - other.num * den is
        reduced mod Phi_L; both steps refuse to run where int64 could wrap.
        """
        if not isinstance(other, ExactCycMatrix):
            return NotImplemented
        assert self.order == other.order
        if self.n != other.n:
            return False
        ma = int(np.abs(self.num).max(initial=1)) * other.den
        mb = int(np.abs(other.num).max(initial=1)) * self.den
        if max(ma, mb) >= (1 << 62):
            raise OverflowError("exact matrix comparison would overflow int64")
        diff = self.num * other.den - other.num * self.den
        return not _int_product(diff, _phi_reduction_matrix(self.order)).any()

    __hash__ = None

    def to_complex_array(self, galois: int = 1) -> np.ndarray:
        """Complex matrix under the embedding e(1/L) -> e(galois/L).

        Coordinates are reduced mod Phi_L first, so entries that vanish in the
        field come out as exact 0.0.
        """
        L = self.order
        red = self.num @ _phi_reduction_matrix(L)  # (n, n, phi)
        ang = TWO_PI * ((galois * np.arange(red.shape[-1])) % L) / L
        basis = np.exp(1j * ang)
        return red.astype(float) @ basis / self.den


# ---------------------------------------------------------------------------
# Multimodular evaluation: Z[zeta_L] embedded into F_ell
# ---------------------------------------------------------------------------

def _choose_prime(L: int) -> int:
    """Largest prime ell = 1 mod L with L * (ell - 1)^2 < 2^63.

    Every product used mod ell sums at most L terms below ell^2, so this
    keeps each one inside int64.
    """
    k = math.isqrt(((1 << 63) - 1) // L) // L
    while k > 0:
        ell = k * L + 1
        if all(ell % p for p in range(2, math.isqrt(ell) + 1)):
            return ell
        k -= 1
    raise ArithmeticError(f"no prime 1 mod {L} fits int64 arithmetic")


class PrimeEmbeddings:
    """The phi(L) ring maps zeta_L -> omega^u, u a unit mod L, of Z[zeta_L] into F_ell.

    ell = 1 mod L and omega has exact order L in F_ell.  An algebraic integer
    x with reduced coordinates c (x = sum_{j < phi(L)} c_j zeta_L^j) is
    recovered from its values v_u by the closed-form inverse
    c = R^T (L^-1 sum_u omega^(-k u) v_u)_k mod ell, R = _phi_reduction_matrix(L):
    the bracket is the length-L vector a_k = L^-1 Tr(zeta^-k x), whose value
    is x.  Over C the same identity bounds |c_j| by
    n * phi(L) / L * max_j sum_k |R[k, j]| whenever every complex embedding
    of x has modulus at most n, so the symmetric lift mod ell is certified
    when ell exceeds twice that bound.
    """

    def __init__(self, L: int):
        self.L = L
        self.ell = ell = _choose_prime(L)
        omega = next(w for w in (pow(h, (ell - 1) // L, ell) for h in range(2, ell))
                     if all(pow(w, L // p, ell) != 1 for p in factorize(L)))
        self.units = np.array([u for u in range(L) if gcd(u, L) == 1], dtype=np.int64)
        self.powers = np.array([pow(omega, k, ell) for k in range(L)], dtype=np.int64)
        ku = np.outer(np.arange(L), self.units)
        self.forward = self.powers[ku % L]  # (L, phi): omega^(k u)
        red = _phi_reduction_matrix(L)
        self.colsum = int(np.abs(red).sum(axis=0).max())
        back = red.T % ell @ self.powers[-ku % L] % ell  # (phi, phi): R^T omega^(-k u)
        self.inverse = back * pow(L, -1, ell) % ell

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """Values (..., phi) mod ell of integer power-basis coordinates (..., L)."""
        return coords % self.ell @ self.forward % self.ell

    def certify(self, n: int):
        """Refuse unless ell > 2 * n * phi(L) / L * colsum, the coordinate bound."""
        if self.ell * self.L <= 2 * n * len(self.units) * self.colsum:
            raise ArithmeticError(f"prime {self.ell} does not certify coordinates "
                                  f"of values bounded by {n} in Q(zeta_{self.L})")

    def lift(self, values: np.ndarray) -> np.ndarray:
        """Integer coordinates, padded to length L, from values (..., phi) mod ell.

        Exact for algebraic integers inside the bound passed to ``certify``.
        """
        c = values @ self.inverse.T % self.ell
        c = np.where(c > self.ell // 2, c - self.ell, c)
        out = np.zeros(c.shape[:-1] + (self.L,), dtype=np.int64)
        out[..., :c.shape[-1]] = c
        return out


@lru_cache(maxsize=None)
def prime_embeddings(L: int) -> PrimeEmbeddings:
    return PrimeEmbeddings(L)
