"""Exact truncated Fourier expansions in q = e(tau) and y = e(z).

A series is a finite map (q-exponent, y-exponent) -> rational coefficient,
with q-exponents stored as integer numerators over a per-series denominator
and y-exponents as numerators over 2 (half-integer exponents arise from the
z/2 rescalings used by the weight-one building blocks and must cancel before
a series can be tagged with an integral index).

Truncation is tracked explicitly: a series knows the q-order below which its
coefficients are complete, operations compute the largest provably correct
window of the result, and reading a coefficient outside the window raises
instead of returning 0.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import ceil, isqrt

from .arith import lcm

Key = tuple[int, int]  # (q-exponent numerator, y-exponent numerator over 2)


class TruncationError(ValueError):
    """A coefficient or comparison was requested outside the known window."""


class FourierJacobiSeries:
    """Truncated two-variable expansion sum c[n,l] q^(n/qden) y^(l/2)."""

    __slots__ = ("qden", "terms", "order", "index")

    def __init__(self, qden: int, terms: dict[Key, Fraction], order: Fraction,
                 index: int | None = None):
        self.qden = int(qden)
        self.order = Fraction(order)
        self.index = index
        self.terms = {}
        for (n, l), c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            if Fraction(n, self.qden) >= self.order:
                continue
            self.terms[(int(n), int(l))] = c

    # -- basics --------------------------------------------------------------

    @staticmethod
    def constant(value, order: Fraction, qden: int = 1) -> "FourierJacobiSeries":
        return FourierJacobiSeries(qden, {(0, 0): Fraction(value)}, order)

    @staticmethod
    def zero(order: Fraction, qden: int = 1) -> "FourierJacobiSeries":
        return FourierJacobiSeries(qden, {}, order)

    def with_index(self, m: int | None) -> "FourierJacobiSeries":
        return FourierJacobiSeries(self.qden, self.terms, self.order, m)

    def promoted(self, qden: int) -> "FourierJacobiSeries":
        if qden == self.qden:
            return self
        if qden % self.qden:
            raise ValueError("new q-denominator must be a multiple of the old")
        k = qden // self.qden
        return FourierJacobiSeries(
            qden, {(n * k, l): c for (n, l), c in self.terms.items()},
            self.order, self.index)

    def truncated(self, order: Fraction) -> "FourierJacobiSeries":
        order = min(self.order, Fraction(order))
        return FourierJacobiSeries(self.qden, self.terms, order, self.index)

    def valuation(self) -> Fraction:
        """Smallest q-exponent present; the window edge for the zero series."""
        if not self.terms:
            return self.order
        return Fraction(min(n for n, _ in self.terms), self.qden)

    def coeff(self, q_exp, y_exp=0) -> Fraction:
        q_exp = Fraction(q_exp)
        y_exp = Fraction(y_exp)
        if q_exp >= self.order:
            raise TruncationError(f"q-exponent {q_exp} is outside order {self.order}")
        n = q_exp * self.qden
        l = y_exp * 2
        if n.denominator != 1 or l.denominator != 1:
            return Fraction(0)
        return self.terms.get((int(n), int(l)), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def y_free(self) -> bool:
        return all(l == 0 for _, l in self.terms)

    def integral_y_exponents(self) -> bool:
        return all(l % 2 == 0 for _, l in self.terms)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "FourierJacobiSeries") -> "FourierJacobiSeries":
        d = lcm(self.qden, other.qden)
        a, b = self.promoted(d), other.promoted(d)
        out = dict(a.terms)
        for k, c in b.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return FourierJacobiSeries(d, out, min(a.order, b.order))

    def __neg__(self) -> "FourierJacobiSeries":
        return FourierJacobiSeries(self.qden, {k: -c for k, c in self.terms.items()},
                                   self.order, self.index)

    def __sub__(self, other: "FourierJacobiSeries") -> "FourierJacobiSeries":
        return self + (-other)

    def __mul__(self, other: "FourierJacobiSeries") -> "FourierJacobiSeries":
        d = lcm(self.qden, other.qden)
        a, b = self.promoted(d), other.promoted(d)
        order = min(a.order + b.valuation(), b.order + a.valuation())
        limit = order * d
        out: dict[Key, Fraction] = {}
        for (n1, l1), c1 in a.terms.items():
            for (n2, l2), c2 in b.terms.items():
                n = n1 + n2
                if n >= limit:
                    continue
                k = (n, l1 + l2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return FourierJacobiSeries(d, out, order)

    def inverse(self) -> "FourierJacobiSeries":
        """Inverse of a series whose lowest q-order part is a single monomial."""
        if not self.terms:
            raise ValueError("cannot invert the zero window")
        nmin = min(n for n, _ in self.terms)
        lead = [(n, l) for (n, l) in self.terms if n == nmin]
        if len(lead) != 1:
            raise ValueError("leading q-coefficient is not a single monomial")
        n0, l0 = lead[0]
        c0 = self.terms[(n0, l0)]
        # self = c0 q^v y^w (1 + u), val_q(u) > 0
        order_u = self.order - Fraction(n0, self.qden)
        u_terms = {}
        for (n, l), c in self.terms.items():
            if (n, l) == (n0, l0):
                continue
            u_terms[(n - n0, l - l0)] = c / c0
        u = FourierJacobiSeries(self.qden, u_terms, order_u)
        delta = u.valuation()
        if delta <= 0:
            raise ValueError("leading term is not dominant")
        geo = FourierJacobiSeries.constant(1, order_u, self.qden)
        power = FourierJacobiSeries.constant(1, order_u, self.qden)
        k = 1
        while k * delta < order_u:
            power = power * u
            geo = geo + (power if k % 2 == 0 else -power)
            k += 1
        inv_terms = {(n - n0, l - l0): c / c0 for (n, l), c in geo.terms.items()}
        return FourierJacobiSeries(self.qden, inv_terms, order_u - Fraction(n0, self.qden))

    # -- variable rescalings ---------------------------------------------------

    def rescale_tau(self, h: int) -> "FourierJacobiSeries":
        """tau -> h*tau: multiplies all q-exponents (and the window) by h."""
        if h < 1:
            raise ValueError("h must be a positive integer")
        return FourierJacobiSeries(self.qden, {(n * h, l): c for (n, l), c in self.terms.items()},
                                   self.order * h)

    def rescale_z(self, h) -> "FourierJacobiSeries":
        """z -> h*z for h a positive integer or half-integer."""
        h = Fraction(h)
        if h <= 0 or (2 * h).denominator != 1:
            raise ValueError("h must be a positive integer or half-integer")
        out = {}
        for (n, l), c in self.terms.items():
            l2 = Fraction(l) * h
            if l2.denominator != 1:
                raise ValueError("rescaling would create quarter-integral y-exponents")
            out[(n, int(l2))] = c
        idx = None
        if self.index is not None:
            mi = Fraction(self.index) * h * h
            idx = int(mi) if mi.denominator == 1 else None
        return FourierJacobiSeries(self.qden, out, self.order, idx)

    def specialize_y1(self) -> "FourierJacobiSeries":
        """Set y = 1 (z = 0), collapsing to a one-variable q-series."""
        out: dict[Key, Fraction] = {}
        for (n, _), c in self.terms.items():
            k = (n, 0)
            out[k] = out.get(k, Fraction(0)) + c
        return FourierJacobiSeries(self.qden, out, self.order)

    # -- comparisons -------------------------------------------------------------

    def agrees_with(self, other: "FourierJacobiSeries") -> bool:
        """Exact equality of coefficients on the common window."""
        d = lcm(self.qden, other.qden)
        a, b = self.promoted(d), other.promoted(d)
        window = min(a.order, b.order)
        if window <= min(a.valuation(), b.valuation()) and not a.terms and not b.terms:
            return True
        limit = window * d
        keys = set(a.terms) | set(b.terms)
        for (n, l) in keys:
            if n >= limit:
                continue
            if a.terms.get((n, l), Fraction(0)) != b.terms.get((n, l), Fraction(0)):
                return False
        return True

    def proportionality(self, other: "FourierJacobiSeries") -> Fraction | None:
        """Constant c with self = c * other on the common window, if one exists."""
        d = lcm(self.qden, other.qden)
        a, b = self.promoted(d), other.promoted(d)
        limit = min(a.order, b.order) * d
        ratio = None
        for (n, l) in set(a.terms) | set(b.terms):
            if n >= limit:
                continue
            ca = a.terms.get((n, l), Fraction(0))
            cb = b.terms.get((n, l), Fraction(0))
            if cb == 0:
                if ca != 0:
                    return None
                continue
            r = ca / cb
            if ratio is None:
                ratio = r
            elif ratio != r:
                return None
        return ratio

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> str:
        items = sorted(self.terms.items())
        return json.dumps({
            "denominator": self.qden,
            "order": f"{self.order.numerator}/{self.order.denominator}",
            "terms": [[n, l, f"{c.numerator}/{c.denominator}"] for (n, l), c in items],
        }, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "FourierJacobiSeries":
        obj = json.loads(text)
        terms = {(int(n), int(l)): Fraction(c) for n, l, c in obj["terms"]}
        return FourierJacobiSeries(int(obj["denominator"]), terms, Fraction(obj["order"]))

    def __repr__(self) -> str:
        parts = []
        for (n, l), c in sorted(self.terms.items())[:6]:
            parts.append(f"{c}*q^({Fraction(n, self.qden)})y^({Fraction(l, 2)})")
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
        return f"<series {' + '.join(parts) or '0'}{more}, O(q^{self.order})>"


class VectorSeries:
    """Tuple of one-variable q-series indexed by residues mod 2m (or any labels)."""

    def __init__(self, modulus: int, components: dict[int, FourierJacobiSeries]):
        self.modulus = modulus
        self.components = {r % modulus: s for r, s in components.items()}

    def component(self, r: int) -> FourierJacobiSeries:
        return self.components[r % self.modulus]

    def is_odd(self) -> bool:
        """Whether h_r = -h_{-r} on all common windows."""
        for r, s in self.components.items():
            t = self.components.get((-r) % self.modulus)
            if t is None or not s.agrees_with(-t):
                return False
        return True


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _base_qden(m: int) -> int:
    return lcm(24, 4 * m, 8)


def _k_range(m: int, r: int, order: Fraction) -> range:
    # all k with (2km + r)^2 / 4m < order
    bound = isqrt(int(order * 4 * m)) + abs(r) + 2 * m
    K = bound // (2 * m) + 1
    return range(-K, K + 1)


def theta_expansion(m: int, r: int, order) -> FourierJacobiSeries:
    """theta_{m,r} = sum_k q^((2km+r)^2 / 4m) y^(2km+r), truncated."""
    order = Fraction(order)
    if order <= 0:
        raise ValueError("order must be positive")
    qden = _base_qden(m)
    terms: dict[Key, Fraction] = {}
    for k in _k_range(m, r, order):
        j = 2 * k * m + r
        ex = Fraction(j * j, 4 * m)
        if ex < order:
            terms[(int(ex * qden), 2 * j)] = Fraction(1)
    return FourierJacobiSeries(qden, terms, order, m)


def theta_pm(m: int, r: int, sign: int, order) -> FourierJacobiSeries:
    """theta_{m,-r} +/- theta_{m,r}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a = theta_expansion(m, -r, order)
    b = theta_expansion(m, r, order)
    out = a + b if sign == 1 else a - b
    return out.with_index(m)


def eta_expansion(order) -> FourierJacobiSeries:
    """Dedekind eta = q^(1/24) prod_{n>0} (1 - q^n), truncated, in Python ints."""
    order = Fraction(order)
    K = max(0, ceil(order - Fraction(1, 24)))  # exponents k + 1/24 < order, k < K
    coeffs = [1] + [0] * (K - 1) if K else []
    for n in range(1, K):
        for k in range(K - 1, n - 1, -1):
            coeffs[k] -= coeffs[k - n]
    terms = {(24 * k + 1, 0): Fraction(c) for k, c in enumerate(coeffs)}
    return FourierJacobiSeries(24, terms, order)


def eta_pentagonal(order) -> FourierJacobiSeries:
    """Independent eta expansion via the pentagonal-number series."""
    order = Fraction(order)
    terms: dict[Key, Fraction] = {}
    K = isqrt(int(order * 24)) // 6 + 2
    for k in range(-K, K + 1):
        j = 6 * k + 1
        ex = Fraction(j * j, 24)
        if ex < order:
            terms[(j * j, 0)] = Fraction((-1) ** k)
    return FourierJacobiSeries(24, terms, order)


def theta_quark(a: int, b: int, order) -> FourierJacobiSeries:
    """eta^-1 theta-_{2,1}(tau, az/2) theta-_{2,1}(tau, bz/2) theta-_{2,1}(tau, (a+b)z/2).

    Weight one, index a^2 + ab + b^2.  The half-integral y-exponents of the
    three factors always cancel in the product.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive integers")
    order = Fraction(order)
    # the eta inverse costs 1/24 - (-1/24)... build with margin so the product
    # window still reaches `order`
    margin = order + 2
    base = theta_pm(2, 1, -1, margin)
    prod = base.rescale_z(Fraction(a, 2)) * base.rescale_z(Fraction(b, 2))
    prod = prod * base.rescale_z(Fraction(a + b, 2))
    out = prod * eta_expansion(margin).inverse()
    out = out.truncated(order)
    if not out.integral_y_exponents():
        raise AssertionError("theta quark has non-integral y-exponents")
    if not out.terms:
        raise TruncationError("order too small to determine the leading term")
    return out.with_index(a * a + a * b + b * b)


def unary_theta(m: int, r: int, order) -> FourierJacobiSeries:
    """S_{m,r} = sum_k (2km + r) q^((2km+r)^2/4m), a weight-3/2 theta series."""
    order = Fraction(order)
    qden = _base_qden(m)
    terms: dict[Key, Fraction] = {}
    for k in _k_range(m, r, order):
        j = 2 * k * m + r
        ex = Fraction(j * j, 4 * m)
        if ex < order:
            key = (int(ex * qden), 0)
            terms[key] = terms.get(key, Fraction(0)) + j
    return FourierJacobiSeries(qden, terms, order)


EXPLICIT_FORMS = ("xi_1_12", "xi_1_8", "xi9_3A", "xi9_6A")


def explicit_form(name: str, order) -> FourierJacobiSeries:
    """Named weight-one forms and the unary theta combinations.

    Accepted names: xi_1_12, xi_1_8, xi9_3A, xi9_6A, S_unary(m,r),
    S_E8_component(i) with i in {1, 2}.
    """
    order = Fraction(order)
    if name == "xi_1_12":
        s = eta_expansion(order).rescale_tau(6) * theta_pm(2, 1, -1, order).rescale_tau(6).rescale_z(6)
        return s.truncated(order).with_index(12)
    if name == "xi_1_8":
        s = theta_expansion(8, 4, order).specialize_y1() * theta_pm(8, 4, -1, order)
        return s.truncated(order).with_index(8)
    if name in ("xi9_3A", "xi9_6A"):
        t33 = theta_expansion(3, 3, order).specialize_y1()
        t30 = theta_expansion(3, 0, order).specialize_y1()
        first = t33 * theta_pm(9, 3, -1, order)
        second = t30 * theta_pm(9, 6, -1, order)
        s = first - second if name == "xi9_3A" else first + second
        return s.truncated(order).with_index(9)
    if name.startswith("S_unary(") and name.endswith(")"):
        m, r = (int(x) for x in name[8:-1].split(","))
        return unary_theta(m, r, order)
    if name.startswith("S_E8_component(") and name.endswith(")"):
        i = int(name[15:-1])
        if i == 1:
            rs = (1, 11, 19, 29)
        elif i == 2:
            rs = (7, 13, 17, 23)
        else:
            raise ValueError("component must be 1 or 2")
        out = unary_theta(30, rs[0], order)
        for r in rs[1:]:
            out = out + unary_theta(30, r, order)
        return out
    raise ValueError(f"unknown explicit form {name!r}")


# ---------------------------------------------------------------------------
# Theta decomposition
# ---------------------------------------------------------------------------

def theta_decompose(s: FourierJacobiSeries, m: int) -> VectorSeries:
    """Theta coefficients h_r of an index-m expansion; h_r collects the
    coefficient at discriminant exponent n - l^2/4m for l = r mod 2m."""
    if not s.integral_y_exponents():
        raise ValueError("series must have integral y-exponents")
    qden = lcm(s.qden, 4 * m)
    sp = s.promoted(qden)
    comp: dict[int, dict[Key, Fraction]] = {r: {} for r in range(2 * m)}
    for (n, l2), c in sp.terms.items():
        l = l2 // 2
        r = l % (2 * m)
        disc = n * 4 * m - l * l * qden  # numerator over qden*4m
        comp[r][(disc, 0)] = c
    # every l in the same residue class must carry the same coefficient at a
    # given discriminant wherever the input window reaches
    for r in range(2 * m):
        for (disc, _), c in comp[r].items():
            for k in _k_range(m, r, sp.order - Fraction(disc, qden * 4 * m)):
                l = 2 * k * m + r
                n = (disc + l * l * qden) // (4 * m)
                if (disc + l * l * qden) % (4 * m) or Fraction(n, qden) >= sp.order:
                    continue
                got = sp.terms.get((n, 2 * l), Fraction(0))
                if got != c:
                    raise ValueError(
                        f"inconsistent index-{m} support at residue {r}, "
                        f"discriminant {Fraction(disc, qden * 4 * m)}")
    out = {}
    for r in range(2 * m):
        r0 = min(r % (2 * m), (-r) % (2 * m))
        window = sp.order - Fraction(r0 * r0, 4 * m)
        out[r] = FourierJacobiSeries(qden * 4 * m, comp[r], window)
    return VectorSeries(2 * m, out)


def theta_recompose(v: VectorSeries, m: int, order) -> FourierJacobiSeries:
    order = Fraction(order)
    out = FourierJacobiSeries.zero(order)
    for r in range(2 * m):
        h = v.components.get(r)
        if h is None or h.is_zero():
            continue
        if not h.y_free():
            raise ValueError("theta coefficients must be one-variable series")
        out = out + h * theta_expansion(m, r, order)
    return out.truncated(order).with_index(m)


def elliptic_transform_check(s: FourierJacobiSeries, m: int, lam: int, order=None) -> bool:
    """Check invariance under z -> z + lam*tau together with the index-m factor.

    Compares q^n y^l coefficients of s with those of the transformed series
    q^(n + lam*l + m*lam^2) y^(l + 2m*lam) on the window where both are known.
    """
    if s.index is not None and s.index != m:
        raise ValueError("series is tagged with a different index")
    if not s.integral_y_exponents():
        raise ValueError("series must have integral y-exponents")
    qden = s.qden
    window = s.order if order is None else min(Fraction(order), s.order)
    mapped: dict[Key, Fraction] = {}
    for (n, l2), c in s.terms.items():
        l = l2 // 2
        n2 = n + (lam * l + m * lam * lam) * qden
        mapped[(n2, l2 + 4 * m * lam)] = c
    checked = 0
    for key in set(mapped) | set(s.terms):
        n2, l2 = key
        l = l2 // 2
        npre = n2 - (lam * (l - 2 * m * lam) + m * lam * lam) * qden
        if Fraction(n2, qden) >= window or Fraction(npre, qden) >= s.order:
            continue
        checked += 1
        if mapped.get(key, Fraction(0)) != s.terms.get(key, Fraction(0)):
            return False
    if checked == 0:
        raise TruncationError("empty comparison window")
    return True
