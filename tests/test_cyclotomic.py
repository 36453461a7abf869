import math
import random
from fractions import Fraction

import pytest

from weightone.cyclotomic import (CycNumber, ExactCycMatrix, PrecisionError,
                                  cyclotomic_polynomial, embed_root,
                                  galois_apply, gauss_sigma,
                                  sqrt_as_cyclotomic)
from weightone.weil import QuadSpace


def test_embed_root_identities():
    assert embed_root(1, 0) == 1
    i = embed_root(4, 1)
    assert i * i == CycNumber.rational(-1)
    assert i * i == embed_root(2, 1)
    assert embed_root(8, 1) ** 4 == CycNumber.rational(-1)
    assert embed_root(6, 7) == embed_root(6, 1)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)


def test_equality_mod_relations():
    # 1 + zeta_3 + zeta_3^2 = 0 even though the raw vectors differ
    z = embed_root(3, 0) + embed_root(3, 1) + embed_root(3, 2)
    assert z.is_zero()
    assert z == CycNumber.rational(0)
    # cross-order equality
    assert embed_root(2, 1) == embed_root(6, 3)


def test_promotion_roundtrip():
    x = embed_root(6, 1) + 2 * embed_root(6, 5)
    y = x.promoted(24)
    assert y == x
    with pytest.raises(ValueError):
        x.promoted(9)


def test_galois():
    x = embed_root(8, 1)
    assert galois_apply(1, x) == x
    assert galois_apply(7, x) == embed_root(8, 7)
    assert galois_apply(17 % 36, embed_root(36, 1)) == embed_root(36, 17)
    with pytest.raises(ValueError):
        galois_apply(2, x)
    # composition law on a random element
    rng = random.Random(0)
    v = sum((embed_root(36, rng.randrange(36)) for _ in range(4)), CycNumber.zero(36))
    assert galois_apply(5, galois_apply(7, v)) == galois_apply(35, v)


def test_conjugation_matches_galois_minus_one():
    rng = random.Random(1)
    for _ in range(10):
        L = rng.choice([8, 12, 36])
        v = sum((embed_root(L, rng.randrange(L)) for _ in range(3)), CycNumber.zero(L))
        assert v.conjugate() == galois_apply(L - 1, v)
        a = v.to_complex()
        b = galois_apply(L - 1, v).to_complex()
        assert abs(a.conjugate() - b) < 1e-12


def test_sqrt_as_cyclotomic():
    for n in (1, 2, 3, 4, 5, 6, 10, 12, 18, 45):
        s = sqrt_as_cyclotomic(n)
        assert s * s == n
        assert abs(s.to_complex() - math.sqrt(n)) < 1e-10


def test_gauss_sigma_values():
    for m in range(1, 10):
        assert gauss_sigma(QuadSpace("D", m)) == 7  # e(-1/8)
    assert gauss_sigma(QuadSpace("L", 1)) == 0
    # five-term Gauss sum by hand: sum e(-x^2/5) = sqrt(5) exactly
    assert gauss_sigma(QuadSpace("L", 5)) == 0


def test_gauss_sigma_rejects_degenerate():
    class Bad:
        size = 4

        @staticmethod
        def q(x):
            return Fraction(x, 4)  # not a quadratic form; Gauss sum has wrong modulus

    with pytest.raises(ValueError):
        gauss_sigma(Bad())


def test_to_complex():
    assert CycNumber.rational(1).to_complex() == 1.0
    assert abs(embed_root(4, 1).to_complex() - 1j) < 1e-15
    v = embed_root(8, 1) + embed_root(8, -1)
    assert abs(v.to_complex() - math.sqrt(2)) < 1e-12
    with pytest.raises(PrecisionError):
        v.to_complex(precision=1e-18)


def test_mul_matches_complex():
    rng = random.Random(2)
    for _ in range(20):
        L = rng.choice([8, 24, 36])
        x = sum((embed_root(L, rng.randrange(L)) for _ in range(3)), CycNumber.zero(L))
        y = sum((embed_root(L, rng.randrange(L)) for _ in range(3)), CycNumber.zero(L))
        assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-10


def test_equality_vs_numeric_sanity():
    # randomized: exact equality agrees with tiny numeric difference
    rng = random.Random(3)
    for _ in range(30):
        L = rng.choice([8, 12, 24])
        x = sum((embed_root(L, rng.randrange(L)) for _ in range(3)), CycNumber.zero(L))
        y = sum((embed_root(L, rng.randrange(L)) for _ in range(3)), CycNumber.zero(L))
        exact = (x == y)
        numeric = abs(x.to_complex() - y.to_complex()) < 1e-10
        assert exact == numeric


def test_exact_matrix_ops():
    i = embed_root(4, 1)
    one = CycNumber.rational(1)
    zero = CycNumber.zero()
    m = ExactCycMatrix.from_entries([[one, i], [zero, one]], 8)
    sq = m @ m
    assert sq.entry(0, 1) == 2 * i
    assert sq.entry(0, 0) == 1
    ident = ExactCycMatrix.identity(2, 8)
    assert (m @ ident) == m
    tr = m.trace()
    assert tr == 2
    complex_m = m.to_complex_array()
    assert abs(complex_m[0, 1] - 1j) < 1e-14
    assert complex_m[1, 0] == 0.0  # exact structural zero survives reduction
