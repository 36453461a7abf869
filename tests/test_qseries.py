import random
from fractions import Fraction as F

import pytest

from weightone.qseries import (FourierJacobiSeries, TruncationError,
                               VectorSeries, elliptic_transform_check,
                               eta_expansion, eta_pentagonal, explicit_form,
                               theta_decompose, theta_expansion, theta_pm,
                               theta_quark, theta_recompose)


def brute_theta(m, r, order, rescale=F(1)):
    """Independent summation oracle for theta_{m,r}(tau, rescale*z)."""
    order = F(order)
    qden = 24 * 4 * m
    terms = {}
    for k in range(-(4 * m + int(order) * 4), 4 * m + int(order) * 4 + 1):
        j = 2 * k * m + r
        ex = F(j * j, 4 * m)
        if ex < order:
            l2 = F(j) * rescale * 2
            assert l2.denominator == 1
            key = (int(ex * qden), int(l2))
            terms[key] = terms.get(key, F(0)) + 1
    return FourierJacobiSeries(qden, terms, order)


def test_theta_against_brute_force():
    for (m, r) in ((1, 0), (2, 1), (9, 6), (8, 4), (3, 5)):
        assert theta_expansion(m, r, 6).agrees_with(brute_theta(m, r, 6))
    # periodicity in r
    assert theta_expansion(3, 1, 5).agrees_with(theta_expansion(3, 7, 5))


def test_theta_leading_terms():
    t = theta_expansion(1, 0, 2)
    assert t.coeff(0, 0) == 1 and t.coeff(1, 2) == 1 and t.coeff(1, -2) == 1
    assert theta_expansion(9, 6, 2).coeff(1, 6) == 1


def test_theta_pm():
    assert theta_pm(5, 0, -1, 4).is_zero()
    assert theta_pm(5, 5, -1, 4).is_zero()
    t = theta_pm(9, 3, -1, 2)
    assert t.coeff(F(1, 4), -3) == 1 and t.coeff(F(1, 4), 3) == -1
    # theta^-_{m,r} = -theta^-_{m,-r}
    for m in range(1, 13):
        for r in range(2 * m):
            a = theta_pm(m, r, -1, 3)
            b = theta_pm(m, -r, -1, 3)
            assert a.agrees_with(-b)
    # y -> 1 kills the odd combination
    for (m, r) in ((2, 1), (9, 4), (12, 5)):
        assert theta_pm(m, r, -1, 5).specialize_y1().is_zero()


def test_half_integral_rescale():
    t = theta_pm(2, 1, 1, 2).rescale_z(F(1, 2))
    assert t.coeff(F(1, 8), F(1, 2)) == 1 and t.coeff(F(1, 8), F(-1, 2)) == 1


def test_eta_and_inverse():
    e = eta_expansion(10)
    assert e.agrees_with(eta_pentagonal(10))
    assert e.coeff(F(1, 24)) == 1 and e.coeff(F(25, 24)) == -1
    one = e * e.inverse()
    assert one.coeff(0, 0) == 1
    assert all(c == 0 for k, c in one.terms.items() if k != (0, 0))


@pytest.mark.parametrize("order", [F(500), F(1, 24), F(25, 24), F(7, 2)])
def test_eta_product_equals_pentagonal_series(order):
    # 1/24 and 25/24 sit exactly on a term, which the strict window excludes
    e, p = eta_expansion(order), eta_pentagonal(order)
    assert e.order == p.order and e.terms == p.terms


def test_invert_requires_monomial_lead():
    s = theta_expansion(1, 0, 3)  # leading q-coefficient has three monomials? no: 1
    # constant term is the single monomial 1, so inversion works
    inv = s.inverse()
    assert (s * inv).coeff(0, 0) == 1
    bad = theta_pm(9, 3, -1, 2)  # leading coefficient has two y-monomials
    with pytest.raises(ValueError):
        bad.inverse()


def test_rescale_identity():
    lhs = theta_expansion(2, 1, 4).rescale_tau(3).rescale_z(3)
    assert lhs.agrees_with(theta_expansion(6, 3, 12))


def test_theta_quark():
    q11 = theta_quark(1, 1, 3)
    assert q11.index == 3
    for (yexp, c) in ((-2, 1), (-1, -2), (1, 2), (2, -1)):
        assert q11.coeff(F(1, 3), yexp) == c
    assert q11.integral_y_exponents()
    assert theta_quark(1, 2, 3).agrees_with(theta_quark(2, 1, 3))
    assert theta_quark(1, 2, 3).index == 7
    with pytest.raises(ValueError):
        theta_quark(0, 1, 3)
    with pytest.raises(TruncationError):
        theta_quark(1, 1, F(1, 4))


def test_quark_matches_independent_product():
    # brute-force: assemble the quark from independently summed factors
    order = F(4)
    margin = order + 2
    f1 = brute_theta(2, -1, margin, F(1, 2)) - brute_theta(2, 1, margin, F(1, 2))
    f3 = brute_theta(2, -1, margin, F(1)) - brute_theta(2, 1, margin, F(1))
    prod = f1 * f1 * f3 * eta_pentagonal(margin).inverse()
    assert theta_quark(1, 1, order).agrees_with(prod.truncated(order))


def test_explicit_forms():
    x12 = explicit_form("xi_1_12", 8)
    assert x12.index == 12
    assert x12.coeff(1, -6) == 1 and x12.coeff(1, 6) == -1
    assert not [k for k, c in x12.terms.items() if 1 < F(k[0], x12.qden) < 7 and c]
    x8 = explicit_form("xi_1_8", 6)
    assert x8.coeff(1, -4) == 1 and x8.coeff(1, 4) == -1
    assert not [k for k, c in x8.terms.items() if 1 < F(k[0], x8.qden) < 5 and c]
    su = explicit_form("S_unary(4,1)", 7)
    assert su.coeff(F(1, 16)) == 1
    assert su.coeff(F(1, 16) + 3) == -7
    assert su.coeff(F(1, 16) + 5) == 9
    e8 = explicit_form("S_E8_component(2)", 2)
    assert e8.coeff(F(49, 120)) == 7
    with pytest.raises(ValueError):
        explicit_form("nope", 2)


def test_theta84_eta_quotient():
    lhs = theta_expansion(8, 4, 11).specialize_y1()
    e8 = eta_expansion(F(3, 2)).rescale_tau(8)
    rhs = e8 * e8 * eta_expansion(F(11, 4)).rescale_tau(4).inverse()
    assert min(lhs.order, rhs.order) >= 10
    assert lhs.agrees_with(rhs)


def test_xi9_forms_and_quark_proportionality():
    x93 = explicit_form("xi9_3A", 11)
    assert x93.coeff(1, -3) == 2 and x93.coeff(1, 3) == -2
    assert x93.coeff(1, -6) == -1 and x93.coeff(1, 6) == 1
    q3 = theta_quark(1, 1, F(11, 3)).rescale_tau(3).rescale_z(3)
    assert min(x93.order, q3.order) >= 10
    # proportional with constant -1 under the sign conventions used here
    assert x93.proportionality(q3) == -1


def test_theta_decompose_roundtrip():
    rng = random.Random(0)
    for m in range(1, 13):
        # random small combination sum h_r theta_{m,r}
        comps = {}
        for _ in range(3):
            r = rng.randrange(2 * m)
            comps[r] = FourierJacobiSeries(
                1, {(rng.randrange(3), 0): F(rng.randrange(1, 5))}, F(4))
        s = theta_recompose(VectorSeries(2 * m, comps), m, 3)
        dec = theta_decompose(s, m)
        back = theta_recompose(dec, m, 3)
        assert back.agrees_with(s)


def test_theta_decompose_of_theta_is_delta():
    dec = theta_decompose(theta_expansion(5, 2, 4), 5)
    for r in range(10):
        comp = dec.component(r)
        if r == 2:
            assert comp.coeff(0) == 1
        else:
            assert comp.is_zero()


def test_theta_decompose_rejects_inconsistent():
    s = theta_expansion(2, 1, 6)
    terms = dict(s.terms)
    key = sorted(terms)[0]
    terms[key] = terms[key] + 1
    bad = FourierJacobiSeries(s.qden, terms, s.order)
    with pytest.raises(ValueError):
        theta_decompose(bad, 2)


def test_xi18_decomposition():
    dec = theta_decompose(explicit_form("xi_1_8", 6), 8)
    t84 = theta_expansion(8, 4, 5).specialize_y1()
    assert dec.component(-4).agrees_with(t84)
    assert dec.component(4).agrees_with(-t84)
    for r in range(16):
        if r % 8 != 4:
            assert dec.component(r).is_zero()
    assert dec.is_odd()


def test_elliptic_transform():
    for m in range(1, 10):
        for r in (0, 1, m):
            assert elliptic_transform_check(theta_expansion(m, r, 16), m, 1)
    assert elliptic_transform_check(theta_expansion(2, 1, 10), 2, 0)
    bad = dict(theta_expansion(2, 1, 16).terms)
    k0 = sorted(bad)[0]
    bad[k0] = bad[k0] + 1
    corrupted = FourierJacobiSeries(theta_expansion(2, 1, 16).qden, bad, F(16), 2)
    assert not elliptic_transform_check(corrupted, 2, 1)
    with pytest.raises(TruncationError):
        elliptic_transform_check(theta_expansion(2, 1, F(1, 8)), 2, 3)


def test_truncation_window_guard():
    t = theta_expansion(1, 0, 2)
    with pytest.raises(TruncationError):
        t.coeff(2, 0)
    prod = t * t
    assert prod.order == 2  # min window, not silently extended


def test_golden_files():
    import pathlib
    here = pathlib.Path(__file__).parent / "golden"
    assert explicit_form("xi_1_8", 6).to_json() == (here / "xi_1_8_order6.json").read_text()
    assert explicit_form("xi9_3A", 4).to_json() == (here / "xi9_3A_order4.json").read_text()


def test_json_golden_roundtrip():
    x8 = explicit_form("xi_1_8", 6)
    js = x8.to_json()
    assert js.startswith('{"denominator":')
    back = FourierJacobiSeries.from_json(js)
    assert back.qden == x8.qden and back.order == x8.order
    assert back.agrees_with(x8)
    # terms sorted lexicographically
    import json
    terms = json.loads(js)["terms"]
    assert terms == sorted(terms)
