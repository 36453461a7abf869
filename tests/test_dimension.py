from fractions import Fraction

import numpy as np
import pytest

from weightone.arith import factorize, lcm
from weightone.cyclotomic import CycNumber, _phi_reduction_matrix
from weightone.dimension import (BudgetExceeded, DimQuery, IntegralityError,
                                 _literal_inner_products, _snap_nonneg_int,
                                 _theta_pair_inner_products,
                                 _weighted_product_sum,
                                 admissible_divisors, default_aux, dim_j1,
                                 estimated_cost, inner_product,
                                 lemma_hypotheses, twisted_pair_inner_products,
                                 umbral_sweep)
from weightone.sl2 import gamma0_image, perm_character, word_for
from weightone.umbral import load_dataset
from weightone.vanishing import exponent_criterion
from weightone.weil import (evaluate_character, get_trace_table, local_spaces,
                            theta_handle)


def test_query_validation():
    with pytest.raises(ValueError):
        DimQuery(2, 8, 3)  # m does not divide M
    with pytest.raises(ValueError):
        DimQuery(2, 64, 2)  # N does not divide 4M
    with pytest.raises(ValueError):
        DimQuery(2, 8, 2, backend="magic")


def test_default_aux():
    assert default_aux(1, 1) == 1
    assert default_aux(3, 144) == 36
    assert default_aux(6, 36) == 18
    assert default_aux(30, 36) == 90
    assert default_aux(8, 32) == 8
    assert default_aux(9, 9) == 9
    for (m, n) in ((3, 144), (6, 36), (9, 9), (2, 8)):
        aux = default_aux(m, n)
        assert aux % m == 0 and (4 * aux) % n == 0


def test_admissible_divisors():
    assert admissible_divisors(8) == [4, 8]
    assert admissible_divisors(36) == [6, 12, 18, 36]
    assert admissible_divisors(90) == [3, 6, 9, 15, 18, 30, 45, 90]


def test_level_one_vanishing_small():
    # m = 16 sweeps SL2(Z/64); m = 11 and 13 are left to the slower odd tables
    for m in (1, 2, 3, 4, 5, 6, 12, 14, 15, 16):
        assert dim_j1(m, 1, m) == 0, m


def _literal_pair_inner_products(m, mprimes, level, q):
    """<theta_m^- theta_{m'}^+, 1_N> as the exact average over every element.

    Values are integer coordinate vectors in Q(zeta_L), multiplied modulo
    x^L - 1 and reduced mod Phi_L only at the end; each is returned as
    (reduced coordinates, denominator 4|H|).
    """
    tables = {k: [get_trace_table(sp) for sp in local_spaces(k)] for k in {m, *mprimes}}
    L = lcm(*(t.order for ts in tables.values() for t in ts))
    one = np.zeros(L, dtype=np.int64)
    one[0] = 1

    def mul(a, b):
        full = np.convolve(a, b)
        out = full[:L].copy()
        out[: len(full) - L] += full[L:]
        return out

    def twice_theta(k, w, sign):  # F + sign G
        f = g = one
        for t in tables[k]:
            fv, gv = (np.zeros(L, dtype=np.int64) for _ in range(2))
            fv[::L // t.order], gv[::L // t.order] = t.values(w)
            f, g = mul(f, fv), mul(g, gv)
        return f + sign * g

    totals = [np.zeros(L, dtype=np.int64) for _ in mprimes]
    count = 0
    for g in gamma0_image(level, q):
        w = word_for(g)
        left = twice_theta(m, w, -1)
        for i, mp in enumerate(mprimes):
            totals[i] += mul(left, twice_theta(mp, w, 1))
        count += 1
    return [(t @ _phi_reduction_matrix(L), 4 * count) for t in totals]


def test_orbit_sums_equal_the_literal_average():
    for (m, n, aux) in ((8, 32, 8), (9, 9, 9), (2, 8, 2), (6, 12, 6), (4, 16, 4)):
        mprimes = admissible_divisors(aux)
        orbit = _theta_pair_inner_products(m, mprimes, n, 4 * aux)
        literal = _literal_pair_inner_products(m, mprimes, n, 4 * aux)
        assert len(orbit) == len(literal)
        for (c, den), (want, want_den) in zip(orbit, literal):
            assert den == want_den and np.array_equal(c, want), (m, n, aux)
        flt = _literal_inner_products(m, mprimes, n, 4 * aux)
        for (c, den), v in zip(orbit, flt):
            assert abs(c[0] / den - v) < 1e-9, (m, n, aux)


def test_weighted_product_sum_and_its_overflow_guard():
    rng = np.random.default_rng(5)
    v1 = rng.integers(-3, 4, size=(5, 4))   # rows in Q(zeta_4)
    v2 = rng.integers(-3, 4, size=(5, 6))   # rows in Q(zeta_6)
    sizes = np.array([1, 2, 3, 4, 6], dtype=np.int64)
    want = CycNumber.rational(0)
    for r in range(5):
        x = CycNumber(4, [Fraction(int(c)) for c in v1[r]])
        y = CycNumber(6, [Fraction(int(c)) for c in v2[r]])
        want = want + CycNumber.rational(int(sizes[r])) * x * y
    got = _weighted_product_sum(v1, v2, sizes)
    assert got.dtype == np.int64 and got.shape == (12,)
    assert CycNumber(12, [Fraction(int(c)) for c in got]) == want
    # without weights every row counts once
    assert np.array_equal(_weighted_product_sum(v1, v2),
                          _weighted_product_sum(v1, v2, np.ones(5, dtype=np.int64)))
    # each entry and the plain product fit int64, but the fold of min(L1, L2)
    # products into one coordinate would not
    big = np.full((1, 4), 1 << 30, dtype=np.int64)
    with pytest.raises(OverflowError):
        _weighted_product_sum(big, big, np.array([1 << 1], dtype=np.int64))
    # the cross-prime product of two per-prime sums: each sum fits int64,
    # their product into Z[zeta_12] would wrap
    a, b = np.full((1, 4), 1 << 31, dtype=np.int64), np.full((1, 3), 1 << 31, dtype=np.int64)
    with pytest.raises(OverflowError):
        _weighted_product_sum(a, b)
    a, b = a >> 2, b >> 2
    prod = _weighted_product_sum(a, b)
    assert prod.shape == (12,) and set(prod.tolist()) == {1 << 58}


def test_exact_snap_accepts_only_nonnegative_integers():
    assert _snap_nonneg_int((np.array([8, 0, 0, 0]), 4), "v") == 2
    assert _snap_nonneg_int((np.array([0, 0]), 12), "v") == 0
    for coords in ([4, 4, 0, 0],    # not rational
                   [2, 0, 0, 0],    # 1/2
                   [-4, 0, 0, 0]):  # -1
        with pytest.raises(IntegralityError):
            _snap_nonneg_int((np.array(coords), 4), "v")

def test_vanishing_criteria_imply_zero_dimension():
    # wherever the syntactic lemma or the exponent criterion says "vanishes",
    # the exact dimension is 0; moduli 4M <= 288 with odd prime powers <= 9
    checked = 0
    for m in range(1, 13):
        for n in range(1, 37):
            aux = default_aux(m, n)
            fac = factorize(4 * aux)
            if 4 * aux > 288 or any(p > 7 or (p > 2 and p ** e > 9) for p, e in fac.items()):
                continue
            if lemma_hypotheses(m, n) or exponent_criterion(m, aux).vanishes:
                assert dim_j1(m, n, aux) == 0, (m, n, aux)
                checked += 1
    assert checked == 213


def test_m_independence():
    assert dim_j1(2, 8, 2) == dim_j1(2, 8, 4) == dim_j1(2, 8, 8) == 0
    # a positive case whose divisor sum genuinely changes with M
    assert dim_j1(9, 9, 9) == dim_j1(9, 9, 18) == 1


def test_backend_agreement():
    level_one = tuple((m, 1, m) for m in range(1, 9))
    for (m, n, aux) in ((2, 8, 2), (3, 9, 9), (9, 9, 9), (2, 2, 2), (8, 32, 8)) + level_one:
        exact = dim_j1(m, n, aux, backend="exact")
        flt = dim_j1(m, n, aux, backend="float")
        crt = dim_j1(m, n, aux, backend="crt-float")
        assert exact == flt == crt, (m, n, aux)


def test_positive_controls_small():
    assert dim_j1(9, 9, 9) == 1
    assert dim_j1(8, 32, 8) == 1


def test_monotonicity_in_level():
    # N' | N gives a subspace
    pairs = [((9, 3), (9, 9)), ((8, 16), (8, 32)), ((2, 2), (2, 8))]
    for (m, n1), (_, n2) in pairs:
        assert dim_j1(m, n1) <= dim_j1(m, n2)


def test_budget():
    q = DimQuery(3, 144, 36, "float")
    assert estimated_cost(q) > estimated_cost(DimQuery(3, 144, 36, "exact"))
    with pytest.raises(BudgetExceeded):
        dim_j1(3, 144, 36, backend="float", budget=10)


def test_inner_product_direct_definition_crosscheck():
    # average over the level-N image equals the full-group sum weighted by the
    # induced permutation character, for a small modulus
    h1 = theta_handle(1, -1)
    h2 = theta_handle(1, 1)
    n, q = 4, 4
    frob = inner_product(h1, h2, n, q)
    total = Fraction(0)
    count = 0
    for g in gamma0_image(1, q):
        w = word_for(g)
        prod = evaluate_character(h1, w) * evaluate_character(h2, w)
        total += prod.rational_value() * perm_character(n, g)
        count += 1
    assert frob == total / count
    assert frob == 0  # theta_1^- vanishes identically


def test_inner_product_direct_crosscheck_nontrivial():
    h1 = theta_handle(2, -1)
    h2 = theta_handle(2, 1)
    n, q = 2, 8
    frob = inner_product(h1, h2, n, q)
    total = 0j
    count = 0
    for g in gamma0_image(1, q):
        w = word_for(g)
        prod = evaluate_character(h1, w) * evaluate_character(h2, w)
        total += prod.to_complex() * perm_character(n, g)
        count += 1
    assert abs(complex(frob) - total / count) < 1e-9


def test_inner_product_validation():
    with pytest.raises(ValueError):
        inner_product(theta_handle(2, -1), theta_handle(2, 1), 3, 8)  # N does not divide Q
    with pytest.raises(ValueError):
        inner_product(theta_handle(3, -1), theta_handle(2, 1), 2, 8)  # conductor 12 not | 8


def test_twisted_grid_matches_inner_product():
    vals = twisted_pair_inner_products([2], 2, 8, [(1, 1)])
    direct = inner_product(theta_handle(2, -1), theta_handle(2, 1), 2, 8)
    assert abs(vals[(2, 2, 1, 1)] - complex(direct)) < 1e-9
    # every pair of odd twists mod 8 over 1_32 in SL2(Z/32); eight entries are
    # 1, so a wrong orbit weight shows
    pairs = [(a, ap) for a in (1, 3, 5, 7) for ap in (1, 3, 5, 7)]
    grid = twisted_pair_inner_products([4, 8], 32, 32, pairs)
    assert len(grid) == 64
    for (km, kp, a, ap), v in grid.items():
        want = inner_product(theta_handle(km, -1, a), theta_handle(kp, 1, ap), 32, 32,
                             backend="float")
        assert abs(v - want) < 1e-9, (km, kp, a, ap)
    assert sum(abs(v - 1) < 1e-9 for v in grid.values()) == 8


def test_inner_product_float_backend_generic_handles():
    from weightone.weil import lambda_character
    lam = lambda_character(3, 1, -1)
    exact = inner_product(lam, lam, 1, 3)
    flt = inner_product(lam, lam, 1, 3, backend="float")
    assert abs(complex(exact) - flt) < 1e-9
    flt_theta = inner_product(theta_handle(2, -1), theta_handle(2, 1), 2, 8,
                              backend="float")
    exact_theta = inner_product(theta_handle(2, -1), theta_handle(2, 1), 2, 8)
    assert abs(flt_theta - complex(exact_theta)) < 1e-9


def test_lemma_hypotheses():
    assert lemma_hypotheses(2, 4)
    assert not lemma_hypotheses(9, 9)     # 27 | 81
    assert not lemma_hypotheses(3, 144)   # 27 | 432
    assert lemma_hypotheses(5, 36)
    assert lemma_hypotheses(12, 32)       # m = 4 mod 8
    assert not lemma_hypotheses(32, 32)   # both divisible by 32
    assert lemma_hypotheses(7, 32)        # odd index, 64 does not divide N
    assert not lemma_hypotheses(7, 128)


def test_criterion_dimension_consistency():
    # wherever the exponent criterion proves vanishing, the dimension is 0
    for m in range(1, 5):
        for aux in range(m, 13):
            if aux % m:
                continue
            if exponent_criterion(m, aux).vanishes:
                assert dim_j1(m, 4 * aux, aux) == 0, (m, aux)


def test_umbral_sweep():
    ds = load_dataset()
    rows = umbral_sweep(ds)
    by_key = {(r.root_system, r.class_name): r for r in rows}
    assert len(rows) == len(ds.class_records)
    # identity classes settle by the syntactic lemma at level 1
    assert by_key[("A1^24", "1A")].method == "lemma"
    assert by_key[("A1^24", "2A")].method == "lemma"
    # exceptional classes are flagged and have nonzero dimension
    for key in (("A8^3", "3A"), ("A8^3", "6A")):
        row = by_key[key]
        assert row.exceptional and row.method == "dimension" and row.value >= 1
    # every non-exceptional class is settled and vanishes
    for row in rows:
        if not row.exceptional:
            assert row.method in ("lemma", "exponent", "dimension")
            assert row.vanishes, (row.root_system, row.class_name)
    # the three-families rows settle through the dimension formula
    assert by_key[("A2^12", "12A")].method == "dimension"
    assert by_key[("A2^12", "12A")].value == 0
    assert by_key[("D4^6", "3C")].method == "dimension"
    assert by_key[("D4^6", "3C")].value == 0
    assert by_key[("E8^3", "3A")].method == "dimension"
    assert by_key[("E8^3", "3A")].value == 0


def test_umbral_sweep_budget_skips():
    ds = load_dataset()
    rows = umbral_sweep(ds, budget=10)
    skipped = [r for r in rows if r.method == "skipped"]
    assert skipped
    for r in skipped:
        assert r.vanishes is None and r.estimated > 10
