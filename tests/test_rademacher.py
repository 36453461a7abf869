import cmath
import functools
import math
import random
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest

from weightone.cli import main
from weightone.cyclotomic import prime_embeddings
from weightone.rademacher import (RademacherParams, ThetaDualMultiplier,
                                  cauchy_table, coset_reps, kernel_r,
                                  truncated_sum,
                                  write_diagnostics_csv)
from weightone.sl2 import Sl2Word, word_decompose
from weightone.weil import QuadSpace, get_weil_rep

TAU = 0.13 + 0.82j


def test_kernel_translation_subgroup():
    assert kernel_r(F(-1, 8), (1, 5, 0, 1), TAU, 10) == 1.0
    assert kernel_r(F(-1, 8), (-1, 3, 0, -1), TAU, 10) == 1.0


def test_kernel_alpha_zero():
    assert kernel_r(F(0, 1), (1, 0, 1, 1), TAU, 10) == 0


def test_kernel_depth_convergence():
    g = (1, 0, 3, 1)
    a = kernel_r(F(-1, 36), g, TAU, 20)
    b = kernel_r(F(-1, 36), g, TAU, 40)
    assert abs(a - b) < 1e-12
    # factorial tail: the first omitted term bounds the truncation error
    w = complex(F(-1, 36)) / (3 * (3 * TAU + 1))
    z = -2j * math.pi * w
    tail = abs(z) ** 20.5 / math.gamma(21.5)
    assert abs(a - b) <= tail + 1e-15


def test_kernel_validation():
    with pytest.raises(ValueError):
        kernel_r(F(1, 4), (1, 0, 1, 1), 0.5 - 1j, 10)
    with pytest.raises(ValueError):
        kernel_r(F(1, 4), (1, 0, 1, 1), TAU, 0)


def test_coset_reps():
    assert coset_reps(1, 1) == [(1, 0, 0, 1)]
    reps = coset_reps(1, 2)
    assert reps[0] == (1, 0, 0, 1)
    for (a, b, c, d) in reps:
        assert a * d - b * c == 1
        assert 0 <= c < 2 and abs(d) < 4
        assert c == 0 or gcd(c, d) == 1
    # distinct translation cosets: distinct (c, d) rows
    rows = [(c, d) for (_, _, c, d) in reps]
    assert len(set(rows)) == len(rows)
    # level filter
    for (_, _, c, _) in coset_reps(3, 10):
        assert c % 3 == 0


def test_multiplier_t_normalization():
    for m in (2, 9):
        nu = ThetaDualMultiplier(m)
        t = nu((1, 1, 0, 1))
        want = cmath.exp(2j * math.pi / (4 * m))
        assert abs(t[1, 1] - want) < 1e-12
        ident = nu((1, 0, 0, 1))
        assert np.allclose(ident, np.eye(2 * m))


@functools.lru_cache(maxsize=None)
def _head_matrix(rep, texps):
    return rep.evaluate_word(Sl2Word(texps)).to_complex_array()


def _exact_reference(rep, w):
    """rep.evaluate_word(w).to_complex_array(), through the word's S-letter prefix.

    Coset words with one first column share that prefix, so it is evaluated
    once; the trailing T power is a unitary diagonal and keeps exact zeros.
    """
    head = _head_matrix(rep, w.texps[:-1] + (0,))
    return head * np.exp(2j * np.pi * (rep.t_diag * w.texps[-1] % rep.order) / rep.order)


@pytest.mark.parametrize("m,level,K", [(9, 3, 20), (6, 1, 6), (16, 1, 6)])
def test_multiplier_matches_exact_weil_matrix_on_every_coset(m, level, K):
    nu = ThetaDualMultiplier(m)
    rep = get_weil_rep(QuadSpace("D", m))
    for gamma in coset_reps(level, K):
        w = word_decompose(gamma)
        direct = w.principal_sign() * _exact_reference(rep, w).T
        got = nu(gamma)
        assert np.array_equal(got == 0, direct == 0), gamma
        assert np.abs(got - direct).max() <= 1e-12, gamma


def test_multiplier_refuses_an_uncertified_prime(monkeypatch, capsys):
    # L_9 is the odd local space of index 9; with ell = 2 no coordinate bound
    # of a word with an S letter is certified
    field = prime_embeddings(QuadSpace("L", 9).ambient_order)
    monkeypatch.setattr(field, "ell", 2)
    nu = ThetaDualMultiplier(9)
    with pytest.raises(ArithmeticError):
        nu((0, -1, 1, 0))
    assert main(["rademacher", "--n", "3", "--m", "9", "--K", "4"]) == 1
    assert "ArithmeticError" in capsys.readouterr().err


def test_multiplier_matches_direct_weil_matrix():
    rng = random.Random(3)
    for m in (6, 9):
        nu = ThetaDualMultiplier(m)
        rep = get_weil_rep(QuadSpace("D", m))
        for _ in range(4):
            mat = (1, 0, 0, 1)
            for _ in range(rng.randrange(1, 4)):
                t = rng.randrange(-3, 4)
                mat = (mat[0], mat[0] * t + mat[1], mat[2], mat[2] * t + mat[3])
                mat = (mat[1], -mat[0], mat[3], -mat[2])  # right-multiply by S^-1-ish
            mat = (mat[0], mat[1], mat[2], mat[3])
            if mat[0] * mat[3] - mat[1] * mat[2] != 1:
                continue
            w = word_decompose(mat)
            direct = w.principal_sign() * rep.evaluate_word(w).to_complex_array().T
            assert np.allclose(nu(mat), direct, atol=1e-10)


def test_k1_partial_sum_is_polar_term():
    for m in (2, 9):
        params = RademacherParams(level=1, index=m, truncation=1)
        vec = truncated_sum(params, TAU)
        want = np.zeros(2 * m, dtype=complex)
        want[1] = cmath.exp(-2j * math.pi * TAU / (4 * m))
        assert np.allclose(vec, want, atol=1e-14)
        assert vec[0] == 0  # untouched components are exact zeros


def test_partial_sums_change_with_k():
    params1 = RademacherParams(level=1, index=2, truncation=1)
    params3 = RademacherParams(level=1, index=2, truncation=3)
    v1 = truncated_sum(params1, TAU)
    v3 = truncated_sum(params3, TAU)
    assert not np.allclose(v1, v3)


def test_completion_independence():
    # the term only depends on (c, d) when the multiplier is evaluated on the
    # same representative: replacing (a, b) by (a + tc, b + td) changes the
    # representative, and the product nu(gamma) e(...)(c tau + d)^(-1/2) r(...)
    # is unchanged
    m = 2
    nu = ThetaDualMultiplier(m)
    alpha = F(-1, 4 * m)
    c, d = 1, 2
    terms = []
    for t in (0, 1, -3):
        a = pow(d, -1, c) if c > 1 else 1
        a = a + t * c
        b = (a * d - 1) // c
        gamma = (a, b, c, d)
        col = nu(gamma)[:, 1]
        phase = cmath.exp(2j * math.pi * complex(alpha) * (a * TAU + b) / (c * TAU + d))
        term = col * phase / cmath.sqrt(c * TAU + d) * kernel_r(alpha, gamma, TAU, 25)
        terms.append(term)
    assert np.allclose(terms[0], terms[1], atol=1e-12)
    assert np.allclose(terms[0], terms[2], atol=1e-12)


def test_level3_index9_block_vanishing():
    # each summand is column 1 of the multiplier times nonzero scalars
    params = RademacherParams(level=3, index=9, truncation=6)
    for gamma in coset_reps(3, 6):
        col = params.multiplier(gamma)[:, 1]
        assert col[3] == 0 and col[6] == 0, gamma
    vec = truncated_sum(params, TAU)
    for r in (3, 6):
        assert vec[r] == 0


def test_cauchy_table_and_csv(tmp_path):
    params = RademacherParams(level=3, index=2, truncation=2)
    rows = cauchy_table(params, TAU, [1, 2])
    assert {r[0] for r in rows} == {1, 2}
    assert len(rows) == 2 * 4
    assert all(math.isnan(r[4]) for r in rows if r[0] == 1)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(str(path), rows)
    text = path.read_text().splitlines()
    assert text[0] == "K,component,real,imag,cauchy_delta"
    assert len(text) == 9


def test_cauchy_rows_equal_truncated_sum_bit_for_bit():
    ladder = list(range(1, 9))
    params = RademacherParams(level=3, index=9, truncation=8)
    rows = cauchy_table(params, TAU, ladder)
    for K in ladder:
        want = truncated_sum(RademacherParams(3, 9, params.multiplier, K), TAU)
        got = np.array([complex(re, im) for k, _, re, im, _ in rows if k == K])
        assert np.array_equal(got, want), K


def test_params_validation():
    with pytest.raises(ValueError):
        RademacherParams(level=0, index=2)
    with pytest.raises(ValueError):
        RademacherParams(level=1, index=2, multiplier=lambda g: np.eye(4))
