import random
from math import gcd

import pytest

from weightone.arith import psi_index
from weightone.sl2 import (CENTRAL_WORD, Sl2Mod, Sl2Word, conjugation_orbits,
                           coset_space_size, crt_local_lift, double_coset_count,
                           gamma0_image, gamma0_image_size, group_order,
                           lift_to_integers, mat_mul, perm_character,
                           word_decompose, word_for)


def random_sl2mod(rng, q):
    while True:
        a, b, c, d = (rng.randrange(q) for _ in range(4))
        if (a * d - b * c) % q == 1 % q:
            return Sl2Mod(q, a, b, c, d)


def random_int_matrix(rng, size):
    """Random SL2(Z) matrix as a product of generator powers."""
    m = (1, 0, 0, 1)
    for _ in range(size):
        m = mat_mul(m, (1, rng.randrange(-9, 10), 0, 1))
        m = mat_mul(m, (0, -1, 1, 0))
    return m


def test_lift_roundtrip():
    rng = random.Random(0)
    for _ in range(300):
        q = rng.choice([2, 4, 8, 12, 36, 49, 360])
        g = random_sl2mod(rng, q)
        a, b, c, d = lift_to_integers(g)
        assert a * d - b * c == 1
        assert (a - g.a) % q == 0 and (b - g.b) % q == 0
        assert (c - g.c) % q == 0 and (d - g.d) % q == 0


def test_lift_deterministic():
    g = Sl2Mod(9, 1, 0, 3, 1)
    assert lift_to_integers(g) == lift_to_integers(Sl2Mod(9, 1, 0, 3, 1))


def test_word_decompose_identity_and_s():
    assert word_decompose((1, 0, 0, 1)).texps == (0,)
    w = word_decompose((0, -1, 1, 0))
    assert w.texps == (0, 0)
    assert w.mat() == (0, -1, 1, 0)


def test_word_decompose_roundtrip_large():
    rng = random.Random(1)
    for _ in range(400):
        m = random_int_matrix(rng, rng.randrange(1, 8))
        w = word_decompose(m)
        assert w.mat() == m


def test_word_never_absorbs_signs():
    m = (1, 3, 0, 1)
    neg = (-1, -3, 0, -1)
    wm = word_decompose(m)
    wn = word_decompose(neg)
    assert wm.mat() == m and wn.mat() == neg
    # -gamma picks up an explicit S S block
    assert wn.s_count == wm.s_count + 2


def test_word_concat_and_prefix_stability():
    rng = random.Random(2)
    for _ in range(50):
        m = random_int_matrix(rng, 3)
        j = rng.randrange(-5, 6)
        w = word_decompose(m)
        shifted = word_decompose(mat_mul((1, j, 0, 1), m))
        assert shifted.texps[1:] == w.texps[1:]
        assert shifted.texps[0] == w.texps[0] + j


def test_group_order_and_image_sizes():
    assert group_order(2) == 6
    assert group_order(4) == 48
    assert group_order(64) == 196608
    assert gamma0_image_size(2, 2) == 2
    assert gamma0_image_size(16, 64) == 8192
    for (n, q) in ((2, 4), (3, 12), (1, 6), (4, 8), (9, 36)):
        assert sum(1 for _ in gamma0_image(n, q)) == gamma0_image_size(n, q)


def test_gamma0_image_membership_and_closure():
    rng = random.Random(3)
    elems = list(gamma0_image(3, 12))
    assert all(g.c % 3 == 0 for g in elems)
    assert len(set(elems)) == len(elems)
    # subgroup closure on sampled pairs
    index = set(elems)
    for _ in range(60):
        g, h = rng.choice(elems), rng.choice(elems)
        assert g.mul(h) in index


def test_perm_character():
    assert perm_character(9, Sl2Mod(9, 1, 0, 0, 1)) == psi_index(9) == 12
    for p in (3, 5):
        assert perm_character(p, Sl2Mod(p, 1, 1, 0, 1)) == 1
    # Burnside: the action is transitive
    for n in (2, 3, 4):
        total = sum(perm_character(n, g) for g in gamma0_image(1, n))
        assert total == group_order(n)


def test_perm_character_brute_force_orbit():
    # independent oracle: count fixed cosets by scanning explicit coset reps
    n, q = 3, 3
    elems = list(gamma0_image(1, q))
    sub = [g for g in elems if g.c % n == 0]
    cosets = {}
    for g in elems:
        key = frozenset((h.mul(g)).mat() for h in sub)
        cosets.setdefault(key, g)
    assert len(cosets) == psi_index(n)
    t = Sl2Mod(3, 1, 1, 0, 1)
    fixed = 0
    for key, rep in cosets.items():
        moved = frozenset((h.mul(rep).mul(t)).mat() for h in sub)
        if moved == key:
            fixed += 1
    assert fixed == perm_character(n, t)


def test_inner_product_of_permutation_characters():
    # <1_N, 1_N> counts double cosets; 4 at level p^2 for odd p
    for p in (3, 5):
        q = p * p
        total = sum(perm_character(q, g) ** 2 for g in gamma0_image(1, q))
        assert total == 4 * group_order(q)
        assert double_coset_count(p) == 4
        assert coset_space_size(q) == p * p + p


def test_double_coset_rejects_even():
    with pytest.raises(ValueError):
        double_coset_count(2)
    with pytest.raises(ValueError):
        coset_space_size(8)


def test_transitivity_of_level_action():
    # <1_N, 1> = 1 for a range of levels
    for n in (2, 3, 4, 9, 16):
        total = sum(perm_character(n, g) for g in gamma0_image(1, n))
        assert total == group_order(n)


def test_word_roundtrip_ten_thousand_large_matrices():
    rng = random.Random(10)
    count = 0
    while count < 10_000:
        m = (1, 0, 0, 1)
        while max(abs(x) for x in m) < 10**6:
            m = mat_mul(m, (1, rng.randrange(-40, 41), 0, 1))
            m = mat_mul(m, (0, -1, 1, 0))
        assert word_decompose(m).mat() == m
        count += 1


def test_crt_local_lift():
    g = Sl2Mod(12, 1, 1, 0, 1)
    m3 = crt_local_lift(g, 3)
    assert tuple(x % 3 for x in m3) == (1, 1, 0, 1)
    assert tuple(x % 4 for x in m3) == (1, 0, 0, 1)
    # pure prime power: congruent to g itself
    g2 = Sl2Mod(9, 2, 1, 3, 2)
    m = crt_local_lift(g2, 3)
    assert tuple(x % 9 for x in m) == g2.mat()
    # product over primes reassembles g mod Q
    rng = random.Random(4)
    for _ in range(20):
        g = random_sl2mod(rng, 36)
        prod = (1, 0, 0, 1)
        for p in (2, 3):
            prod = mat_mul(prod, crt_local_lift(g, p))
        assert tuple(x % 36 for x in prod) == g.mat()


def test_central_word_and_branch_tracking():
    assert CENTRAL_WORD.mat() == (1, 0, 0, 1)
    assert CENTRAL_WORD.principal_sign() == -1
    assert Sl2Word((0,)).principal_sign() == 1
    assert word_decompose((1, 5, 0, 1)).principal_sign() == 1
    rng = random.Random(5)
    for _ in range(40):
        m = random_int_matrix(rng, rng.randrange(1, 6))
        w = word_decompose(m)
        u = w.upsilon_at_i()
        c, d = m[2], m[3]
        assert abs(u * u - (c * 1j + d)) < 1e-9


def test_word_for_mod_q():
    rng = random.Random(6)
    for _ in range(50):
        q = rng.choice([4, 12, 32])
        g = random_sl2mod(rng, q)
        w = word_for(g)
        assert tuple(x % q for x in w.mat()) == g.mat()


def _closure_under_conjugation(g, conjugators, q):
    """The orbit of g under conjugation by the given matrices, by plain search."""
    inverses = [(d, -b, -c, a) for (a, b, c, d) in conjugators]
    seen = {g}
    todo = [g]
    while todo:
        x = todo.pop()
        for h, hinv in zip(conjugators, inverses):
            y = tuple(v % q for v in mat_mul(mat_mul(h, x), hinv))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def test_conjugation_orbits_partition_the_level_image():
    for n, q in ((1, 8), (1, 9), (2, 8), (4, 16), (3, 9), (5, 25), (8, 8), (3, 12)):
        orbits = conjugation_orbits(n, q)
        assert sum(size for _, size in orbits) == gamma0_image_size(n, q)
        if n == 1:
            conjugators = [(1, 1, 0, 1), (0, -1, 1, 0)]
        else:
            conjugators = [(1, 1, 0, 1), (1, 0, n, 1)] + [
                (u, 0, 0, pow(u, -1, q)) for u in range(1, q) if gcd(u, q) == 1]
        covered = set()
        for rep, size in orbits:
            assert rep.c % n == 0
            orbit = _closure_under_conjugation(rep.mat(), conjugators, q)
            assert len(orbit) == size and min(orbit) == rep.mat(), (n, q, rep)
            assert not orbit & covered
            covered |= orbit
        assert covered == {g.mat() for g in gamma0_image(n, q)}


def test_conjugation_orbit_counts():
    # for n = 1 these are the class numbers of SL2(Z/q)
    for q, classes in ((13, 17), (16, 76), (27, 79), (32, 168), (64, 352)):
        assert len(conjugation_orbits(1, q)) == classes, q
    assert len(conjugation_orbits(16, 64)) == 704
