import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from weightone import cyclotomic as cyc
from weightone.cyclotomic import (CycNumber, ExactCycMatrix, embed_root,
                                  sqrt_as_cyclotomic)
from weightone.rademacher import coset_reps
from weightone.sl2 import (CENTRAL_WORD, Sl2Word, gamma0_image, word_decompose,
                           word_for)
from weightone.weil import (QuadSpace, TraceTable, _extend_galois, _trace_against,
                            alpha_on_prime,
                            evaluate_character, get_theta_engine,
                            get_trace_table, get_weil_rep, lambda_character,
                            lift_class, local_spaces, new_alpha_character,
                            om_action, orthogonal_group, p_part_decomposition,
                            s_eigenspace_dims, theta_handle, theta_side_matrix,
                            u_d_map, weil_generators)

rng = random.Random(11)


def rand_word(max_s=3, spread=4):
    return Sl2Word(tuple(rng.randrange(-spread, spread + 1)
                         for _ in range(rng.randrange(1, max_s + 2))))


def all_alphas(m):
    om = orthogonal_group(m)
    out = []
    for signs in itertools.product((1, -1), repeat=len(om)):
        alpha = dict(zip(om, signs))
        try:
            out.append(new_alpha_character(m, alpha))
        except ValueError:
            continue
    return out


# -- generator matrices -------------------------------------------------------

def test_d1_generators_explicit():
    t, s = weil_generators(QuadSpace("D", 1))
    assert t.entry(0, 0) == 1 and t.entry(1, 1) == embed_root(4, 1)
    root = embed_root(8, 7) * (embed_root(8, 1) + embed_root(8, -1)) * Fraction(1, 2)
    assert s.entry(0, 0) == root and s.entry(0, 1) == root
    assert s.entry(1, 0) == root and s.entry(1, 1) == -root


def test_s_matrix_entries():
    # S[y, x] sqrt|A| = sigma_A e(-B(x, y)), entry by entry in Q(zeta_L)
    for sp in (QuadSpace("D", 3), QuadSpace("D", 4, 3), QuadSpace("L", 5, 2)):
        rep = get_weil_rep(sp)
        s = rep.s_mat
        L, n = rep.order, sp.size
        root = sqrt_as_cyclotomic(n)
        sigma = embed_root(8, rep.sigma_exponent)
        for y in range(n):
            for x in range(n):
                want = sigma * embed_root(L, int(-sp.b(x, y) * L))
                assert s.entry(y, x) * root == want, (sp, x, y)


def test_s_squared_is_scaled_reflection():
    for m in range(1, 10):
        rep = get_weil_rep(QuadSpace("D", m))
        s2 = rep.evaluate_word(Sl2Word((0, 0, 0)))
        n = 2 * m
        phase = embed_root(4, -1)
        for x in range(n):
            for y in range(n):
                want = phase if y == (-x) % n else CycNumber.zero()
                assert s2.entry(y, x) == want


def test_defining_relations_small():
    for m in (1, 2, 3, 5, 6):
        rep = get_weil_rep(QuadSpace("D", m))
        t, s = rep.generators()
        st = s @ t
        assert (s @ s) == (st @ st @ st)
        s4 = (s @ s) @ (s @ s)
        assert (s4 @ s4) == ExactCycMatrix.identity(2 * m, rep.order)


def test_unitarity_exact_on_sampled_words():
    for m in (1, 2, 5):
        rep = get_weil_rep(QuadSpace("D", m))
        ident = ExactCycMatrix.identity(2 * m, rep.order)
        for texps in ((0, 1, -2), (2, 0, 3, -1), (1,) * 7):
            mat = rep.evaluate_word(Sl2Word(texps))
            assert (mat @ mat.conj_transpose()) == ident


def test_quad_space_validation():
    with pytest.raises(ValueError):
        QuadSpace("L", 4)  # even L-type
    with pytest.raises(ValueError):
        QuadSpace("L", 9, 3)  # a not coprime
    with pytest.raises(ValueError):
        QuadSpace("X", 2)
    sp = QuadSpace("D", 3)
    assert sp.q(1) == Fraction(1, 12)
    bil = sp.b(2, 5)
    assert bil == Fraction(20, 12)
    # B is bi-additive as a map to Q/Z
    for x, y, z in ((1, 2, 3), (4, 5, 1)):
        assert (sp.b(x + y, z) - sp.b(x, z) - sp.b(y, z)) % 1 == 0


# -- Gauss trace law ----------------------------------------------------------

def gauss_trace_expect(m, k, sign):
    zeta = embed_root(8, 1)
    mi = embed_root(4, -1)
    if k % 2 == 0:
        return (mi**k) * (zeta ** ((sign * k) % 8)) * (m + sign)
    if m % 2 == 0:
        return (mi**k) * (zeta ** ((sign * k) % 8))
    return CycNumber.zero()


def test_gauss_trace_law_small():
    for m in range(1, 7):
        for k in range(8):
            w = Sl2Word((0,) * (k + 1))
            for sign in (1, -1):
                val = evaluate_character(theta_handle(m, sign), w)
                assert val == gauss_trace_expect(m, k, sign), (m, k, sign)


# -- CRT structure -------------------------------------------------------------

def test_local_form_splitting():
    # Q(x) on D_m equals the sum of the local forms in CRT coordinates
    for m in (2, 6, 9, 10, 12, 30):
        spaces = local_spaces(m)
        glob = QuadSpace("D", m)
        for x in range(2 * m):
            total = sum((sp.q(x % sp.size) for sp in spaces), Fraction(0))
            assert (total - glob.q(x)) % 1 == 0, (m, x)


def test_crt_trace_factorization_vs_direct():
    for m in (2, 3, 6, 10):
        rep = get_weil_rep(QuadSpace("D", m))
        eng = get_theta_engine(m)
        for _ in range(6):
            w = rand_word()
            f, g = eng.fg(w)
            fd, gd = rep.trace_pair(w)
            assert f == fd and g == gd, (m, w)


def test_crt_matrix_factorization():
    for m in (6, 9):
        rep = get_weil_rep(QuadSpace("D", m))
        locs = [(sp, get_weil_rep(sp)) for sp in local_spaces(m)]
        w = rand_word(max_s=2)
        full = rep.evaluate_word(w).to_complex_array()
        prod = np.ones((2 * m, 2 * m), dtype=complex)
        for sp, lrep in locs:
            lmat = lrep.evaluate_word(w).to_complex_array()
            coords = np.array([x % sp.size for x in range(2 * m)])
            prod = prod * lmat[np.ix_(coords, coords)]
        assert np.allclose(full, prod, atol=1e-10), m


def test_trace_table_against_direct_evaluation():
    # even-space certified snap vs exact matrices, both lifts
    table = get_trace_table(QuadSpace("D", 2))
    rep = get_weil_rep(QuadSpace("D", 2))
    for _ in range(40):
        w = rand_word()
        for wl in (w, w.concat(CENTRAL_WORD)):
            f, g = table.values(wl)
            fd, gd = rep.trace_pair(wl)
            L = table.order
            assert CycNumber(L, [Fraction(int(c)) for c in f]) == fd
            assert CycNumber(L, [Fraction(int(c)) for c in g]) == gd
    table4 = get_trace_table(QuadSpace("D", 4))
    rep4 = get_weil_rep(QuadSpace("D", 4))
    for _ in range(10):
        w = rand_word()
        f, g = table4.values(w)
        fd, gd = rep4.trace_pair(w)
        assert CycNumber(table4.order, [Fraction(int(c)) for c in f]) == fd
        assert CycNumber(table4.order, [Fraction(int(c)) for c in g]) == gd
    # conductor 32 (the deepest 2-adic table in use), sampled
    table8 = get_trace_table(QuadSpace("D", 8))
    rep8 = get_weil_rep(QuadSpace("D", 8))
    for _ in range(6):
        w = rand_word(max_s=2)
        f, g = table8.values(w)
        fd, gd = rep8.trace_pair(w)
        assert CycNumber(table8.order, [Fraction(int(c)) for c in f]) == fd
        assert CycNumber(table8.order, [Fraction(int(c)) for c in g]) == gd


def test_odd_table_well_defined_across_words():
    # two different words with the same matrix mod 9 share the trace
    table = get_trace_table(QuadSpace("L", 9, 7))
    rep = get_weil_rep(QuadSpace("L", 9, 7))
    for _ in range(10):
        w = rand_word()
        f, _ = table.values(w)
        fd, _ = rep.trace_pair(w)
        assert CycNumber(table.order, [Fraction(int(c)) for c in f]) == fd


def _units(kind, m):
    cond = 4 * m if kind == "D" else m
    return [a for a in range(1, cond) if gcd(a, cond) == 1]


def _assert_table_matches_rep(space, words):
    table = get_trace_table(space)
    rep = get_weil_rep(space)
    for w in words:
        lifts = (w, w.concat(CENTRAL_WORD)) if space.kind == "D" else (w,)
        for wl in lifts:
            for vec, exact in zip(table.values(wl), rep.trace_pair(wl)):
                red = exact.promoted(table.order).canonical()
                assert all(c.denominator == 1 for c in red), (space, wl)
                assert list(vec[:len(red)]) == [int(c) for c in red], (space, wl)
                assert not vec[len(red):].any(), (space, wl)


# a fixed sample: identity, the generators, S^3, and longer words
SAMPLE_WORDS = [Sl2Word(t) for t in ((0,), (1,), (0, 0), (0, 0, 0, 0), (2, 3), (-1, 2, 5),
                                     (3, -2, 1, 4), (1, 1, -3, 2, -1), (-4, 0, 2, 1, 3))]


def test_twisted_tables_equal_their_own_representation():
    # every twist a, unit mod the conductor, against its own exact Weil rep
    for kind, m, stride in (("D", 1, 1), ("D", 2, 1), ("L", 3, 1), ("L", 5, 1),
                            ("D", 4, 53), ("L", 7, 7)):
        cond = 4 * m if kind == "D" else m
        words = [word_for(g) for g in itertools.islice(gamma0_image(1, cond), 0, None, stride)]
        for a in _units(kind, m):
            _assert_table_matches_rep(QuadSpace(kind, m, a), words)
    for a in _units("L", 9):
        _assert_table_matches_rep(QuadSpace("L", 9, a), SAMPLE_WORDS)
    for a in (1, 3, 13, 31):
        _assert_table_matches_rep(QuadSpace("D", 8, a), SAMPLE_WORDS[:6])


def test_twisted_table_builds_no_rep_and_shares_base():
    base = get_trace_table(QuadSpace("L", 5))
    twisted = get_trace_table(QuadSpace("L", 5, 2))
    assert twisted._base is base
    assert twisted.rep is None
    for w in SAMPLE_WORDS:
        twisted.values(w)
    assert twisted._table and set(twisted._table) <= set(base._table)
    # entries are filled on demand, one per key asked for
    fresh = TraceTable(QuadSpace("L", 9))
    for w in SAMPLE_WORDS:
        fresh.values(w)
    assert len(fresh._table) == len({tuple(x % 9 for x in w.mat()) for w in SAMPLE_WORDS})


def test_lift_certificate_needs_a_prime_above_twice_the_bound(monkeypatch):
    # every prime in use certifies its lift: L (ell - 1)^2 < 2^63 and
    # ell > 2 n phi(L) / L * max_j sum_k |R[k, j]|, with n <= L / 2
    for L in (8, 12, 16, 20, 28, 32, 36, 44, 52, 64, 100, 108):
        field = cyc.prime_embeddings(L)
        assert (field.ell - 1) % L == 0 and L * (field.ell - 1) ** 2 < 2 ** 63
        field.certify(L // 2)
    # on D_4 (n = 8, L = 16) the bound is 8 * 8 / 16 * 2 = 8: a prime of at
    # most 16 cannot certify a symmetric lift, and the table refuses to start
    field = cyc.PrimeEmbeddings(16)
    monkeypatch.setattr(cyc, "prime_embeddings", lambda L: field)
    monkeypatch.setattr(field, "ell", 16)
    with pytest.raises(ArithmeticError, match="certify"):
        TraceTable(QuadSpace("D", 4))
    monkeypatch.setattr(field, "ell", 17)
    TraceTable(QuadSpace("D", 4))


def test_lifted_matrix_equals_the_exact_word():
    # both scales occur: den^k is the smaller one on L_9, |A|^ceil(k/2) on
    # D_1 and L_5 once k >= 2
    local = random.Random(23)
    for sp in (QuadSpace("D", 1), QuadSpace("L", 5), QuadSpace("L", 9),
               QuadSpace("D", 4, 3), QuadSpace("D", 6)):
        rep = get_weil_rep(sp)
        for _ in range(12):
            w = Sl2Word(tuple(local.randrange(-5, 6) for _ in range(local.randrange(1, 6))))
            assert rep.lifted_matrix(w) == rep.evaluate_word(w), (sp, w)


def test_trace_against_refuses_int64_overflow():
    # the identity word: the sum of K's diagonal, 3 * 2^62, would wrap
    rep = get_weil_rep(QuadSpace("L", 3))
    knum = np.full((3, 3), 1 << 62, dtype=np.int64)
    with pytest.raises(OverflowError):
        _trace_against(rep, Sl2Word((0,)), knum, 1)
    assert _trace_against(rep, Sl2Word((0,)), np.eye(3, dtype=np.int64), 1) == 3


def test_non_unit_galois_twist_is_rejected():
    with pytest.raises(ValueError):
        _extend_galois(2, 12, 24)
    with pytest.raises(ValueError):
        theta_handle(2, 0, galois=2)
    with pytest.raises(ValueError):
        new_alpha_character(4, {1: 1, 7: -1}, galois=6)
    with pytest.raises(ValueError):
        lambda_character(3, 1, 1, galois=3)
    assert _extend_galois(5, 12, 24) % 12 == 5


def test_degenerate_space_table_raises():
    with pytest.raises(ValueError, match="degenerate"):
        get_trace_table(QuadSpace("D", 3, 2))


def test_lift_class():
    w = rand_word()
    assert lift_class(w) in (1, -1)
    assert lift_class(w.concat(CENTRAL_WORD)) == -lift_class(w)
    assert lift_class(CENTRAL_WORD) == -lift_class(Sl2Word((0,)))
    for gamma in coset_reps(3, 20):
        w = word_decompose(gamma)
        assert lift_class(w.concat(CENTRAL_WORD)) == -lift_class(w), gamma


# -- characters ----------------------------------------------------------------

def test_character_well_defined_on_relation_words():
    relations = [
        Sl2Word((0,) * 9),                     # S^8
        Sl2Word((0, 1, 1, 1, 0, 0, 0, 0, 0, 0)),  # (S T)^3 S^6
    ]
    for r in relations:
        assert r.mat() == (1, 0, 0, 1)
    handles = [theta_handle(2, -1), theta_handle(9, 1),
               new_alpha_character(4, {1: 1, 7: -1}), lambda_character(3, 1, -1)]
    for h in handles:
        for _ in range(4):
            w = rand_word()
            base = evaluate_character(h, w)
            for r in relations:
                assert evaluate_character(h, w.concat(r)) == base, (h.kind, w)


def test_lift_pair_cancellation():
    for (m, mp) in ((2, 3), (9, 3)):
        for _ in range(4):
            w = rand_word()
            wz = w.concat(CENTRAL_WORD)
            lhs = (evaluate_character(theta_handle(m, -1), w)
                   * evaluate_character(theta_handle(mp, 1), w))
            rhs = (evaluate_character(theta_handle(m, -1), wz)
                   * evaluate_character(theta_handle(mp, 1), wz))
            assert lhs == rhs


def test_orthogonal_groups():
    assert orthogonal_group(1) == [1]
    assert orthogonal_group(9) == [1, 17]
    assert orthogonal_group(6) == [1, 5, 7, 11]
    # brute-force independent scan
    for m in (6, 9, 12):
        brute = [a for a in range(2 * m) if (a * a) % (4 * m) == 1]
        assert orthogonal_group(m) == brute


def test_om_action_commutes():
    for m in (6, 9, 12):
        rep = get_weil_rep(QuadSpace("D", m))
        t, s = rep.generators()
        for a in orthogonal_group(m):
            perm = om_action(m, a)
            idx = np.array([(r * a) % (2 * m) for r in range(2 * m)])
            for mat in (t, s):
                assert np.array_equal(mat.num[np.ix_(idx, idx)], mat.num), (m, a)


def test_u_d_map():
    assert np.array_equal(u_d_map(3, 1), np.eye(6, dtype=np.int64))
    u = u_d_map(1, 2)
    assert u[:, 0].tolist() == [1, 0, 0, 0, 1, 0, 0, 0]  # theta_{1,0} -> theta_{4,0}+theta_{4,4}
    assert u[:, 1].tolist() == [0, 0, 1, 0, 0, 0, 1, 0]
    # composition U_d U_e = U_de out of Theta_1
    for d, e in ((2, 2), (2, 3), (3, 2)):
        assert np.array_equal(u_d_map(e * e, d) @ u_d_map(1, e), u_d_map(1, d * e))


def test_u_d_against_q_expansion():
    # independent oracle: theta_{1,r}(tau, 2z) re-expanded in the index-4 basis
    from weightone.qseries import theta_expansion
    order = 6
    u = u_d_map(1, 2)
    for r in (0, 1):
        lhs = theta_expansion(1, r, order).rescale_z(2)
        rhs = None
        for rp in range(8):
            if u[rp, r]:
                t = theta_expansion(4, rp, order)
                rhs = t if rhs is None else rhs + t
        assert lhs.agrees_with(rhs)


def test_nu_degrees_and_squarefree_sum():
    w0 = Sl2Word((0,))
    assert evaluate_character(new_alpha_character(1, {1: 1}), w0) == 2
    # m squarefree: sum over alpha of nu equals the full theta character
    for m in (6, 10):
        for _ in range(3):
            w = rand_word()
            total = CycNumber.zero()
            for h in all_alphas(m):
                total = total + evaluate_character(h, w)
            assert total == evaluate_character(theta_handle(m, 0), w)


def test_reconstruction_m4():
    for _ in range(6):
        w = rand_word()
        for sign in (1, -1):
            lhs = evaluate_character(theta_handle(4, sign), w)
            rhs = CycNumber.zero()
            for d in (1, 2):
                mm = 4 // (d * d)
                for h in all_alphas(mm):
                    al = dict(h.alpha)
                    if al[(2 * mm - 1) % (2 * mm)] == sign:
                        rhs = rhs + evaluate_character(h, w)
            assert lhs == rhs, (sign, w)


def test_lambda_characters():
    w0 = Sl2Word((0,))
    for p in (3, 5, 7):
        assert evaluate_character(lambda_character(p, 1, -1), w0) == (p - 1) // 2
        assert evaluate_character(lambda_character(p, 1, 1), w0) == (p + 1) // 2
    # lambda_9 new parts: complement of the embedded L_1
    assert evaluate_character(lambda_character(3, 2, 1), w0) == 4
    assert evaluate_character(lambda_character(3, 2, -1), w0) == 4
    with pytest.raises(ValueError):
        lambda_character(2, 1, 1)
    # irreducibility over the level-3 quotient
    for sign in (1, -1):
        lam = lambda_character(3, 1, sign)
        acc = CycNumber.zero()
        n = 0
        for g in gamma0_image(1, 3):
            v = evaluate_character(lam, word_for(g))
            acc = acc + v * v.conjugate()
            n += 1
        assert acc == n
    # the 1-dimensional minus character is not trivial
    vals = set()
    for g in gamma0_image(1, 3):
        vals.add(str(evaluate_character(lambda_character(3, 1, -1), word_for(g)).canonical()))
    assert len(vals) > 1


def test_p_part_shapes_m6():
    h = new_alpha_character(6, {1: 1, 5: -1, 7: -1, 11: 1})
    # alpha(2) = alpha at the element that is -1 mod 8 and 1 mod 6: 7 -> -1
    assert alpha_on_prime(6, dict(h.alpha), 2) == -1
    assert alpha_on_prime(6, dict(h.alpha), 3) == -1  # -1 mod 6 part: 5
    parts = p_part_decomposition(h)
    assert parts[0].kind == "theta_minus" and parts[0].m == 2 and parts[0].galois == 3
    assert parts[1].kind == "lambda_new" and parts[1].p == 3 and parts[1].galois == 2


def test_p_part_global_equals_product():
    for m in (6, 9, 12):
        for h in all_alphas(m):
            parts = p_part_decomposition(h)
            for _ in range(3):
                w = rand_word()
                lhs = evaluate_character(h, w)
                rhs = CycNumber.rational(1)
                for part in parts:
                    rhs = rhs * evaluate_character(part, w)
                assert lhs == rhs, (m, h.alpha, w)


def test_p_part_global_equals_product_m30_float():
    # index 30 is too large for the exact projector route; the global side is
    # evaluated through the complex Weil matrices instead (30 is squarefree,
    # so the new-part projector is the identity)
    rep = get_weil_rep(QuadSpace("D", 30))
    om = orthogonal_group(30)
    homs = []
    for signs in itertools.product((1, -1), repeat=len(om)):
        al = dict(zip(om, signs))
        if all(al[a] * al[b] == al[(a * b) % 60] for a in om for b in om):
            homs.append(al)
    picked = [al for al in homs if any(v == -1 for v in al.values())][:3]
    for al in picked:
        h = new_alpha_character(30, al)
        parts = p_part_decomposition(h)
        for _ in range(2):
            w = rand_word(max_s=2)
            mat = rep.evaluate_word_complex([w])[0]
            acc = 0j
            for a, sgn in sorted(al.items()):
                perm = [(a * x) % 60 for x in range(60)]
                acc += sgn * mat[perm, range(60)].sum()
            lhs = acc / len(om)
            rhs = 1 + 0j
            for part in parts:
                rhs *= evaluate_character(part, w).to_complex()
            assert abs(lhs - rhs) < 1e-8


def test_s_eigenspace_dims():
    assert s_eigenspace_dims(1, 1, -1, 1)[1] == 0
    assert s_eigenspace_dims(1, 1, -1, 1)[3] == 0
    d = s_eigenspace_dims(1, 1, 1, 1)
    assert d[0] == 0 and d[2] == 0
    d = s_eigenspace_dims(2, 2, 1, 1)
    assert sum(d) == 9
    # brute-force eigen-decomposition oracle on the explicit tensor matrix
    rep = get_weil_rep(QuadSpace("D", 2))
    s = rep.evaluate_word(Sl2Word((0, 0))).to_complex_array()
    r2 = 2.0 ** -0.5
    q = np.array([[1, 0, 0], [0, r2, 0], [0, 0, 1], [0, r2, 0]])  # basis of the + part
    splus = q.T.conj() @ s @ q
    evals = np.linalg.eigvals(np.kron(splus, splus))
    counts = [0] * 4
    for ev in evals:
        for a in range(4):
            if abs(ev - 1j**a) < 1e-8:
                counts[a] += 1
    assert tuple(counts) == d


def test_theta_side_matrix_is_transpose():
    w = rand_word()
    rep = get_weil_rep(QuadSpace("D", 3))
    direct = rep.evaluate_word(w)
    side = theta_side_matrix(3, w)
    for i in range(6):
        for j in range(6):
            assert side.entry(i, j) == direct.entry(j, i)
