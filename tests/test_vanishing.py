import pytest

from weightone.vanishing import (ExponentWitness, exponent_criterion,
                                 expsapp_suite)


def brute_solutions(m, aux):
    """Independent exhaustive oracle for the obstruction congruence."""
    mod = 4 * aux
    mprime = aux // m
    ts = [t for t in range(1, aux + 1) if aux % t == 0]
    sols = []
    for r in range(1, m):
        for s in range(mod):
            for t in ts:
                if (r * r * mprime + s * s * t) % mod == 0:
                    sols.append((r, s, t))
    return sols


def test_criterion_matches_brute_force():
    for (m, aux) in ((2, 4), (3, 9), (4, 8), (8, 8), (9, 9), (6, 18), (5, 5)):
        sols = brute_solutions(m, aux)
        out = exponent_criterion(m, aux)
        assert out.vanishes == (not sols), (m, aux)
        if sols:
            assert (out.witness.r, out.witness.s, out.witness.t) == min(sols)


def brute_least_witness(m, aux):
    """The lexicographically least (r, s, t), by a plain triple loop."""
    mod = 4 * aux
    ts = [t for t in range(1, aux + 1) if aux % t == 0]
    for r in range(1, m):
        for s in range(mod):
            for t in ts:
                if (r * r * (aux // m) + s * s * t) % mod == 0:
                    return (r, s, t)
    return None


def test_criterion_matches_triple_loop_on_a_grid():
    for m in range(1, 13):
        for aux in range(m, 241, m):
            want = brute_least_witness(m, aux)
            out = exponent_criterion(m, aux)
            got = None if out.witness is None else (out.witness.r, out.witness.s, out.witness.t)
            assert out.vanishes == (want is None) and got == want, (m, aux)


def test_criterion_past_int64_range():
    # 16 M^2 >= 2^63, so the scan runs in Python ints; r = 1 has a solution
    # at s = 33 (none below), which ends the scan in its first chunk
    m, aux = 5, 1073741845
    out = exponent_criterion(m, aux)
    assert (out.witness.r, out.witness.s, out.witness.t) == (1, 33, 19522579)
    assert out.witness.check(m, aux)


def test_known_cases():
    for a in range(1, 7):
        assert exponent_criterion(2, 2**a).vanishes
        assert exponent_criterion(3, 3**a).vanishes
    for a in range(2, 7):
        assert exponent_criterion(4, 2**a).vanishes
    out = exponent_criterion(8, 8)
    assert not out.vanishes
    assert (out.witness.r, out.witness.s, out.witness.t) == (4, 2, 4)
    assert out.witness.check(8, 8)
    out = exponent_criterion(9, 9)
    assert not out.vanishes and out.witness.check(9, 9)


def test_empty_r_range_vanishes():
    for aux in (1, 5, 12):
        assert exponent_criterion(1, aux).vanishes


def test_witness_validity_is_rechecked():
    w = ExponentWitness(4, 2, 4)
    assert w.check(8, 8)
    assert not ExponentWitness(4, 1, 4).check(8, 8)
    assert not ExponentWitness(9, 2, 4).check(8, 8)  # r out of range


def test_s_periodicity():
    # solutions in s repeat mod 4M, so scanning one period is exhaustive
    m, aux = 8, 8
    mod = 4 * aux
    base = brute_solutions(m, aux)
    for (r, s, t) in base[:5]:
        assert ((r * r * (aux // m) + (s + mod) ** 2 * t) % mod) == 0


def test_preconditions():
    with pytest.raises(ValueError):
        exponent_criterion(3, 4)
    with pytest.raises(ValueError):
        exponent_criterion(0, 4)


def test_suite():
    out = expsapp_suite(4)
    assert all(res.vanishes for res in out.values())
    assert (2, 2) in out and (3, 3) in out and (4, 4) in out
    assert (2, 16) in out and (3, 81) in out and (4, 16) in out
    with pytest.raises(ValueError):
        expsapp_suite(0)
