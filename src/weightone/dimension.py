"""Dimensions of spaces of weight-one Jacobi forms of index m and level N.

The dimension is a sum, over divisors m' of an auxiliary modulus M with M/m'
squarefree, of scalar products <theta_m^- theta_{m'}^+, 1_N> on SL2(Z/4MZ),
where 1_N is induced from the trivial character of the level-N subgroup.  By
Frobenius reciprocity each scalar product is the plain average of the product
character over the image H = {c = 0 mod N} of that subgroup, with both trace
factors evaluated on the same word per element so that the metaplectic lift
ambiguity cancels.

Two computations, behind three backend names:

* ``exact``     - H is a direct product of its prime parts and the summand is
                  a product of per-prime trace data, so the whole average
                  factors into small per-prime sums.  Each per-prime sum runs
                  over the orbits of the local image under conjugation
                  (``sl2.conjugation_orbits``): one trace table lookup per
                  orbit representative, weighted by the orbit size.  The
                  per-prime sums are multiplied across primes and reduced
                  mod Phi_L in int64, behind overflow guards.
* ``crt-float`` - accepted as a name for ``exact``.
* ``float``     - the literal average over every element of H, evaluating
                  each local Weil representation on the element's word in
                  complex arithmetic; it shares no trace table, snap, lift
                  class or orbit with ``exact``, which makes it the
                  independent cross-check.

Why orbit sums are exact: at each prime the four summands F1 F2, F1 G2, G1 F2
and G1 G2 are class functions on SL2(Z/q_p).  At p = 2 both factors are
D-type and are evaluated on the same word; the central S^4 acts as -1 on each
of them, so their product is the character of a genuine representation and
the lift cancels.  G is the trace against P-, which is a scalar times
rho(S^2) with S^2 central, so a trace against it is still a class function.
The odd L-type factors are genuine representations.  Every orbit lies inside
one conjugacy class, hence the sum over H is the sum over orbits of
|orbit| times the value at the representative.

Both computations agree wherever both run; the accumulated value must land
on a nonnegative integer (exactly for ``exact``, within a fixed 1e-6 for
``float``, which carries no error bound) or the query fails loudly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, prod

import numpy as np

from .arith import divisors, factorize, is_squarefree, lcm, prime_part
from .cyclotomic import CycNumber, _int_product, _phi_reduction_matrix
from .sl2 import (Sl2Word, conjugation_orbits, gamma0_image, gamma0_image_size,
                  word_for)
from .weil import (CharacterHandle, QuadSpace, evaluate_character,
                   get_theta_engine, get_trace_table, get_weil_rep, local_spaces)

BACKENDS = ("exact", "float", "crt-float")
FLOAT_TOL = 1e-6  # fixed snap tolerance of the float cross-check; not an error bound
LITERAL_CHUNK = 512  # elements per batch of the literal float sweep
DEFAULT_BUDGET = 10_000_000  # estimated elements; the CLI's ceiling for dim and sweep


class BudgetExceeded(RuntimeError):
    """Estimated sweep size exceeds the configured element budget."""


class IntegralityError(ArithmeticError):
    """An accumulated inner product failed to land on a nonnegative integer."""


@dataclass(frozen=True)
class DimQuery:
    m: int
    level: int
    aux: int
    backend: str = "exact"

    def __post_init__(self):
        if self.m < 1 or self.level < 1 or self.aux < 1:
            raise ValueError("index, level and auxiliary modulus must be positive")
        if self.aux % self.m != 0:
            raise ValueError("need m | M")
        if (4 * self.aux) % self.level != 0:
            raise ValueError("need N | 4M")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")


def default_aux(m: int, level: int) -> int:
    """Smallest M with m | M and N | 4M."""
    return m * (level // gcd(level, 4 * m))


def admissible_divisors(aux: int) -> list[int]:
    """Divisors m' of M with M/m' squarefree."""
    return [d for d in divisors(aux) if is_squarefree(aux // d)]


# ---------------------------------------------------------------------------
# Local sweep machinery
# ---------------------------------------------------------------------------

def _local_space_of(index: int, p: int) -> QuadSpace | None:
    """The local factor of D_index at p, or None when it is trivial."""
    for sp in local_spaces(index):
        if sp.kind == "D" and p == 2:
            return sp
        if sp.kind == "L" and sp.m % p == 0:
            return sp
    return None


@lru_cache(maxsize=32)
def _local_words(level_p: int, q_p: int) -> tuple[tuple[Sl2Word, int], ...]:
    """(word of the representative, orbit size) per conjugation orbit of the local image."""
    return tuple((word_for(g), size) for g, size in conjugation_orbits(level_p, q_p))


def _pair_sum_at_prime(q_p: int, level_p: int, sp1: QuadSpace | None,
                       spaces2: list[QuadSpace | None]) -> list[tuple[np.ndarray, ...]]:
    """Per-prime sums of F1 F2, F1 G2, G1 F2, G1 G2 over the local subgroup.

    Each product is a class function, so the sum runs over conjugation
    orbits, one representative word each, weighted by the orbit size.
    Returns a list (one entry per element of ``spaces2``) of 4-tuples of
    integer coordinate vectors in Z[zeta_L].
    """
    orbits = _local_words(level_p, q_p)
    words = [w for w, _ in orbits]
    sizes = np.array([size for _, size in orbits], dtype=np.int64)

    def stack(sp):  # (2, R, order): F and G coordinate rows per representative
        if sp is None:
            return np.ones((2, len(words), 1), dtype=np.int64)
        t = get_trace_table(sp)
        return np.array([t.values(w) for w in words]).transpose(1, 0, 2)

    fg1 = stack(sp1)
    out = []
    for sp2 in spaces2:
        fg2 = stack(sp2)
        out.append(tuple(_weighted_product_sum(fg1[i], fg2[j], sizes)
                         for i in (0, 1) for j in (0, 1)))
    return out


def _weighted_product_sum(v1: np.ndarray, v2: np.ndarray,
                          sizes: np.ndarray | None = None) -> np.ndarray:
    """sum_r sizes[r] v1[r] v2[r] in Z[zeta_L], L = lcm(L1, L2).

    Rows of v1 (R x L1) and v2 (R x L2) are power-basis coordinates in
    Z[zeta_L1] and Z[zeta_L2]; ``sizes`` defaults to all ones.  One
    (L1 x L2) product is folded into the length-L coordinate vector, which
    is returned unreduced mod Phi_L.  The bound covers every int64 step: the
    weighting, the sum over R rows, and the fold, which adds at most
    min(L1, L2) products into each coordinate.
    """
    if sizes is None:
        sizes = np.ones(len(v1), dtype=np.int64)
    L1, L2 = v1.shape[1], v2.shape[1]
    L = lcm(L1, L2)
    bound = (int(np.abs(v1).max(initial=1)) * int(np.abs(v2).max(initial=1))
             * int(sizes.max(initial=1)) * len(sizes) * min(L1, L2))
    if bound >= (1 << 62):
        raise OverflowError("exact orbit sum would overflow int64")
    outer = v1.T @ (sizes[:, None] * v2)
    i, j = np.indices(outer.shape)
    out = np.zeros(L, dtype=np.int64)
    np.add.at(out, (i * (L // L1) + j * (L // L2)) % L, outer)
    return out


def _theta_pair_inner_products(m: int, mprimes: list[int], level: int,
                               q: int) -> list[tuple[np.ndarray, int]]:
    """<theta_m^- theta_{m'}^+, 1_N> on SL2(Z/qZ) for each m', via factored sums.

    Each value is (coordinates reduced mod Phi_L, denominator 4|H|): the
    per-prime sums are multiplied across primes with the same integer fold,
    and F1F2 + F1G2 - G1F2 - G1G2 is reduced once, in the power basis.
    """
    per_prime = []
    h_size = 1
    for p in sorted(factorize(q)):
        q_p, level_p = prime_part(q, p), prime_part(level, p)
        h_size *= gamma0_image_size(level_p, q_p)
        per_prime.append(_pair_sum_at_prime(q_p, level_p, _local_space_of(m, p),
                                            [_local_space_of(mp, p) for mp in mprimes]))
    values = []
    for i in range(len(mprimes)):
        combos = []
        for k in range(4):
            vec = per_prime[0][i][k]
            for loc in per_prime[1:]:
                vec = _weighted_product_sum(vec[None, :], loc[i][k][None, :])
            combos.append(vec)
        total = _int_product(np.array([[1, 1, -1, -1]]), np.stack(combos))[0]
        # Phi_L(x) = Phi_r(x^s) with r = rad(L), s = L/r: coordinate a*s + b is
        # x^b (x^s)^a, and (x^s)^a reduces mod Phi_r to rows of a small matrix
        r = prod(factorize(len(total)))
        rows = _int_product(_phi_reduction_matrix(r).T, total.reshape(r, -1))
        values.append((rows.reshape(-1), 4 * h_size))
    return values


def _literal_inner_products(m: int, mprimes: list[int], level: int, q: int) -> list[complex]:
    """The element-by-element complex average over the level-N image.

    Every local space of theta_m and theta_{m'} is evaluated on each
    element's canonical word straight from its Weil representation, so no
    trace table, snap, lift class or orbit enters.  H is streamed in chunks,
    and words with equally many S letters are evaluated together.
    """
    spaces1 = local_spaces(m)
    spaces2 = [local_spaces(mp) for mp in mprimes]
    reps = {sp: get_weil_rep(sp) for sp in set(spaces1).union(*spaces2)}
    acc = np.zeros(len(mprimes), dtype=complex)
    count = 0
    elements = gamma0_image(level, q)
    while chunk := list(islice(elements, LITERAL_CHUNK)):
        count += len(chunk)
        by_length = defaultdict(list)
        for g in chunk:
            w = word_for(g)
            by_length[len(w.texps)].append(w)
        for words in by_length.values():
            trace, twisted = {}, {}
            for sp, rep in reps.items():
                mats = rep.evaluate_word_complex(words)
                trace[sp] = np.trace(mats, axis1=1, axis2=2)
                twisted[sp] = mats[:, rep.minus_perm, np.arange(sp.size)].sum(axis=1)

            def twice_theta(spaces, sign):  # F + sign G per word
                return (np.prod([trace[sp] for sp in spaces], axis=0)
                        + sign * np.prod([twisted[sp] for sp in spaces], axis=0))

            minus = twice_theta(spaces1, -1)
            for i, sps in enumerate(spaces2):
                acc[i] += (minus * twice_theta(sps, 1)).sum() / 4.0
    return list(acc / count)


def _snap_nonneg_int(value, what: str) -> int:
    """The nonnegative integer an inner product equals, or IntegralityError.

    ``value`` is either (reduced coordinates, denominator) from the exact
    orbit sum, which must be a nonnegative integer exactly, or a complex
    number from the literal float average, snapped within FLOAT_TOL.
    """
    if isinstance(value, tuple):
        coords, den = value
        if np.any(coords[1:]):
            raise IntegralityError(f"{what}: value is not rational: {coords.tolist()}/{den}")
        rat = Fraction(int(coords[0]), den)
        if rat.denominator != 1 or rat < 0:
            raise IntegralityError(f"{what}: value {rat} is not a nonnegative integer")
        return int(rat)
    near = round(value.real)
    if abs(value - near) > FLOAT_TOL or near < 0:
        raise IntegralityError(f"{what}: value {value} is not within {FLOAT_TOL} "
                               "of a nonnegative integer")
    return int(near)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def dim_j1(m: int, level: int, aux: int | None = None, backend: str = "exact",
           budget: int | None = None) -> int:
    """dim J_{1,m}(N), computed per the inner-product formula.

    ``aux`` defaults to the smallest admissible auxiliary modulus; the result
    is independent of the admissible choice (a tested property).
    """
    if aux is None:
        aux = default_aux(m, level)
    query = DimQuery(m, level, aux, backend)
    q = 4 * query.aux
    mprimes = admissible_divisors(query.aux)
    if budget is not None and estimated_cost(query) > budget:
        raise BudgetExceeded(f"estimated cost {estimated_cost(query)} exceeds {budget}")
    if backend == "float":
        vals = _literal_inner_products(m, mprimes, level, q)
    else:
        vals = _theta_pair_inner_products(m, mprimes, level, q)
    total = 0
    for mp, v in zip(mprimes, vals):
        total += _snap_nonneg_int(v, f"<theta_{m}^- theta_{mp}^+, 1_{level}>")
    return total


def estimated_cost(query: DimQuery) -> int:
    """Element-count estimate of a query under its backend."""
    q = 4 * query.aux
    npairs = len(admissible_divisors(query.aux))
    if query.backend == "float":
        return gamma0_image_size(query.level, q) * npairs
    total = 0
    for p in factorize(q):
        total += gamma0_image_size(prime_part(query.level, p), prime_part(q, p))
    return total * npairs


def inner_product(h1: CharacterHandle, h2: CharacterHandle, level: int, q: int,
                  backend: str = "exact") -> Fraction | float:
    """<h1 h2, 1_N> on SL2(Z/qZ) by averaging over the level-N image.

    Both handles are evaluated on the same canonical word per element.  The
    conductors of both handles must divide q.
    """
    if q % h1.conductor() or q % h2.conductor():
        raise ValueError("handle conductors must divide the sweep modulus")
    if q % level:
        raise ValueError("need N | Q")
    if backend == "exact":
        acc = CycNumber.zero(1)
        n = 0
        for g in gamma0_image(level, q):
            w = word_for(g)
            acc = acc + evaluate_character(h1, w) * evaluate_character(h2, w)
            n += 1
        val = acc * Fraction(1, n)
        rat = val.rational_value()
        return rat
    # float path: fast for theta-kind handles, generic otherwise
    acc = 0j
    n = 0
    signs = {"theta": 0, "theta_plus": 1, "theta_minus": -1}
    fast = h1.kind in signs and h2.kind in signs
    for g in gamma0_image(level, q):
        w = word_for(g)
        if fast:
            prod = 1 + 0j
            for h in (h1, h2):
                f, gv = get_theta_engine(h.m).fg_complex(w, h.galois)
                prod *= f if h.kind == "theta" else (f + signs[h.kind] * gv) / 2.0
            acc += prod
        else:
            acc += (evaluate_character(h1, w).to_complex()
                    * evaluate_character(h2, w).to_complex())
        n += 1
    return acc / n


def twisted_pair_inner_products(ks: list[int], level: int, q: int,
                                twist_pairs: list[tuple[int, int]]):
    """<sigma(theta_k^-) sigma'(theta_{k'}^+), 1_N> for all k, k' and twists.

    All k must be 2-powers (the spaces are then their own 2-adic local
    factors).  A twisted D_k trace is the trace of D_k(a) on the same word,
    so each minus-times-plus product is a class function (see the module
    docstring): one pass over the conjugation orbits of the level-N image
    collects the exact trace vectors, weighted by orbit size, and every
    Galois-twisted inner product is read off afterwards by pairing against
    root-of-unity bases.  Returns a dict keyed by (k_minus, k_plus, a, a')
    with complex values.
    """
    for k in ks:
        if k & (k - 1):
            raise ValueError("grid evaluation requires 2-power indices")
    orbits = _local_words(level, q)
    sizes = np.array([size for _, size in orbits], dtype=np.int64)
    minus, plus, orders = {}, {}, {}
    for k in ks:
        t = get_trace_table(QuadSpace("D", k))
        f, g = np.array([t.values(w) for w, _ in orbits]).transpose(1, 0, 2)
        minus[k], plus[k], orders[k] = f - g, sizes[:, None] * (f + g), t.order
    twists = {a for pair in twist_pairs for a in pair}
    basis = {(k, a): np.exp(2j * np.pi * ((a * np.arange(orders[k])) % orders[k]) / orders[k])
             for k in ks for a in twists}
    den = 4 * int(sizes.sum())
    out = {}
    for km in ks:
        for kp in ks:
            # minus x plus = ((F - G)/2) ((F' + G')/2), weighted by orbit size
            tens = _int_product(minus[km].T, plus[kp])  # (lm, lp)
            for (a, ap) in twist_pairs:
                out[(km, kp, a, ap)] = basis[(km, a)] @ tens @ basis[(kp, ap)] / den
    return out


# ---------------------------------------------------------------------------
# Syntactic vanishing hypotheses
# ---------------------------------------------------------------------------

def lemma_hypotheses(m: int, level: int) -> bool:
    """Syntactic test whose truth forces dim J_{1,m}(N) = 0.

    Requires that no prime p = 3 mod 4 has p^3 dividing m, N or mN, together
    with one of: m odd and 64 does not divide N; m = 4 mod 8 and 64 does not
    divide N; neither m nor N is divisible by 32.
    """
    n = level
    for value in (m, n, m * n):
        for p, e in factorize(value).items():
            if p % 4 == 3 and e >= 3:
                return False
    if m % 2 == 1 and n % 64 != 0:
        return True
    if m % 8 == 4 and n % 64 != 0:
        return True
    if m % 32 != 0 and n % 32 != 0:
        return True
    return False


# ---------------------------------------------------------------------------
# Sweep over the bundled moonshine class data
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    root_system: str
    class_name: str
    m: int
    level: int
    method: str          # 'lemma' | 'exponent' | 'dimension' | 'skipped'
    value: int | None    # dimension when computed
    vanishes: bool | None
    exceptional: bool
    aux: int | None = None
    estimated: int | None = None


def umbral_sweep(dataset, budget: int = DEFAULT_BUDGET) -> list[SweepRow]:
    """Settle vanishing of J_{1,m}(N_g) for every bundled class record.

    Tries the syntactic hypotheses, then the exponent criterion, then the
    dimension formula (exact backend) within the element budget.  Rows
    whose estimated cost exceeds the budget are reported skipped, never
    guessed.
    """
    from .vanishing import exponent_criterion

    rows = []
    for rec in dataset.class_records:
        m, level = rec.coxeter, rec.level
        if lemma_hypotheses(m, level):
            rows.append(SweepRow(rec.root_system, rec.class_name, m, level,
                                 "lemma", None, True, rec.exceptional))
            continue
        aux = default_aux(m, level)
        outcome = exponent_criterion(m, aux)
        if outcome.vanishes:
            rows.append(SweepRow(rec.root_system, rec.class_name, m, level,
                                 "exponent", None, True, rec.exceptional, aux=aux))
            continue
        query = DimQuery(m, level, aux)
        est = estimated_cost(query)
        if est > budget:
            rows.append(SweepRow(rec.root_system, rec.class_name, m, level,
                                 "skipped", None, None, rec.exceptional, aux=aux,
                                 estimated=est))
            continue
        value = dim_j1(m, level, aux)
        rows.append(SweepRow(rec.root_system, rec.class_name, m, level,
                             "dimension", value, value == 0, rec.exceptional,
                             aux=aux, estimated=est))
    return rows
