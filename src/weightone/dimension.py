"""Dimensions of spaces of weight-one Jacobi forms of index m and level N.

The dimension is a sum, over divisors m' of an auxiliary modulus M with M/m'
squarefree, of scalar products <theta_m^- theta_{m'}^+, 1_N> on SL2(Z/4MZ),
where 1_N is induced from the trivial character of the level-N subgroup.  By
Frobenius reciprocity each scalar product is the plain average of the product
character over the image H = {c = 0 mod N} of that subgroup, with both trace
factors evaluated on the same word per element so that the metaplectic lift
ambiguity cancels.

Three backends:

* ``exact``     - H is a direct product of its prime parts and the summand is
                  a product of per-prime trace data, so the whole average
                  factors into small per-prime sums, accumulated exactly.
                  Each per-prime sum runs over the orbits of the local image
                  under conjugation (``sl2.conjugation_orbits``): one trace
                  table lookup per orbit representative, weighted by the
                  orbit size.
* ``crt-float`` - the same orbit sums in complex arithmetic.
* ``float``     - the literal average over every element of H, evaluating
                  each local Weil representation on the element's word in
                  complex arithmetic; it shares no trace table, snap, lift
                  class or orbit with the other two, which makes it the
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

Exact and float backends agree wherever both run; the accumulated value must
land on a nonnegative integer (within 1e-6 for the float backends, exactly
for the exact one) or the query fails loudly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd

import numpy as np

from .arith import divisors, factorize, is_squarefree, lcm, prime_part
from .cyclotomic import CycNumber
from .sl2 import (Sl2Word, conjugation_orbits, gamma0_image, gamma0_image_size,
                  word_for)
from .weil import (CharacterHandle, QuadSpace, evaluate_character,
                   get_trace_table, get_weil_rep, local_spaces)

BACKENDS = ("exact", "float", "crt-float")
FLOAT_TOL = 1e-6  # default snap tolerance of the float backends
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
                       spaces2: list[QuadSpace | None], complex_mode: bool):
    """Per-prime sums of F1 F2, F1 G2, G1 F2, G1 G2 over the local subgroup.

    Each product is a class function, so the sum runs over conjugation
    orbits, one representative word each, weighted by the orbit size.
    Returns a list (one entry per element of ``spaces2``) of 4-tuples of
    CycNumbers (exact) or complex numbers.
    """
    orbits = _local_words(level_p, q_p)
    words = [w for w, _ in orbits]
    sizes = np.array([size for _, size in orbits], dtype=np.int64)
    t1 = get_trace_table(sp1) if sp1 is not None else None
    t2s = [get_trace_table(sp) if sp is not None else None for sp in spaces2]
    if complex_mode:
        def stack(t):  # (R, 2): (F, G) per representative
            if t is None:
                return np.ones((len(words), 2), dtype=complex)
            return np.array([t.values_complex(w) for w in words])

        fg1 = stack(t1)
        out = []
        for t2 in t2s:
            prods = (fg1[:, :, None] * stack(t2)[:, None, :]).reshape(len(words), 4)
            out.append(tuple(sizes @ prods))
        return out

    def stack(t):  # (2, R, order): F and G coordinate rows per representative
        if t is None:
            return np.ones((2, len(words), 1), dtype=np.int64)
        return np.array([t.values(w) for w in words]).transpose(1, 0, 2)

    L = lcm(*[t.order for t in [t1] + t2s if t is not None])
    fg1 = stack(t1)
    out = []
    for t2 in t2s:
        fg2 = stack(t2)
        out.append(tuple(_weighted_product_sum(fg1[i], fg2[j], sizes, L)
                         for i in (0, 1) for j in (0, 1)))
    return out


def _weighted_product_sum(v1: np.ndarray, v2: np.ndarray, sizes: np.ndarray,
                          L: int) -> CycNumber:
    """sum_r sizes[r] v1[r] v2[r] in Q(zeta_L), from one (L1 x L2) product.

    Rows of v1 (R x L1) and v2 (R x L2) are power-basis coordinates in
    Q(zeta_L1) and Q(zeta_L2).  The bound covers every int64 step: the
    weighting, the sum over R representatives, and the fold, which adds at
    most min(L1, L2) products into each coordinate of Q(zeta_L).
    """
    bound = (int(np.abs(v1).max(initial=1)) * int(np.abs(v2).max(initial=1))
             * int(sizes.max(initial=1)) * len(sizes) * min(v1.shape[1], v2.shape[1]))
    if bound >= (1 << 62):
        raise OverflowError("exact orbit sum would overflow int64")
    outer = v1.T @ (sizes[:, None] * v2)
    i, j = np.indices(outer.shape)
    out = np.zeros(L, dtype=np.int64)
    np.add.at(out, (i * (L // v1.shape[1]) + j * (L // v2.shape[1])) % L, outer)
    return CycNumber(L, [Fraction(int(c)) for c in out])


def _theta_pair_inner_products(m: int, mprimes: list[int], level: int, q: int,
                               complex_mode: bool) -> list:
    """<theta_m^- theta_{m'}^+, 1_N> on SL2(Z/qZ) for each m', via factored sums."""
    primes = sorted(factorize(q))
    per_prime = []
    sizes = []
    for p in primes:
        q_p = prime_part(q, p)
        level_p = prime_part(level, p)
        sp1 = _local_space_of(m, p)
        sp2s = [_local_space_of(mp, p) for mp in mprimes]
        sizes.append(gamma0_image_size(level_p, q_p))
        per_prime.append(_pair_sum_at_prime(q_p, level_p, sp1, sp2s, complex_mode))
    h_size = 1
    for s in sizes:
        h_size *= s
    values = []
    for i, mp in enumerate(mprimes):
        if complex_mode:
            combo = np.ones(4, dtype=complex)
            for loc in per_prime:
                combo = combo * np.asarray(loc[i])
            total = (combo[0] + combo[1] - combo[2] - combo[3]) / 4.0
            values.append(total / h_size)
        else:
            combo = [CycNumber.rational(1) for _ in range(4)]
            for loc in per_prime:
                combo = [a * b for a, b in zip(combo, loc[i])]
            total = (combo[0] + combo[1] - combo[2] - combo[3]) * Fraction(1, 4)
            values.append(total * Fraction(1, h_size))
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
    if isinstance(value, CycNumber):
        try:
            rat = value.rational_value()
        except ValueError as exc:
            raise IntegralityError(f"{what}: value is not rational: {value!r}") from exc
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
        vals = _theta_pair_inner_products(m, mprimes, level, q,
                                          complex_mode=(backend == "crt-float"))
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
    theta_kinds = ("theta", "theta_plus", "theta_minus")
    fast = h1.kind in theta_kinds and h2.kind in theta_kinds
    for g in gamma0_image(level, q):
        w = word_for(g)
        if fast:
            acc += _theta_value_complex(h1, w) * _theta_value_complex(h2, w)
        else:
            acc += (evaluate_character(h1, w).to_complex()
                    * evaluate_character(h2, w).to_complex())
        n += 1
    return acc / n


def _theta_value_complex(handle: CharacterHandle, word: Sl2Word) -> complex:
    sign = {"theta": 0, "theta_plus": 1, "theta_minus": -1}[handle.kind]
    f, g = 1 + 0j, 1 + 0j
    for sp in local_spaces(handle.m):
        t = get_trace_table(sp)
        fv, gv = t.values_complex(word, handle.galois % t.order)
        f *= fv
        g *= gv
    if sign == 0:
        return f
    return (f + g) / 2.0 if sign > 0 else (f - g) / 2.0


def twisted_pair_inner_products(ks: list[int], level: int, q: int,
                                twist_pairs: list[tuple[int, int]]):
    """<sigma(theta_k^-) sigma'(theta_{k'}^+), 1_N> for all k, k' and twists.

    All k must be 2-powers (the spaces are then their own 2-adic local
    factors), so one sweep over the level-N image collects the exact trace
    vectors and every Galois-twisted inner product is read off afterwards by
    pairing against root-of-unity bases.  Returns a dict keyed by
    (k_minus, k_plus, a, a') with complex values.
    """
    for k in ks:
        if k & (k - 1):
            raise ValueError("grid evaluation requires 2-power indices")
    tables = {k: get_trace_table(QuadSpace("D", k)) for k in ks}
    fs: dict[int, list] = {k: [] for k in ks}
    gs: dict[int, list] = {k: [] for k in ks}
    count = 0
    for g in gamma0_image(level, q):
        w = word_for(g)
        for k in ks:
            t = tables[k]
            f, gv = t.values(w)
            fs[k].append(f)
            gs[k].append(gv)
        count += 1
    stacks = {}
    for k in ks:
        stacks[k] = (np.array(fs[k], dtype=np.int64), np.array(gs[k], dtype=np.int64))
    out = {}
    basis_cache = {}

    def basis(order, a):
        key = (order, a % order)
        if key not in basis_cache:
            basis_cache[key] = np.exp(2j * np.pi * ((a % order) * np.arange(order) % order) / order)
        return basis_cache[key]

    for km in ks:
        fm, gm = stacks[km]
        lm = tables[km].order
        for kp in ks:
            fp, gp = stacks[kp]
            lp = tables[kp].order
            # minus x plus = ((F - G)/2) ((F' + G')/2)
            tens = (fm - gm).T @ (fp + gp) / 4.0  # (lm, lp), exact quarters
            for (a, ap) in twist_pairs:
                val = basis(lm, a) @ tens @ basis(lp, ap)
                out[(km, kp, a, ap)] = val / count
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
    dimension formula (crt-float backend) within the element budget.  Rows
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
        query = DimQuery(m, level, aux, "crt-float")
        est = estimated_cost(query)
        if est > budget:
            rows.append(SweepRow(rec.root_system, rec.class_name, m, level,
                                 "skipped", None, None, rec.exceptional, aux=aux,
                                 estimated=est))
            continue
        value = dim_j1(m, level, aux, backend="crt-float")
        rows.append(SweepRow(rec.root_system, rec.class_name, m, level,
                             "dimension", value, value == 0, rec.exceptional,
                             aux=aux, estimated=est))
    return rows
