"""Weil representations of finite cyclic quadratic spaces and their characters.

Two families of spaces appear: D_m(a) = (Z/2mZ, a x^2 / 4m) and, for m odd,
L_m(a) = (Z/mZ, a x^2 / m).  The generator matrices act on the group algebra
by T e^x = e(Q(x)) e^x and S e^x = sigma |A|^(-1/2) sum_y e(-B(x,y)) e^y, all
exactly over one cyclotomic field per space.

Character values are traces of words in the generators.  They factor over the
Chinese-remainder decomposition of the space, so big sweeps only ever consult
small per-prime trace tables: odd-prime tables are keyed by the matrix modulo
the local level, even tables by the matrix modulo 4*m2 together with the lift
class of the word (the two lifts of a matrix differ by the central S^4, which
acts as -1 on every D-type space).

Only the base space of each (kind, m), the one with a = 1, is built
exactly.  Every twist a that is a unit mod the conductor is its Galois
conjugate: sigma_A = G/sqrt|A| with G = sum_x e(-Q(x)), so the S matrix is
(G/|A|) e(-B(x, y)) and T is diag e(Q(x)), and every generator entry lies in
Q(zeta_conductor).  The automorphism e(1/conductor) -> e(a/conductor) maps
the generators of the base to those of the twist, hence every word, trace
and P-minus trace as well.  A twisted table is the base table with
coordinate j moved to a*j mod L (a extended to a unit mod the ambient order
L) and reduced mod Phi_L again, in integers.

Table values are algebraic integers.  Odd base tables reduce the exact BFS
traces mod Phi_L in one integer product and certify that each coordinate is
divisible by the common denominator.  Even-space entries are produced by
evaluating the word at all complex embeddings of the (2-power) ambient field
and snapping the recovered integer coordinates; the recovery matrix is a
scaled isometry there, and any coordinate further than 1e-6 from an integer
is a hard error rather than a rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from . import cyclotomic as cyc
from .arith import factorize, lcm, prime_part
from .cyclotomic import CycNumber, ExactCycMatrix, embed_root, galois_apply
from .sl2 import Sl2Mod, Sl2Word, word_for

SNAP_TOL = 1e-6


@dataclass(frozen=True)
class QuadSpace:
    """Finite cyclic quadratic space, kind 'D' or 'L'."""

    kind: str
    m: int
    a: int = 1

    def __post_init__(self):
        if self.kind not in ("D", "L"):
            raise ValueError("kind must be 'D' or 'L'")
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.kind == "L":
            if self.m % 2 == 0:
                raise ValueError("L-type spaces require odd m")
            if gcd(self.a, self.m) != 1:
                raise ValueError("a must be coprime to m")
        elif gcd(self.a, self.m) != 1:
            raise ValueError("a must be coprime to m")

    @property
    def size(self) -> int:
        return 2 * self.m if self.kind == "D" else self.m

    @property
    def scale(self) -> int:
        """Denominator c in Q(x) = a x^2 / c."""
        return 4 * self.m if self.kind == "D" else self.m

    def q(self, x: int) -> Fraction:
        return Fraction(self.a * x * x, self.scale) % 1

    def b(self, x: int, y: int) -> Fraction:
        return Fraction(2 * self.a * x * y, self.scale)

    @property
    def ambient_order(self) -> int:
        return lcm(8, self.scale) if self.kind == "D" else lcm(4, self.scale)

    @property
    def conductor(self) -> int:
        """Modulus through which the representation factors."""
        return 4 * self.m if self.kind == "D" else self.m


class WeilRep:
    """Exact generator matrices of the Weil representation of a space."""

    def __init__(self, space: QuadSpace):
        self.space = space
        n = space.size
        L = space.ambient_order
        self.order = L
        self.sigma_exponent = cyc.gauss_sigma(space)
        j, base = self.sigma_exponent, 8
        while j % 2 == 0 and base > 1:
            j //= 2
            base //= 2
        sigma = embed_root(base, j).promoted(L)
        root = cyc.sqrt_as_cyclotomic(n).promoted(L)
        inv_sqrt = _invert_sqrt(root, n, L)
        self.t_diag = np.array([int(space.q(x) * L) % L for x in range(n)], dtype=np.int64)
        rows = []
        for y in range(n):
            row = []
            for x in range(n):
                phase = embed_root(L, int(-space.b(x, y) * L) % L)
                row.append(sigma * inv_sqrt * phase)
            rows.append(row)
        self.s_mat = ExactCycMatrix.from_entries(rows, L)
        self.minus_perm = np.array([(-x) % n for x in range(n)], dtype=np.int64)
        self._word_cache: dict = {}
        self._embedded: dict = {}
        if space.kind == "L":
            if (sigma * sigma * sigma * sigma) != 1:
                raise AssertionError("odd space should have sigma^4 = 1")

    # -- exact evaluation ------------------------------------------------------

    def generators(self) -> tuple[ExactCycMatrix, ExactCycMatrix]:
        n = self.space.size
        t = ExactCycMatrix.identity(n, self.order).mul_diag_power(self.t_diag, 1)
        return t, self.s_mat

    def evaluate_word(self, word: Sl2Word) -> ExactCycMatrix:
        cached = self._word_cache.get(word.texps)
        if cached is not None:
            return cached
        m = ExactCycMatrix.identity(self.space.size, self.order)
        m = m.mul_diag_power(self.t_diag, word.texps[0])
        for t in word.texps[1:]:
            m = m @ self.s_mat
            if t:
                m = m.mul_diag_power(self.t_diag, t)
        if len(self._word_cache) < 256:
            self._word_cache[word.texps] = m
        return m

    def trace_pair(self, word: Sl2Word) -> tuple[CycNumber, CycNumber]:
        """(F, G) = (tr rho(w), tr rho(w) P-) computed exactly."""
        mat = self.evaluate_word(word)
        return mat.trace(), mat.trace_perm(self.minus_perm)

    # -- complex embeddings -----------------------------------------------------

    def _embedded_gens(self, galois: int) -> tuple[np.ndarray, np.ndarray]:
        gens = self._embedded.get(galois)
        if gens is None:
            L = self.order
            t_phase = np.exp(2j * np.pi * ((galois * self.t_diag) % L) / L)
            gens = self._embedded[galois] = (t_phase, self.s_mat.to_complex_array(galois))
        return gens

    def evaluate_word_complex(self, words, galois=1) -> np.ndarray:
        """rho(w) under e(1/L) -> e(galois/L) for words with equally many S letters.

        ``galois`` is one unit mod L for every word or one per word.  Returns
        the matrices stacked, shape (len(words), n, n).  T powers are looked up
        as exact residues mod L, so no phase error grows with the exponent.
        """
        L = self.order
        texps = np.array([w.texps for w in words], dtype=np.int64)
        gal = np.broadcast_to(np.asarray(galois, dtype=np.int64) % L, (len(texps),))
        roots = np.exp(2j * np.pi * np.arange(L) / L)
        t_res = (gal[:, None] * self.t_diag[None, :]) % L

        def t_phases(col):  # (B, n): the diagonal of T^texps[:, col]
            return roots[(t_res * (texps[:, col] % L)[:, None]) % L]

        uniq = np.unique(gal)
        s = (self._embedded_gens(int(uniq[0]))[1] if len(uniq) == 1
             else np.stack([self._embedded_gens(int(a))[1] for a in gal]))
        n = self.space.size
        m = np.zeros((len(texps), n, n), dtype=complex)
        m[:, np.arange(n), np.arange(n)] = t_phases(0)
        for col in range(1, texps.shape[1]):
            m = m @ s
            if texps[:, col].any():
                m *= t_phases(col)[:, None, :]
        return m


def _invert_sqrt(root: CycNumber, n: int, L: int) -> CycNumber:
    """1/sqrt(n) given sqrt(n), using sqrt(n)^2 = n."""
    return root.promoted(L) * Fraction(1, n)


@lru_cache(maxsize=None)
def get_weil_rep(space: QuadSpace) -> WeilRep:
    return WeilRep(space)


# ---------------------------------------------------------------------------
# CRT-local structure of D_m
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def local_spaces(m: int) -> tuple[QuadSpace, ...]:
    """Spaces D_{m2}(a2) and L_{mp}(ap) whose tensor product is D_m."""
    m2 = prime_part(m, 2)
    a2 = pow(m // m2, -1, 4 * m2)
    out = [QuadSpace("D", m2, a2)]
    for p in factorize(m):
        if p == 2:
            continue
        mp = prime_part(m, p)
        ap = pow(4 * m // mp, -1, mp)
        out.append(QuadSpace("L", mp, ap))
    return tuple(out)


# ---------------------------------------------------------------------------
# Lift classes of words
# ---------------------------------------------------------------------------

_D1 = QuadSpace("D", 1)


@lru_cache(maxsize=None)
def _d1_gens_complex() -> tuple[np.ndarray, np.ndarray]:
    rep = get_weil_rep(_D1)
    t_phase, s = rep._embedded_gens(1)
    return t_phase, s


def _d1_eval(word: Sl2Word) -> np.ndarray:
    t_phase, s = _d1_gens_complex()
    m = np.diag(t_phase ** word.texps[0])
    for t in word.texps[1:]:
        m = m @ s
        if t:
            m = m * (t_phase ** t)[None, :]
    return m


@lru_cache(maxsize=None)
def _d1_canonical(mat_mod4: tuple[int, int, int, int]) -> np.ndarray:
    return _d1_eval(word_for(Sl2Mod(4, *mat_mod4)))


def lift_class(word: Sl2Word) -> int:
    """+1 or -1: the lift of the word relative to the canonical word mod 4.

    The two metaplectic lifts of a matrix act by opposite signs in every
    D-type Weil representation, and already do so on the 2-dimensional D_1
    representation, which is what gets compared here (entries of a unitary
    2x2 matrix have magnitude >= 1/2 somewhere, so the sign is read off with
    a wide margin).
    """
    a, b, c, d = word.mat()
    ref = _d1_canonical((a % 4, b % 4, c % 4, d % 4))
    cur = _d1_eval(word)
    idx = int(np.argmax(np.abs(ref)))
    ratio = cur.flat[idx] / ref.flat[idx]
    if abs(ratio - 1) < 1e-6:
        return 1
    if abs(ratio + 1) < 1e-6:
        return -1
    raise ArithmeticError("lift-class comparison lost precision")


# ---------------------------------------------------------------------------
# Trace tables
# ---------------------------------------------------------------------------

def _int_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over int64, refusing operands whose product could overflow."""
    ma = int(np.abs(a).max(initial=1))
    mb = int(np.abs(b).max(initial=1))
    if ma * mb * a.shape[-1] >= (1 << 62):
        raise OverflowError("exact trace reduction would overflow int64")
    return a @ b


def _reduce_traces(raw: np.ndarray, den: np.ndarray, L: int) -> np.ndarray:
    """Rows raw[k] / den[k] in the length-L power basis, reduced mod Phi_L.

    Values are algebraic integers, so every reduced coordinate must be
    divisible by its row's denominator; anything else is a hard error.  The
    result is padded back to length L.
    """
    red = _int_product(raw, cyc._phi_reduction_matrix(L))
    if np.any(red % den[:, None]):
        raise AssertionError("trace value is not an algebraic integer")
    out = np.zeros(raw.shape, dtype=np.int64)
    out[:, :red.shape[1]] = red // den[:, None]
    return out


def _twist_rows(rows: np.ndarray, galois: int, L: int) -> np.ndarray:
    """Apply e(j/L) -> e(galois*j/L) to integer coordinate rows, reduced mod Phi_L."""
    red = cyc._phi_reduction_matrix(L)
    moved = red[(galois * np.arange(L)) % L]  # row j: e(galois*j/L) in the reduced basis
    out = np.zeros(rows.shape, dtype=np.int64)
    out[..., :red.shape[1]] = _int_product(rows, moved)
    return out


class TraceTable:
    """(F, G) trace values of one local space, keyed by local data of a word.

    F is the plain trace and G the P-minus-twisted trace; both are stored as
    integer coordinate vectors in the ambient cyclotomic field.

    Exact values are built once per (kind, m), for the base space with a = 1.
    A space whose a is a unit mod the conductor takes the Galois conjugate of
    the base table under e(1/conductor) -> e(a/conductor) (exact, see the
    module docstring) and builds no Weil representation of its own: odd
    tables are twisted whole, even entries per key on a lookup miss.  Any
    other a builds directly, which rejects a degenerate space.
    """

    def __init__(self, space: QuadSpace):
        self.space = space
        self.order = space.ambient_order
        self._table: dict = {}
        self._complex: dict = {}
        base = QuadSpace(space.kind, space.m)
        self._base = self.rep = None
        if space != base and gcd(space.a, space.conductor) == 1:
            self._base = get_trace_table(base)
            self._galois = _extend_galois(space.a, space.conductor, self.order)
        else:
            self.rep = get_weil_rep(space)
        if space.kind == "L" and space.m > 1:
            if self._base is None:
                self._build_odd_table()
            else:
                self._twist_odd_table()

    # -- odd spaces: bulk exact BFS over SL2(Z/m) -------------------------------

    def _build_odd_table(self):
        m = self.space.m
        n = self.space.size
        rep = self.rep
        cols = np.arange(n)
        keys, f_raw, g_raw, dens = [], [], [], []

        def record(g: Sl2Mod, mat: ExactCycMatrix):
            keys.append(g.mat())
            f_raw.append(mat.num.diagonal().sum(axis=-1))
            g_raw.append(mat.num[rep.minus_perm, cols].sum(axis=0))
            dens.append(mat.den)

        start = Sl2Mod(m, 1, 0, 0, 1)
        seen = {start.mat()}
        frontier = [(start, ExactCycMatrix.identity(n, self.order))]
        record(*frontier[0])
        gens = [(Sl2Mod(m, 1, 1, 0, 1), "T"), (Sl2Mod(m, 0, -1, 1, 0), "S")]
        while frontier:
            nxt = []
            for g, base in frontier:
                for h, tag in gens:
                    gh = g.mul(h)
                    if gh.mat() in seen:
                        continue
                    seen.add(gh.mat())
                    if tag == "T":
                        mat = base.mul_diag_power(rep.t_diag, 1)
                    else:
                        mat = base @ rep.s_mat
                    record(gh, mat)
                    nxt.append((gh, mat))
            frontier = nxt
        k = len(keys)
        red = _reduce_traces(np.stack(f_raw + g_raw), np.array(dens * 2, dtype=np.int64),
                             self.order)
        for i, key in enumerate(keys):
            self._table[key] = (red[i], red[k + i])

    def _twist_odd_table(self):
        base = self._base._table
        keys = list(base)
        twisted = _twist_rows(np.stack([v for key in keys for v in base[key]]),
                              self._galois, self.order)
        for i, key in enumerate(keys):
            self._table[key] = (twisted[2 * i], twisted[2 * i + 1])

    # -- queries ---------------------------------------------------------------

    def values(self, word: Sl2Word) -> tuple[np.ndarray, np.ndarray]:
        """Exact (F, G) integer coordinate vectors for the word."""
        if self.space.kind == "L":
            if self.space.m == 1:
                one = np.zeros(self.order, dtype=np.int64)
                one[0] = 1
                return one, one
            a, b, c, d = word.mat()
            m = self.space.m
            return self._table[(a % m, b % m, c % m, d % m)]
        cond = self.space.conductor
        a, b, c, d = word.mat()
        key = (a % cond, b % cond, c % cond, d % cond)
        entry = self._table.get(key)
        if entry is None:
            entry = self._even_entry(key)
            self._table[key] = entry
        bit0, f, g = entry
        s = lift_class(word) * bit0
        return (f, g) if s == 1 else (-f, -g)

    def values_complex(self, word: Sl2Word, galois: int = 1) -> tuple[complex, complex]:
        f, g = self.values(word)
        key = galois % self.order
        basis = self._complex.get(key)
        if basis is None:
            L = self.order
            basis = np.exp(2j * np.pi * ((key * np.arange(L)) % L) / L)
            self._complex[key] = basis
        return complex(f @ basis), complex(g @ basis)

    # -- even spaces: per-key certified multi-embedding snap ---------------------

    def _even_entry(self, key) -> tuple[int, np.ndarray, np.ndarray]:
        if self._base is not None:
            # the lift class depends only on the word, so bit0 carries over
            base = self._base._table
            entry = base.get(key)
            if entry is None:
                entry = base[key] = self._base._even_entry(key)
            bit0, f, g = entry
            f, g = _twist_rows(np.stack([f, g]), self._galois, self.order)
            return bit0, f, g
        cond = self.space.conductor
        L = self.order
        assert L & (L - 1) == 0, "even-space ambient order must be a 2-power"
        w0 = word_for(Sl2Mod(cond, *key))
        bit0 = lift_class(w0)
        units = [a for a in range(1, L, 2) if a <= L // 2] if L > 2 else [1]
        n = self.space.size
        mats = self.rep.evaluate_word_complex([w0] * len(units), units)
        f_emb = np.trace(mats, axis1=1, axis2=2)
        g_emb = mats[:, self.rep.minus_perm, np.arange(n)].sum(axis=1)
        f = _snap_two_power(f_emb, units, L)
        g = _snap_two_power(g_emb, units, L)
        return bit0, f, g


def _snap_two_power(emb_values: np.ndarray, units: list[int], L: int) -> np.ndarray:
    """Recover integer coordinates of an algebraic integer in Z[zeta_L], L = 2^k.

    emb_values[i] is the value under e(1/L) -> e(units[i]/L); the remaining
    embeddings are complex conjugates.  For 2-power L the embedding matrix on
    the degree-phi(L) power basis is a scaled isometry, so recovery is stable;
    coordinates further than SNAP_TOL from integers raise.
    """
    phi = max(L // 2, 1)
    js = np.arange(phi)
    coords = np.zeros(phi)
    for a, u in zip(units, emb_values):
        w = u * np.exp(-2j * np.pi * ((a * js) % L) / L)
        coords += 2.0 * w.real if L > 2 and (L - a) != a else w.real
    coords /= phi
    snapped = np.rint(coords)
    if np.max(np.abs(coords - snapped)) > SNAP_TOL:
        raise ArithmeticError("certified integer snap failed; table value rejected")
    out = np.zeros(L, dtype=np.int64)
    out[:phi] = snapped.astype(np.int64)
    return out


@lru_cache(maxsize=None)
def get_trace_table(space: QuadSpace) -> TraceTable:
    return TraceTable(space)


# ---------------------------------------------------------------------------
# Theta characters through the CRT factorization
# ---------------------------------------------------------------------------

class ThetaEngine:
    """Evaluates the D_m trace pair (F, G) as a product of local tables."""

    def __init__(self, m: int):
        self.m = m
        self.tables = [get_trace_table(sp) for sp in local_spaces(m)]
        self.order = lcm(*(t.order for t in self.tables))

    def fg(self, word: Sl2Word) -> tuple[CycNumber, CycNumber]:
        f = CycNumber.rational(1)
        g = CycNumber.rational(1)
        for t in self.tables:
            fv, gv = t.values(word)
            f = f * CycNumber(t.order, [Fraction(int(c)) for c in fv])
            g = g * CycNumber(t.order, [Fraction(int(c)) for c in gv])
        return f, g

    def fg_complex(self, word: Sl2Word, galois: int = 1) -> tuple[complex, complex]:
        f = 1 + 0j
        g = 1 + 0j
        for t in self.tables:
            fv, gv = t.values_complex(word, galois % t.order)
            f *= fv
            g *= gv
        return f, g

    def value(self, word: Sl2Word, sign: int) -> CycNumber:
        """theta_m (sign=0), theta_m^+ (sign=+1) or theta_m^- (sign=-1)."""
        f, g = self.fg(word)
        if sign == 0:
            return f
        return (f + g) * Fraction(1, 2) if sign > 0 else (f - g) * Fraction(1, 2)


@lru_cache(maxsize=None)
def get_theta_engine(m: int) -> ThetaEngine:
    return ThetaEngine(m)


# ---------------------------------------------------------------------------
# O_m, index-raising maps, projectors
# ---------------------------------------------------------------------------

def orthogonal_group(m: int) -> list[int]:
    """O_m = {a mod 2m : a^2 = 1 mod 4m}."""
    return [a for a in range(2 * m) if (a * a - 1) % (4 * m) == 0]


def om_action(m: int, a: int) -> np.ndarray:
    """Permutation matrix of theta_r -> theta_{ra} on the 2m basis labels."""
    if a % (2 * m) not in orthogonal_group(m):
        raise ValueError(f"{a} is not in O_{m}")
    n = 2 * m
    mat = np.zeros((n, n), dtype=np.int64)
    for r in range(n):
        mat[(r * a) % n, r] = 1
    return mat


def u_d_map(m_prime: int, d: int) -> np.ndarray:
    """Matrix of phi(tau, z) -> phi(tau, d z): Theta_{m'} -> Theta_{m' d^2}.

    Column r (mod 2m') maps to the sum of theta_{m,r'} over r' = d*r mod 2m'd.
    """
    if d < 1:
        raise ValueError("d must be positive")
    m = m_prime * d * d
    out = np.zeros((2 * m, 2 * m_prime), dtype=np.int64)
    for r in range(2 * m_prime):
        for rp in range(2 * m):
            if (rp - d * r) % (2 * m_prime * d) == 0:
                out[rp, r] = 1
    return out


def _fraction_matrix_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _projector_onto_columns(cols: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthogonal projector onto the integer column span, as (num, den)."""
    n = cols.shape[0]
    if cols.shape[1] == 0:
        return np.zeros((n, n), dtype=np.int64), 1
    # extract an independent subset by exact Gaussian elimination
    basis: list[np.ndarray] = []
    work: list[list[Fraction]] = []
    for j in range(cols.shape[1]):
        v = [Fraction(int(x)) for x in cols[:, j]]
        red = list(v)
        for row in work:
            lead = next(i for i, x in enumerate(row) if x != 0)
            if red[lead] != 0:
                f = red[lead] / row[lead]
                red = [x - f * y for x, y in zip(red, row)]
        if any(x != 0 for x in red):
            work.append(red)
            basis.append(cols[:, j])
    b = np.array(basis, dtype=np.int64).T  # (n, k)
    gram = [[Fraction(int((b[:, i] * b[:, j]).sum())) for j in range(b.shape[1])]
            for i in range(b.shape[1])]
    ginv = _fraction_matrix_inverse(gram)
    den = 1
    for row in ginv:
        for x in row:
            den = lcm(den, x.denominator)
    ginv_int = np.array([[int(x * den) for x in row] for row in ginv], dtype=np.int64)
    num = b @ ginv_int @ b.T
    return num, den


@lru_cache(maxsize=None)
def new_part_projector(m: int) -> tuple[np.ndarray, int]:
    """Projector onto the orthogonal complement of all U_d images, d > 1, d^2 | m."""
    n = 2 * m
    cols = [u_d_map(m // (d * d), d) for d in range(2, m + 1) if m % (d * d) == 0]
    if not cols:
        num = np.eye(n, dtype=np.int64)
        return num, 1
    stack = np.concatenate(cols, axis=1)
    pnum, pden = _projector_onto_columns(stack)
    return pden * np.eye(n, dtype=np.int64) - pnum, pden


def alpha_projector(m: int, alpha: dict[int, int]) -> tuple[np.ndarray, int]:
    """P_alpha = |O_m|^-1 sum alpha(a) om_action(a), as (num, den)."""
    om = orthogonal_group(m)
    _validate_alpha(m, alpha)
    n = 2 * m
    num = np.zeros((n, n), dtype=np.int64)
    for a in om:
        num += alpha[a] * om_action(m, a)
    return num, len(om)


def _validate_alpha(m: int, alpha: dict[int, int]):
    om = orthogonal_group(m)
    if sorted(alpha) != om:
        raise ValueError("alpha must be defined exactly on O_m")
    for a in om:
        if alpha[a] not in (1, -1):
            raise ValueError("alpha must take values +-1")
        for b in om:
            if alpha[a] * alpha[b] != alpha[(a * b) % (2 * m)]:
                raise ValueError("alpha is not a homomorphism on O_m")


# ---------------------------------------------------------------------------
# Character handles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterHandle:
    """Symbolic descriptor of a character, evaluable on words.

    kinds: 'theta' (full), 'theta_plus', 'theta_minus' with index m;
    'nu_new' with index m and a character alpha of O_m;
    'lambda_new' with odd prime power p^k and a sign.
    ``galois`` twists the value by e(1/conductor) -> e(galois/conductor).
    """

    kind: str
    m: int = 1
    alpha: tuple[tuple[int, int], ...] = ()
    p: int = 0
    k: int = 0
    sign: int = 0
    galois: int = 1

    def conductor(self) -> int:
        if self.kind in ("theta", "theta_plus", "theta_minus", "nu_new"):
            return 4 * self.m
        return self.p ** self.k

    def degree(self) -> CycNumber:
        return evaluate_character(self, Sl2Word((0,)))


def _check_galois(galois: int, conductor: int):
    if gcd(galois, conductor) != 1:
        raise ValueError(f"galois twist must be coprime to the conductor {conductor}")


def theta_handle(m: int, sign: int = 0, galois: int = 1) -> CharacterHandle:
    kind = {0: "theta", 1: "theta_plus", -1: "theta_minus"}[sign]
    _check_galois(galois, 4 * m)
    return CharacterHandle(kind=kind, m=m, galois=galois)


def new_alpha_character(m: int, alpha: dict[int, int], galois: int = 1) -> CharacterHandle:
    _validate_alpha(m, alpha)
    _check_galois(galois, 4 * m)
    return CharacterHandle(kind="nu_new", m=m,
                           alpha=tuple(sorted(alpha.items())), galois=galois)


def lambda_character(p: int, k: int, sign: int, galois: int = 1) -> CharacterHandle:
    if p == 2 or any(p % j == 0 for j in range(2, p)):
        raise ValueError("p must be an odd prime")
    if k < 1 or sign not in (1, -1):
        raise ValueError("need k >= 1 and sign in {+1, -1}")
    _check_galois(galois, p)
    return CharacterHandle(kind="lambda_new", p=p, k=k, sign=sign, galois=galois)


def _extend_galois(a: int, cond: int, order: int) -> int:
    """Extend e(1/cond) -> e(a/cond) to an automorphism exponent mod order.

    Per prime power q || order the exponent is a mod (q-part of cond) when the
    prime divides cond, and 1 otherwise.  When the extension is not forced the
    value being twisted must lie in the smaller field for the result to be
    independent of the choice; every use here is of that shape.  Raises
    ValueError when a is not a unit mod cond.
    """
    if gcd(a, cond) != 1:
        raise ValueError(f"galois twist {a} is not coprime to the conductor {cond}")
    res = 1
    mod = 1
    for p, e in factorize(order).items():
        q = p ** e
        qc = prime_part(cond, p)
        t = a % qc if qc > 1 else 1
        inv = pow(mod, -1, q)
        res = res + mod * (((t - res) * inv) % q)
        mod *= q
    assert gcd(res, order) == 1
    return res % order


def _trace_against(rep: WeilRep, word: Sl2Word, knum: np.ndarray, kden: int) -> CycNumber:
    """tr(rho(word)^T K) for a rational symmetric matrix K = knum/kden."""
    mat = rep.evaluate_word(word)
    vec = np.einsum("yx,yxl->l", knum, mat.num)
    return CycNumber(rep.order, [Fraction(int(c), mat.den * kden) for c in vec])


def _lambda_projector(p: int, k: int, sign: int) -> tuple[np.ndarray, int]:
    """(new-part projector) * (P_sign) on the L_{p^k} basis, as (num, den)."""
    n = p ** k
    perm = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        perm[(-x) % n, x] = 1
    psign_num = np.eye(n, dtype=np.int64) + sign * perm
    psign_den = 2
    if k == 1:
        return psign_num, psign_den
    nn = p ** (k - 2)
    cols = np.zeros((n, nn), dtype=np.int64)
    for x in range(nn):
        for y in range(n):
            if (y - p * x) % (p ** (k - 1)) == 0:
                cols[y, x] = 1
    pnum, pden = _projector_onto_columns(cols)
    new_num = pden * np.eye(n, dtype=np.int64) - pnum
    num = new_num @ psign_num
    return num, pden * psign_den


def evaluate_character(handle: CharacterHandle, word: Sl2Word) -> CycNumber:
    """Exact value of a character handle on a word in the generators."""
    if handle.kind in ("theta", "theta_plus", "theta_minus"):
        sign = {"theta": 0, "theta_plus": 1, "theta_minus": -1}[handle.kind]
        eng = get_theta_engine(handle.m)
        val = eng.value(word, sign)
    elif handle.kind == "nu_new":
        rep = get_weil_rep(QuadSpace("D", handle.m))
        _assert_commuting(handle.m)
        pnum, pden = new_part_projector(handle.m)
        anum, aden = alpha_projector(handle.m, dict(handle.alpha))
        val = _trace_against(rep, word, pnum @ anum, pden * aden)
    elif handle.kind == "lambda_new":
        rep = get_weil_rep(QuadSpace("L", handle.p ** handle.k))
        knum, kden = _lambda_projector(handle.p, handle.k, handle.sign)
        val = _trace_against(rep, word, knum, kden)
    else:
        raise ValueError(f"unknown handle kind {handle.kind!r}")
    if handle.galois != 1:
        a = _extend_galois(handle.galois, handle.conductor(), val.order)
        val = galois_apply(a, val)
    return val


@lru_cache(maxsize=None)
def _assert_commuting(m: int) -> bool:
    pnum, _ = new_part_projector(m)
    for a in orthogonal_group(m):
        act = om_action(m, a)
        if not np.array_equal(pnum @ act, act @ pnum):
            raise AssertionError("new-part projector does not commute with O_m")
    return True


# ---------------------------------------------------------------------------
# p-parts and eigenspace counts
# ---------------------------------------------------------------------------

def alpha_on_prime(m: int, alpha: dict[int, int], p: int) -> int:
    """alpha evaluated at the element of O_m that is -1 at p and +1 elsewhere."""
    mp = prime_part(m, p)
    if mp == 1:
        return 1
    a = next(x for x in orthogonal_group(m)
             if (x + 1) % (2 * mp) == 0 and (x - 1) % (2 * m // mp) == 0)
    return dict(alpha)[a]


def p_part_decomposition(handle: CharacterHandle) -> list[CharacterHandle]:
    """Local constituents of nu_m^alpha: a 2-adic theta/nu part and odd lambda parts.

    The product of the local values on any word equals the global value, with
    the twists a2 = (m/m2)^-1 mod 4 m2 and ap = (4m/mp)^-1 mod mp.
    """
    if handle.kind != "nu_new":
        raise ValueError("p-part decomposition applies to nu_new handles")
    m = handle.m
    alpha = dict(handle.alpha)
    m2 = prime_part(m, 2)
    a2 = pow(m // m2, -1, 4 * m2)
    s2 = alpha_on_prime(m, alpha, 2)
    if m2 == 1:
        parts = [theta_handle(1, 1, galois=a2)]
    elif m2 == 2:
        parts = [theta_handle(2, s2, galois=a2)]
    else:
        alpha2 = {a: (s2 if (a + 1) % (2 * m2) == 0 else 1)
                  for a in orthogonal_group(m2)}
        parts = [new_alpha_character(m2, alpha2, galois=a2)]
    fac = factorize(m)
    for p in sorted(fac):
        if p == 2:
            continue
        mp = prime_part(m, p)
        ap = pow(4 * m // mp, -1, mp)
        parts.append(lambda_character(p, fac[p], alpha_on_prime(m, alpha, p), galois=ap))
    return parts


def s_eigenspace_dims(m: int, m_prime: int, sign: int, sign_prime: int) -> tuple[int, int, int, int]:
    """Dimensions of the i^a eigenspaces, a = 0..3, of S on the tensor product."""
    h1 = theta_handle(m, sign)
    h2 = theta_handle(m_prime, sign_prime)
    svals = []
    for k in range(4):
        w = Sl2Word((0,) * (k + 1))
        svals.append(evaluate_character(h1, w) * evaluate_character(h2, w))
    dims = []
    for a in range(4):
        acc = CycNumber.zero(4)
        for k in range(4):
            acc = acc + embed_root(4, (-a * k) % 4) * svals[k]
        v = (acc * Fraction(1, 4)).rational_value()
        if v.denominator != 1 or v < 0:
            raise AssertionError("eigenspace dimension must be a nonnegative integer")
        dims.append(int(v))
    return tuple(dims)


def weil_generators(space: QuadSpace) -> tuple[ExactCycMatrix, ExactCycMatrix]:
    """Exact matrices of T and S in the Weil representation of the space."""
    return get_weil_rep(space).generators()


def theta_side_matrix(m: int, word: Sl2Word) -> ExactCycMatrix:
    """Action on the theta basis (the transpose of the D_m Weil matrix)."""
    mat = get_weil_rep(QuadSpace("D", m)).evaluate_word(word)
    return ExactCycMatrix(mat.order, mat.num.transpose(1, 0, 2).copy(), mat.den)
