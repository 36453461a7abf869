"""Output checks, made apart from the program.

Nothing here imports ``weightone``.  Every check compares a pass's outputs
against a theorem, a property of the method, or a value this file computes
itself (direct theta and pentagonal sums, a Fraction recomputation of the
multiplicities from the bundled CSV tables, an own scan of the exponent
congruence).  None compares against a stored copy of earlier output.

A check takes ``(outputs, ctx)``: ``outputs`` maps job id to the parsed JSON
output of one pass, ``ctx`` holds the job arguments and the bundled tables.
It raises ``CheckFailed``.  Each check comes with a mutator that changes one
value of a correct output; ``self_test`` confirms that every check rejects its
mutated input.
"""

from __future__ import annotations

import cmath
import copy
import csv
import math
import re
from fractions import Fraction
from math import isqrt
from pathlib import Path

import jobs as J


class CheckFailed(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Own arithmetic
# ---------------------------------------------------------------------------

def factor(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def admissible(m: int, level: int, aux: int) -> bool:
    return aux % m == 0 and (4 * aux) % level == 0


def least_aux(m: int, level: int) -> int:
    return next(aux for aux in range(m, 4 * m * level + 1, m) if (4 * aux) % level == 0)


def lemma_vanishes(m: int, level: int) -> bool:
    """The syntactic vanishing lemma, written out from its statement."""
    for value in (m, level, m * level):
        if any(p % 4 == 3 and e >= 3 for p, e in factor(value).items()):
            return False
    if level % 64 and (m % 2 == 1 or m % 8 == 4):
        return True
    return m % 32 != 0 and level % 32 != 0


def congruence_solvable(m: int, aux: int) -> bool:
    """Whether r^2 M/m + s^2 t = 0 mod 4M has a solution, 0 < r < m, t | M."""
    mod = 4 * aux
    squares = {s * s % mod for s in range(mod // 2 + 1)}
    targets = {(-r * r * (aux // m)) % mod for r in range(1, m)}
    for t in divisors(aux):
        if targets & {t * x % mod for x in squares}:
            return True
    return False


def coxeter(label: str) -> int:
    """Coxeter number of a root system such as A5^4D4; components must agree."""
    hs = set()
    for kind, rank in re.findall(r"([ADE])(\d+)", label):
        n = int(rank)
        hs.add(n + 1 if kind == "A" else 2 * n - 2 if kind == "D" else {6: 12, 7: 18, 8: 30}[n])
    require(len(hs) == 1, f"{label}: mixed Coxeter numbers")
    return hs.pop()


def series(obj: dict) -> tuple[Fraction, dict]:
    """(window, {(q-exponent, y-exponent): coefficient}) of a qexp output."""
    den = obj["denominator"]
    terms = {(Fraction(n, den), Fraction(l, 2)): Fraction(c) for n, l, c in obj["terms"]}
    return Fraction(obj["order"]), terms


def theta_terms(m: int, r: int, order: Fraction) -> dict:
    """theta_{m,r}(tau, z) = sum over j = r mod 2m of q^(j^2/4m) y^j."""
    jmax = isqrt(int(order * 4 * m)) + 1
    return {(Fraction(j * j, 4 * m), Fraction(j)): Fraction(1)
            for j in range(-jmax, jmax + 1) if (j - r) % (2 * m) == 0
            and Fraction(j * j, 4 * m) < order}


def pentagonal_eta(order: Fraction) -> dict:
    """eta = sum_k (-1)^k q^((6k+1)^2/24), Euler's pentagonal theorem."""
    kmax = isqrt(int(order * 24)) // 6 + 2
    return {(Fraction((6 * k + 1) ** 2, 24), Fraction(0)): Fraction((-1) ** k)
            for k in range(-kmax, kmax + 1) if Fraction((6 * k + 1) ** 2, 24) < order}


def mul(a: dict, b: dict, order: Fraction) -> dict:
    out = {}
    for (qa, ya), ca in a.items():
        for (qb, yb), cb in b.items():
            if qa + qb < order:
                key = (qa + qb, ya + yb)
                out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def y_to_one(a: dict) -> dict:
    out = {}
    for (q, _), c in a.items():
        out[(q, Fraction(0))] = out.get((q, Fraction(0)), 0) + c
    return {k: c for k, c in out.items() if c}


def scaled(a: dict, h_tau: int, h_z: int) -> dict:
    """The substitution tau -> h_tau * tau, z -> h_z * z, on exponents."""
    return {(q * h_tau, y * h_z): c for (q, y), c in a.items()}


def below(a: dict, order: Fraction) -> dict:
    return {k: c for k, c in a.items() if k[0] < order}


def theta_minus(m: int, r: int, order: Fraction) -> dict:
    return add(theta_terms(m, -r, order), theta_terms(m, r, order), -1)


def named_form(name: str, order: Fraction) -> dict:
    """The named weight-one forms from their theta-product definitions."""
    if name == "xi_1_8":
        return mul(y_to_one(theta_terms(8, 4, order)), theta_minus(8, 4, order), order)
    if name == "xi_1_12":
        eta6 = scaled(pentagonal_eta(order / 6), 6, 1)
        return below(mul(eta6, scaled(theta_minus(2, 1, order / 6), 6, 6), order), order)
    t33 = y_to_one(theta_terms(3, 3, order))
    t30 = y_to_one(theta_terms(3, 0, order))
    first = mul(t33, theta_minus(9, 3, order), order)
    second = mul(t30, theta_minus(9, 6, order), order)
    return add(first, second, -1 if name == "xi9_3A" else 1)


# ---------------------------------------------------------------------------
# Context: job arguments and the bundled tables, read with csv
# ---------------------------------------------------------------------------

def load_context(root: Path, job_list: list[dict]) -> dict:
    data = root / "src" / "weightone" / "data"

    def rows(name):
        with open(data / name, newline="") as f:
            return list(csv.reader(f))

    levels = rows("levels.csv")
    header = levels[0]
    records = [dict(zip(header, r)) for r in levels[1:]]
    chars = rows("character_table.csv")
    table = [[int(x) for x in r[1:]] for r in chars[4:]]
    order = sum(chi[0] ** 2 for chi in table)
    sizes = [Fraction(order, sum(chi[j] ** 2 for chi in table)) for j in range(len(table[0]))]
    mt = rows("mckay_thompson.csv")
    coeffs = {(int(r[0]), int(r[1])): [int(x) for x in r[2:]] for r in mt[1:]}
    return {"jobs": {j["id"]: j for j in job_list}, "records": records,
            "chars": table, "group_order": order, "class_sizes": sizes,
            "coeffs": coeffs, "decomposition_rows": len(rows("decompositions.csv")) - 1}


def argv_value(job: dict, flag: str) -> str:
    argv = job["argv"]
    return argv[argv.index(flag) + 1]


# ---------------------------------------------------------------------------
# headline
# ---------------------------------------------------------------------------

def _dim(outputs, m, n, aux, backend="exact"):
    out = outputs[f"dim:{m}:{n}:{aux}:{backend}"]
    require((out["m"], out["N"], out["M"], out["backend"]) == (m, n, aux, backend),
            f"dim output echoes the wrong query: {out}")
    require(isinstance(out["value"], int), f"non-integer dimension {out['value']!r}")
    return out["value"]


def check_headline_vanishing(outputs, ctx):
    for m, n, aux, aux2 in J.HEADLINE_VANISHING:
        require(admissible(m, n, aux) and admissible(m, n, aux2), "inadmissible M")
        for a, backend in ((aux, "exact"), (aux, "crt-float"), (aux2, "exact")):
            v = _dim(outputs, m, n, a, backend)
            require(v == 0, f"dim J_(1,{m})({n}) = {v} at M = {a} ({backend}), theorem says 0")


def check_positive_controls(outputs, ctx):
    for m, n, aux in J.HEADLINE_POSITIVE:
        v = _dim(outputs, m, n, aux)
        require(v >= 1, f"positive control dim J_(1,{m})({n}) = {v}")


def check_level_monotone(outputs, ctx):
    m, n, aux = J.HEADLINE_CONTAINS_9_9
    small, big = _dim(outputs, 9, 9, 9), _dim(outputs, m, n, aux)
    require(small <= big, f"dim J_(1,9)(9) = {small} > dim J_(1,9)(36) = {big}")


def check_sweep_complete(outputs, ctx):
    rows = outputs["sweep"]
    recs = ctx["records"]
    require(len(rows) == len(recs), f"{len(rows)} sweep rows for {len(recs)} records")
    for row, rec in zip(rows, recs):
        require((row["root_system"], row["class"], row["N"])
                == (rec["root_system"], rec["class"], int(rec["N_g"])),
                f"sweep row {row} does not match record {rec}")
        require(row["m"] == coxeter(rec["root_system"]), f"wrong index in {row}")
        require(row["method"] in ("lemma", "exponent", "dimension"), f"row not settled: {row}")


def check_sweep_settled_zero(outputs, ctx):
    for row in outputs["sweep"]:
        m, n = row["m"], row["N"]
        if row["method"] == "dimension":
            require(isinstance(row["value"], int) and row["value"] >= 0
                    and row["vanishes"] == (row["value"] == 0), f"bad dimension row {row}")
        own = lemma_vanishes(m, n) or not congruence_solvable(m, least_aux(m, n))
        if own:
            require(row["vanishes"] is True and row["value"] in (None, 0),
                    f"row {row} should vanish by the lemma or the congruence")


def check_witnesses(outputs, ctx):
    for job_id, out in outputs.items():
        if not job_id.startswith("vanish:"):
            continue
        m, aux = int(out["m"]), int(out["M"])
        if out["result"] == "vanishes":
            require(not congruence_solvable(m, aux), f"({m},{aux}) has a solution")
            continue
        w = out["witness"]
        r, s, t = w["r"], w["s"], w["t"]
        require(0 < r < m and aux % t == 0, f"witness {w} out of range at ({m},{aux})")
        require((r * r * (aux // m) + s * s * t) % (4 * aux) == 0,
                f"witness {w} does not solve the congruence at ({m},{aux})")


# ---------------------------------------------------------------------------
# level_one
# ---------------------------------------------------------------------------

def check_level_one_zero(outputs, ctx):
    for job_id in ctx["jobs"]:
        out = outputs[job_id]
        m = out["m"]
        require(out["N"] == 1 and admissible(m, 1, out["M"]), f"bad query echo {out}")
        require(out["value"] == 0, f"{job_id}: dim J_(1,{m})(1) = {out['value']}, theorem says 0")


def check_float_agrees(outputs, ctx):
    for m in J.LEVEL_ONE_FLOAT:
        a = outputs[f"dim:{m}:1:exact"]["value"]
        b = outputs[f"dim:{m}:1:float"]["value"]
        require(a == b, f"m = {m}: exact {a} but float {b}")


# ---------------------------------------------------------------------------
# moonshine
# ---------------------------------------------------------------------------

def check_verify_tables(outputs, ctx):
    rep = outputs["verify-tables"]
    require(rep["ok"] is True and rep["xi9_theta_coefficients_match"] is True,
            "verify-tables reports a failure")
    require(rep["decomposition_mismatches"] == [] and rep["parity_violations"] == [],
            "verify-tables lists violations")
    require(rep["class_records"] == len(ctx["records"]), "wrong class record count")
    require(rep["coefficient_rows"] == len(ctx["coeffs"]), "wrong coefficient row count")
    require(rep["decomposition_rows"] == ctx["decomposition_rows"], "wrong decomposition rows")
    require([Fraction(x) for x in rep["class_sizes"]] == ctx["class_sizes"],
            f"class sizes {rep['class_sizes']} disagree with column orthogonality")


def check_theta_direct(outputs, ctx):
    for m, r in J.THETA_CASES:
        order, terms = series(outputs[f"qexp:theta:{m}:{r}"])
        require(order == J.THETA_ORDER, "theta window changed")
        require(terms == theta_terms(m, r, order), f"theta_({m},{r}) differs from the direct sum")


def check_eta_pentagonal(outputs, ctx):
    order, terms = series(outputs["qexp:eta"])
    require(order == J.ETA_ORDER, "eta window changed")
    require(terms == pentagonal_eta(order), "eta differs from the pentagonal series")


def check_named_forms(outputs, ctx):
    for name in ("xi_1_8", "xi_1_12", "xi9_3A", "xi9_6A"):
        order, terms = series(outputs[f"qexp:{name}"])
        require(order == J.QEXP_FORM_ORDER, f"{name} window changed")
        require(terms == named_form(name, order), f"{name} differs from its theta product")


def check_quark(outputs, ctx):
    xo, xi = series(outputs["qexp:xi9_3A"])
    qo, quark = series(outputs["qexp:quark"])
    window = min(xo, 3 * qo)
    want = below(scaled(quark, 3, 3), window)
    got = below(xi, window)
    require(want, "empty quark window")
    ratios = {got.get(k, 0) / c for k, c in want.items()}
    require(set(got) == set(want) and len(ratios) == 1 and ratios <= {1, -1},
            "xi9_3A is not +-1 times the rescaled quark")


def check_xi9_consistency(outputs, ctx):
    require(outputs["xi9_consistency"] is True, "xi9 theta decomposition does not match")


def check_multiplicities(outputs, ctx):
    got = outputs["multiplicities"]
    require(len(got) == len(ctx["coeffs"]), "multiplicities missing rows")
    for (r, d), coeffs in ctx["coeffs"].items():
        want = []
        for chi in ctx["chars"]:
            s = sum(sz * x * c for sz, x, c in zip(ctx["class_sizes"], chi, coeffs))
            want.append(s / ctx["group_order"])
        require(all(w.denominator == 1 for w in want), f"({r},{d}): non-integral multiplicity")
        require(d <= 0 or min(want) >= 0, f"({r},{d}): negative multiplicity at positive grade")
        require(got[f"{r}:{d}"] == [int(w) for w in want], f"({r},{d}): multiplicities differ")


def _ladder(outputs, ctx):
    job = ctx["jobs"]["ladder"]
    tau = complex(float(argv_value(job, "--tau-re")), float(argv_value(job, "--tau-im")))
    rows = outputs["ladder"]
    dim = 2 * J.LADDER_INDEX
    require(len(rows) == J.LADDER_K * dim, f"{len(rows)} ladder rows")
    return tau, rows


def check_ladder_polar(outputs, ctx):
    tau, rows = _ladder(outputs, ctx)
    polar = cmath.exp(2j * math.pi * Fraction(-1, 4 * J.LADDER_INDEX) * tau)
    for row in rows:
        if row["K"] != 1:
            continue
        want = polar if row["component"] == 1 else 0
        got = complex(row["real"], row["imag"])
        require(abs(got - want) <= 1e-10, f"K = 1 component {row['component']}: {got} != {want}")


def check_ladder_zeros(outputs, ctx):
    tau, rows = _ladder(outputs, ctx)
    for row in rows:
        require(math.isfinite(row["real"]) and math.isfinite(row["imag"]), f"non-finite {row}")
        if row["component"] % 3 == 0:
            require(row["real"] == 0 and row["imag"] == 0,
                    f"K = {row['K']}: component {row['component']} is not exactly 0")


def check_exps_suite(outputs, ctx):
    got = outputs["exps_suite"]
    want = {f"{m}:{base ** a}" for m, base in ((2, 2), (3, 3), (4, 2))
            for a in range(J.EXPS_A_MAX + 1) if base ** a % m == 0}
    require(set(got) == want, "prime-power families incomplete")
    for key, vanishes in got.items():
        m, aux = map(int, key.split(":"))
        require(vanishes is True and not congruence_solvable(m, aux),
                f"prime-power family ({m},{aux}) does not vanish")


def check_perm_norm(outputs, ctx):
    n = J.PERM_MODULUS
    order = n ** 3
    for p in factor(n):
        order = order * (p * p - 1) // (p * p)
    out = outputs["perm_norm"]
    require(out["elements"] == order, f"{out['elements']} elements, |SL2(Z/{n})| = {order}")
    require(out["norm"] == 4 * order, f"sum of pi^2 = {out['norm']}, want 4 * {order}")


# ---------------------------------------------------------------------------
# Mutators: change one value of a correct output
# ---------------------------------------------------------------------------

def _mutate(path, fn):
    """Mutator that replaces the value v at outputs[path[0]][path[1]]... by fn(v).

    A callable path entry is called with (outputs, ctx) to find its key.
    """
    def mutate(outputs, ctx):
        obj = outputs
        for key in path[:-1]:
            obj = obj[key(outputs, ctx) if callable(key) else key]
        obj[path[-1]] = fn(obj[path[-1]])
    return mutate


def _first_vanish(outputs, ctx):
    return next(k for k, v in outputs.items()
                if k.startswith("vanish:") and v["result"] != "vanishes")


def _first_own_settled(outputs, ctx):
    return next(i for i, row in enumerate(outputs["sweep"])
                if lemma_vanishes(row["m"], row["N"]))


def _multiplicity_key(outputs, ctx):
    return next(iter(outputs["multiplicities"]))


def _ladder_zero_row(outputs, ctx):
    return next(i for i, row in enumerate(outputs["ladder"]) if row["component"] == 3)


def _ladder_polar_row(outputs, ctx):
    return next(i for i, row in enumerate(outputs["ladder"])
                if row["K"] == 1 and row["component"] == 1)


def _swap_second_term(outputs, ctx, job_id):
    terms = outputs[job_id]["terms"]
    n, l, c = terms[1]
    terms[1] = [n, l, str(Fraction(c) + 1)]


CHECKS = {
    "headline": [
        (check_headline_vanishing, _mutate(["dim:6:36:18:crt-float", "value"], lambda v: v + 1)),
        (check_positive_controls, _mutate(["dim:8:32:8:exact", "value"], lambda v: 0)),
        (check_level_monotone, _mutate(["dim:9:9:9:exact", "value"], lambda v: v + 5)),
        (check_sweep_complete, _mutate(["sweep", 7, "method"], lambda v: "skipped")),
        (check_sweep_settled_zero, _mutate(["sweep", _first_own_settled, "value"], lambda v: 1)),
        (check_witnesses, _mutate([_first_vanish, "witness", "s"], lambda v: v + 1)),
    ],
    "level_one": [
        (check_level_one_zero, _mutate(["dim:10:1:exact", "value"], lambda v: 1)),
        (check_float_agrees, _mutate(["dim:5:1:float", "value"], lambda v: v + 1)),
    ],
    "moonshine": [
        (check_verify_tables, _mutate(["verify-tables", "class_sizes", 0], lambda v: v + 1)),
        (check_theta_direct, lambda o, c: _swap_second_term(o, c, "qexp:theta:9:3")),
        (check_eta_pentagonal, lambda o, c: _swap_second_term(o, c, "qexp:eta")),
        (check_named_forms, lambda o, c: _swap_second_term(o, c, "qexp:xi_1_12")),
        (check_quark, lambda o, c: _swap_second_term(o, c, "qexp:xi9_3A")),
        (check_xi9_consistency, _mutate(["xi9_consistency"], lambda v: False)),
        (check_multiplicities, _mutate(["multiplicities", _multiplicity_key, 2], lambda v: v + 1)),
        (check_ladder_polar, _mutate(["ladder", _ladder_polar_row, "real"], lambda v: v + 1e-7)),
        (check_ladder_zeros, _mutate(["ladder", _ladder_zero_row, "imag"], lambda v: 1e-300)),
        (check_exps_suite, _mutate(["exps_suite", "3:27"], lambda v: False)),
        (check_perm_norm, _mutate(["perm_norm", "norm"], lambda v: v + 1)),
    ],
}


def run_checks(workload: str, outputs: dict, ctx: dict) -> list[str]:
    """Names and messages of the checks that fail on these outputs."""
    failures = []
    for check, _ in CHECKS[workload]:
        try:
            check(outputs, ctx)
        except (CheckFailed, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            failures.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return failures


def self_test(workload: str, outputs: dict, ctx: dict) -> list[str]:
    """Names of the checks that still pass after their one-value mutation."""
    blind = []
    for check, mutate in CHECKS[workload]:
        bad = copy.deepcopy(outputs)
        mutate(bad, ctx)
        try:
            check(bad, ctx)
        except (CheckFailed, KeyError, TypeError, ValueError, ZeroDivisionError):
            continue
        blind.append(check.__name__)
    return blind
