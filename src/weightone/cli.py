"""Command-line surface.

Exit codes: 0 success, 2 usage or argument error, 3 resource budget exceeded,
4 bundled-data digest mismatch, 1 any other verification failure.  All output
is deterministic for a fixed configuration: JSON with sorted keys and floats
printed through a fixed 12-significant-digit format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import dimension, qseries, umbral, vanishing
from .arith import divisors
from .dimension import DEFAULT_BUDGET, BudgetExceeded
from .rademacher import RademacherParams, cauchy_table, truncated_sum
from .umbral import DataIntegrityError


def _fmt(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, complex):
        return [_fmt(value.real), _fmt(value.imag)]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _emit(obj, fmt: str):
    if fmt == "json":
        print(json.dumps(_fmt(obj), sort_keys=True))
    elif fmt == "csv":
        rows = obj if isinstance(obj, list) else [obj]
        keys = sorted({k for r in rows for k in r})
        print(",".join(keys))
        for r in rows:
            print(",".join(str(_fmt(r.get(k, ""))) for k in keys))
    else:
        rows = obj if isinstance(obj, list) else [obj]
        for r in rows:
            print("  ".join(f"{k}={_fmt(v)}" for k, v in sorted(r.items())))


def _parse_order(text: str) -> Fraction:
    try:
        order = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"order {text!r} has a zero denominator") from None
    if order <= 0:
        raise ValueError("order must be positive")
    return order


def _within_budget(work: int, budget: int, what: str):
    if work > budget:
        raise BudgetExceeded(f"estimated {what} {work} exceeds {budget}")


def _cmd_qexp(args) -> int:
    order = _parse_order(args.order)
    name = args.name
    index = int(name[8:].split(",")[0]) if name.startswith("S_unary(") else args.m
    if index is not None and index < 1:
        raise ValueError("index m must be positive")
    if name == "theta":
        if args.m is None or args.r is None:
            raise ValueError("theta requires --m and --r")
        series = qseries.theta_expansion(args.m, args.r, order)
    elif name == "theta_pm":
        if args.m is None or args.r is None:
            raise ValueError("theta_pm requires --m, --r (and --sign)")
        series = qseries.theta_pm(args.m, args.r, args.sign, order)
    elif name == "quark":
        if args.a is None or args.b is None:
            raise ValueError("quark requires --a and --b")
        series = qseries.theta_quark(args.a, args.b, order)
    elif name == "eta":
        _within_budget((int(order) + 1) ** 2, args.budget, "eta work")  # term products
        series = qseries.eta_expansion(order)
    else:
        series = qseries.explicit_form(name, order)
    print(series.to_json())
    return 0


def _cmd_dim(args) -> int:
    aux = args.M if args.M is not None else dimension.default_aux(args.m, args.N)
    value = dimension.dim_j1(args.m, args.N, aux, backend=args.backend,
                             budget=args.budget)
    _emit({"m": args.m, "N": args.N, "M": aux, "method": "inner-product-formula",
           "value": value, "backend": args.backend}, args.format)
    return 0


def _cmd_vanish(args) -> int:
    if args.M >= 1:  # residues s times divisors t; 4M alone stops a huge M unfactored
        _within_budget(4 * args.M, args.budget, "vanish work")
        _within_budget(4 * args.M * len(divisors(args.M)), args.budget, "vanish work")
    outcome = vanishing.exponent_criterion(args.m, args.M)
    rec = {"m": args.m, "M": args.M,
           "result": "vanishes" if outcome.vanishes else "inconclusive"}
    if outcome.witness is not None:
        rec["witness"] = {"r": outcome.witness.r, "s": outcome.witness.s,
                          "t": outcome.witness.t}
    _emit(rec, args.format)
    return 0


def _cmd_sweep(args) -> int:
    dataset = umbral.load_dataset(args.data_dir)
    rows = dimension.umbral_sweep(dataset, budget=args.budget)
    out = [{"root_system": r.root_system, "class": r.class_name, "m": r.m,
            "N": r.level, "method": r.method, "value": r.value,
            "vanishes": r.vanishes, "exceptional": r.exceptional} for r in rows]
    _emit(out, args.format)
    return 0


def _cmd_verify_tables(args) -> int:
    dataset = umbral.load_dataset(args.data_dir)
    report = {}
    report["class_records"] = len(dataset.class_records)
    report["class_sizes"] = list(umbral.class_sizes(dataset.character_table))
    problems = umbral.verify_decompositions(dataset)
    report["decomposition_rows"] = len(dataset.decompositions.rows)
    report["decomposition_mismatches"] = problems
    for (r, d) in dataset.coefficients.rows:
        umbral.decompose_multiplicities(dataset, r, d)
    report["coefficient_rows"] = len(dataset.coefficients.rows)
    audit = umbral.coefficient_parity_audit(dataset)
    report["parity_violations"] = audit
    report["xi9_theta_coefficients_match"] = umbral.verify_xi9_consistency(3)
    ok = not problems and not audit and report["xi9_theta_coefficients_match"]
    report["ok"] = ok
    _emit(report, args.format)
    return 0 if ok else 1


def _cmd_rademacher(args) -> int:
    if args.n >= 1 and args.K >= 1:  # rows c times columns d
        _within_budget(-(-args.K // args.n) * (2 * args.K**2 - 1), args.budget, "coset count")
    params = RademacherParams(level=args.n, index=args.m,
                              truncation=args.K, kernel_depth=args.depth)
    tau = complex(args.tau_re, args.tau_im)
    if args.cauchy:
        rows = cauchy_table(params, tau, list(range(1, args.K + 1)))
        out = [{"K": K, "component": r, "real": re, "imag": im,
                "cauchy_delta": None if delta != delta else delta}
               for (K, r, re, im, delta) in rows]
        _emit(out, args.format)
        return 0
    vec = truncated_sum(params, tau)
    _emit({"level": args.n, "index": args.m, "K": args.K, "depth": args.depth,
           "tau": [tau.real, tau.imag],
           "components": [[v.real, v.imag] for v in vec]}, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="weightone",
                                 description="Weight-one Jacobi form workbench")
    ap.add_argument("--format", choices=("json", "csv", "text"), default="json")
    ap.add_argument("--data-dir", default=os.environ.get("WEIGHTONE_DATA"),
                    help="override the bundled data directory")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="estimated work ceiling: elements for dim and sweep, "
                         "(order+1)^2 term products for qexp eta, 4M|divisors(M)| "
                         "residues for vanish, ceil(K/n)(2K^2-1) cosets for rademacher")
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qexp", help="print an exact q-expansion as JSON")
    q.add_argument("name", help="xi_1_8, xi_1_12, xi9_3A, xi9_6A, theta, "
                                "theta_pm, quark, eta, S_unary(m,r), S_E8_component(i)")
    q.add_argument("--order", required=True)
    q.add_argument("--m", type=int)
    q.add_argument("--r", type=int)
    q.add_argument("--sign", type=int, default=-1)
    q.add_argument("--a", type=int)
    q.add_argument("--b", type=int)
    q.set_defaults(func=_cmd_qexp)

    d = sub.add_parser("dim", help="dimension of the weight-one space")
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--N", type=int, required=True)
    d.add_argument("--M", type=int, default=None)
    d.add_argument("--backend", choices=dimension.BACKENDS, default="exact")
    d.set_defaults(func=_cmd_dim)

    v = sub.add_parser("vanish", help="exponent-based vanishing criterion")
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--M", type=int, required=True)
    v.set_defaults(func=_cmd_vanish)

    s = sub.add_parser("sweep", help="settle vanishing for the bundled class data")
    s.set_defaults(func=_cmd_sweep)

    t = sub.add_parser("verify-tables", help="verify the bundled data tables")
    t.set_defaults(func=_cmd_verify_tables)

    r = sub.add_parser("rademacher", help="truncated Rademacher partial sums")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--K", type=int, required=True)
    r.add_argument("--tau-re", type=float, default=0.1)
    r.add_argument("--tau-im", type=float, default=0.8)
    r.add_argument("--depth", type=int, default=30)
    r.add_argument("--cauchy", action="store_true")
    r.set_defaults(func=_cmd_rademacher)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.budget <= 0:
            raise ValueError("budget must be positive")
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DataIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if "digest" in str(exc) else 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        # failed integrality, lift or snap certificates, int64 headroom guards
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
