"""One benchmark worker: set up, then answer a job list twice (cold, then warm).

Run by ``run.py`` as a fresh single-threaded process.  It imports
``weightone`` from ``src/`` of the checkout it lives in, loads the bundled
data with its digest check, prints ``READY`` and, unless ``--setup-only``,
runs the workload's jobs once with every cache empty and once more in the
same process.  Each job is timed around one call
into a public entry point.  The last line of output is one JSON object with
the per-job times and outputs of both passes, the peak RSS, and with
``--trace 1`` the per-layer aggregates of each pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs as J  # noqa: E402
from tracing import CACHED_GETTERS, LAYER_METRICS, Tracer  # noqa: E402


def _import_package():
    import weightone
    from weightone import cli, dimension, rademacher, sl2, umbral, vanishing, weil  # noqa: F401
    where = Path(weightone.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"weightone imported from {where}, not from this checkout")
    return sys.modules


def _call_jobs(mods, dataset):
    """Public entry points that have no ``weightone`` command of their own."""
    umbral, vanishing, sl2 = (mods["weightone.umbral"], mods["weightone.vanishing"],
                              mods["weightone.sl2"])

    def xi9_consistency(order):
        return umbral.verify_xi9_consistency(order)

    def exps_suite(a_max):
        return {f"{m}:{aux}": res.vanishes
                for (m, aux), res in vanishing.expsapp_suite(a_max).items()}

    def multiplicities():
        return {f"{r}:{d}": list(umbral.decompose_multiplicities(dataset, r, d))
                for (r, d) in dataset.coefficients.rows}

    def perm_norm(n):
        total = count = 0
        for g in sl2.gamma0_image(1, n):
            total += sl2.perm_character(n, g) ** 2
            count += 1
        return {"norm": total, "elements": count}

    return {f.__name__: f for f in (xi9_consistency, exps_suite, multiplicities, perm_norm)}


def _run_job(job, cli, calls):
    """(seconds, ok, output text or value, error) for one job."""
    if job["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:
                code = exc.code
        dt = time.perf_counter() - t0
        ok = code == 0
        return dt, ok, out.getvalue(), None if ok else f"exit {code}: {err.getvalue()[-300:]}"
    fn = calls[job["fn"]]
    t0 = time.perf_counter()
    value = fn(**job["kwargs"])
    return time.perf_counter() - t0, True, value, None


def _layer_metrics(tracer: Tracer, mods, pass_s: float) -> dict:
    c, s = tracer.calls, tracer.self_s
    dimension = mods["weightone.dimension"]
    elements = 0
    for args, kwargs in tracer.dim_queries:
        m, level, aux = args[:3]
        aux = dimension.default_aux(m, level) if aux is None else aux
        backend = kwargs.get("backend", args[3] if len(args) > 3 else "exact")
        elements += dimension.estimated_cost(dimension.DimQuery(m, level, aux, backend))
    lookups = c["weil.TraceTable.values"]
    out = {
        "sl2.words": c["sl2.word_for"], "sl2.words_s": s["sl2.words"],
        "sl2.perm_character_calls": c["sl2.perm_character"],
        "sl2.perm_character_s": s["sl2.perm_character"],
        "cyclotomic.matmuls": c["cyclotomic.ExactCycMatrix.__matmul__"],
        "cyclotomic.matmul_s": s["cyclotomic.matmul"],
        "cyclotomic.reductions": c["cyclotomic.CycNumber.canonical"],
        "cyclotomic.reduce_s": s["cyclotomic.reduce"],
        "weil.reps_built": c["weil.WeilRep.__init__"], "weil.rep_build_s": s["weil.rep_build"],
        "weil.tables_built": c["weil.TraceTable.__init__"],
        "weil.table_build_s": s["weil.table_build"],
        "weil.table_build_total_s": tracer.total_s["weil.table_build"],
        "weil.table_lookups": lookups, "weil.table_lookup_s": s["weil.table_lookup"],
        "weil.even_entries_built": tracer.even_entries,
        "weil.lookup_hit_ratio": (lookups - tracer.even_entries) / lookups if lookups else 0.0,
        "weil.lift_class_calls": c["weil.lift_class"], "weil.lift_class_s": s["weil.lift_class"],
        "weil.word_evals": c["weil.WeilRep.evaluate_word"], "weil.word_eval_s": s["weil.word_eval"],
        "dimension.queries": c["dimension.dim_j1"], "dimension.elements": elements,
        "dimension.dim_s": tracer.total_s["dimension.dim"],
        "dimension.sweep_self_s": s["dimension.dim"],
        "dimension.rows_self_s": s["dimension.rows"],
        "vanishing.criterion_calls": c["vanishing.exponent_criterion"],
        "vanishing.criterion_s": s["vanishing.criterion"],
        "qseries.calls": sum(v for k, v in c.items() if k.startswith("qseries.")),
        "qseries.s": s["qseries"],
        "umbral.load_s": s["umbral.load"], "umbral.verify_s": s["umbral.verify"],
        "rademacher.cosets": tracer.cosets, "rademacher.sum_s": s["rademacher.sum"],
        "rademacher.multiplier_s": s["rademacher.multiplier"],
        "rademacher.kernel_s": s["rademacher.kernel"],
        "cli.self_s": s["cli"],
    }
    out["unattributed_s"] = pass_s - sum(s.values())
    if set(out) != set(LAYER_METRICS):
        raise RuntimeError("layer metrics drifted from tracing.LAYER_METRICS")
    return out


def _cache_counts(mods) -> dict:
    out = {}
    for name, (mod, fn) in CACHED_GETTERS.items():
        info = getattr(mods[f"weightone.{mod}"], fn).cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=J.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    mods = _import_package()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    dataset = mods["weightone.umbral"].load_dataset()
    setup_layers = {"umbral.load_s": tracer.self_s["umbral.load"]} if tracer else {}
    print("READY", flush=True)
    if args.setup_only:
        return 0

    cli = mods["weightone.cli"]
    calls = _call_jobs(mods, dataset)
    job_list = J.job_list(args.workload, args.seed)
    passes = []
    for _ in ("cold", "warm"):
        if tracer:
            tracer.reset()
        caches0 = _cache_counts(mods)
        ops = {}
        t_pass = time.perf_counter()
        for job in job_list:
            try:
                dt, ok, value, error = _run_job(job, cli, calls)
            except Exception:  # a failed operation is reported, not fatal
                dt, ok, value, error = 0.0, False, None, traceback.format_exc(limit=3)
            ops[job["id"]] = {"s": dt, "ok": ok, "out": value, "error": error}
        pass_s = time.perf_counter() - t_pass
        record = {"seconds": sum(op["s"] for op in ops.values()), "ops": ops}
        if tracer:
            record["layers"] = _layer_metrics(tracer, mods, pass_s)
            caches1 = _cache_counts(mods)
            record["caches"] = {name: {"hits": c["hits"] - caches0[name]["hits"],
                                       "misses": c["misses"] - caches0[name]["misses"],
                                       "size": c["size"]}
                                for name, c in caches1.items()}
        passes.append(record)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "rss_kb": rss_kb, "setup_layers": setup_layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
