"""Per-layer tracing from outside the package.

The tracer replaces public functions and methods of ``weightone`` with timing
wrappers, wherever the callers look them up: a function is replaced in every
``weightone`` module that binds it by name, and a method on its class.  Each
wrapped call is a span; a layer's self time is the time its spans ran minus
the time of spans they caused.  Spans are aggregated in memory per layer; the
worker reads and resets the aggregate at each pass boundary.  One private
method is wrapped as well, without a span: ``TraceTable._even_entry``, to
count the even-table entries built on a lookup miss.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions, as (module, name) or (module, class, method)
LAYERS = {
    "cli": [("cli", "main")],
    "sl2.words": [("sl2", "word_for")],
    "sl2.perm_character": [("sl2", "perm_character")],
    "cyclotomic.matmul": [("cyclotomic", "ExactCycMatrix", "__matmul__")],
    "cyclotomic.reduce": [("cyclotomic", "CycNumber", "canonical"),
                          ("cyclotomic", "CycNumber", "rational_value")],
    "weil.rep_build": [("weil", "WeilRep", "__init__")],
    "weil.table_build": [("weil", "TraceTable", "__init__")],
    "weil.table_lookup": [("weil", "TraceTable", "values"),
                          ("weil", "TraceTable", "values_complex")],
    "weil.lift_class": [("weil", "lift_class")],
    "weil.word_eval": [("weil", "WeilRep", "evaluate_word")],
    "dimension.dim": [("dimension", "dim_j1")],
    "dimension.rows": [("dimension", "umbral_sweep")],
    "vanishing.criterion": [("vanishing", "exponent_criterion"),
                            ("vanishing", "expsapp_suite")],
    "qseries": [("qseries", name) for name in
                ("theta_expansion", "theta_pm", "eta_expansion", "theta_quark",
                 "unary_theta", "explicit_form", "theta_decompose")],
    "umbral.load": [("umbral", "load_dataset")],
    "umbral.verify": [("umbral", name) for name in
                      ("verify_decompositions", "decompose_multiplicities",
                       "coefficient_parity_audit", "verify_xi9_consistency")],
    "rademacher.sum": [("rademacher", "truncated_sum"), ("rademacher", "cauchy_table"),
                       ("rademacher", "coset_reps")],
    "rademacher.multiplier": [("rademacher", "ThetaDualMultiplier", "__init__"),
                              ("rademacher", "ThetaDualMultiplier", "__call__")],
    "rademacher.kernel": [("rademacher", "kernel_r")],
}

# Cached getters whose cache_info() the traced run reports.
CACHED_GETTERS = {
    "weil_reps": ("weil", "get_weil_rep"),
    "trace_tables": ("weil", "get_trace_table"),
}

# The per-layer metrics of a traced run, each reported once per pass.
LAYER_METRICS = {
    "sl2.words": "count", "sl2.words_s": "s",
    "sl2.perm_character_calls": "count", "sl2.perm_character_s": "s",
    "cyclotomic.matmuls": "count", "cyclotomic.matmul_s": "s",
    "cyclotomic.reductions": "count", "cyclotomic.reduce_s": "s",
    "weil.reps_built": "count", "weil.rep_build_s": "s",
    "weil.tables_built": "count", "weil.table_build_s": "s", "weil.table_build_total_s": "s",
    "weil.table_lookups": "count", "weil.table_lookup_s": "s",
    "weil.even_entries_built": "count", "weil.lookup_hit_ratio": "ratio",
    "weil.lift_class_calls": "count", "weil.lift_class_s": "s",
    "weil.word_evals": "count", "weil.word_eval_s": "s",
    "dimension.queries": "count", "dimension.elements": "count",
    "dimension.dim_s": "s", "dimension.sweep_self_s": "s", "dimension.rows_self_s": "s",
    "vanishing.criterion_calls": "count", "vanishing.criterion_s": "s",
    "qseries.calls": "count", "qseries.s": "s",
    "umbral.load_s": "s", "umbral.verify_s": "s",
    "rademacher.cosets": "count", "rademacher.sum_s": "s",
    "rademacher.multiplier_s": "s", "rademacher.kernel_s": "s",
    "cli.self_s": "s", "unattributed_s": "s",
}


class Tracer:
    """Self time, inclusive time and call counts per layer."""

    def __init__(self):
        self._child_s: list[float] = []   # time of wrapped children, per open span
        self._depth: Counter = Counter()
        self.reset()

    def reset(self):
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.cosets = 0
        self.even_entries = 0
        self.dim_queries: list[tuple] = []

    def _span(self, layer: str, key: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            self._depth[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_s.pop()
                self._depth[layer] -= 1
                self.self_s[layer] += dt - child
                if not self._depth[layer]:
                    self.total_s[layer] += dt
                if self._child_s:
                    self._child_s[-1] += dt
                self.calls[key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every function named in LAYERS, in place, and count even entries."""
        mods = {name[len("weightone."):]: mod for name, mod in list(sys.modules.items())
                if name.startswith("weightone.")}
        after = {"rademacher.coset_reps": self._count_cosets,
                 "dimension.dim_j1": self._record_query}
        for layer, targets in LAYERS.items():
            for target in targets:
                key = ".".join(target)
                if len(target) == 3:
                    cls = getattr(mods[target[0]], target[1])
                    orig = cls.__dict__[target[2]]
                    setattr(cls, target[2], self._span(layer, key, orig))
                    continue
                orig = getattr(mods[target[0]], target[1])
                wrapped = self._span(layer, key, orig, after.get(key))
                bound = [m for m in mods.values() if getattr(m, target[1], None) is orig]
                for mod in bound:
                    setattr(mod, target[1], wrapped)
        table_cls = mods["weil"].TraceTable
        build_even = table_cls._even_entry

        def counted_even_entry(table, key):
            self.even_entries += 1
            return build_even(table, key)
        table_cls._even_entry = counted_even_entry

    def _count_cosets(self, args, kwargs, result):
        self.cosets += len(result)

    def _record_query(self, args, kwargs, result):
        self.dim_queries.append((args, kwargs))
