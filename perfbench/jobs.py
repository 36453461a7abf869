"""The three job lists of the benchmark.

A job is one call into one public entry point of ``weightone``.  ``cli`` jobs
run ``weightone.cli.main(argv)`` in-process and are checked through their exit
code and JSON output; ``call`` jobs name a public function that has no
command of its own (see ``worker._call_jobs``).  Every list is fixed and runs
in the order written.  The seed only picks the evaluation point tau of the
moonshine Rademacher ladder, which changes the values but not the work.  The
order is not shuffled because peak RSS depends on it: on ``level_one`` two
orders differ by 15 MB, which would make the seed, not the program, move
``peak_rss_mb``.
"""

from __future__ import annotations

import random

# (m, N, M): the three vanishing theorems, each also at a second admissible M.
HEADLINE_VANISHING = ((3, 144, 36, 72), (6, 36, 18, 36), (30, 36, 90, 180))
# (m, N, M): the positive controls, plus the level-36 space that contains
# J_{1,9}(9) and so bounds it from above.
HEADLINE_POSITIVE = ((8, 32, 8), (9, 9, 9))
HEADLINE_CONTAINS_9_9 = (9, 36, 9)

LEVEL_ONE_EXACT = tuple(range(1, 11))
LEVEL_ONE_FLOAT = tuple(range(1, 9))

QEXP_FORM_ORDER = 120          # xi_1_8, xi_1_12, xi9_3A, xi9_6A
QUARK_ORDER_NUM = 40           # quark window 40/3, matched against xi9_3A at 40
ETA_ORDER = 500
THETA_CASES = ((9, 3), (9, 6), (8, 4), (30, 7))
THETA_ORDER = 200
XI9_ORDER = 40
LADDER_LEVEL, LADDER_INDEX, LADDER_K = 3, 9, 20
EXPS_A_MAX = 10
PERM_MODULUS = 9


def _cli(job_id: str, *argv) -> dict:
    return {"id": job_id, "kind": "cli", "argv": [str(a) for a in argv]}


def _call(job_id: str, fn: str, **kwargs) -> dict:
    return {"id": job_id, "kind": "call", "fn": fn, "kwargs": kwargs}


def _dim(m, n, aux, backend="exact") -> dict:
    return _cli(f"dim:{m}:{n}:{aux}:{backend}", "dim", "--m", m, "--N", n,
                "--M", aux, "--backend", backend)


def headline() -> list[dict]:
    jobs = [_cli("sweep", "sweep")]
    pairs = set()
    for m, n, aux, aux2 in HEADLINE_VANISHING:
        jobs += [_dim(m, n, aux), _dim(m, n, aux, "crt-float"), _dim(m, n, aux2)]
        pairs |= {(m, aux), (m, aux2)}
    for m, n, aux in HEADLINE_POSITIVE + (HEADLINE_CONTAINS_9_9,):
        jobs.append(_dim(m, n, aux))
        pairs.add((m, aux))
    # The exponent criterion at every (m, M) above; these also cover the
    # (m, M) of each sweep row that needs a dimension.
    jobs += [_cli(f"vanish:{m}:{aux}", "vanish", "--m", m, "--M", aux)
             for m, aux in sorted(pairs)]
    return jobs


def level_one() -> list[dict]:
    jobs = [_cli(f"dim:{m}:1:exact", "dim", "--m", m, "--N", 1) for m in LEVEL_ONE_EXACT]
    jobs += [_cli(f"dim:{m}:1:float", "dim", "--m", m, "--N", 1, "--backend", "float")
             for m in LEVEL_ONE_FLOAT]
    return jobs


def moonshine(seed: int) -> list[dict]:
    rng = random.Random(seed)
    tau_re = round(rng.uniform(-0.5, 0.5), 6)
    tau_im = round(rng.uniform(0.8, 1.0), 6)
    jobs = [_cli("verify-tables", "verify-tables")]
    for name in ("xi_1_8", "xi_1_12", "xi9_3A", "xi9_6A"):
        jobs.append(_cli(f"qexp:{name}", "qexp", name, "--order", QEXP_FORM_ORDER))
    jobs.append(_cli("qexp:quark", "qexp", "quark", "--a", 1, "--b", 1,
                     "--order", f"{QUARK_ORDER_NUM}/3"))
    jobs.append(_cli("qexp:eta", "qexp", "eta", "--order", ETA_ORDER))
    for m, r in THETA_CASES:
        jobs.append(_cli(f"qexp:theta:{m}:{r}", "qexp", "theta", "--m", m, "--r", r,
                         "--order", THETA_ORDER))
    jobs.append(_call("xi9_consistency", "xi9_consistency", order=XI9_ORDER))
    jobs.append(_cli("ladder", "rademacher", "--n", LADDER_LEVEL, "--m", LADDER_INDEX,
                     "--K", LADDER_K, "--tau-re", tau_re, "--tau-im", tau_im, "--cauchy"))
    jobs.append(_call("exps_suite", "exps_suite", a_max=EXPS_A_MAX))
    jobs.append(_call("multiplicities", "multiplicities"))
    jobs.append(_call("perm_norm", "perm_norm", n=PERM_MODULUS))
    return jobs


WORKLOADS = ("headline", "level_one", "moonshine")


def job_list(workload: str, seed: int) -> list[dict]:
    """The job list of a workload for a seed."""
    if workload == "moonshine":
        return moonshine(seed)
    return {"headline": headline, "level_one": level_one}[workload]()
