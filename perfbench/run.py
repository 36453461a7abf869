"""Cold/warm pass benchmark of weightone.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  A run first starts SETUP_SAMPLES
setup-only workers, then rounds of fresh workers (``worker.py``) one at a
time until ``--seconds`` have passed, at least one round.  Each round answers
the workload's job list twice, cold and warm.  Outputs of every pass are
checked (``checks.py``), and every check is shown to fail on a one-value
mutation of the real output.  The last line printed is one JSON object:

* ``--trace 0``: setup_s, cold_s, warm_s and peak_rss_mb, medians over the
  rounds (setup_s over every worker started);
* ``--trace 1``: rounds alternate untraced and traced workers, and the
  metrics are the per-layer aggregates of each pass of the traced workers,
  plus the tracing overhead (traced minus untraced pass time).

Everything a run records also goes to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs as J  # noqa: E402
from tracing import CACHED_GETTERS, LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench-out"
PASSES = ("cold", "warm")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    env.pop("WEIGHTONE_DATA", None)
    return env


def start_worker(args, deadline: float, setup_only: bool = False, trace: int = 0):
    """Start a worker; return (seconds to READY, result object or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            proc.kill()
            _, err = proc.communicate()
            raise BenchError(f"worker failed during setup: {line}{err[-2000:]}")
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err[-2000:]}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def parse_outputs(job_list, ops) -> tuple[dict, int]:
    """Parsed outputs of one pass, and the number of failed operations."""
    outputs, failed = {}, 0
    for job in job_list:
        op = ops[job["id"]]
        if not op["ok"]:
            failed += 1
            print(f"failed: {job['id']}: {op['error']}", file=sys.stderr)
            continue
        outputs[job["id"]] = json.loads(op["out"]) if job["kind"] == "cli" else op["out"]
    return outputs, failed


def drop_elapsed(obj):
    if isinstance(obj, dict):
        return {k: drop_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [drop_elapsed(v) for v in obj]
    return obj


def check_round(args, job_list, ctx, result, self_tested: bool) -> tuple[int, int, list]:
    """(attempted, failed, problems) for the two passes of one worker."""
    attempted = failed = 0
    problems = []
    parsed = []
    for name, record in zip(PASSES, result["passes"]):
        outputs, nfail = parse_outputs(job_list, record["ops"])
        attempted += len(job_list)
        failed += nfail
        problems += [f"{name}: {p}" for p in checks.run_checks(args.workload, outputs, ctx)]
        parsed.append(drop_elapsed(outputs))
    if parsed[0] != parsed[1]:
        problems.append("the warm pass answered differently from the cold pass")
    if not self_tested and not problems:
        blind = checks.self_test(args.workload, parsed[0], ctx)
        problems += [f"self-test: {name} accepts a wrong value" for name in blind]
    return attempted, failed, problems


def med(results, value):
    """Median of value(result) over worker results."""
    return statistics.median([value(r) for r in results])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=J.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weightone" / "__init__.py").is_file():
        print(f"error: no weightone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    job_list = J.job_list(args.workload, args.seed)
    ctx = checks.load_context(ROOT, job_list)

    try:
        setups = [start_worker(args, deadline, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES)]
        rounds = []
        t_start = time.monotonic()
        while not rounds or time.monotonic() - t_start < args.seconds:
            for trace in ((0, 1) if args.trace else (0,)):
                setup_s, result = start_worker(args, deadline, trace=trace)
                rounds.append((trace, setup_s, result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    problems = []
    for i, (_, _, result) in enumerate(rounds):
        a, f, p = check_round(args, job_list, ctx, result, self_tested=i > 0)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    plain = [r for t, _, r in rounds if t == 0]
    traced = [r for t, _, r in rounds if t == 1]
    setups += [s for t, s, _ in rounds if t == 0]
    if args.trace:
        metrics = {}
        for k, name in enumerate(PASSES):
            for key, unit in LAYER_METRICS.items():
                metrics[f"{key}.{name}"] = {
                    "value": med(traced, lambda r: r["passes"][k]["layers"][key]), "unit": unit}
            for cache in CACHED_GETTERS:
                for field in ("hits", "misses"):
                    metrics[f"cache.{cache}.{field}.{name}"] = {
                        "value": med(traced, lambda r: r["passes"][k]["caches"][cache][field]),
                        "unit": "count"}
            overhead = (med(traced, lambda r: r["passes"][k]["seconds"])
                        - med(plain, lambda r: r["passes"][k]["seconds"]))
            metrics[f"trace.overhead_s.{name}"] = {"value": overhead, "unit": "s"}
        metrics["umbral.load_s.setup"] = {
            "value": med(traced, lambda r: r["setup_layers"]["umbral.load_s"]), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cold_s": {"value": med(plain, lambda r: r["passes"][0]["seconds"]), "unit": "s"},
            "warm_s": {"value": med(plain, lambda r: r["passes"][1]["seconds"]), "unit": "s"},
            "peak_rss_mb": {"value": med(plain, lambda r: r["rss_kb"] / 1024), "unit": "MB"},
        }

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setups_s": setups, "problems": problems,
              "rounds": [{"trace": t, "setup_s": s,
                          "passes": [{"seconds": p["seconds"],
                                      "ops": {k: v["s"] for k, v in p["ops"].items()},
                                      **{key: p[key] for key in ("layers", "caches") if key in p}}
                                     for p in r["passes"]],
                          "rss_kb": r["rss_kb"]} for t, s, r in rounds],
              "metrics": metrics}
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
