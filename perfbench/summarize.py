"""Medians, quartiles and spreads of recorded benchmark runs.

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload headline --seed $s --seconds 15 --trace 0
    done
    python3 perfbench/summarize.py

Reads every ``.perfbench-out/<workload>-seed<n>-trace<t>.json`` that
``run.py`` wrote and prints, per workload and metric, the median and the
quartiles (``statistics.quantiles(values, n=4)``) over the recorded seeds,
and the spread: the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"


def main() -> int:
    values = defaultdict(list)
    for path in sorted(OUT_DIR.glob("*.json")):
        rec = json.loads(path.read_text())
        for name, metric in rec["metrics"].items():
            values[(rec["workload"], rec["trace"], name, metric["unit"])].append(metric["value"])
    if not values:
        print(f"no recorded runs under {OUT_DIR}", file=sys.stderr)
        return 1
    print(f"{'workload':10s} {'metric':40s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    for (workload, trace, name, unit), vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{workload:10s} {name + ' [' + unit + ']':40s} {len(vals):3d} {med:12.5g} "
              f"{q1:12.5g} {q3:12.5g} {spread:8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
