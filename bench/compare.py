"""``python -m bench.compare A.json B.json``: hold B against A.

One row per (workload, end-to-end metric): both medians, how much worse
B reads as a share of A, the metric's bound, and a verdict —

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: it is not, but the runs of either side spread wider
  than the bound, so "no change" cannot be told from a change (unless
  every run of B reads better than every run of A);
* ``ok`` otherwise.

Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from . import stats
from .metrics import END_TO_END
from .report import bounds, values


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Dict[str, object]:
    sign = 1.0 if better == "lower" else -1.0
    mid_a, mid_b = stats.median(a), stats.median(b)
    worse_by = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    spread = max(stats.spread_share(a), stats.spread_share(b))
    all_better = (max(b) < min(a)) if better == "lower" \
        else (min(b) > max(a))
    if worse_by > bound:
        word = "worse"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "ok"
    return {"a": mid_a, "b": mid_b, "worse_by": worse_by,
            "spread": spread, "bound": bound, "verdict": word}


def compare(doc_a: Dict, doc_b: Dict) -> List[Dict[str, object]]:
    limit = bounds()
    rows = []
    for workload in doc_a["sets"][0]:
        if workload not in doc_b["sets"][0]:
            continue
        for metric in END_TO_END:
            row = verdict(
                values(doc_a["sets"], workload, "end_to_end", metric.name),
                values(doc_b["sets"], workload, "end_to_end", metric.name),
                metric.better, limit[metric.name])
            rows.append({"workload": workload, "metric": metric.name,
                         "unit": metric.unit, **row})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(f"{'workload':<18}{'metric':<22}{'A':>12}{'B':>12}"
          f"{'worse by':>10}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<18}{row['metric']:<22}"
              f"{row['a']:>12.6g}{row['b']:>12.6g}"
              f"{row['worse_by']:>+10.3f}{row['bound']:>7.2f}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
