"""Full sets: every workload, untraced then traced, each in its own
process; one versioned JSON; spreads against the bounds."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

from . import OUT_DIR, SCHEMA_VERSION, host, stats
from .metrics import END_TO_END
from .workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODES = ((0, "end_to_end"), (1, "traced"))
# The contract lets one run take this long.
RUN_TIMEOUT_S = 180


def bounds() -> Dict[str, float]:
    """Regression bound of every end-to-end metric, from
    ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["bound"]
                for m in json.load(handle)["end_to_end"]}


def _child(name: str, trace: int, seed: int, args) -> Dict[str, object]:
    """One run in a fresh process: peak memory and lazy set-up are then
    that workload's own."""
    os.makedirs(OUT_DIR, exist_ok=True)
    handle, path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
    os.close(handle)
    command = [sys.executable, "-m", "bench", "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--record", path]
    if args.smoke:
        command.append("--smoke")
    try:
        subprocess.run(command, cwd=ROOT, check=True,
                       timeout=RUN_TIMEOUT_S)
        with open(path) as record:
            return json.load(record)
    finally:
        os.unlink(path)


def values(sets: List[Dict], workload: str, mode: str, metric: str
           ) -> List[float]:
    """One metric's value in every set that has a number for it."""
    found = [s[workload][mode]["metrics"][metric]["value"] for s in sets
             if workload in s]
    return [v for v in found if v is not None]


def summarize(sets: List[Dict]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """workload -> end-to-end metric -> median, spread and bound."""
    limit = bounds()
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in sets[0]:
        row = table[workload] = {}
        for metric in END_TO_END:
            found = values(sets, workload, "end_to_end", metric.name)
            row[metric.name] = {
                "median": stats.median(found), "unit": metric.unit,
                "runs": len(found), "spread": stats.spread_share(found),
                "mad": stats.mad_share(found),
                "bound": limit[metric.name]}
    return table


def separation(sets: List[Dict]) -> Dict[str, Dict[str, Optional[float]]]:
    """How the workloads pull the layers apart: the shares of a request
    that the executor, the serving overhead and the data plane take."""
    table: Dict[str, Dict[str, Optional[float]]] = {}
    for workload in sets[0]:
        def med(mode: str, metric: str) -> Optional[float]:
            found = values(sets, workload, mode, metric)
            return stats.median(found) if found else None

        unloaded = med("end_to_end", "unloaded_p50_ms")
        per_request_us = 1e6 / med("end_to_end", "throughput_rps")
        overhead = med("traced", "engine.overhead_sat_us")
        data_plane_us = (med("traced", "shm.write_us_b8")
                         + med("traced", "shm.read_us_b8")) / 8 \
            + med("traced", "engine.admit_us")
        table[workload] = {
            "executor_share_of_unloaded_p50":
                med("traced", "executor.run_b1_ms") / unloaded,
            "serving_overhead_share_saturated":
                overhead / per_request_us if overhead is not None else None,
            "data_plane_share_saturated": data_plane_us / per_request_us,
        }
    return table


def run_sets(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    sets: List[Dict] = []
    for index in range(args.sets):
        # A set per seed, as the driver does it: the spread then covers
        # what the seed changes as well as what the host does.
        seed = args.seed + index
        sets.append({name: {mode: _child(name, trace, seed, args)
                            for trace, mode in MODES} for name in names})
    document = {
        "schema": SCHEMA_VERSION, "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke,
        "host": host.fingerprint(),
        "summary": summarize(sets), "separation": separation(sets),
        "sets": sets,
    }
    path = args.out or os.path.join(OUT_DIR, "bench.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print_summary(document)
    print(f"wrote {os.path.relpath(path)}")
    correct = all(run["correct"] for s in sets for modes in s.values()
                  for run in modes.values())
    return 0 if correct else 1


def print_summary(document: Dict[str, object]) -> None:
    many = len(document["sets"]) > 1
    for workload, row in document["summary"].items():
        print(f"\n{workload}")
        for name, cell in row.items():
            line = f"  {name:<22} {cell['median']:>12.6g} {cell['unit']:<6}"
            if many:
                verdict = "ok" if cell["spread"] <= cell["bound"] \
                    else "SPREAD OVER BOUND"
                line += (f" spread {cell['spread']:.3f}  bound "
                         f"{cell['bound']:.2f}  {verdict}")
            print(line)
        for name, value in document["separation"][workload].items():
            shown = "n/a" if value is None else f"{value:.3f}"
            print(f"  {name:<38} {shown}")
