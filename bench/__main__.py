"""``python -m bench``: run the benchmark.

With ``--workload`` and ``--trace`` it is one run of one workload and
ends with the one-line JSON result; without them it runs every workload
both ways, each in a process of its own, and writes one versioned JSON.
"""

import os
import sys

# Before numpy is imported anywhere: threaded OpenBLAS on the two-core
# reference host made tiny_convnet's batch-1 run read 12-32 ms in its
# first second against a steady 0.93 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
# Replica processes are spawned, not forked: they find the program the
# same way this process does.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p and p != _SRC])

DEFAULT_SECONDS = 20


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__)
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the inputs and arrival schedules")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run: 0 end-to-end metrics, 1 the "
                             "traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="sub-second steps: checks the harness, "
                             "measures nothing worth keeping")
    parser.add_argument("--sets", type=int, default=1,
                        help="full sets to run; more than one reports "
                             "each metric's spread against its bound")
    parser.add_argument("--out", help="where the versioned JSON goes "
                                      "(default bench/out/bench.json)")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    configured = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if configured:
        print(f"refusing to run: {', '.join(configured)} set; results "
              f"must be those of the default configuration",
              file=sys.stderr)
        return 2

    from .workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return _one_run(args)
    from . import report
    return report.run_sets(args)


def _one_run(args) -> int:
    import json

    from . import runner
    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    plan = runner.SMOKE if args.smoke else runner.Plan(args.seconds)
    print(f"{workload.name} seed {args.seed} "
          f"{'traced' if args.trace else 'end to end'} "
          f"({plan.seconds:g} s): {workload.why}")
    run = runner.run_traced if args.trace else runner.run_end_to_end
    record = run(workload, args.seed, plan)
    runner.print_metrics(record)
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record, handle)
    print(json.dumps(runner.contract_line(record)), flush=True)
    return 0


def _terminated(signum, frame):
    # Leave through the ``finally`` below, not past it.
    sys.exit(128 + signum)


if __name__ == "__main__":
    import signal

    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        # On every way out: a run leaves no process behind, not even
        # multiprocessing's resource tracker.
        from .host import stop_children
        stop_children()
    sys.exit(code)
