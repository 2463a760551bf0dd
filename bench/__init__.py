"""The repo's serving benchmark: four workloads, nine end-to-end metrics,
and a per-layer ledger measured from outside the program.

Run ``python -m bench --seed 0`` from the repo root; see ``README.md``
beside this file for what each workload and metric is for.
"""

import os

SCHEMA_VERSION = 1
# Everything a run writes (records, trace files, scratch plan caches)
# goes here; the root .gitignore names it.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
