#!/usr/bin/env python3
"""Write reference_dims.json: the cohomology workload's dimensions at seed 0.

    python3 perfbench/make_reference.py

Every seed presents isomorphic algebras and modules, so one table serves
all seeds.  Regenerate only on purpose, when an answer is known to change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402,F401  (pins the BLAS threads)
import workloads  # noqa: E402

workloads.load_reference = lambda: {}
wl = workloads.setup("cohomology", 0, HERE / "out" / "reference")
_, records = run.run_pass(wl.jobs)
table = {}
for job, out, _ in records:
    res = out["report"]["results"]
    table[job.meta["key"]] = [res["restricted_dim"], res["classical_dim"],
                              res.get("comparison_kernel_dim")]
workloads.REFERENCE.write_text(json.dumps(dict(sorted(table.items())), indent=0) + "\n",
                               encoding="utf-8")
print(f"{len(table)} entries written to {workloads.REFERENCE}")
