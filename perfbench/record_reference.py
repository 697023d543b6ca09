"""Record the outputs every benchmark op is checked against.

    python3 perfbench/record_reference.py

Runs each op of every workload once and writes reference.json: the status
and value (p_guess, or LHS robustness) of each certification point and LHS
test, the see-saw ceiling log2 d, and, for information only, the outcome of
each see-saw start. Record it at a commit whose outputs are trusted; a later
change that moves a value by more than workloads.TOLERANCE fails the op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from steercert import cli  # noqa: E402


def main() -> int:
    ops, starts = {}, {}
    for name in workloads.WORKLOADS:
        for op in workloads.build(name):
            outcome = workloads.execute(op)
            if outcome.status != "optimal":
                raise SystemExit(f"{op.key}: status {outcome.status}; no reference recorded")
            if op.kind == "seesaw":
                starts[op.key] = {"final_h_min": outcome.value, "converged": outcome.converged}
            else:
                ops[op.key] = {"status": outcome.status, "value": outcome.value}
    lambdas = cli.presets()["fig6_seesaw"].state["lambdas"]
    reference = {
        "seesaw_ceiling": float(np.log2(len(lambdas))),
        "ops": ops,
        "seesaw_starts": starts,
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(ops)} ops and {len(starts)} see-saw starts in {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
