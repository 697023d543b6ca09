"""Print one SHA-256 per `sdp.solve` result over one pass of a benchmark workload.

    python3 tools/solve_fingerprints.py --workload qubit_sweeps > change.txt
    python3 tools/solve_fingerprints.py --workload qubit_sweeps --root ../parent > parent.txt
    diff parent.txt change.txt

Each hash covers the primal and dual iterates, the dual slacks, both values,
the gap, the status, the iteration count, both residuals and the dropped
rows, so equal lines mean bit-for-bit equal solves. `--root` names the
checkout whose `perfbench/workloads.py` and `src/` are used (default: this
one). Ops run once each, in the order `workloads.build` lists them.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--workload", required=True, help="qubit_sweeps, qutrit_sweeps or seesaw")
parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])

if __name__ == "__main__":
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "perfbench"))
    import numpy as np
    import workloads  # puts that checkout's src/ first on the path

    from steercert import sdp

    def fingerprint(sol) -> str:
        h = hashlib.sha256()
        for a in (*sol.primal, sol.dual, *sol.dual_slacks):
            h.update(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())
        h.update(repr((sol.primal_value, sol.dual_value, sol.gap, sol.status.value, sol.iterations,
                       sol.primal_residual, sol.dual_residual, sol.dropped_rows)).encode())
        return h.hexdigest()

    solve = sdp.solve
    sdp.solve = lambda *a, **kw: print(fingerprint(sol := solve(*a, **kw)), flush=True) or sol
    for op in workloads.build(args.workload):
        print(f"# {op.key}", flush=True)
        workloads.execute(op)
