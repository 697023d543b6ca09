"""Print one SHA-256 per `sdp.solve` result over one pass of a benchmark workload,
or compare the solves of this checkout with those of another.

    python3 tools/solve_fingerprints.py --workload qubit_sweeps > change.txt
    python3 tools/solve_fingerprints.py --workload all --against ../parent
    python3 tools/solve_fingerprints.py --workload all --against HEAD
    python3 tools/solve_fingerprints.py --workload qutrit_sweeps --ignore-values --against HEAD

Each hash covers the primal and dual iterates, the dual slacks, both values, the
gap, the status, the iteration count, both residuals and the dropped rows, so equal
lines mean bit-for-bit equal solves; `regularised_steps` is left out, so that
checkouts from before it still compare. `--ignore-iterations` leaves the iteration
count out too, so that equal lines mean the same returned solution, however many
Newton steps it took: a change that only stops some solves sooner compares equal. `--ignore-values` hashes
only the status, the iteration count and the dropped rows, so that equal lines mean
solves that ended the same way after the same number of Newton steps: the check for a
change that moves the iterates at rounding level only. `--root` names the checkout whose
`perfbench/workloads.py` and `src/` are used (default: this one). Ops run once each,
in `workloads.build` order, each after a `# <op key>` line. `--against ROOT` runs
each workload at both checkouts in subprocesses and compares each op's hashes as
multisets, so a solve one checkout skips does not shift the others. It prints
`<workload>: N solves differ (P only here, Q only at ROOT; M here, K at ROOT)`, where
M and K are the solve counts of the `--root` checkout and of ROOT, then the key of each
op whose solves differ with its own two counts, and exits 1 if any solve differs.
When ROOT is not a directory, it names a git revision of the `--root` checkout: that
revision is exported with `git archive` into a temporary directory, which is removed
after the comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

WORKLOADS = ("qubit_sweeps", "qutrit_sweeps", "seesaw")
parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
parser.add_argument("--against", help="another checkout, or a git revision of this one, to compare with")
parser.add_argument("--ignore-iterations", action="store_true", help="leave the iteration count out of each hash")
parser.add_argument("--ignore-values", action="store_true",
                    help="hash only the status, the iteration count and the dropped rows")


@contextlib.contextmanager
def checkout(root: Path, against: str):
    """The directory of `against`: itself, or an export of that revision of `root`."""
    if Path(against).is_dir():
        yield Path(against)
        return
    archive = subprocess.run(["git", "-C", str(root), "archive", against],
                             stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="fingerprints-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def solves_by_op(root: Path, workload: str, flags: list[str]) -> dict[str, list[str]]:
    """The hashes of one pass at `root`, listed per op key, with the hashing `flags`."""
    out = subprocess.run([sys.executable, __file__, "--workload", workload, "--root", str(root), *flags],
                         capture_output=True, text=True, check=True).stdout
    ops: dict[str, list[str]] = {}
    for line in out.splitlines():
        if line.startswith("# "):
            ops[key := line[2:]] = []
        else:
            ops[key].append(line)
    return ops


def compare(root: Path, other: Path, workload: str, label: str, flags: list[str]) -> bool:
    """Print how many of the workload's solves differ between the checkouts, and where;
    `label` names `other` in the output."""
    mine, theirs = (solves_by_op(side, workload, flags) for side in (root, other))
    only = {}  # op key -> (solves only here, solves only at `other`)
    for key in mine | theirs:
        here, there = Counter(mine.get(key, [])), Counter(theirs.get(key, []))
        if here != there:
            only[key] = ((here - there).total(), (there - here).total())
    n_here, n_there = (sum(counts[i] for counts in only.values()) for i in (0, 1))
    n_mine, n_theirs = (sum(map(len, ops.values())) for ops in (mine, theirs))
    print(f"{workload}: {n_here + n_there} solves differ ({n_here} only here, {n_there} only at {label}; "
          f"{n_mine} here, {n_theirs} at {label})",
          *(f"{key}: {a} only here, {b} only there" for key, (a, b) in only.items()), sep="\n  ", flush=True)
    return bool(only)


if __name__ == "__main__":
    args = parser.parse_args()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.against:
        flags = [f"--{name}" for name in ("ignore-iterations", "ignore-values") if vars(args)[name.replace("-", "_")]]
        with checkout(args.root, args.against) as other:
            differ = [compare(args.root, other, name, args.against, flags) for name in workloads]
        sys.exit(int(any(differ)))
    sys.path.insert(0, str(args.root.resolve() / "perfbench"))
    import numpy as np
    import workloads as bench  # puts that checkout's src/ first on the path

    from steercert import sdp

    def fingerprint(sol) -> str:
        h = hashlib.sha256()
        iterations = () if args.ignore_iterations else (sol.iterations,)
        if args.ignore_values:
            h.update(repr((sol.status.value, *iterations, sol.dropped_rows)).encode())
            return h.hexdigest()
        for a in (*sol.primal, sol.dual, *sol.dual_slacks):
            h.update(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())
        h.update(repr((sol.primal_value, sol.dual_value, sol.gap, sol.status.value, *iterations,
                       sol.primal_residual, sol.dual_residual, sol.dropped_rows)).encode())
        return h.hexdigest()

    solve = sdp.solve
    sdp.solve = lambda *a, **kw: print(fingerprint(sol := solve(*a, **kw)), flush=True) or sol
    for op in (op for name in workloads for op in bench.build(name)):
        print(f"# {op.key}", flush=True)
        bench.execute(op)
