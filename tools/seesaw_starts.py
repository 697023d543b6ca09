"""Run `fig6_seesaw` see-saw starts one by one and report how each ends, or pair
the starts of this checkout with those of another.

    python3 tools/seesaw_starts.py --starts 0-29
    python3 tools/seesaw_starts.py --starts 0-29 --against ../parent
    python3 tools/seesaw_starts.py --starts 0-29 --against HEAD

Each start s runs the `fig6_seesaw` preset with `seeds=(s,)` through
`cli.run_seesaw`, as the benchmark's `seesaw` ops do, and prints one line: the
start, its stop reason, its shortfall from the ceiling of 1 bit, the number of
`sdp.solve` calls it made and their Newton steps (the sum of
`SdpSolution.iterations`), whether it converged, and the candidate certifications
cut short (those ending `bound_exceeded`, see `sdp.solve`'s `stop_above`) with
their Newton steps. All counts come from wrapping `sdp.solve` from here, so a
checkout without that status counts none cut. `--root` names the checkout whose
`perfbench/workloads.py` and `src/` are used (default: this one). `--against ROOT`
runs the starts at both checkouts in two subprocesses at once, prints both lines
per start, each side's mean shortfall, total solves, Newton steps, cut candidates
and their Newton steps, the counts of starts that make fewer, as many and more
solves here than at ROOT, the counts of starts converged at both, only here, only
at ROOT and at neither, the exact two-sided McNemar p-value of the discordant
counts, and each side's count of every stop reason (`tolerance`, `stall`,
`max_iterations`). When ROOT is not a directory, it names a git revision of the
`--root` checkout, exported as `tools/solve_fingerprints.py` does.
"""

from __future__ import annotations

import argparse
import math
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from solve_fingerprints import checkout

HEADER = "# start     stop_reason  shortfall  solves  steps  converged  cut  cut_steps"
parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--starts", default="0-29", help="a range LO-HI, both included, or one start")
parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
parser.add_argument("--against", help="another checkout, or a git revision of this one, to compare with")


def start_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def mcnemar_exact(b: int, c: int) -> float:
    """Two-sided exact McNemar p-value: the binomial(b + c, 1/2) tail at min(b, c), doubled."""
    n = b + c
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(b, c) + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def run_starts(root: Path, starts: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, __file__, "--starts", starts, "--root", str(root)],
                            stdout=subprocess.PIPE, text=True)


def rows(proc: subprocess.Popen) -> dict[int, tuple[str, float, int, int, bool, str, int, int]]:
    """Start -> (its printed line, shortfall, solves, Newton steps, converged, stop reason, cut
    candidates, their Newton steps) from a finished child run."""
    out, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"{proc.args} exited {proc.returncode}")
    found = {}
    for line in out.splitlines():
        if not line.startswith("#"):
            fields = line.split()
            found[int(fields[0])] = (line, float(fields[2]), int(fields[3]), int(fields[4]), fields[5] == "yes",
                                     fields[1], int(fields[6]), int(fields[7]))
    return found


def compare(root: Path, other: Path, starts: str) -> None:
    mine, theirs = (rows(p) for p in [run_starts(root, starts), run_starts(other, starts)])
    print(f"{HEADER}   (here: {root}, there: {other})")
    for s in mine:
        print(f"here  {mine[s][0]}\nthere {theirs[s][0]}")
    both = sum(mine[s][4] and theirs[s][4] for s in mine)
    here = sum(mine[s][4] and not theirs[s][4] for s in mine)
    there = sum(theirs[s][4] and not mine[s][4] for s in mine)
    shortfall, solves, steps, cut, cut_steps = ([sum(r[k] for r in side.values()) for side in (mine, theirs)]
                                                for k in (1, 2, 3, 6, 7))
    print(f"mean shortfall: {shortfall[0] / len(mine):.3e} here, {shortfall[1] / len(mine):.3e} there; "
          f"solves: {solves[0]} here, {solves[1]} there; Newton steps: {steps[0]} here, {steps[1]} there")
    print(f"candidates cut short: {cut[0]} here ({cut_steps[0]} Newton steps), "
          f"{cut[1]} there ({cut_steps[1]} Newton steps)")
    fewer = sum(mine[s][2] < theirs[s][2] for s in mine)
    more = sum(mine[s][2] > theirs[s][2] for s in mine)
    print(f"solves per start: fewer here in {fewer}, equal in {len(mine) - fewer - more}, "
          f"more here in {more}")
    print(f"converged: {both + here} of {len(mine)} here, {both + there} there; both {both}, "
          f"only here {here}, only there {there}, neither {len(mine) - both - here - there}; "
          f"exact McNemar p = {mcnemar_exact(here, there):.3g}")
    reasons = [Counter(r[5] for r in side.values()) for side in (mine, theirs)]
    print("stop reasons: " + "; ".join(f"{reason} {reasons[0][reason]} here, {reasons[1][reason]} there"
                                       for reason in ("tolerance", "stall", "max_iterations")))


if __name__ == "__main__":
    args = parser.parse_args()
    if args.against:
        with checkout(args.root, args.against) as other:
            compare(args.root, other, args.starts)
        sys.exit(0)
    sys.path.insert(0, str(args.root.resolve() / "perfbench"))
    import workloads as bench  # puts that checkout's src/ first on the path

    from steercert import sdp

    solves = steps = cut = cut_steps = 0
    solve = sdp.solve

    def counting(*a, **kw):
        global solves, steps, cut, cut_steps
        sol = solve(*a, **kw)
        solves, steps = solves + 1, steps + sol.iterations
        if str(sol.status) == "bound_exceeded":  # a parent without the status has none
            cut, cut_steps = cut + 1, cut_steps + sol.iterations
        return sol

    sdp.solve = counting
    preset = replace(bench.cli.presets()["fig6_seesaw"], out=None)
    print(HEADER, flush=True)
    for s in start_range(args.starts):
        solves = steps = cut = cut_steps = 0
        summary, _ = bench.cli.run_seesaw(replace(preset, seeds=(s,)))
        print(f"{s:7d}  {summary['stop_reason']:>14s}  {1.0 - summary['final_h_min']:9.2e}  {solves:6d}  "
              f"{steps:5d}  {'yes' if summary['converged'] else 'no':>9s}  {cut:3d}  {cut_steps:9d}", flush=True)
