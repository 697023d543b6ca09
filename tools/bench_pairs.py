"""Run `perfbench/run.py` in alternating pairs at this checkout and at another, and write
the results as one `BENCH_<n>.json` record.

    python3 tools/bench_pairs.py --against HEAD --workload qutrit_sweeps:10 qubit_sweeps:3 \
        seesaw:10 --seed 4001 --out BENCH_11.json

`--against` names another checkout, or a git revision of `--root` (default: this
checkout), which is exported with `git archive` into a temporary directory, as
`tools/solve_fingerprints.py` does. Each `--workload NAME:PAIRS` runs PAIRS pairs of
`run.py --workload NAME --seed S --seconds T --trace 0` runs, one at each side, with
S = `--seed`, `--seed` + 1, ... and T the `run_seconds` of `--root`'s BENCHMARK.json.
The side that runs first alternates, starting with the other checkout ("parent"); this
checkout is "change". The record holds each side's stamp, with `commit` replaced by the
commit the side was run at (`-dirty` when this checkout has uncommitted changes; null
for a directory outside git), and per workload the seeds, which side ran first in each
pair, per side the median, quartiles (`statistics.quantiles`, n=4) and values in seed
order of every end-to-end metric, with the ops attempted and failed and the passes of
each run, `pass_cal_s_by_pair`, the number of pairs in which the change's `pass_cal_s`
is lower, and the ratio of the medians of every metric. `--out` is written afresh, and
rewritten after every pair, so an interrupted run keeps the pairs it finished. Runs go
one at a time, in this order.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from solve_fingerprints import checkout

METRICS = ("pass_cal_s", "h_min_mean", "peak_rss_mb", "setup_s")
parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--against", required=True, help="another checkout, or a git revision of --root")
parser.add_argument("--workload", nargs="+", required=True, help="NAME:PAIRS, one or more")
parser.add_argument("--seed", type=int, default=0, help="the seed of the first pair")
parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
parser.add_argument("--out", type=Path, required=True)


def git(root: Path, *argv: str) -> str | None:
    """The output of one git command at `root`, or None when it fails (say, outside git)."""
    out = subprocess.run(["git", "-C", str(root), *argv], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def commit_of(root: Path) -> str | None:
    """The commit a checkout is at, with `-dirty` when it has uncommitted changes."""
    head = git(root, "rev-parse", "HEAD")
    return head and head + ("-dirty" if git(root, "status", "--porcelain", "--untracked-files=no") else "")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of `run.py` at `root`: its stamp, its result line, and the passes it made."""
    out = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[len("stamp "):])
    passes = int(re.search(r" (\d+) passes", out).group(1))
    return {"stamp": stamp, "result": json.loads(lines[-1]), "passes": passes}


def summary(runs: list[dict]) -> dict:
    """Per metric, the median, quartiles and values of one side's runs, then its counts."""
    out = {}
    for metric in METRICS:
        values = [r["result"]["metrics"][metric]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}
    out["attempted"] = sum(r["result"]["attempted"] for r in runs)
    out["failed"] = sum(r["result"]["failed"] for r in runs)
    out["correct"] = all(r["result"]["correct"] for r in runs)
    out["passes"] = [r["passes"] for r in runs]
    out["src_sha256"] = runs[0]["stamp"]["src_sha256"]
    return out


def record(seeds: list[int], first: list[str], runs: dict[str, list[dict]]) -> dict:
    sides = {side: summary(runs[side]) for side in ("parent", "change")}
    parent, change = (sides[s]["pass_cal_s"] for s in ("parent", "change"))
    by_pair = [{"seed": s, "parent": p, "change": c, "ratio": c / p}
               for s, p, c in zip(seeds, parent["values"], change["values"])]
    return {
        "seeds": seeds, "pairs": len(seeds), "first": first, **sides,
        "pass_cal_s_by_pair": by_pair,
        "pass_cal_s_change_lower_in_pairs": sum(pair["change"] < pair["parent"] for pair in by_pair),
        "pass_cal_s_median_difference": parent["median"] - change["median"],
        "parent_pass_cal_s_iqr": parent["q3"] - parent["q1"],
        **{f"{metric}_ratio_of_medians": sides["change"][metric]["median"] / sides["parent"][metric]["median"]
           for metric in METRICS},
    }


if __name__ == "__main__":
    args = parser.parse_args()
    seconds = json.loads((args.root / "BENCHMARK.json").read_text())["run_seconds"]
    plan = [(name, int(pairs)) for name, _, pairs in (w.partition(":") for w in args.workload)]
    commits = {"parent": commit_of(Path(args.against)) if Path(args.against).is_dir()
               else git(args.root, "rev-parse", "--verify", args.against), "change": commit_of(args.root)}
    bench = {
        "what": "perfbench/run.py end-to-end runs of this change against its parent, in alternating pairs "
                f"of {seconds:g} s runs, written by tools/bench_pairs.py",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "against": args.against,
        "stamp": {},
        "workloads": {},
    }
    with checkout(args.root, args.against) as other:
        roots = {"parent": other, "change": args.root}
        for name, pairs in plan:
            seeds, first, runs = [], [], {"parent": [], "change": []}
            for i in range(pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run := run_once(roots[side], name, seed, seconds))
                    bench["stamp"].setdefault(side, {**run["stamp"], "commit": commits[side]})
                    value = run["result"]["metrics"]["pass_cal_s"]["value"]
                    print(f"{name} seed {seed} {side}: pass_cal_s {value:.4f}", file=sys.stderr, flush=True)
                seeds.append(seed)
                first.append(order[0])
                bench["workloads"][name] = record(seeds, first, runs)
                args.out.write_text(json.dumps(bench, indent=1) + "\n")
