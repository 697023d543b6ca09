"""Spread of the end-to-end metrics over seeds, and the baseline record.

    python3 perfbench/steady.py --workload qutrit_sweeps --seeds 5
    python3 perfbench/steady.py --workload seesaw --seeds 10 --baseline perfbench/baseline.json

Runs run.py once per seed (seeds 1 to N), one run after another, and
prints for each end-to-end metric the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and their distance as a
share of the median, beside a third of the metric's bound. A benchmark is
steady when every spread but that of `setup_s` stays below that third.
With `--baseline`, the workload's figures and the machine stamp are merged
into that JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result line, stamp) of one untraced run."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    stamp = next(json.loads(line[len("stamp "):]) for line in lines if line.startswith("stamp "))
    return json.loads(lines[-1]), stamp


def main(argv=None) -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    seeds = list(range(1, args.seeds + 1))
    runs = []
    for seed in seeds:
        result, stamp = one_run(args.workload, seed, spec["run_seconds"])
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']}, "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    steady = all(r["correct"] for r in runs)
    figures = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        limit = metric["bound"] / 3
        ok = name == "setup_s" or spread < limit
        steady &= ok
        print(f"  {name:14s} median {median:12.6g} {metric['unit']:5s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:8.4f}  bound/3 {limit:.4f}  {'ok' if ok else 'UNSTEADY'}")
        figures[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
    print("steady" if steady else "NOT steady")

    if args.baseline is not None:
        record = json.loads(args.baseline.read_text()) if args.baseline.exists() else {"workloads": {}}
        record["stamp"] = stamp
        record["run_seconds"] = spec["run_seconds"]
        record["workloads"][args.workload] = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": figures,
        }
        args.baseline.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
