"""Benchmark of steercert: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload qubit_sweeps --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

Each op runs closed-loop, one at a time, in this process, with the
single-threaded BLAS that workloads.py sets. A run makes whole passes over
the workload's ops, each pass in a fresh order drawn from the seed, until
the next pass would end after `--seconds`; every run makes at least one
pass. Every op is checked against the outputs recorded in reference.json.
With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it spends half its time untraced and half traced and
reports the per-layer metrics, the trace overhead among them. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; README.md explains every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402  (exits when the steercert sources are missing)
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import tracing  # noqa: E402

SPEC = workloads.ROOT / "BENCHMARK.json"

# set-up is timed in fresh interpreters, since an import happens once per
# process; the median of these probes is reported
SETUP_PROBES = 3
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.build(sys.argv[2])
print(time.perf_counter() - start)
"""


# The machine this was written on is shared, and its speed drifts by up to a
# third in phases that outlast a run. A fixed kernel of small-matrix numpy
# calls, like the IPM's per-block work, is timed at every tick: before each
# SDP solve and at the end of each op. A segment of wall time between two
# ticks, scaled by NOMINAL / (mean kernel time at its two ends), is its time
# at the machine speed where the kernel takes NOMINAL seconds. Never change
# NOMINAL or the kernel: that would rescale every calibrated figure.
CALIBRATION_NOMINAL_S = 0.003
_CAL_A = np.arange(36.0).reshape(6, 6) / 36.0
_CAL_M = _CAL_A @ _CAL_A.T + np.eye(6)
_CAL_STACK = np.stack([_CAL_M] * 40)


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now."""
    start = time.perf_counter()
    for _ in range(8):
        np.linalg.svd(np.linalg.cholesky(_CAL_M))
        np.linalg.eigvalsh(_CAL_M)
        np.einsum("ab,ibc,cd->iad", _CAL_M, _CAL_STACK, _CAL_M)
    return time.perf_counter() - start


class Clock:
    """Wall seconds, and calibrated seconds, summed over the segments between
    ticks; the kernel's own time falls outside every segment."""

    def __init__(self):
        self.wall_s = 0.0
        self.cal_s = 0.0
        self._kernel = calibrate()
        self._mark = time.perf_counter()

    def tick(self) -> None:
        segment = time.perf_counter() - self._mark
        kernel = calibrate()
        self.wall_s += segment
        self.cal_s += segment * 2.0 * CALIBRATION_NOMINAL_S / (self._kernel + kernel)
        self._kernel = kernel
        self._mark = time.perf_counter()

    @contextlib.contextmanager
    def ticking_solves(self):
        """Tick before every `sdp.solve` while the block runs."""
        solve = tracing.sdp.solve

        def ticking(*args, **kwargs):
            self.tick()
            return solve(*args, **kwargs)

        tracing.sdp.solve = ticking
        try:
            yield
        finally:
            tracing.sdp.solve = solve


@dataclass
class Run:
    passes: list[float] = field(default_factory=list)  # wall seconds of the ops
    cal_passes: list[float] = field(default_factory=list)  # the same, calibrated
    op_ms: list[float] = field(default_factory=list)
    h_min: list[float] = field(default_factory=list)
    converged: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def measure(ops, reference, rng, seconds: float, tick_solves: bool = True) -> Run:
    """Whole passes over `ops` until the next one would end after `seconds`.
    The clock ticks at the end of every op, and before every solve when
    `tick_solves` is set; a traced run leaves that off, so that no kernel
    time lands inside a span."""
    run = Run()
    start = time.perf_counter()
    clock = Clock()
    with clock.ticking_solves() if tick_solves else contextlib.nullcontext():
        while True:
            pass_start = time.perf_counter()
            wall_start, cal_start = clock.wall_s, clock.cal_s
            for i in rng.permutation(len(ops)):
                op = ops[i]
                op_wall_s = clock.wall_s
                try:
                    outcome = workloads.execute(op)
                except Exception as exc:  # a raising op is a failed op; the run goes on
                    outcome, why = None, f"raised {type(exc).__name__}: {exc}"
                clock.tick()
                run.op_ms.append(1000.0 * (clock.wall_s - op_wall_s))
                run.attempted += 1
                if outcome is not None:
                    why = workloads.check(op, outcome, reference)
                    if outcome.h_min is not None:
                        run.h_min.append(outcome.h_min)
                        run.converged += outcome.converged
                if why is not None:
                    run.failures.append(f"{op.key}: {why}")
            run.passes.append(clock.wall_s - wall_start)
            run.cal_passes.append(clock.cal_s - cal_start)
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                return run


def tail(samples: list[float]) -> tuple[int, float] | None:
    """(p, value) for the highest whole percentile with at least ten samples
    above it, or None when that percentile would lie below the median."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p < 50:
        return None
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def setup_seconds(workload: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), workload],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _git_commit() -> str | None:
    git = workloads.ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_files() -> list[Path]:
    return sorted(workloads.SRC.rglob("*.py"))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in src_files())


def stamp() -> dict:
    """The machine and build a result came from."""
    digest = hashlib.sha256()
    for p in src_files():
        digest.update(p.relative_to(workloads.ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "repo.src_lines": src_lines(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run one workload, print its metrics for people, and return its result."""
    reference = workloads.load_reference()
    setup_s = None if trace else setup_seconds(name)
    ops = workloads.build(name)
    workloads.warm_up()
    rng = np.random.default_rng(seed)
    if trace:
        plain = measure(ops, reference, rng, seconds / 2, tick_solves=False)
        with tracing.Tracer() as tracer:
            run = measure(ops, reference, rng, seconds / 2, tick_solves=False)
        values = tracer.layer_metrics(len(run.passes), sum(run.passes))
        values["trace.overhead_frac"] = statistics.median(run.cal_passes) / statistics.median(plain.cal_passes) - 1.0
        values["repo.src_lines"] = src_lines()
        declared = spec["per_layer"]
        attempted = plain.attempted + run.attempted
        failures = plain.failures + run.failures
    else:
        run = measure(ops, reference, rng, seconds)
        values = {
            "pass_cal_s": statistics.median(run.cal_passes),
            "h_min_mean": statistics.fmean(run.h_min) if run.h_min else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
        attempted, failures = run.attempted, run.failures
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"== {name}  seed {seed}  trace {int(trace)}  {len(ops)} ops per pass, "
          f"{len(run.passes)} passes, {len(run.op_ms)} op samples")
    for metric, entry in metrics.items():
        print(f"  {metric:26s} {entry['value']:14.6g} {entry['unit']}")
    if not trace:
        print(f"  {'pass_s':26s} {statistics.median(run.passes):14.6g} s (wall, not calibrated)")
        print(f"  {'op_ms_p50':26s} {statistics.median(run.op_ms):14.6g} ms")
        found = tail(run.op_ms)
        if found is None:
            print(f"  {'op_ms_tail':26s} {'-':>14s} ms (too few samples)")
        else:
            print(f"  {'op_ms_tail':26s} {found[1]:14.6g} ms (p{found[0]})")
        if name == "seesaw":
            print(f"  {'starts_converged':26s} {run.converged / len(run.passes):14.6g} count")
    print(f"  {'fail_frac':26s} {len(failures) / attempted:14.6g} ratio")
    for failure in failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("stamp " + json.dumps(stamp()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), spec) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
