"""Workloads of the steercert benchmark: their inputs, one operation, and
the check of each operation's output against the recorded reference.

An operation ("op") is one certification point driven through
`cli.run_sweep`, one LHS test, or one see-saw start driven through
`cli.run_seesaw`. A workload is a fixed list of ops; the seed only fixes the
order in which each pass visits them, so every seed does the same work and
the timings of different seeds can be compared.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

if not (SRC / "steercert" / "__init__.py").is_file():
    raise SystemExit(f"steercert sources not found under {SRC}")
sys.path.insert(0, str(SRC))

# single-threaded BLAS, set before numpy loads: the matrices are small, and
# other threads would only add noise
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from steercert import certify, cli, scenario  # noqa: E402

# An op whose p_guess or LHS robustness moves further than this from the
# reference, or whose certified h_min exceeds the see-saw ceiling by more,
# has failed.
TOLERANCE = 1e-9

WORKLOADS = {
    # many tiny SDPs (8-16 qubit blocks, <= 32 rows): fixed cost per solve
    # and Python overhead per IPM iteration dominate; local, global and
    # lossy (facially reduced) builder paths
    "qubit_sweeps": ("fig2", "fig3_qubit", "fig_global"),
    # 64-82 qutrit blocks with 108-252 rows: per-block loops and the Schur
    # build dominate; certify_local with loss, certify_pm and lhs_test
    "qutrit_sweeps": ("fig4_qutrit_loss", "fig_pm"),
    # tight-tolerance solves of two SDPs along a data-dependent path, so an
    # algorithmic change shows in the number of solves, not only their speed
    "seesaw": ("fig6_seesaw",),
}

LHS_VISIBILITIES = tuple(round(0.1 * k, 1) for k in range(1, 11))


@dataclass(frozen=True)
class Op:
    key: str
    kind: str  # "sweep", "lhs" or "seesaw"
    payload: object


@dataclass(frozen=True)
class Outcome:
    status: str
    value: float  # p_guess, LHS robustness, or a see-saw start's final h_min
    h_min: float | None  # certified bits; None for an LHS test
    converged: bool = False


def build(workload: str) -> list[Op]:
    """The workload's ops, with every input they need built up front."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    table = cli.presets()
    ops = []
    for name in WORKLOADS[workload]:
        config = replace(table[name], out=None)
        if config.kind == "seesaw":
            # the preset's own starts for every seed: which starts run sets
            # the path length, so drawing them from the seed would make
            # pass times of different seeds incomparable
            ops += [
                Op(f"{name}@{s}", "seesaw", replace(config, seeds=(s,)))
                for s in config.seeds
            ]
            continue
        parameter = config.sweep["parameter"]
        for value in config.sweep_values():
            point = {"parameter": parameter, "start": value, "stop": value, "points": 1}
            ops.append(Op(f"{name}@{value!r}", "sweep", replace(config, sweep=point)))
    if workload == "qutrit_sweeps":
        povms = scenario.mub_povms(3, 4)
        for v in LHS_VISIBILITIES:
            ops.append(Op(f"lhs@{v!r}", "lhs", (scenario.isotropic_state(3, v), povms)))
    return ops


def execute(op: Op) -> Outcome:
    """Run one op through the package's public entry points."""
    if op.kind == "sweep":
        rows, _ = cli.run_sweep(op.payload)
        row = rows[0]
        return Outcome(row["status"], row["p_guess"], row["h_min"])
    if op.kind == "lhs":
        rho, povms = op.payload
        result = scenario.lhs_test(scenario.assemblage_from(rho, povms))
        return Outcome("optimal", result.robustness, None)
    summary, code = cli.run_seesaw(op.payload)
    status = "optimal" if code == 0 else f"exit {code}"
    return Outcome(status, summary["final_h_min"], summary["final_h_min"], summary["converged"])


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check(op: Op, outcome: Outcome, reference: dict) -> str | None:
    """Why the op failed against the reference, or None when it passed."""
    if outcome.status != "optimal":
        return f"status {outcome.status}"
    if op.kind == "seesaw":
        ceiling = reference["seesaw_ceiling"]
        if outcome.value > ceiling + TOLERANCE:
            return f"h_min {outcome.value!r} exceeds the ceiling {ceiling!r}"
        return None
    expected = reference["ops"][op.key]["value"]
    if abs(outcome.value - expected) > TOLERANCE:
        return f"value {outcome.value!r} differs from the reference {expected!r}"
    return None


def warm_up() -> None:
    """One small certification, so lazy imports inside numpy and scipy do
    not land in the first timed op."""
    asm = scenario.assemblage_from(scenario.werner_state(0.9), scenario.pauli_xz())
    certify.certify_local(asm, 0)
