"""Tests of the benchmark's own machinery: the tracer and the output check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import run
import workloads
from steercert import sdp
from tracing import PATCH_SITES, Tracer


def _patched():
    return [getattr(module, attr) for module, attr, _ in PATCH_SITES]


def test_tracer_restores_every_original():
    originals = _patched()
    with Tracer():
        assert all(now is not before for now, before in zip(_patched(), originals))
    assert all(now is before for now, before in zip(_patched(), originals))
    with pytest.raises(RuntimeError), Tracer():
        raise RuntimeError("leaving by an exception")
    assert all(now is before for now, before in zip(_patched(), originals))


def test_calibrated_measure_restores_solve_and_checks_ops():
    original = sdp.solve
    op = workloads.build("qubit_sweeps")[0]
    result = run.measure([op], workloads.load_reference(), np.random.default_rng(0), 0.0)
    assert sdp.solve is original
    assert result.attempted == 1 and not result.failures
    assert result.passes[0] > 0.0 and result.cal_passes[0] > 0.0
    assert result.op_ms[0] == pytest.approx(1000.0 * result.passes[0])


def test_sdp_iters_equal_the_solution_iterations():
    # maximize <diag(1, 0), X> subject to Tr X = 1, X >= 0; the optimum is 1
    problem = sdp.SdpProblem(
        (2,),
        [np.diag([1.0, 0.0]).astype(complex)],
        [sdp.LinearConstraint({0: np.eye(2, dtype=complex)}, 1.0)],
    )
    with Tracer() as tracer:
        sol = sdp.solve(problem)
    assert sol.iterations > 0
    assert tracer.spans["sdp.solve"].calls == 1
    assert tracer.counts["sdp.iters"] == sol.iterations
    assert tracer.counts["sdp.rows"] == 1


def test_every_layer_reports_and_self_times_are_non_negative():
    qubit = workloads.build("qubit_sweeps")
    qutrit = workloads.build("qutrit_sweeps")
    start = workloads.build("seesaw")[0]
    ops = [
        qubit[0],
        next(op for op in qubit if op.key.startswith("fig_global")),
        next(op for op in qutrit if op.key.startswith("fig_pm")),
        next(op for op in qutrit if op.kind == "lhs"),
        replace(start, payload=replace(start.payload, max_iters=3)),
    ]
    with Tracer() as tracer:
        for op in ops:
            workloads.execute(op)
    assert {name for _, _, name in PATCH_SITES} <= set(tracer.spans)
    for name, span in tracer.spans.items():
        assert span.calls > 0, name
        assert 0.0 <= span.self_s <= span.busy_s, name

    metrics = tracer.layer_metrics(1, 1.0)
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared - set(metrics) == {"trace.overhead_frac", "repo.src_lines"}
    for name, value in metrics.items():
        if name.endswith("_s"):
            assert value >= 0.0, name
    assert metrics["seesaw.certify_calls"] > 0
    assert metrics["seesaw.optimize_calls"] > 0


def test_check_fails_an_op_that_leaves_the_reference():
    reference = workloads.load_reference()
    op = workloads.build("qubit_sweeps")[0]
    expected = reference["ops"][op.key]["value"]
    assert workloads.check(op, workloads.Outcome("optimal", expected, 0.0), reference) is None
    moved = workloads.Outcome("optimal", expected + 1e-8, 0.0)
    assert "reference" in workloads.check(op, moved, reference)
    assert "status" in workloads.check(op, workloads.Outcome("max_iterations", expected, 0.0), reference)
