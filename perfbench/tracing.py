"""Per-layer tracing for the steercert benchmark.

`Tracer` wraps the public entry points of each steercert module from
outside, without touching the package. Every wrapped call is a span: its
duration, and its self time, which is the duration minus the time covered
by wrapped calls nested inside it. Observers count the work each layer did
from the arguments and results that cross the boundary. Leaving the
`with` block restores every original.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from importlib import import_module

# by module path: the package namespace re-exports the function `seesaw`
# under the name of its module
certify, cli, scenario, sdp, seesaw = (
    import_module(f"steercert.{name}") for name in ("certify", "cli", "scenario", "sdp", "seesaw")
)

# (module, attribute, span). certify, seesaw and cli import some entry
# points by name, so those names are wrapped where they are looked up too.
PATCH_SITES = (
    (sdp, "solve", "sdp.solve"),
    (certify, "certify_local", "certify.certify_local"),
    (certify, "certify_global", "certify.certify_global"),
    (certify, "certify_pm", "certify.certify_pm"),
    (seesaw, "certify_local", "certify.certify_local"),
    (scenario, "assemblage_from", "scenario.assemblage_from"),
    (certify, "assemblage_from", "scenario.assemblage_from"),
    (seesaw, "assemblage_from", "scenario.assemblage_from"),
    (scenario, "lhs_test", "scenario.lhs_test"),
    (seesaw, "seesaw", "seesaw.seesaw"),
    (cli, "_seesaw_loop", "seesaw.seesaw"),
    (seesaw, "optimize_measurements", "seesaw.optimize_measurements"),
    (cli, "run_sweep", "cli.run_sweep"),
    (cli, "run_seesaw", "cli.run_seesaw"),
)

CERTIFY_SPANS = ("certify.certify_local", "certify.certify_global", "certify.certify_pm")
CLI_SPANS = ("cli.run_sweep", "cli.run_seesaw")


class Span:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


def _observe_solve(tracer: "Tracer", args, kwargs, sol) -> None:
    problem = args[0] if args else kwargs["problem"]
    c = tracer.counts
    c["sdp.iters"] += sol.iterations
    c["sdp.rows"] += len(problem.constraints)
    c["sdp.blocks"] += len(problem.block_dims)
    c["sdp.block_dim_max"] = max(c["sdp.block_dim_max"], max(problem.block_dims))
    c["sdp.rows_dropped"] += len(sol.dropped_rows)
    c["sdp.not_optimal"] += sol.status is not sdp.SolverStatus.OPTIMAL


def _observe_certify(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["certify.reduced"] += result.functional.supports is not None
    if tracer.inside("seesaw.seesaw"):
        tracer.counts["seesaw.certify_calls"] += 1


def _observe_seesaw(tracer: "Tracer", args, kwargs, trace) -> None:
    tracer.counts["seesaw.accepted"] += len(trace.iterations) - 1
    tracer.counts["seesaw.starts_converged"] += trace.converged


OBSERVERS = {
    "sdp.solve": _observe_solve,
    **{name: _observe_certify for name in CERTIFY_SPANS},
    "seesaw.seesaw": _observe_seesaw,
}


class Tracer:
    """Context manager that wraps every patch site while it is active."""

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [span name, nested seconds] per open call
        self._saved: list[tuple] = []

    def inside(self, span: str) -> bool:
        return any(frame[0] == span for frame in self._open)

    def __enter__(self) -> "Tracer":
        for module, attr, span in PATCH_SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span: str):
        observe = OBSERVERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][1] += busy
                record = self.spans[span]
                record.calls += 1
                record.busy_s += busy
                record.self_s += busy - frame[1]
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def layer_metrics(self, passes: int, pass_s: float) -> dict[str, float]:
        """Per-pass layer metrics over `passes` traced passes that took
        `pass_s` seconds in all."""
        s, c = self.spans, self.counts

        def total(names, attr):
            return sum(getattr(s[n], attr) for n in names)

        solve = s["sdp.solve"]
        certify_calls = total(CERTIFY_SPANS, "calls")
        optimize_calls = total(("seesaw.optimize_measurements",), "calls")
        per_pass = {
            "sdp.calls": solve.calls,
            "sdp.iters": c["sdp.iters"],
            "sdp.busy_s": solve.busy_s,
            "sdp.rows": c["sdp.rows"],
            "sdp.blocks": c["sdp.blocks"],
            "sdp.rows_dropped": c["sdp.rows_dropped"],
            "sdp.not_optimal": c["sdp.not_optimal"],
            "certify.calls": certify_calls,
            "certify.self_s": total(CERTIFY_SPANS, "self_s"),
            "scenario.assemblage_s": total(("scenario.assemblage_from",), "busy_s"),
            "scenario.lhs_self_s": total(("scenario.lhs_test",), "self_s"),
            "seesaw.certify_calls": c["seesaw.certify_calls"],
            "seesaw.optimize_calls": optimize_calls,
            "seesaw.optimize_self_s": total(("seesaw.optimize_measurements",), "self_s"),
            "seesaw.self_s": total(("seesaw.seesaw",), "self_s"),
            "seesaw.starts_converged": c["seesaw.starts_converged"],
            "cli.self_s": total(CLI_SPANS, "self_s"),
        }
        metrics = {name: value / passes for name, value in per_pass.items()}
        metrics.update({
            "sdp.ms_per_iter": 1000.0 * solve.busy_s / c["sdp.iters"] if c["sdp.iters"] else 0.0,
            "sdp.share": solve.busy_s / pass_s,
            "sdp.block_dim_max": c["sdp.block_dim_max"],
            "sdp.rows_dropped_frac": c["sdp.rows_dropped"] / c["sdp.rows"] if c["sdp.rows"] else 0.0,
            "certify.reduced_frac": c["certify.reduced"] / certify_calls if certify_calls else 0.0,
            "seesaw.accept_frac": c["seesaw.accepted"] / optimize_calls if optimize_calls else 0.0,
        })
        return metrics
