"""Measurement optimization and the alternating certification see-saw.

For a fixed shared state, certified randomness depends on the untrusted
measurements. Two solvable subproblems alternate:

* with measurements fixed, the certification SDP yields the inequality
  coefficients that witness the current bound (`certify_local`);
* with the inequality fixed, `optimize_measurements` picks the measurements
  that minimize the eavesdropper's witnessed bound: in closed form for two
  outcomes (Helstrom's minimum-error measurement), by an SDP for more.

Each step can only improve (or hold) the certified min-entropy, so the
recorded trace is monotone up to solver noise. The alternation alone
converges only linearly, so after each accepted update the see-saw also
tries longer steps along the geodesic through the old and new
measurements, up to t = 729. A candidate, an update or a geodesic trial,
need only be decided: its certification stops as soon as an iterate, a
feasible strategy of Eve's, guesses better than the candidate may, so a
rejected candidate costs a few Newton steps. The bar acts only on the
certifications that reach the SDP: a pure state under lossless projective
measurements is certified exactly, in closed form. Facially reduced
certifications steer through the inequality of the assemblage smoothed
by noise of weight delta; a round passes over a fixed ladder of deltas
at most once, never coarser than the guessing probability left to gain,
and a start ends when the ceiling is reached or a whole pass accepts
nothing, which is a fixed point. With inefficient detectors the loss
channel is applied after each measurement update: the loss is a device
property, not something the optimization can redesign.

Every certification starts from Eve's trivial strategy, a strictly
feasible point (`certify_local`), which takes the loop fewer Newton steps
than the solver's scaled identity does. The certifications whose bound is
recorded, and the measurement SDP, are solved to tight targets; the
smoothed stepping certifications, which only propose an update, to the
solver's defaults.
"""

from __future__ import annotations

import csv
import enum
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import sdp
from .certify import CertificationResult, SteeringFunctional, _smoothed, certify_local, min_entropy
from .qlin import Povm, dagger, eigh, helstrom_pair, normalised, random_unitary
from .scenario import Assemblage, apply_loss, assemblage_from, steering_adjoint

_log = logging.getLogger("steercert")

# tighter-than-default solver targets: the monotonicity contract leaves only
# 1e-9 slack per step, which default-precision solves could consume
_SEESAW_SOLVER_OPTS = {"gap_tol": 1e-11, "feas_tol": 1e-10}

# geodesic steps tried, in order, after each accepted update (the update is step 1)
_EXTRAPOLATION_STEPS = (3, 9, 27, 81, 243, 729)
# smoothing weights delta of the stepping inequality, top first: 3e-2 divided
# by 10 in turn while above 1e-6, so the last rung, the floor, is 3e-7
_SMOOTHING_LADDER = tuple(itertools.accumulate(range(5), lambda delta, _: delta / 10.0, initial=3e-2))
# entries within this of a projector's are taken as exact; P_old and P_new
# this close count as equal, and squared cosines this small as orthogonal
_PROJECTOR_TOL = 1e-9


class StopReason(enum.Enum):
    TOLERANCE = "tolerance"
    MAX_ITERATIONS = "max_iterations"
    STALL = "stall"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SeesawError(RuntimeError):
    """Solver failure mid-loop; `trace` retains the iterations so far."""

    def __init__(self, message: str, trace: "SeesawTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SeesawIteration:
    """One recorded round. `delta` is the smoothing weight of the stepping
    inequality that gave the update (None for the start) and `step` the
    geodesic step it was taken at: 1 for the plain update, one of
    `_EXTRAPOLATION_STEPS` (3 to 729) for an extrapolation, 0 for the start."""

    p_guess: float
    functional: SteeringFunctional
    povms: tuple[Povm, ...]
    delta: float | None
    step: int

    @property
    def h_min(self) -> float:
        return min_entropy(self.p_guess)


@dataclass(frozen=True)
class SeesawTrace:
    iterations: tuple[SeesawIteration, ...]
    stop_reason: StopReason

    @property
    def converged(self) -> bool:
        return self.stop_reason is StopReason.TOLERANCE

    @property
    def final(self) -> SeesawIteration:
        return self.iterations[-1]

    def to_json(self) -> dict:
        """The start's report: its final min-entropy, round count and stop, and per round the
        smoothing weight and geodesic step of `SeesawIteration`."""
        return {
            "final_h_min": self.final.h_min,
            "iterations": len(self.iterations),
            "converged": self.converged,
            "stop_reason": str(self.stop_reason),
            "deltas": [it.delta for it in self.iterations],
            "steps": [it.step for it in self.iterations],
        }

    def h_min_series(self) -> np.ndarray:
        return np.array([it.h_min for it in self.iterations])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "p_guess", "h_min"])
            for k, it in enumerate(self.iterations):
                writer.writerow([k, f"{it.p_guess:.12g}", f"{it.h_min:.12g}"])


def random_povms(d: int, m: int, n: int, seed: int) -> list[Povm]:
    """m Haar-random projective measurements with n outcomes in dimension d.

    Outcomes are rank-1 projectors onto random unitary columns; when n < d
    the last outcome absorbs the remaining d - n + 1 columns. Deterministic
    for a fixed seed.
    """
    if n > d:
        raise ValueError(f"projective generation needs n <= d, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    povms = []
    for _ in range(m):
        u = random_unitary(d, rng)
        cols, rest = u[:, : n - 1].T, u[:, n - 1:]
        rank_one = cols[:, :, None] * cols.conj()[:, None, :]
        povms.append(Povm(np.concatenate([rank_one, (rest @ rest.conj().T)[None]])))
    return povms


def _restore_povm(elements: np.ndarray) -> Povm:
    """Hermitize a stack of solver output and renormalize it to exact completeness."""
    return Povm(normalised(0.5 * (elements + dagger(elements))))


def optimize_measurements(rho: np.ndarray, F: np.ndarray) -> list[Povm]:
    """Measurements minimizing the witnessed bound sum Tr[(M_ax (x) F_ax) rho], with
    as many outcomes and inputs as the inequality's grid F[a, x].

    The bound is sum_ax <W_ax, M_ax> with W_ax = Herm Tr_B[(1 (x) F_ax) rho],
    minimized per input over complete sets of PSD elements. With two outcomes
    the minimum is Helstrom's: M_0 projects onto the negative eigenspace of
    W_0x - W_1x and M_1 = 1 - M_0. With more outcomes an SDP finds it, solved
    to the see-saw's targets (relative gap 1e-11, residuals 1e-10).
    """
    weights = _alice_weights(rho, F)
    if len(weights) != 2:
        return _measurements_sdp(weights)
    return [_restore_povm(helstrom_pair(diff)) for diff in weights[0] - weights[1]]


def _alice_weights(rho: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The (n_a, m, d_a, d_a) stack W_ax = Herm Tr_B[(1 (x) F_ax) rho], so that
    Tr[(M (x) F_ax) rho] = <W_ax, M>."""
    rho = np.asarray(rho, dtype=complex)
    n_a, m, d_b = F.shape[:3]
    if rho.shape[0] % d_b != 0:
        raise ValueError("state dimension incompatible with the trusted dimension")
    d_a = rho.shape[0] // d_b
    return steering_adjoint(rho, F.reshape(n_a * m, d_b, d_b)).reshape(n_a, m, d_a, d_a)


def _measurements_sdp(weights: np.ndarray) -> list[Povm]:
    """Per input x, the POVM minimizing sum_a <weights[a, x], M_a>, by one SDP with a
    block per (outcome, input)."""
    n_a, m, d_a = weights.shape[:3]
    identity, eye_a = sdp.term_stack(d_a), np.eye(d_a, dtype=complex)
    completeness = [sdp.MatrixEquality({a * m + x: identity for a in range(n_a)}, eye_a) for x in range(m)]
    objective = list(-weights.reshape(n_a * m, d_a, d_a))
    problem = sdp.SdpProblem((d_a,) * (n_a * m), objective, completeness)
    sol = sdp.solve(problem, **_SEESAW_SOLVER_OPTS)
    if sol.status is not sdp.SolverStatus.OPTIMAL:
        raise RuntimeError(f"measurement optimization failed with status {sol.status}")
    return [_restore_povm(np.stack(sol.primal[x::m])) for x in range(m)]


def _geodesic(old: list[Povm], new: list[Povm]):
    """The map t -> measurements along the geodesic from `old` to `new`, or None.

    For two-outcome projective measurements, input x's M_0 moves as
    P(t) = U^t P_old U^-t, where U is the direct rotation taking P_old to
    P_new: the unitary polar factor of P_new P_old + (1 - P_new)(1 - P_old)
    (Davis and Kahan, SIAM J. Numer. Anal. 7, 1970). So P(0) = P_old and
    P(1) = P_new. U's eigenphases lie in (-pi/2, pi/2), where sin is one to
    one, so U^t comes from one `eigh` of (U - U^dagger)/2i. None when the
    measurements do not have two outcomes, when an endpoint is not a
    projector, when the polar factor is singular (a direction of P_old
    orthogonal to P_new's range, which unequal ranks imply), or when no
    input moves.
    """
    if old[0].n_outcomes != 2 or new[0].n_outcomes != 2:
        return None
    pairs = [(o.elements[0], n.elements[0]) for o, n in zip(old, new)]
    if all(np.max(np.abs(p_new - p_old)) <= _PROJECTOR_TOL for p_old, p_new in pairs):
        return None
    eye = np.eye(old[0].dim, dtype=complex)
    rotations = []
    for p_old, p_new in pairs:
        if any(np.max(np.abs(p @ p - p)) > _PROJECTOR_TOL for p in (p_old, p_new)):
            return None
        a = p_new @ p_old + (eye - p_new) @ (eye - p_old)
        cos2, w = eigh(dagger(a) @ a)  # squared cosines of the principal angles
        if cos2[0] <= _PROJECTOR_TOL:
            return None
        u = a @ (w * cos2**-0.5) @ dagger(w)
        sines, v = eigh((u - dagger(u)) / 2j)
        rotations.append((p_old, v, np.arcsin(np.clip(sines, -1.0, 1.0))))

    def at(t: float) -> list[Povm]:
        povms = []
        for p_old, v, phases in rotations:
            u_t = (v * np.exp(1j * t * phases)) @ dagger(v)
            p = u_t @ p_old @ dagger(u_t)
            povms.append(_restore_povm(np.stack([p, eye - p])))
        return povms

    return at


def _stepping_functional(
    asm: Assemblage, res: CertificationResult, x_star: int, delta: float
) -> SteeringFunctional:
    """Globally valid inequality used to drive the measurement update.

    Unreduced certifications already carry one. Facially reduced ones only
    certify the observed faces, which cannot steer measurements whose
    assemblages leave those faces (and the full dual optimum is not
    attained there); instead, the optimal inequality of the noise-smoothed
    assemblage is used - globally feasible, directionally sharp, and
    suboptimal only at the O(delta) scale. The caller moves down
    `_SMOOTHING_LADDER` when progress slows.

    A smoothed certification that ends non-optimal still steers, and is
    only logged: its inequality merely proposes an update, which is
    accepted only on an optimal re-certification. At the smallest delta
    most of them end `numerical_trouble`, yet their updates still climb.
    Treating them as rejected updates instead left most starts short of
    the ceiling.

    For the same reason the smoothed certification is solved to the
    solver's default targets, not the see-saw's tight ones: the update it
    proposes is still accepted only on a certification at the tight
    targets, so the trace stays monotone.
    """
    if res.functional.supports is None:
        return res.functional
    smoothed = certify_local(_smoothed(asm, delta), x_star)
    if smoothed.status is not sdp.SolverStatus.OPTIMAL:
        _log.debug("stepping certification at delta %.1e ended %s (gap %.2e)",
                   delta, smoothed.status, smoothed.gap)
    return smoothed.functional


def seesaw(
    rho: np.ndarray,
    initial: list[Povm],
    x_star: int = 0,
    *,
    eta: float = 1.0,
    max_iters: int = 100,
    tol: float = 1e-6,
    ceiling: float | None = None,
) -> SeesawTrace:
    """Alternate certification and measurement optimization from a starting
    measurement set, recording the certified min-entropy per round.

    Each round takes the stepping inequality of the current measurements at
    a smoothing weight delta of `_SMOOTHING_LADDER`, updates the
    measurements against it and re-certifies. The update is accepted only
    if its certification is optimal and does not worsen the guessing
    probability, so the recorded sequence is monotone. The alternation
    alone converges only linearly, so after an accepted update of
    two-outcome projective measurements the round extrapolates along the
    geodesic from the old measurements through the new ones (`_geodesic`):
    it certifies steps t = 3, 9, 27, 81, 243 and 729 in turn and keeps the
    last one that is optimal and strictly lowers the guessing probability.

    A candidate's certification, an update's or a trial's, is solved only far
    enough to decide it. Its bar is the guessing probability it must not
    exceed: the current one plus 1e-10 for an update, the best accepted so
    far for a trial, passed to `sdp.solve` as `stop_above`. Every iterate of
    a certification from Eve's trivial strategy is a feasible strategy of
    hers, so one that guesses better than the bar, by more than an optimal
    end's gap, is an explicit attack that rejects the candidate; the solve
    stops there with BOUND_EXCEEDED. An accepted candidate's certification
    never reaches its bar, so the bar changes no recorded value, only the
    Newton steps of the rejected candidates. Those cheap rejections are what
    pay for the geodesic steps beyond 27, which are mostly rejected.

    Eve always guesses with probability at least 1/n (n outcomes, a
    no-click outcome included), so the guessing probability can fall by at
    most its excess e = p_guess - 1/n over that floor; a stepping
    inequality smoothed by more than e is mostly smoothing, and its update
    is mostly rejected, where a rung with delta <= e mostly has its update
    accepted. Let k_e be the first rung with delta <= e, or the floor when
    none is. A round tries each rung at most once: from rung max(own, k_e)
    down to the floor (3e-7), then up, nearest first, to rung k_e - 1, one
    rung coarser than the excess, and stops at the first accepted update. The next round's
    own rung is the accepting one, or one rung lower when the gain was
    below 1e-3. A round that accepts nothing ends the start: short of the
    ceiling that is Stall. Resuming from such a start's measurements tries
    that round's rungs again on the same certification, so it gains
    nothing. The loop stops with Tolerance as soon as the current iterate,
    the start included, is within `tol` of the known analytic `ceiling`;
    with no ceiling, after a gain below `tol` or a round that accepts
    nothing. Otherwise it stops after `max_iters` iterates.

    The certifications of the start, of each update and of each geodesic
    trial, and the measurement SDP, are solved to a relative gap of 1e-11
    and residuals of 1e-10 (`_SEESAW_SOLVER_OPTS`), tighter than the
    defaults, so that solver noise stays below the 1e-10 by which an
    accepted update may raise the guessing probability. The stepping
    certifications are solved to the defaults (`_stepping_functional`).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not initial:
        raise ValueError("need at least one starting measurement")
    povms = list(initial)
    n_ideal = povms[0].n_outcomes
    floor = len(_SMOOTHING_LADDER) - 1

    def certified(candidate: list[Povm], bar: float | None = None):
        """The candidate's assemblage and certification, cut short once Eve's iterate beats `bar`."""
        measured = candidate if eta >= 1.0 else [apply_loss(p, eta) for p in candidate]
        asm = assemblage_from(rho, measured)
        opts = {**_SEESAW_SOLVER_OPTS, "stop_above": bar}
        return asm, certify_local(asm, x_star, solver_opts=opts)

    def update(rung: int):
        """The round's accepted (povms, assemblage, result, step) at `rung`, or None."""
        functional = _stepping_functional(asm, res, x_star, _SMOOTHING_LADDER[rung])
        # the conclusive outcomes' rows: under fixed loss the no-click row adds a constant
        candidate = optimize_measurements(rho, functional.F[:n_ideal])
        cand_asm, cand_res = certified(candidate, res.p_guess + 1e-10)
        if cand_res.status is not sdp.SolverStatus.OPTIMAL or cand_res.p_guess > res.p_guess + 1e-10:
            return None
        accepted = (candidate, cand_asm, cand_res, 1)
        path = _geodesic(povms, candidate)
        for t in _EXTRAPOLATION_STEPS if path is not None else ():
            trial = path(t)
            trial_asm, trial_res = certified(trial, accepted[2].p_guess)
            if trial_res.status is not sdp.SolverStatus.OPTIMAL or trial_res.p_guess >= accepted[2].p_guess:
                break
            accepted = (trial, trial_asm, trial_res, t)
        return accepted

    asm, res = certified(povms)
    iterations = [SeesawIteration(res.p_guess, res.functional, tuple(povms), None, 0)]
    rung = 0
    while True:
        if ceiling is not None and res.h_min >= ceiling - tol:
            return SeesawTrace(tuple(iterations), StopReason.TOLERANCE)
        if len(iterations) >= max_iters:
            return SeesawTrace(tuple(iterations), StopReason.MAX_ITERATIONS)
        # no rung coarser than the guessing probability left to gain, bar one on the way back
        excess = res.p_guess - 1.0 / len(asm.sigma)
        k_e = next((k for k, delta in enumerate(_SMOOTHING_LADDER) if delta <= excess), floor)
        first = max(rung, k_e)
        accepted = None
        for k in (*range(first, floor + 1), *range(first - 1, max(k_e - 1, 0) - 1, -1)):
            try:
                accepted = update(k)
            except (RuntimeError, ValueError) as exc:
                partial = SeesawTrace(tuple(iterations), StopReason.MAX_ITERATIONS)
                raise SeesawError(f"solver failed mid-loop: {exc}", partial) from exc
            if accepted is not None:
                rung = k
                break
        if accepted is None:  # a full pass accepted nothing: a fixed point
            return SeesawTrace(tuple(iterations), StopReason.STALL if ceiling is not None else StopReason.TOLERANCE)
        povms, asm, res, step = accepted
        iterations.append(
            SeesawIteration(res.p_guess, res.functional, tuple(povms), _SMOOTHING_LADDER[rung], step)
        )
        gain = iterations[-1].h_min - iterations[-2].h_min
        if ceiling is None and abs(gain) < tol:
            return SeesawTrace(tuple(iterations), StopReason.TOLERANCE)
        if gain < 1e-3 and rung < floor:
            rung += 1  # slowing climb: tighten the stepping inequality
