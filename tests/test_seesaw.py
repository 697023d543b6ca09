import numpy as np
import pytest

from steercert.certify import SteeringFunctional, certify_local, min_entropy
from steercert.scenario import (
    apply_loss,
    assemblage_from,
    isotropic_state,
    pauli_xz,
    schmidt_state,
    werner_state,
)
from steercert.qlin import Povm, random_unitary
from steercert.seesaw import (
    SeesawError,
    StopReason,
    _EXTRAPOLATION_STEPS,
    _alice_weights,
    _geodesic,
    _measurements_sdp,
    optimize_measurements,
    random_povms,
    seesaw,
)

THETA = np.pi / 7
RHO_PI7 = schmidt_state([np.cos(THETA) ** 2, np.sin(THETA) ** 2])


def test_random_povms_reproducible_and_complete():
    a = random_povms(2, 2, 2, seed=7)
    b = random_povms(2, 2, 2, seed=7)
    for pa, pb in zip(a, b):
        for ea, eb in zip(pa.elements, pb.elements):
            assert np.array_equal(ea, eb)
    for povm in a:
        total = sum(povm.elements)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 5)])
def test_random_povms_match_the_per_element_construction(d, n):
    rng = np.random.default_rng(9)
    for povm in random_povms(d, 4, n, seed=9):
        u = random_unitary(d, rng)
        rest = u[:, n - 1:]
        want = [np.outer(u[:, a], u[:, a].conj()) for a in range(n - 1)] + [rest @ rest.conj().T]
        assert np.array_equal(povm.elements, np.stack(want))


def test_random_povms_distinct_seeds_differ():
    a = random_povms(2, 2, 2, seed=1)
    b = random_povms(2, 2, 2, seed=2)
    distance = max(np.max(np.abs(ea - eb)) for pa, pb in zip(a, b) for ea, eb in zip(pa, pb))
    assert distance > 1e-3


def test_random_povms_fewer_outcomes_than_dimension():
    povms = random_povms(3, 2, 2, seed=0)
    for povm in povms:
        assert povm.n_outcomes == 2
        assert np.max(np.abs(sum(povm.elements) - np.eye(3))) <= 1e-12
    with pytest.raises(ValueError):
        random_povms(2, 1, 3, seed=0)


def test_optimize_measurements_constant_functional():
    # F = c*I makes the objective measurement independent: value c * n_inputs
    c = 0.7
    f = SteeringFunctional(
        F=np.broadcast_to(c * np.eye(2, dtype=complex), (2, 2, 2, 2)).copy(), x_star=0
    )
    povms = optimize_measurements(werner_state(0.9), f.F)
    assert len(povms) == 2 and all(p.n_outcomes == 2 for p in povms)
    value = f.value_on(assemblage_from(werner_state(0.9), povms))
    assert value == pytest.approx(c * 2, abs=1e-8)


def test_optimize_measurements_cannot_beat_feasible_start():
    rho = werner_state(1.0)
    f = certify_local(assemblage_from(rho, pauli_xz()), 0).functional
    povms = optimize_measurements(rho, f.F)
    value = f.value_on(assemblage_from(rho, povms))
    assert value <= 0.5 + 1e-6  # pauli_xz already achieves 0.5


def test_optimize_measurements_rank_deficient_state():
    rng = np.random.default_rng(3)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    f_grid = np.zeros((2, 2, 2, 2), dtype=complex)
    for a, x in np.ndindex(2, 2):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f_grid[a, x] = (h + h.conj().T) / 2
    f = SteeringFunctional(F=f_grid, x_star=0)
    povms = optimize_measurements(rho, f.F)
    value = f.value_on(assemblage_from(rho, povms))
    expected = sum(min(f_grid[a, x, 0, 0].real for a in range(2)) for x in range(2))
    assert value == pytest.approx(expected, abs=1e-7)


def random_functional(n_a, m, d, rng):
    h = rng.standard_normal((n_a, m, d, d)) + 1j * rng.standard_normal((n_a, m, d, d))
    return SteeringFunctional(F=(h + np.conj(np.swapaxes(h, -1, -2))) / 2, x_star=0)


@pytest.mark.parametrize("eta", [1.0, 0.8], ids=["lossless", "lossy"])
@pytest.mark.parametrize("seed", range(3))
def test_two_outcome_closed_form_matches_the_sdp(eta, seed):
    rng = np.random.default_rng(seed)
    measured = random_functional(2 if eta == 1.0 else 3, 2, 2, rng)  # 3 rows: no-click last
    f = measured.F[:2]  # the conclusive outcomes' rows
    closed = optimize_measurements(RHO_PI7, f)
    reference = _measurements_sdp(_alice_weights(RHO_PI7, f))
    values = [
        measured.value_on(assemblage_from(RHO_PI7, povms if eta == 1.0 else [apply_loss(p, eta) for p in povms]))
        for povms in (closed, reference)
    ]
    assert values[0] == pytest.approx(values[1], abs=1e-8)


def test_two_outcome_closed_form_matches_the_sdp_on_qutrits():
    rng = np.random.default_rng(5)
    rho = isotropic_state(3, 0.9)
    f = random_functional(2, 3, 3, rng)
    closed = optimize_measurements(rho, f.F)
    reference = _measurements_sdp(_alice_weights(rho, f.F))
    values = [f.value_on(assemblage_from(rho, p)) for p in (closed, reference)]
    assert values[0] == pytest.approx(values[1], abs=1e-8)


def test_two_outcome_closed_form_with_equal_weights():
    # F_0x = F_1x: every measurement is optimal; the result must still be a POVM
    rng = np.random.default_rng(2)
    f = random_functional(1, 2, 2, rng)
    f = SteeringFunctional(F=np.concatenate([f.F, f.F]), x_star=0)
    povms = optimize_measurements(RHO_PI7, f.F)
    for povm in povms:
        assert povm.n_outcomes == 2
        assert np.max(np.abs(sum(povm.elements) - np.eye(2))) <= 1e-12
    expected = f.value_on(assemblage_from(RHO_PI7, pauli_xz()))
    assert f.value_on(assemblage_from(RHO_PI7, povms)) == pytest.approx(expected, abs=1e-12)


def test_three_outcome_qutrit_measurements_by_sdp():
    rng = np.random.default_rng(4)
    f = random_functional(3, 2, 3, rng)
    # product state |00>: the weights are F_ax[0, 0] |0><0|, so the optimum
    # puts the outcome with the least F_ax[0, 0] on |0>
    product = np.zeros((9, 9), dtype=complex)
    product[0, 0] = 1.0
    povms = optimize_measurements(product, f.F)
    assert [p.n_outcomes for p in povms] == [3, 3]
    expected = sum(min(f.F[a, x, 0, 0].real for a in range(3)) for x in range(2))
    assert f.value_on(assemblage_from(product, povms)) == pytest.approx(expected, abs=1e-7)
    # entangled state: no random projective measurement does better
    rho = isotropic_state(3, 0.8)
    value = f.value_on(assemblage_from(rho, optimize_measurements(rho, f.F)))
    for s in range(20):
        assert value <= f.value_on(assemblage_from(rho, random_povms(3, 2, 3, seed=s))) + 1e-8


def test_measurement_weights_refuse_a_state_of_another_dimension():
    with pytest.raises(ValueError, match="^state dimension incompatible with the trusted dimension$"):
        optimize_measurements(werner_state(0.9), np.zeros((2, 2, 3, 3), dtype=complex))


def test_measurement_sdp_refuses_a_solve_that_does_not_end_optimal(monkeypatch):
    import dataclasses

    import steercert.sdp as sdp_module

    solve = sdp_module.solve
    monkeypatch.setattr(sdp_module, "solve", lambda p, **kw: dataclasses.replace(
        solve(p, **kw), status=sdp_module.SolverStatus.NUMERICAL_TROUBLE))
    weights = _alice_weights(isotropic_state(3, 0.8), random_functional(3, 2, 3, np.random.default_rng(4)).F)
    with pytest.raises(RuntimeError, match="^measurement optimization failed with status numerical_trouble$"):
        _measurements_sdp(weights)


def test_seesaw_product_state_stays_flat():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    trace = seesaw(rho, random_povms(2, 2, 2, seed=5), 0, max_iters=4, tol=1e-6)
    assert np.all(trace.h_min_series() <= 1e-6)


def test_seesaw_from_optimal_start_does_not_degrade(monkeypatch):
    trace, certifications, _ = count_calls(
        monkeypatch, lambda: seesaw(werner_state(1.0), pauli_xz(), 0, max_iters=10, ceiling=1.0)
    )
    assert trace.iterations[0].h_min == pytest.approx(1.0, abs=1e-7)
    assert trace.converged
    assert trace.stop_reason is StopReason.TOLERANCE
    assert np.all(trace.h_min_series() >= 1.0 - 1e-7)
    assert certifications == 1  # a start at the ceiling is not stepped from


def test_seesaw_reaches_one_bit_from_random_start():
    trace = seesaw(RHO_PI7, random_povms(2, 2, 2, seed=0), 0, max_iters=50, tol=1e-6, ceiling=1.0)
    hs = trace.h_min_series()
    assert hs[-1] >= 0.999
    assert np.all(np.diff(hs) >= -1e-9)


def test_seesaw_deterministic():
    t1 = seesaw(RHO_PI7, random_povms(2, 2, 2, seed=2), 0, max_iters=8)
    t2 = seesaw(RHO_PI7, random_povms(2, 2, 2, seed=2), 0, max_iters=8)
    assert np.array_equal(t1.h_min_series(), t2.h_min_series())


def test_seesaw_fixed_point():
    first = seesaw(RHO_PI7, random_povms(2, 2, 2, seed=3), 0, max_iters=40, ceiling=1.0)
    resumed = seesaw(RHO_PI7, list(first.final.povms), 0, max_iters=5, ceiling=1.0)
    assert abs(resumed.final.h_min - first.final.h_min) < 1e-6


def test_seesaw_with_loss_records_monotone_trace():
    trace = seesaw(RHO_PI7, random_povms(2, 2, 2, seed=1), 0, eta=0.9, max_iters=6)
    hs = trace.h_min_series()
    assert np.all(np.diff(hs) >= -1e-9)
    assert trace.iterations[0].functional.F.shape[0] == 3  # no-click row present


def test_trace_csv_export(tmp_path):
    trace = seesaw(werner_state(1.0), pauli_xz(), 0, max_iters=3, ceiling=1.0)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,p_guess,h_min"
    assert len(lines) == len(trace.iterations) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-6)


def test_trace_h_min_is_the_min_entropy_of_p_guess(tmp_path):
    trace = seesaw(RHO_PI7, random_povms(2, 2, 2, seed=0), 0, max_iters=3)
    assert len(trace.iterations) > 1
    for it in trace.iterations:
        assert it.h_min == min_entropy(it.p_guess)
    assert trace.to_json()["final_h_min"] == min_entropy(trace.final.p_guess)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = path.read_text().strip().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == [f"{min_entropy(it.p_guess):.12g}" for it in trace.iterations]


def test_seesaw_validates_arguments():
    with pytest.raises(ValueError):
        seesaw(werner_state(1.0), pauli_xz(), 0, max_iters=0)
    with pytest.raises(ValueError):
        seesaw(werner_state(1.0), [], 0)


def test_seesaw_failure_retains_partial_trace(monkeypatch):
    import sys

    mod = sys.modules["steercert.seesaw"]

    calls = {"n": 0}
    original = mod.optimize_measurements

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("measurement optimization failed with status numerical_trouble")
        return original(*args, **kwargs)

    monkeypatch.setattr(mod, "optimize_measurements", flaky)
    with pytest.raises(SeesawError) as err:
        seesaw(RHO_PI7, random_povms(2, 2, 2, seed=4), 0, max_iters=10)
    assert len(err.value.trace.iterations) >= 1


def test_seesaw_records_only_optimal_certifications(monkeypatch):
    import dataclasses
    import sys

    from steercert.sdp import SolverStatus

    mod = sys.modules["steercert.seesaw"]
    original = mod.certify_local
    calls = {"n": 0}

    def troubled(*args, **kwargs):
        # every certification after the first ends in numerical trouble, with
        # a guessing probability that would look like progress
        res = original(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 1:
            return res
        return dataclasses.replace(res, p_guess=res.p_guess - 0.05, status=SolverStatus.NUMERICAL_TROUBLE)

    monkeypatch.setattr(mod, "certify_local", troubled)
    trace = seesaw(RHO_PI7, random_povms(2, 2, 2, seed=0), 0, max_iters=5)
    assert calls["n"] > 2
    assert len(trace.iterations) == 1


def test_non_optimal_stepping_certification_is_logged(monkeypatch, caplog):
    import dataclasses
    import logging
    import sys

    from steercert.sdp import SolverStatus

    mod = sys.modules["steercert.seesaw"]
    original = mod.certify_local
    asm = assemblage_from(RHO_PI7, random_povms(2, 2, 2, seed=0))
    res = original(asm, 0)
    assert res.functional.supports is not None  # facially reduced, so a smoothed one steers
    seen = []

    def troubled(*args, **kwargs):
        seen.append(dataclasses.replace(original(*args, **kwargs), status=SolverStatus.NUMERICAL_TROUBLE))
        return seen[-1]

    monkeypatch.setattr(mod, "certify_local", troubled)
    with caplog.at_level(logging.DEBUG, logger="steercert"):
        mod._stepping_functional(asm, res, 0, 3e-2)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stepping")]
    gap = seen[0].gap
    assert lines == [f"stepping certification at delta 3.0e-02 ended numerical_trouble (gap {gap:.2e})"]


def projective(p: np.ndarray) -> Povm:
    return Povm([p, np.eye(len(p)) - p])


def rotation(p_old, p_new):
    """The unitary polar factor of P_new P_old + (1 - P_new)(1 - P_old), by SVD."""
    eye = np.eye(len(p_old))
    w, _, vh = np.linalg.svd(p_new @ p_old + (eye - p_new) @ (eye - p_old))
    return w @ vh


# (dimension, rank of M_0, seed): qubits, and qutrits with rank-1 and rank-2 projectors
GEODESIC_CASES = [(2, 1, 0), (2, 1, 1), (3, 2, 2), (3, 1, 3)]


def random_projector_pairs(d, rank, seed):
    """Two inputs' random rank-`rank` projective measurements, old and new."""
    rng = np.random.default_rng(seed)
    old, new = [], []
    for _ in range(2):
        for side in (old, new):
            u = random_unitary(d, rng)
            side.append(projective(u[:, :rank] @ u[:, :rank].conj().T))
    return old, new


@pytest.mark.parametrize("d, rank, seed", GEODESIC_CASES)
def test_geodesic_passes_through_both_endpoints(d, rank, seed):
    old, new = random_projector_pairs(d, rank, seed)
    path = _geodesic(old, new)
    for t, ends in ((0, old), (1, new)):
        for povm, end in zip(path(t), ends):
            assert np.max(np.abs(povm.elements[0] - end.elements[0])) <= 1e-12


@pytest.mark.parametrize("d, rank, seed", GEODESIC_CASES)
def test_geodesic_stays_on_projectors_of_one_rank(d, rank, seed):
    old, new = random_projector_pairs(d, rank, seed)
    path = _geodesic(old, new)
    for t in (0.5, 2, 3, 9, 27):
        for povm in path(t):
            p = povm.elements[0]
            assert np.max(np.abs(p - p.conj().T)) <= 1e-12
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert np.trace(p).real == pytest.approx(rank, abs=1e-12)
    # P(2) is the rotation taking P(0) to P(1), applied twice
    for povm, o, n in zip(path(2), old, new):
        u = rotation(o.elements[0], n.elements[0])
        assert np.max(np.abs(povm.elements[0] - u @ n.elements[0] @ u.conj().T)) <= 1e-12


def test_geodesic_needs_a_rotation_between_projectors():
    old, new = random_projector_pairs(2, 1, 4)
    assert _geodesic(old, new) is not None
    p = old[0].elements[0]
    cases = {
        "equal": (old, old),
        "orthogonal": (old, [Povm(q.elements[::-1]) for q in old]),
        "unequal ranks": ([projective(np.eye(2)), old[1]], new),
        "not projective": ([projective(0.9 * p), old[1]], new),
        "three outcomes": ([Povm([p, 0 * p, np.eye(2) - p])] * 2, new),
    }
    for name, (a, b) in cases.items():
        assert _geodesic(a, b) is None, name


def count_calls(monkeypatch, run):
    """(run(), certify_local calls, optimize_measurements calls) inside the see-saw."""
    import sys

    mod = sys.modules["steercert.seesaw"]
    calls = {"certify": 0, "optimize": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(mod, "certify_local", counted("certify", mod.certify_local))
    monkeypatch.setattr(mod, "optimize_measurements", counted("optimize", mod.optimize_measurements))
    return run(), calls["certify"], calls["optimize"]


@pytest.mark.parametrize("update", ["equal", "orthogonal", "extrapolated"])
def test_extrapolation_certifies_only_along_a_geodesic(monkeypatch, update):
    # full-rank assemblages are not facially reduced, so no stepping
    # certification is made: one certification per update unless extrapolating;
    # from this start, the step t = 3 lowers p_guess by about 0.1 in the first round
    import sys

    mod = sys.modules["steercert.seesaw"]
    rho, start = 0.98 * RHO_PI7 + 0.02 * np.eye(4) / 4, random_povms(2, 2, 2, seed=0)
    if update != "extrapolated":
        fixed = start if update == "equal" else [Povm(p.elements[::-1]) for p in start]  # M_0 = 1 - P_old
        monkeypatch.setattr(mod, "optimize_measurements", lambda *args, **kwargs: list(fixed))
    trace, certifications, updates = count_calls(monkeypatch, lambda: seesaw(rho, start, 0, max_iters=4))
    assert updates >= 1
    if update == "extrapolated":
        assert certifications > 1 + updates
        assert any(it.step > 1 for it in trace.iterations)
    else:
        assert certifications == 1 + updates
        assert all(it.step == 1 for it in trace.iterations[1:])


def test_three_outcome_updates_are_not_extrapolated(monkeypatch):
    rho = isotropic_state(3, 0.8)
    _, certifications, updates = count_calls(
        monkeypatch, lambda: seesaw(rho, random_povms(3, 2, 3, seed=1), 0, max_iters=3)
    )
    assert updates >= 1 and certifications == 1 + updates


def test_iterations_record_delta_and_step():
    trace = seesaw(RHO_PI7, random_povms(2, 2, 2, seed=0), 0, max_iters=50, tol=1e-6, ceiling=1.0)
    first, *rest = trace.iterations
    assert (first.delta, first.step) == (None, 0)
    ladder = [3e-2 / 10**k for k in range(6)]
    for it in rest:
        assert it.step in (1, *_EXTRAPOLATION_STEPS)
        assert any(it.delta == pytest.approx(delta, rel=1e-12) for delta in ladder)
    assert any(it.step > 1 for it in rest)


def test_resuming_a_stalled_start_gains_nothing():
    stalled = 0
    for seed in range(12):  # starts 10 and 11 stall
        first = seesaw(RHO_PI7, random_povms(2, 2, 2, seed), 0, max_iters=50, tol=1e-6, ceiling=1.0)
        if first.stop_reason is not StopReason.STALL:
            continue
        stalled += 1
        resumed = seesaw(RHO_PI7, list(first.final.povms), 0, max_iters=5, tol=1e-6, ceiling=1.0)
        assert resumed.final.h_min - first.final.h_min < 1e-6
    assert stalled >= 1


def test_the_bar_cuts_short_only_rejected_candidates(monkeypatch):
    # an accepted certification never beats its bar, so without the bar every trace is the
    # same, bit for bit; only the candidates it rejects stop early, and save Newton steps.
    # The starts are lossy: pure data under lossless measurements are certified in closed
    # form, which no bar cuts short
    import sys

    import steercert.sdp as sdp_module

    mod = sys.modules["steercert.seesaw"]
    certify, solve = mod.certify_local, sdp_module.solve
    counts = {"steps": 0, "cut": 0}

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counts["steps"] += sol.iterations
        counts["cut"] += sol.status is sdp_module.SolverStatus.BOUND_EXCEEDED
        return sol

    def unbarred(asm, x_star, *, solver_opts=None, **kwargs):
        opts = {key: value for key, value in (solver_opts or {}).items() if key != "stop_above"}
        return certify(asm, x_star, solver_opts=opts, **kwargs)

    def traces():
        counts.update(steps=0, cut=0)
        runs = [seesaw(RHO_PI7, random_povms(2, 2, 2, seed), 0, eta=0.9, max_iters=50, tol=1e-6)
                for seed in range(5)]  # the fig6_seesaw starts, at efficiency 0.9
        return [[(it.p_guess.hex(), it.delta, it.step) for it in run.iterations] for run in runs], dict(counts)

    monkeypatch.setattr(sdp_module, "solve", counted)
    barred, with_bar = traces()
    monkeypatch.setattr(mod, "certify_local", unbarred)
    plain, without_bar = traces()
    assert barred == plain
    assert with_bar["cut"] > 0 and without_bar["cut"] == 0
    assert with_bar["steps"] < without_bar["steps"]


def test_no_round_certifies_a_rung_twice(monkeypatch):
    import sys

    mod = sys.modules["steercert.seesaw"]
    original = mod._stepping_functional
    seen = []  # holds each assemblage, so that no id is reused

    def recorded(asm, res, x_star, delta):
        seen.append((asm, delta))
        return original(asm, res, x_star, delta)

    monkeypatch.setattr(mod, "_stepping_functional", recorded)
    for seed in range(5):
        seesaw(RHO_PI7, random_povms(2, 2, 2, seed), 0, max_iters=50, tol=1e-6, ceiling=1.0)
    keys = [(id(asm), delta) for asm, delta in seen]
    assert len(keys) > 5
    assert len(set(keys)) == len(keys)


def test_no_round_smooths_coarser_than_the_excess(monkeypatch):
    # Eve guesses with at least 1/n, so p_guess can fall by at most e = p_guess - 1/n: each
    # round starts no coarser than k_e, the first rung with delta <= e (the floor when none
    # is), and climbs back no coarser than k_e - 1
    import sys

    mod = sys.modules["steercert.seesaw"]
    original, ladder = mod._stepping_functional, mod._SMOOTHING_LADDER
    rounds = []  # (res, outcomes, rungs tried) per round; holds each res, so that no id is reused

    def recorded(asm, res, x_star, delta):
        if not rounds or rounds[-1][0] is not res:
            rounds.append((res, len(asm.sigma), []))
        rounds[-1][2].append(ladder.index(delta))
        return original(asm, res, x_star, delta)

    monkeypatch.setattr(mod, "_stepping_functional", recorded)
    for seed in range(12):  # the fig6_seesaw starts, and 10 and 11, which stall
        seesaw(RHO_PI7, random_povms(2, 2, 2, seed), 0, max_iters=50, tol=1e-6, ceiling=1.0)
    assert len(rounds) > 5
    climbed = 0
    for res, n, rungs in rounds:
        excess = res.p_guess - 1.0 / n
        k_e = next((k for k, delta in enumerate(ladder) if delta <= excess), len(ladder) - 1)
        assert rungs[0] >= k_e
        assert min(rungs) >= k_e - 1
        climbed += rungs[-1] < rungs[0]
    assert climbed >= 1  # a round that reached the floor and climbed back


def test_seesaw_stops_at_the_ceiling(monkeypatch):
    import sys

    mod = sys.modules["steercert.seesaw"]
    original = mod._stepping_functional
    stepped_from = []

    def recorded(asm, res, *args):
        stepped_from.append(res.h_min)
        return original(asm, res, *args)

    monkeypatch.setattr(mod, "_stepping_functional", recorded)
    tol = 1e-6
    for seed in range(5):
        trace = seesaw(RHO_PI7, random_povms(2, 2, 2, seed), 0, max_iters=50, tol=tol, ceiling=1.0)
        assert np.all(trace.h_min_series()[:-1] < 1.0 - tol)
        if trace.converged:
            assert trace.stop_reason is StopReason.TOLERANCE and trace.final.h_min >= 1.0 - tol
    assert stepped_from and max(stepped_from) < 1.0 - tol  # no round steps from the ceiling
