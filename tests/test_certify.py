import dataclasses

import numpy as np
import pytest

from steercert.certify import (
    JointAssemblage,
    SteeringFunctional,
    certify_global,
    certify_local,
    certify_pm,
    dual_functional_direct,
    min_entropy,
)
from steercert.qlin import Povm, basis_povm, dagger, random_unitary
from steercert.scenario import (
    Scenario,
    apply_loss,
    assemblage_from,
    isotropic_state,
    mub_povms,
    pauli_xz,
    schmidt_state,
    werner_state,
)
from steercert.sdp import SolverStatus


def random_density(d, rng, rank=None):
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_assemblage(rng, d_a=2, d_b=2, m=2):
    rho = random_density(d_a * d_b, rng)
    povms = [basis_povm(random_unitary(d_a, rng)) for _ in range(m)]
    return assemblage_from(rho, povms)


def test_min_entropy_values():
    assert min_entropy(1.0) == 0.0
    assert min_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert min_entropy(1 / 3) == pytest.approx(np.log2(3), abs=1e-12)
    with pytest.raises(ValueError):
        min_entropy(0.0)
    with pytest.raises(ValueError):
        min_entropy(-0.2)


def test_local_maximally_entangled_xz():
    asm = assemblage_from(werner_state(1.0), pauli_xz())
    res = certify_local(asm, 0)
    assert res.status.value == "optimal"
    assert res.p_guess == pytest.approx(0.5, abs=1e-8)
    assert res.h_min == pytest.approx(1.0, abs=1e-6)
    assert res.gap <= 2e-8
    res1 = certify_local(asm, 1)
    assert res1.p_guess == pytest.approx(0.5, abs=1e-8)


def test_local_single_input_gives_no_randomness():
    asm = assemblage_from(werner_state(1.0), [pauli_xz()[0]])
    res = certify_local(asm, 0)
    assert res.p_guess == pytest.approx(1.0, abs=1e-8)


def test_local_below_steering_threshold():
    asm = assemblage_from(werner_state(0.70), pauli_xz())
    res = certify_local(asm, 0)
    assert res.p_guess == pytest.approx(1.0, abs=1e-7)


def test_local_visibility_curve_value():
    # above threshold the optimum is strictly below 1 and matches the dual
    asm = assemblage_from(werner_state(0.8), pauli_xz())
    res = certify_local(asm, 0)
    assert 0.5 < res.p_guess < 1.0 - 1e-4
    assert abs(res.p_guess - res.functional.value_on(asm)) <= 2e-8
    assert res.functional.feasibility_margin() >= -1e-8


def test_local_joint_assemblage_feasible():
    asm = assemblage_from(werner_state(0.85), pauli_xz())
    res = certify_local(asm, 0)
    res.joint.validate(asm, tol=1e-7)
    assert res.joint.guess_probability(0) == pytest.approx(res.p_guess, abs=1e-7)


def test_local_invalid_x_star():
    asm = assemblage_from(werner_state(1.0), pauli_xz())
    with pytest.raises(ValueError):
        certify_local(asm, 5)


def test_uniform_strategy_lower_bound():
    # sigma^e = sigma_obs / n_outcomes is feasible, so p >= 1/n
    rng = np.random.default_rng(3)
    for _ in range(3):
        asm = random_assemblage(rng)
        res = certify_local(asm, 0)
        assert res.p_guess >= 1.0 / asm.scenario.n_outcomes - 1e-9
        assert res.p_guess <= 1.0 + 1e-9


def test_global_trivial_bob_matches_local():
    asm = assemblage_from(werner_state(0.9), pauli_xz())
    trivial = Povm([np.eye(2, dtype=complex)])
    g = certify_global(asm, 0, trivial)
    loc = certify_local(asm, 0)
    assert g.p_guess == pytest.approx(loc.p_guess, abs=1e-8)


def test_global_at_most_local():
    bob_x = pauli_xz()[0]
    for v in (0.5, 1.0):
        asm = assemblage_from(werner_state(v), pauli_xz())
        for x_star in (0, 1):
            g = certify_global(asm, x_star, bob_x)
            loc = certify_local(asm, x_star)
            assert g.p_guess <= loc.p_guess + 1e-9
            assert g.status.value == "optimal"


def test_global_monotone_in_visibility():
    bob_x = pauli_xz()[0]
    values = []
    for v in (0.5, 0.75, 1.0):
        asm = assemblage_from(werner_state(v), pauli_xz())
        values.append(certify_global(asm, 0, bob_x).p_guess)
    assert values[0] >= values[1] >= values[2] - 1e-9


def test_pm_visibility_independence():
    for v in (0.1, 0.5, 1.0):
        res = certify_pm(werner_state(v), pauli_xz(), 0)
        assert res.p_guess == pytest.approx(0.5, abs=1e-7)
        assert res.gap <= 2e-8


def test_pm_qutrit_footnote_interval():
    res = certify_pm(isotropic_state(3, 0.3), mub_povms(3, 2), 0)
    assert 1 / 3 - 1e-9 <= res.p_guess <= 0.339


def test_pm_single_input():
    res = certify_pm(werner_state(0.6), [pauli_xz()[0]], 0)
    assert res.p_guess == pytest.approx(1.0, abs=1e-7)


def test_pm_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        certify_pm(2.0 * werner_state(0.5), pauli_xz(), 0)


def test_pm_at_most_local():
    rng = np.random.default_rng(8)
    for v in (0.6, 0.9):
        rho = werner_state(v)
        povms = pauli_xz()
        pm = certify_pm(rho, povms, 0)
        loc = certify_local(assemblage_from(rho, povms), 0)
        assert pm.p_guess <= loc.p_guess + 1e-8


def test_guessing_monotone_in_visibility():
    previous = None
    for v in np.linspace(0.55, 1.0, 10):
        res = certify_local(assemblage_from(werner_state(v), pauli_xz()), 0)
        if previous is not None:
            assert res.p_guess <= previous + 1e-7  # more visibility, harder guessing
        previous = res.p_guess


def test_lossy_monotonicity_in_eta():
    base = pauli_xz()
    previous = None
    for eta in np.linspace(1.0, 0.4, 10):
        povms = [apply_loss(p, eta) for p in base]
        res = certify_local(assemblage_from(werner_state(1.0), povms), 0)
        if previous is not None:
            assert res.p_guess >= previous - 1e-7  # less efficiency, easier guessing
        previous = res.p_guess


def test_dual_functional_value_matches_primal():
    asm = assemblage_from(werner_state(1.0), pauli_xz())
    f = certify_local(asm, 0).functional
    assert f.value_on(asm) == pytest.approx(0.5, abs=1e-7)


def test_dual_functional_trivial_feasible_point():
    # F = alpha*I, G = 0 is dual feasible for alpha > 1 with value alpha*m
    asm = assemblage_from(werner_state(0.8), pauli_xz())
    alpha = 1.5
    d = asm.scenario.bob_dim
    n_a, m = asm.scenario.n_outcomes, asm.scenario.n_inputs
    f = SteeringFunctional(
        F=np.broadcast_to(alpha * np.eye(d, dtype=complex), (n_a, m, d, d)).copy(),
        x_star=0,
        G=np.zeros((n_a, m, d, d), dtype=complex),
        guess_outcome=np.arange(n_a),
        guess_target=np.broadcast_to(np.eye(d, dtype=complex), (n_a, d, d)).copy(),
    )
    assert f.feasibility_margin() >= alpha - 1.0 - 1e-12
    assert f.value_on(asm) == pytest.approx(alpha * m, abs=1e-12)
    assert f.value_on(asm) >= 1.0


def test_dual_functional_uniform_upper_bound():
    # a globally feasible functional bounds every outcome probability at x*
    asm = assemblage_from(werner_state(0.9), pauli_xz())
    res = certify_local(asm, 0)
    f = res.functional
    assert f.supports is None  # full-rank instance: global certificate
    assert f.feasibility_margin() >= -1e-8
    rng = np.random.default_rng(19)
    for _ in range(25):
        other = random_assemblage(rng)
        bound = f.value_on(other)
        assert bound >= np.max(other.outcome_probs(0)) - 1e-7


def test_dual_functional_direct_agrees_when_interior():
    asm = assemblage_from(werner_state(0.8), pauli_xz())
    res = certify_local(asm, 0)
    f, value = dual_functional_direct(asm, 0)
    assert value == pytest.approx(res.p_guess, abs=1e-7)
    assert f.feasibility_margin() >= -1e-9


def test_dual_functional_direct_on_degenerate_instance():
    # pure-state instance: the dual optimum is approached, not attained;
    # the direct solve returns a globally feasible, slightly suboptimal
    # inequality while the primal-side certificate carries the exact value
    asm = assemblage_from(werner_state(1.0), pauli_xz())
    res = certify_local(asm, 0)
    assert res.functional.supports is not None
    assert res.functional.value_on(asm) == pytest.approx(0.5, abs=1e-7)
    f, value = dual_functional_direct(asm, 0)
    assert f.feasibility_margin() >= -1e-9
    assert 0.5 - 1e-9 <= value <= 0.52
    rng = np.random.default_rng(7)
    for _ in range(10):
        other = random_assemblage(rng)
        assert f.value_on(other) >= np.max(other.outcome_probs(0)) - 1e-7


@pytest.mark.parametrize(
    "rho,povms,unreduced_below",
    [
        (schmidt_state([np.cos(np.pi / 7) ** 2, np.sin(np.pi / 7) ** 2]), pauli_xz(), -1.0),
        (werner_state(1.0), pauli_xz(), -1.0),
        (werner_state(1.0), [apply_loss(p, 0.8) for p in pauli_xz()], -1.0),
        (schmidt_state([1.0, 0.0]), pauli_xz(), None),  # Z's outcome 1 leaves a rank-0 block
    ],
    ids=["pi7", "werner", "werner_eta0.8", "product"],
)
def test_reduced_certificate_is_feasible_on_its_faces(rho, povms, unreduced_below):
    # the multipliers of a facially reduced solve are dual feasible only once
    # compressed onto the observed faces, which is what feasibility_margin checks
    f = certify_local(assemblage_from(rho, povms), 0).functional
    assert f.supports is not None
    assert f.feasibility_margin() >= -1e-8
    if unreduced_below is not None:
        assert dataclasses.replace(f, supports=None).feasibility_margin() < unreduced_below


def test_strong_duality_across_instances():
    cases = [
        assemblage_from(werner_state(v), pauli_xz()) for v in (0.6, 0.75, 0.9, 1.0)
    ]
    for asm in cases:
        res = certify_local(asm, 0)
        assert abs(res.p_guess - res.functional.value_on(asm)) <= 2e-8


def test_result_json_round_trip_fields():
    asm = assemblage_from(werner_state(0.8), pauli_xz())
    res = certify_local(asm, 0)
    data = res.to_json()
    assert set(data) >= {"p_guess", "h_min", "gap", "status", "x_star", "functional"}
    assert data["status"] == "optimal"
    assert len(data["functional"]["F"]) == 2


def test_joint_assemblage_validation_rejects_garbage():
    sc = Scenario(2, 2, 2)
    bad = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    bad[0, 0, 0] = np.eye(2)
    ja = JointAssemblage(sc, 2, bad)
    asm = assemblage_from(werner_state(0.5), pauli_xz())
    with pytest.raises(ValueError):
        ja.validate(asm)


def test_qutrit_endpoint_independent_of_target_basis():
    # every basis of a complete unbiased family certifies the same log2(3)
    asm = assemblage_from(isotropic_state(3, 1.0), mub_povms(3, 4))
    for x_star in range(4):
        res = certify_local(asm, x_star)
        assert res.h_min == pytest.approx(np.log2(3.0), abs=1e-6)


def test_status_propagates_when_iterations_capped():
    asm = assemblage_from(werner_state(0.8), pauli_xz())
    res = certify_local(asm, 0, solver_opts={"max_iters": 3})
    assert res.status.value in ("max_iterations", "numerical_trouble")


def test_pm_loss_curve_matches_unit_visibility_steering():
    # with a trusted state, only the detector efficiency limits the
    # randomness: the lossy PM value equals the lossy steering value at
    # unit visibility, for every visibility
    for eta in (0.7, 0.9):
        lossy = [apply_loss(p, eta) for p in pauli_xz()]
        reference = certify_local(assemblage_from(werner_state(1.0), lossy), 0).p_guess
        for v in (0.3, 0.6, 1.0):
            pm = certify_pm(werner_state(v), lossy, 0).p_guess
            assert pm == pytest.approx(reference, abs=1e-7)


def test_global_uncorrelated_target_gives_two_bits():
    # at unit visibility with Alice targeting Z and Bob measuring X the two
    # outcomes are independent uniform bits; guessing the pair succeeds
    # with probability 1/4 (achievable by any fixed pair guess)
    asm = assemblage_from(werner_state(1.0), pauli_xz())
    res = certify_global(asm, 1, pauli_xz()[0])
    assert res.p_guess == pytest.approx(0.25, abs=1e-7)
    assert res.h_min == pytest.approx(2.0, abs=1e-6)


def test_supports_match_one_eigh_per_block():
    # the reference: one eigh per block, and the cutoff from the largest eigenvalue they give
    from steercert.certify import SUPPORT_CUTOFF, _supports

    rng = np.random.default_rng(36)
    grid = np.zeros((3, 2, 3, 3), dtype=complex)
    for (a, x), rank in zip(np.ndindex(3, 2), (3, 2, 1, 0, 3, 2)):
        g = rng.standard_normal((3, rank)) + 1j * rng.standard_normal((3, rank))
        grid[a, x] = g @ dagger(g)
    grid[0, 1, 0, 1] += 1e-13  # a block that is Hermitian only within rounding
    eighs = {(a, x): np.linalg.eigh(0.5 * (grid[a, x] + grid[a, x].conj().T)) for a, x in np.ndindex(3, 2)}
    cutoff = SUPPORT_CUTOFF * max(float(vals[-1]) for vals, _ in eighs.values())
    got = _supports(grid)
    for (a, x), (vals, vecs) in eighs.items():
        want = np.eye(3, dtype=complex) if np.all(vals > cutoff) else vecs[:, vals > cutoff]
        assert got[a][x].shape == want.shape == (3, (3, 2, 1, 0, 3, 2)[2 * a + x])
        assert got[a][x].tobytes() == want.tobytes()


def _afresh_and_shared(monkeypatch, certification, *args):
    """The result of a certification, and the problem it solved, twice: once as the builder made
    it, and once with the same problem built afresh inside solve (without a shared structure)."""
    import steercert.sdp as sdp_module

    solve = sdp_module.solve
    runs = []
    for afresh in (True, False):
        captured = []

        def capturing(problem, **kw):
            captured.append(problem)
            return solve(dataclasses.replace(problem) if afresh else problem, **kw)

        monkeypatch.setattr(sdp_module, "solve", capturing)
        runs.append((certification(*args), captured[0]))
        monkeypatch.undo()
    return runs


def _results_identical(got, want):
    for name in ("p_guess", "h_min", "gap", "status", "dual_value"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.joint.sigma_e, want.joint.sigma_e)
    for name in ("F", "G"):
        assert np.array_equal(getattr(got.functional, name), getattr(want.functional, name))


@pytest.mark.parametrize("v", [0.7, 0.9])
def test_unreduced_certifications_share_a_structure_bit_for_bit(monkeypatch, v):
    from steercert.certify import _steering_parents

    certify_local(assemblage_from(werner_state(0.8), pauli_xz()), 0)  # the structure exists
    entries = {id(entry) for entry in _steering_parents.values()}
    asm = assemblage_from(werner_state(v), pauli_xz())
    (fresh, fresh_problem), (shared, problem) = _afresh_and_shared(monkeypatch, certify_local, asm, 0)
    assert {id(entry) for entry in _steering_parents.values()} == entries  # no parent built or replaced
    assert problem._shared is fresh_problem._shared is not None
    _results_identical(shared, fresh)
    # the solutions behind them, solved from the problem built afresh here
    import steercert.sdp as sdp_module

    again = sdp_module.solve(dataclasses.replace(problem))
    solution = sdp_module.solve(problem)
    assert np.array_equal(solution.dual, again.dual) and solution.dual_value == again.dual_value
    assert all(np.array_equal(a, b) for a, b in zip(solution.primal, again.primal))


def test_global_certifications_keep_one_structure_per_trusted_measurement(monkeypatch):
    asm = assemblage_from(werner_state(0.9), pauli_xz())
    structures = []
    for bob in pauli_xz():
        (fresh, _), (shared, problem) = _afresh_and_shared(monkeypatch, certify_global, asm, 0, bob)
        _results_identical(shared, fresh)
        structures.append(problem._shared)
    assert structures[0] is not None and structures[1] is not None and structures[0] is not structures[1]
    assert not np.array_equal(structures[0].cmats[0], structures[1].cmats[0])


def _lossy(eta, povms=pauli_xz()):
    """A fig3_qubit point: the pure Werner state under lossy measurements."""
    return assemblage_from(werner_state(1.0), [apply_loss(p, eta) for p in povms])


def test_face_reduced_certifications_share_a_parent_bit_for_bit(monkeypatch):
    from steercert.certify import _steering_parents

    _steering_parents.clear()
    (fresh, _), (res, problem) = _afresh_and_shared(monkeypatch, certify_local, _lossy(0.7), 0)
    assert res.functional.supports is not None and problem._shared is not None
    _results_identical(res, fresh)
    ((key, entry),) = _steering_parents.items()
    (fresh, _), (res, again) = _afresh_and_shared(monkeypatch, certify_local, _lossy(0.8), 0)
    assert res.functional.supports is not None and again._shared is problem._shared
    assert len(_steering_parents) == 1 and _steering_parents[key] is entry
    _results_identical(res, fresh)
    # the same face ranks on other isometries: the entry is rebuilt in place, not added
    u = random_unitary(2, np.random.default_rng(5))
    rotated = [Povm(u @ p.elements @ dagger(u)) for p in pauli_xz()]
    (fresh, _), (res, other) = _afresh_and_shared(monkeypatch, certify_local, _lossy(0.8, rotated), 0)
    assert other._shared is not None and other._shared is not problem._shared
    assert len(_steering_parents) == 1 and _steering_parents[key] is not entry
    _results_identical(res, fresh)


def test_data_off_a_face_of_rank_0_is_refused_on_every_call(monkeypatch):
    import steercert.certify as certify_module
    from steercert.certify import CertificationError, _steering_parents

    # the conclusive blocks (0.4 on their range) keep rank 1, the no-click blocks (0.1 I) fall to rank 0
    monkeypatch.setattr(certify_module, "SUPPORT_CUTOFF", 0.9)
    _steering_parents.clear()
    with pytest.raises(CertificationError, match="observed data outside the supports"):
        certify_local(_lossy(0.8), 0)
    ((key, entry),) = _steering_parents.items()  # the call built the parent
    assert key[-1] == (1, 1, 1, 1, 0, 0)
    with pytest.raises(CertificationError, match="observed data outside the supports"):
        certify_local(_lossy(0.8), 0)
    assert len(_steering_parents) == 1 and _steering_parents[key] is entry  # and the next reused it


def test_a_certification_leaves_its_shared_structure_unchanged():
    from steercert.certify import _steering_parent

    certify_local(assemblage_from(werner_state(0.8), pauli_xz()), 0)
    targets = np.tile(np.eye(2, dtype=complex), (2, 1, 1))
    faces = [[np.eye(2, dtype=complex)] * 2 for _ in range(2)]
    grid, parent, kept = _steering_parent(faces, 0, np.arange(2), targets)
    structure = parent._children_structure
    arrays = [a for value in vars(structure).values() for a in (value if isinstance(value, list) else [value])
              if isinstance(a, np.ndarray)]
    assert not any(a.flags.writeable for a in arrays)
    arrays += [t for group in kept for eq in group.values() for t in (*eq.terms.values(), eq.rhs)]
    arrays += [v for row in grid.supports for v in row] + list(grid.embedded.values())
    assert len(arrays) > 20
    before = [a.tobytes() for a in arrays]
    certify_local(assemblage_from(werner_state(0.75), pauli_xz()), 0)
    assert [a.tobytes() for a in arrays] == before
    assert _steering_parent(faces, 0, np.arange(2), targets)[1]._children_structure is structure


# a Werner point (no block reduced) and a lossy qubit point (every conclusive block reduced to rank 1)
TRIVIAL_START_CASES = [
    pytest.param(werner_state(0.9), list(pauli_xz()), False, id="werner"),
    pytest.param(werner_state(1.0), [apply_loss(p, 0.8) for p in pauli_xz()], True, id="lossy"),
]


@pytest.mark.parametrize("rho, povms, reduced", TRIVIAL_START_CASES)
def test_the_trivial_start_is_strictly_feasible(monkeypatch, rho, povms, reduced):
    import steercert.sdp as sdp_module

    seen, solve = [], sdp_module.solve

    def recorded(problem, **kwargs):
        seen.append((problem, kwargs.get("start")))
        return solve(problem, **kwargs)

    monkeypatch.setattr(sdp_module, "solve", recorded)
    res = certify_local(assemblage_from(rho, povms), 0, trivial_start=True)
    assert (res.functional.supports is not None) == reduced
    (problem, start), = seen
    assert len(start) == len(problem.block_dims)
    assert min(float(np.linalg.eigvalsh(x)[0]) for x in start) > 1e-3
    # every row is a consistency or a no-signalling row: 4 per (a, x), and 4 per guess
    residuals = [sum(np.vdot(a, start[k]).real for k, a in row.coeffs.items()) - row.rhs for row in problem.constraints]
    assert len(residuals) == (36 if reduced else 24) and np.max(np.abs(residuals)) <= 1e-12


@pytest.mark.parametrize("rho, povms, reduced", TRIVIAL_START_CASES)
def test_the_trivial_start_reaches_the_same_optimum(rho, povms, reduced):
    asm = assemblage_from(rho, povms)
    plain, started = certify_local(asm, 0), certify_local(asm, 0, trivial_start=True)
    assert plain.status is started.status is SolverStatus.OPTIMAL
    assert abs(started.p_guess - plain.p_guess) <= 1e-8
    assert abs(started.dual_value - plain.dual_value) <= 1e-8
