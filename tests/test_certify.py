import contextlib
import dataclasses
import math

import numpy as np
import pytest

from steercert.analytic import eve_lower_bound
from steercert.certify import (
    JointAssemblage,
    SteeringFunctional,
    certify_global,
    certify_local,
    certify_pm,
    lhs_attack,
    loss_attack,
    min_entropy,
)
from steercert.qlin import Povm, basis_povm, dagger, random_unitary
from steercert.scenario import (
    apply_loss,
    assemblage_from,
    fourier_and_computational,
    isotropic_state,
    mub_povms,
    pauli_xz,
    schmidt_state,
    werner_state,
)
from steercert.sdp import SolverStatus
from steercert.seesaw import _stepping_functional, random_povms


def random_density(d, rng, rank=None):
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_assemblage(rng, d_a=2, d_b=2, m=2):
    rho = random_density(d_a * d_b, rng)
    povms = [basis_povm(random_unitary(d_a, rng)) for _ in range(m)]
    return assemblage_from(rho, povms)


def test_min_entropy_values():
    assert min_entropy(1.0) == 0.0 and math.copysign(1.0, min_entropy(1.0)) == 1.0  # +0.0, not -0.0
    for p in (0.5, 1 / 3, 0.9999999999, 1.0 + 1e-12):
        assert min_entropy(p) == -np.log2(p)
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
        assert res.p_guess >= 1.0 / len(asm.sigma) - 1e-9
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


_KET0 = np.diag([1.0, 0.0]).astype(complex)


@pytest.mark.parametrize("x_star", [0, 1])
@pytest.mark.parametrize("rho,povms", [
    (np.kron(_KET0, _KET0), pauli_xz()),
    (np.kron(np.eye(2) / 2, _KET0), pauli_xz()),
    (np.eye(9, dtype=complex) / 9, mub_povms(3, 2)),
], ids=["|00>", "I/2 x |0><0|", "I/9"])
def test_pm_product_state_solves_uncompressed(monkeypatch, rho, povms, x_star):
    # a product state's consistency map is not injective, so the operators Eve holds are not
    # pinned to the given POVM elements and no support may be compressed away; her guess is certain
    def no_supports(*args, **kwargs):
        raise AssertionError("a non-injective consistency map compressed the supports")

    monkeypatch.setattr("steercert.certify._supports", no_supports)
    res = certify_pm(rho, povms, x_star)
    assert res.status == SolverStatus.OPTIMAL
    assert res.p_guess >= 1 - 1e-9


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
    n_a, m, d = asm.sigma.shape[:3]
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


# the see-saw's stepping inequality: globally valid, and sharp where the certification was
# not reduced (the two names are kept from the function these tests were first written for)


def test_dual_functional_direct_agrees_when_interior():
    asm = assemblage_from(werner_state(0.8), pauli_xz())
    res = certify_local(asm, 0)
    f = _stepping_functional(asm, res, 0, 1e-4)
    value = f.value_on(asm)
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
    f = _stepping_functional(asm, res, 0, 1e-4)
    value = f.value_on(asm)
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
    # compressed onto the observed faces, which is what feasibility_margin checks;
    # an attack decides the product state, so it reaches the SDP only with _zero_bits left out
    with _through_the_sdp():
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
    bad = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    bad[0, 0, 0] = np.eye(2)
    ja = JointAssemblage(bad)
    asm = assemblage_from(werner_state(0.5), pauli_xz())
    with pytest.raises(ValueError):
        ja.validate(asm)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 2, 2, 2, 3), (0, 2, 2, 2, 2)])
def test_joint_assemblage_rejects_what_is_not_a_grid_of_square_blocks(shape):
    with pytest.raises(ValueError, match=r"^sigma_e has shape"):
        JointAssemblage(np.zeros(shape, dtype=complex))


def test_derived_numbers_are_computed_from_the_solve():
    res = certify_local(assemblage_from(werner_state(0.8), pauli_xz()), 0)
    data = res.to_json()
    h = min_entropy(res.p_guess)
    assert h > 0.1
    assert res.h_min == data["h_min"] == h
    assert res.gap == data["gap"] == abs(res.p_guess - res.dual_value)
    assert res.x_star == data["x_star"] == res.functional.x_star == 0
    assert res.joint.eve_alphabet == 2


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


@contextlib.contextmanager
def _through_the_sdp():
    """Certifications in which ``_zero_bits`` decides nothing, so that data an attack decides,
    unsteerable or with half the clicks lost, reach the SDP they reached before it."""
    import steercert.certify as certify_module

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify_module, "_zero_bits", lambda *args: None)
        yield


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
    with _through_the_sdp():  # v = 0.7 is unsteerable, which the LHS attack decides
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
    # the same face ranks on other subspaces: the entry is rebuilt in place, not added
    u = random_unitary(2, np.random.default_rng(5))
    rotated = [Povm(u @ p.elements @ dagger(u)) for p in pauli_xz()]
    (fresh, _), (res, other) = _afresh_and_shared(monkeypatch, certify_local, _lossy(0.8, rotated), 0)
    assert other._shared is not None and other._shared is not problem._shared
    assert len(_steering_parents) == 1 and _steering_parents[key] is not entry
    _results_identical(res, fresh)


def _fig4_sdp_points():
    """The 9 fig4_qutrit_loss points an SDP decides, eta = 0.55 to 0.95, in sweep order: eta <= 0.5 is
    decided by the loss attack, and the pure data at eta = 1 in closed form."""
    from steercert.cli import presets

    config = presets()["fig4_qutrit_loss"]
    return [config.at_parameter(eta) for eta in config.sweep_values() if 0.505 < eta < 0.995]


def test_every_sdp_point_of_the_preset_sweeps_has_a_relative_gap_within_gap_tol(monkeypatch):
    # an optimal solve bounds |p - d| / (1 + |p|) by gap_tol = 1e-9, so the printed gap |p_guess - dual_value|
    # may exceed 1e-9 where p_guess is near 1: fig2 at v = 0.73 prints 1.92e-9, fig4_qutrit_loss at eta = 0.6 1.29e-9
    import steercert.sdp as sdp_module
    from steercert.cli import _certify_point, presets

    solves, solve = [], sdp_module.solve
    monkeypatch.setattr(sdp_module, "solve", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    relative = {}  # (preset, sweep value) -> gap / (1 + p_guess), at the points an SDP decides
    for name, config in presets().items():
        for value in config.sweep_values() if config.kind != "seesaw" else ():
            before, result = len(solves), _certify_point(config.at_parameter(value))
            if len(solves) > before:
                assert result.status is SolverStatus.OPTIMAL
                relative[name, value] = result.gap / (1.0 + result.p_guess)
    assert {name for name, _ in relative} == {"fig2", "fig3_qubit", "fig4_qutrit_loss", "fig_global", "fig_pm"}
    assert max(relative.values()) <= 1e-9


def test_the_lossy_qutrit_sweep_shares_one_parent_and_one_structure(monkeypatch):
    # its click faces have rank 1, and eigh returns their eigenvectors a few 1e-16 apart from one eta
    # to the next: the same subspaces in other bytes
    import steercert.sdp as sdp_module
    from steercert.certify import _steering_parents
    from steercert.cli import _certify_point

    builds, solutions, init, solve = [], [], sdp_module.Structure.__init__, sdp_module.solve
    monkeypatch.setattr(sdp_module.Structure, "__init__", lambda self, *a: builds.append(1) or init(self, *a))
    monkeypatch.setattr(sdp_module, "solve", lambda *a, **kw: solutions.append(solve(*a, **kw)) or solutions[-1])
    points = _fig4_sdp_points()
    _steering_parents.clear()
    warm = [(_certify_point(point), solutions[-1]) for point in points]
    assert len(points) == len(solutions) == 9
    assert len(_steering_parents) == 1 and len(builds) == 1
    for point, (res, sol) in zip(points, warm):
        _steering_parents.clear()
        cold, cold_sol = _certify_point(point), solutions[-1]
        assert res.status is cold.status is SolverStatus.OPTIMAL and sol.iterations == cold_sol.iterations
        assert abs(res.p_guess - cold.p_guess) <= 1e-12 and abs(res.dual_value - cold.dual_value) <= 1e-12
        assert res.functional.feasibility_margin() >= -1e-12  # on the faces the structure was built for
    assert len(builds) == 10


def test_a_parent_is_shared_by_isometries_of_its_subspaces_only():
    from steercert.certify import _steering_parent, _steering_parents, _supports

    _steering_parents.clear()
    supports, targets = _supports(_lossy(0.8).sigma), np.eye(2, dtype=complex)[None].repeat(3, axis=0)
    grid, parent, _ = _steering_parent(supports, 0, np.arange(3), targets)
    # v -> -v spans the same subspace: the entry built for v serves, with its own faces
    flipped = [[-v for v in row] for row in supports]
    again, shared, _ = _steering_parent(flipped, 0, np.arange(3), targets)
    assert shared is parent and again.supports is supports and len(_steering_parents) == 1
    # exp(i eps Y) with eps = 1e-8 keeps every rank but turns each rank-1 face, an eigenvector of X or Z, by eps
    u = np.cos(1e-8) * np.eye(2) + np.sin(1e-8) * np.array([[0, 1], [-1, 0]])
    rotated = [[u @ v for v in row] for row in supports]
    other, rebuilt, _ = _steering_parent(rotated, 0, np.arange(3), targets)
    assert rebuilt is not parent and other.supports is rotated and len(_steering_parents) == 1


def test_data_off_a_face_of_rank_0_is_refused_on_every_call(monkeypatch):
    import steercert.certify as certify_module
    from steercert.certify import CertificationError, _steering_parents

    # the conclusive blocks (0.4 on their range) keep rank 1, the no-click blocks (0.1 I) fall to rank 0
    monkeypatch.setattr(certify_module, "SUPPORT_CUTOFF", 0.9)
    _steering_parents.clear()
    with pytest.raises(CertificationError, match="observed data outside the supports"):
        certify_local(_lossy(0.8), 0)
    assert not _steering_parents  # the data are checked before a parent is built
    with pytest.raises(CertificationError, match="observed data outside the supports"):
        certify_local(_lossy(0.8), 0)
    assert not _steering_parents  # on every call


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


@pytest.mark.parametrize("rho, povms, reduced, bob", [
    *(pytest.param(*case.values, None, id=case.id) for case in TRIVIAL_START_CASES),
    # the global certification's guesses repeat each untrusted outcome once per trusted one
    pytest.param(werner_state(0.9), list(pauli_xz()), False, pauli_xz()[0], id="global"),
])
def test_the_trivial_start_is_strictly_feasible(monkeypatch, rho, povms, reduced, bob):
    import steercert.sdp as sdp_module

    seen, solve = [], sdp_module.solve

    def recorded(problem, **kwargs):
        seen.append((problem, kwargs.get("start")))
        return solve(problem, **kwargs)

    monkeypatch.setattr(sdp_module, "solve", recorded)
    asm = assemblage_from(rho, povms)
    res = certify_local(asm, 0) if bob is None else certify_global(asm, 0, bob)
    assert (res.functional.supports is not None) == reduced
    (problem, start), = seen
    assert len(start) == len(problem.block_dims)
    assert min(float(np.linalg.eigvalsh(x)[0]) for x in start) > 1e-3
    # every row is a consistency or a no-signalling row: 4 per (a, x), and 4 per guess
    (n_a, m), n_guess = asm.sigma.shape[:2], res.joint.eve_alphabet
    assert n_guess == (n_a if bob is None else 4)
    residuals = [sum(np.vdot(a, start[k]).real for k, a in row.coeffs.items()) - row.rhs for row in problem.constraints]
    assert len(residuals) == 4 * (n_a * m + n_guess)
    assert np.max(np.abs(residuals)) <= 1e-12


@pytest.mark.parametrize("rho, povms, reduced", TRIVIAL_START_CASES)
def test_the_trivial_start_reaches_the_same_optimum(rho, povms, reduced):
    # the same child problem solved from the solver's own start, xi_p * I
    from steercert import sdp
    from steercert.certify import _steering_parent, _supports

    asm = assemblage_from(rho, povms)
    started = certify_local(asm, 0)
    n_a, d = asm.sigma.shape[0], asm.sigma.shape[-1]
    targets = np.eye(d, dtype=complex)[None].repeat(n_a, axis=0)
    _, parent, kept = _steering_parent(_supports(asm.sigma), 0, np.arange(n_a), targets)
    plain = sdp.solve(parent.with_rhs([*(asm.sigma[key] for key in kept[0]), *(eq.rhs for eq in kept[1].values())]))
    assert plain.status is started.status is SolverStatus.OPTIMAL
    assert abs(started.p_guess - plain.primal_value) <= 1e-8
    assert abs(started.dual_value - plain.dual_value) <= 1e-8


@pytest.mark.parametrize("rho, povms, reduced", TRIVIAL_START_CASES)
def test_a_bar_below_the_optimum_ends_at_a_strategy_that_beats_it(rho, povms, reduced):
    asm = assemblage_from(rho, povms)
    full = certify_local(asm, 0)
    # the trivial start guesses with 1/n, so this bar lies between the start and the optimum
    bar = 0.5 * (full.p_guess + 1.0 / len(asm.sigma))
    cut = certify_local(asm, 0, solver_opts={"stop_above": bar})
    assert full.status is SolverStatus.OPTIMAL and cut.status is SolverStatus.BOUND_EXCEEDED
    cut.joint.validate(asm)  # an explicit attack: a feasible strategy of Eve's
    assert cut.joint.guess_probability(0) == pytest.approx(cut.p_guess, abs=1e-9)
    assert bar < cut.p_guess <= full.p_guess + 1e-9


@pytest.mark.parametrize("rho, povms, reduced", TRIVIAL_START_CASES)
def test_a_bar_at_the_optimum_changes_nothing(rho, povms, reduced):
    # the see-saw's accepted certifications end at or below their bar
    asm = assemblage_from(rho, povms)
    plain = certify_local(asm, 0)
    barred = certify_local(asm, 0, solver_opts={"stop_above": plain.p_guess})
    assert np.array_equal(barred.joint.sigma_e, plain.joint.sigma_e)
    assert (barred.p_guess, barred.dual_value, barred.gap, barred.status) == (
        plain.p_guess, plain.dual_value, plain.gap, plain.status)
    assert np.array_equal(barred.functional.F, plain.functional.F)


def _signalling_joint(asm):
    """Eve's grid that reproduces asm with guess 0 at input 0 and guess 1 at input 1: consistent and
    PSD, but each guess's marginal depends on the input."""
    sigma_e = np.zeros((2,) + asm.sigma.shape, dtype=complex)
    sigma_e[0, :, 0], sigma_e[1, :, 1] = asm.sigma[:, 0], asm.sigma[:, 1]
    return JointAssemblage(sigma_e)


@pytest.mark.parametrize("joint, message", [
    (lambda asm: JointAssemblage(np.stack([asm.sigma, -1e-3 * np.broadcast_to(np.eye(2), asm.sigma.shape)])),
     r"^joint assemblage block eigenvalue below -1e-08$"),
    (_signalling_joint, r"^joint assemblage signals by 5\.000e-01$"),
], ids=["negative block", "signalling"])
def test_joint_assemblage_validation_names_the_failing_property(joint, message):
    asm = assemblage_from(werner_state(0.5), pauli_xz())
    with pytest.raises(ValueError, match=message):
        joint(asm).validate(asm)


def test_functional_refusals():
    functional = certify_pm(werner_state(0.8), pauli_xz(), 0).functional
    with pytest.raises(ValueError, match=r"^assemblage grid \(2, 3, 2, 2\) does not match F \(2, 2, 2, 2\)$"):
        functional.value_on(np.zeros((2, 3, 2, 2)))
    with pytest.raises(ValueError, match="^no dual multipliers stored for this functional$"):
        functional.feasibility_margin()  # a prepare-and-measure functional has no G


def test_an_infeasible_certification_solve_is_refused(monkeypatch):
    import steercert.sdp as sdp_module
    from steercert.certify import CertificationError

    solve = sdp_module.solve
    monkeypatch.setattr(sdp_module, "solve",
                        lambda p, **kw: dataclasses.replace(solve(p, **kw), status=SolverStatus.INFEASIBLE))
    with pytest.raises(CertificationError, match="^certification problem infeasible: inputs malformed$"):
        certify_local(assemblage_from(werner_state(0.8), pauli_xz()), 0)


def test_global_refuses_a_trusted_measurement_of_another_dimension():
    asm = assemblage_from(werner_state(0.8), pauli_xz())
    with pytest.raises(ValueError, match="^trusted measurement dimension does not match the assemblage$"):
        certify_global(asm, 0, basis_povm(np.eye(3, dtype=complex)))


def _guesses(asm, bob):
    """Eve's guessed outcomes and targets in certify_local (bob None) or certify_global."""
    n_a, d = asm.sigma.shape[0], asm.sigma.shape[-1]
    if bob is None:
        return np.arange(n_a), np.eye(d, dtype=complex)[None].repeat(n_a, axis=0)
    return np.repeat(np.arange(n_a), bob.n_outcomes), np.tile(bob.elements, (n_a, 1, 1))


def _sdp_optimum(asm, x_star, bob):
    """The optimum of the facially reduced SDP of a steering certification, at the see-saw's targets."""
    from steercert import sdp
    from steercert.certify import _steering_parent, _supports

    _, parent, kept = _steering_parent(_supports(asm.sigma), x_star, *_guesses(asm, bob))
    sol = sdp.solve(parent.with_rhs([*(asm.sigma[key] for key in kept[0]), *(eq.rhs for eq in kept[1].values())]),
                    gap_tol=1e-11, feas_tol=1e-10)
    assert sol.status is SolverStatus.OPTIMAL
    return sol.primal_value


def _preset_endpoint(name):
    """The assemblage and trusted measurement of a preset's sweep point at 1.0, pure and lossless."""
    from steercert.cli import presets

    config = presets()[name].at_parameter(1.0)
    asm = assemblage_from(config.build_state(), config.build_measurements())
    return asm, config.build_bob_povm(asm.sigma.shape[-1]) if config.kind == "steering_global" else None


def _random_starts(d, n_starts):
    """See-saw starts: a pure state with d Schmidt coefficients under random projective measurements with
    d outcomes, both inputs targeted."""
    rho = schmidt_state(np.arange(d, 0, -1) ** 2 / np.sum(np.arange(d, 0, -1) ** 2))
    return [pytest.param(lambda: (assemblage_from(rho, random_povms(d, 2, d, seed)), None), x_star,
                         id=f"d{d}-seed{seed}-x{x_star}")
            for seed in range(n_starts) for x_star in (0, 1)]


@pytest.mark.parametrize("case, x_star", [
    *_random_starts(2, 10),
    *_random_starts(3, 5),
    *(pytest.param(lambda name=name: _preset_endpoint(name), 0, id=f"{name}@1.0")
      for name in ("fig2", "fig3_qubit", "fig4_qutrit_loss", "fig_global")),
])
def test_pure_data_are_certified_in_closed_form(monkeypatch, case, x_star):
    import steercert.sdp as sdp_module

    asm, bob = case()
    optimum = _sdp_optimum(asm, x_star, bob)
    monkeypatch.setattr(sdp_module, "solve", lambda *args, **kwargs: pytest.fail("the SDP was solved"))
    res = certify_local(asm, x_star) if bob is None else certify_global(asm, x_star, bob)
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.p_guess - optimum) <= 1e-9
    res.joint.validate(asm, tol=1e-12)  # Eve's strategy attains p_guess
    outcomes, targets = _guesses(asm, bob)
    blocks = res.joint.sigma_e[np.arange(len(outcomes)), outcomes, x_star]
    assert np.einsum("eij,eji->", targets, blocks).real == pytest.approx(res.p_guess, abs=1e-15)
    assert res.functional.feasibility_margin() >= -1e-12  # and the dual certifies it
    assert abs(res.dual_value - res.p_guess) <= 1e-12


def test_a_product_state_leaves_the_closed_form_to_the_loss_attack(monkeypatch):
    # |00> under X and Z: every face has rank 1, but Eve knows X's outcome, which a product state
    # leaves local, so she guesses it with probability 1, not with max_a p(a|X) = 1/2; only the margin
    # of the closed form's dual shows it, and the loss attack (through Z's outcome 0) decides the point
    import steercert.sdp as sdp_module
    from steercert.certify import _closed_form, _supports

    asm = assemblage_from(schmidt_state([1.0, 0.0]), pauli_xz())
    assert all(v.shape[1] <= 1 for row in _supports(asm.sigma) for v in row)
    assert _closed_form(asm, _supports(asm.sigma), 0, *_guesses(asm, None)) is None
    solves, solve = [], sdp_module.solve
    monkeypatch.setattr(sdp_module, "solve", lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    res = certify_local(asm, 0)
    assert len(solves) == 0 and res.status is SolverStatus.OPTIMAL
    assert res.p_guess == pytest.approx(1.0, abs=1e-8)
    assert res.p_guess == 1.0 and res.h_min == 0.0
    assert res.joint.sigma_e.tobytes() == loss_attack(asm, 0).sigma_e.tobytes()


def _lossy_qudits(d, eta):
    """The maximally entangled pair of qudits under the Fourier and computational bases, each with
    detection efficiency eta and the no-click outcome last."""
    return assemblage_from(isotropic_state(d, 1.0), [apply_loss(p, eta) for p in fourier_and_computational(d)])


def _is_certain(joint, asm, x_star):
    joint.validate(asm, tol=1e-12)
    return abs(joint.guess_probability(x_star) - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("eta", [0.3, 0.49, 0.5, 0.51])
@pytest.mark.parametrize("x_star", [0, 1])
def test_the_loss_attack_gives_eve_certainty_up_to_half_the_clicks(d, eta, x_star):
    # sigma_{no-click|x} + sigma_{no-click|x*} - rho_B = (1 - 2 eta) rho_B, PSD exactly when eta <= 1/2
    asm = _lossy_qudits(d, eta)
    joint = loss_attack(asm, x_star)
    if eta > 0.5:
        assert joint is None
        return
    assert _is_certain(joint, asm, x_star)
    # guess e != c holds sigma_{e|x*}, announced as the no-click outcome c at the other input
    c, other = d, 1 - x_star
    assert np.array_equal(joint.sigma_e[:c, c, other], asm.sigma[:c, x_star])
    assert lhs_attack(asm, x_star) is None  # three outcomes or more


def test_the_loss_attack_is_certain_on_one_input_whatever_the_data():
    asm = assemblage_from(werner_state(1.0), pauli_xz()[:1])
    assert _is_certain(loss_attack(asm, 0), asm, 0)


@pytest.mark.parametrize("v", [0.6, 0.7071, 0.71])
@pytest.mark.parametrize("x_star", [0, 1])
def test_the_lhs_attack_gives_eve_certainty_on_unsteerable_werner_data(v, x_star):
    # the hidden states I/8 + v(+-X +-Z)/8 are PSD exactly when v sqrt(2) <= 1
    asm = assemblage_from(werner_state(v), pauli_xz())
    joint = lhs_attack(asm, x_star)
    assert (joint is None) == (v * np.sqrt(2) > 1)
    assert joint is None or _is_certain(joint, asm, x_star)
    assert loss_attack(asm, x_star) is None


def _zero_bit_points():
    """The 20 preset sweep points at which an attack gives Eve certainty: fig2 at v <= 0.70 (the LHS
    attack), fig3_qubit and fig4_qutrit_loss at eta <= 0.5 (the loss attack)."""
    from steercert.cli import presets

    return [pytest.param(presets()[name].at_parameter(value), id=f"{name}@{value:.2f}")
            for name, last in (("fig2", 0.705), ("fig3_qubit", 0.505), ("fig4_qutrit_loss", 0.505))
            for value in presets()[name].sweep_values() if value <= last]


def test_the_zero_bit_points_are_twenty():
    assert len(_zero_bit_points()) == 20


@pytest.mark.parametrize("config", _zero_bit_points())
def test_zero_bits_are_exact_with_the_trivial_inequality_and_no_sdp(monkeypatch, config):
    import steercert.sdp as sdp_module
    from steercert.cli import _certify_point

    monkeypatch.setattr(sdp_module, "solve", lambda *args, **kwargs: pytest.fail("the SDP was solved"))
    res = _certify_point(config)
    asm = assemblage_from(config.build_state(), config.build_measurements())
    assert res.status is SolverStatus.OPTIMAL
    assert res.p_guess == 1.0 and res.h_min == 0.0 and math.copysign(1.0, res.h_min) == 1.0
    assert res.gap <= 1e-15 and res.dual_value == res.functional.value_on(asm)
    assert _is_certain(res.joint, asm, 0)
    # F[a, x] = delta_{x, x*} 1 and G = 0, whose dual operators are each 0 or 1
    f = res.functional
    n_a, m, d = asm.sigma.shape[:3]
    assert np.array_equal(f.F, np.broadcast_to((np.arange(m) == 0)[:, None, None] * np.eye(d), (n_a, m, d, d)))
    assert not f.G.any() and f.feasibility_margin() == 0.0
    assert dataclasses.replace(f, supports=None).feasibility_margin() == 0.0
    # the explicit-strategy lower bound finds the same certainty
    assert abs(eve_lower_bound(config.build_state(), config.build_measurements(), 0) - 1.0) <= 1e-15


def test_global_certification_leaves_zero_bit_data_to_the_sdp(monkeypatch):
    # certify_global's guesses are pairs, so no attack applies to them
    import steercert.sdp as sdp_module

    solves, solve = [], sdp_module.solve
    monkeypatch.setattr(sdp_module, "solve", lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    certify_global(assemblage_from(werner_state(0.6), pauli_xz()), 0, pauli_xz()[0])
    assert len(solves) == 1
