import numpy as np
import pytest

from steercert.analytic import (
    EveStrategy,
    eve_lower_bound,
    eve_strategy,
    pure_qubit_pg,
    pure_qudit_pg,
    purify,
)
from steercert.certify import certify_local
from steercert.qlin import Povm, basis_povm, dagger, random_unitary
from steercert.scenario import (
    assemblage_from,
    fourier_and_computational,
    pauli_xz,
    schmidt_state,
    werner_state,
)


def random_pure_two_qubit(rng):
    lam = 0.05 + 0.4 * rng.random()
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    return u @ schmidt_state([1 - lam, lam]) @ dagger(u)


def test_pure_qubit_pg_values():
    assert pure_qubit_pg(np.pi / 4).p_guess == 0.5
    assert pure_qubit_pg(np.pi / 7).p_guess == 0.5
    for theta in (0.0, -0.1, np.pi / 3):
        with pytest.raises(ValueError):
            pure_qubit_pg(theta)


def test_pure_qubit_pg_witnesses_purity():
    bound = pure_qubit_pg(np.pi / 7)
    assert np.max(bound.purity_defects) <= 1e-10
    assert len(bound.assemblage.sigma) == 2


def test_pure_qudit_pg_values():
    assert pure_qudit_pg([0.5, 0.5]) == 0.5
    assert pure_qudit_pg([0.7, 0.2, 0.1]) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        pure_qudit_pg([0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        pure_qudit_pg([0.5, 0.4])


def test_purify_reconstructs_state():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    rho = g @ dagger(g)
    rho /= np.trace(rho).real
    psi = purify(rho)
    assert psi.shape == (4, 2)  # rank-2 purification
    assert np.max(np.abs(psi @ dagger(psi) - rho)) <= 1e-10


def test_eve_strategy_is_feasible_by_construction():
    rng = np.random.default_rng(4)
    rho = werner_state(0.8)
    povms = pauli_xz()
    u = random_unitary(4, rng)
    # two-outcome measurement on the 4-dimensional purifying system
    projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(4)]
    eve = Povm([projs[0] + projs[1], projs[2] + projs[3]])
    strat = eve_strategy(rho, povms, eve)
    assert isinstance(strat, EveStrategy)
    obs = assemblage_from(rho, povms)
    strat.induced.validate(obs, tol=1e-9)
    assert 0.0 <= strat.value(0) <= 1.0


def test_eve_strategy_dimension_mismatch():
    eve = basis_povm(np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        eve_strategy(werner_state(0.8), pauli_xz(), eve)


def test_uninformative_eve_gives_best_constant_guess():
    rho = werner_state(0.8)
    povms = pauli_xz()
    trivial = Povm([np.eye(4, dtype=complex)])
    value = eve_strategy(rho, povms, trivial).value(0)
    obs = assemblage_from(rho, povms)
    assert value == pytest.approx(np.max(obs.outcome_probs(0)), abs=1e-10)


def test_pure_state_lower_bound_matches_constant_guess():
    # rank-1 state: trivial purification, Eve learns nothing beyond P(a|x*)
    rho = werner_state(1.0)
    value = eve_lower_bound(rho, pauli_xz(), 0)
    assert value == pytest.approx(0.5, abs=1e-9)


def test_sandwich_inequality_random_instances():
    rng = np.random.default_rng(11)
    for k in range(4):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ dagger(g)
        rho /= np.trace(rho).real
        povms = [basis_povm(random_unitary(2, rng)) for _ in range(2)]
        lower = eve_lower_bound(rho, povms, 0)
        sdp_value = certify_local(assemblage_from(rho, povms), 0).p_guess
        assert lower <= sdp_value + 1e-8


def test_sandwich_tight_on_pure_states():
    rng = np.random.default_rng(23)
    for k in range(4):
        rho = random_pure_two_qubit(rng)
        povms = [basis_povm(random_unitary(2, rng)) for _ in range(2)]
        lower = eve_lower_bound(rho, povms, 0)
        sdp_value = certify_local(assemblage_from(rho, povms), 0).p_guess
        assert lower <= sdp_value + 1e-8
        assert sdp_value <= lower + 1e-6


def test_werner_lower_bound_is_the_exact_discriminator():
    # for two guesses the search cannot beat (and must find) the projective
    # discriminator of Eve's two conditional states; at v = 0.8 the relaxed
    # optimum 0.9 genuinely exceeds every fixed-state purification attack
    rho = werner_state(0.8)
    lower = eve_lower_bound(rho, pauli_xz(), 0)
    from steercert.analytic import _conditional_eve_states, _guess_value
    from steercert.qlin import helstrom_pair

    w = _conditional_eve_states(rho, pauli_xz(), 0)
    helstrom = _guess_value(w, helstrom_pair(w[1] - w[0]))  # M_0 on the positive part of W_0 - W_1
    assert lower == pytest.approx(helstrom, abs=1e-9)
    sdp_value = certify_local(assemblage_from(rho, pauli_xz()), 0).p_guess
    assert lower <= sdp_value + 1e-8
    assert sdp_value - lower == pytest.approx(0.9 - helstrom, abs=1e-7)


def test_oracle_agreement_fourier_computational():
    rng = np.random.default_rng(31)
    for d in (2, 3):
        for _ in range(3):
            lam = rng.random(d) + 0.15
            lam /= lam.sum()
            rho = schmidt_state(lam)
            povms = fourier_and_computational(d)
            res = certify_local(assemblage_from(rho, povms), 0)
            assert res.p_guess == pytest.approx(pure_qudit_pg(lam), abs=1e-6)


def test_purity_forcing_in_optimal_strategy():
    # pure-state optima: every Eve-resolved block is proportional to the
    # observed one (she must prepare the same conditional state every round)
    rng = np.random.default_rng(41)
    lam = np.array([0.65, 0.35])
    rho = schmidt_state(lam)
    povms = fourier_and_computational(2)
    obs = assemblage_from(rho, povms)
    res = certify_local(obs, 0)
    joint = res.joint
    for e in range(joint.eve_alphabet):
        for a, x in np.ndindex(2, 2):
            block = joint.sigma_e[e, a, x]
            target = obs.sigma[a, x]
            weight = np.trace(block).real / np.trace(target).real
            assert np.max(np.abs(block - weight * target)) <= 1e-6
