import numpy as np
import pytest

from steercert.qlin import basis_povm, dagger, partial_trace, random_unitary
from steercert.scenario import (
    Assemblage,
    apply_loss,
    assemblage_from,
    bell_state,
    deterministic_strategies,
    fourier_and_computational,
    isotropic_state,
    lhs_test,
    mub_povms,
    pauli_xz,
    schmidt_state,
    steering_adjoint,
    werner_state,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def proj(vec):
    return np.outer(vec, vec.conj())


def random_density(d, rng, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def test_werner_extremes():
    assert np.max(np.abs(werner_state(0.0) - np.eye(4) / 4)) <= 1e-15
    assert np.max(np.abs(werner_state(1.0) - bell_state(2))) <= 1e-15
    with pytest.raises(ValueError):
        werner_state(1.2)


def test_werner_half_spectrum():
    # spectrum of v*projector + (1-v)I/4 at v = 0.5: {v + (1-v)/4, (1-v)/4 x3}
    eigs = np.linalg.eigvalsh(werner_state(0.5))
    assert np.allclose(sorted(eigs), [0.125, 0.125, 0.125, 0.625], atol=1e-12)


def test_isotropic_cases():
    assert np.max(np.abs(isotropic_state(3, 0.0) - np.eye(9) / 9)) <= 1e-15
    for v in (0.0, 0.3, 1.0):
        assert np.max(np.abs(isotropic_state(2, v) - werner_state(v))) <= 1e-15
    from steercert.qlin import partial_trace

    marginal = partial_trace(isotropic_state(3, 1.0), (3, 3), keep="B")
    assert np.max(np.abs(marginal - np.eye(3) / 3)) <= 1e-12


def test_schmidt_state_cases():
    assert np.max(np.abs(schmidt_state([1.0, 0.0]) - proj(np.kron(KET0, KET0)))) <= 1e-15
    assert np.max(np.abs(schmidt_state([0.5, 0.5]) - bell_state(2))) <= 1e-15
    assert np.max(np.abs(schmidt_state([1 / 3] * 3) - bell_state(3))) <= 1e-12
    with pytest.raises(ValueError):
        schmidt_state([0.5, 0.4])


def test_pauli_xz_layout():
    povms = pauli_xz()
    assert len(povms) == 2
    plus = (KET0 + KET1) / np.sqrt(2)
    assert np.max(np.abs(povms[0][0] - proj(plus))) <= 1e-12
    assert np.max(np.abs(povms[1][0] - proj(KET0))) <= 1e-12
    assert np.max(np.abs(povms[1][1] - proj(KET1))) <= 1e-12


@pytest.mark.parametrize("d,count", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_mub_pairwise_unbiased(d, count):
    povms = mub_povms(d, count)
    assert len(povms) == count
    for i in range(count):
        for j in range(i + 1, count):
            for e in povms[i].elements:
                for f in povms[j].elements:
                    overlap = np.trace(e @ f).real
                    assert overlap == pytest.approx(1.0 / d, abs=1e-12)


def test_mub_unsupported_dimension():
    with pytest.raises(ValueError):
        mub_povms(4, 2)
    with pytest.raises(ValueError):
        mub_povms(3, 5)


def test_fourier_and_computational():
    for d in (2, 3, 4):
        first, second = fourier_and_computational(d)
        omega = np.exp(2j * np.pi / d)
        for a in range(d):
            vec = omega ** (a * np.arange(d)) / np.sqrt(d)
            assert np.max(np.abs(first[a] - proj(vec))) <= 1e-12
            for f in second.elements:
                assert np.trace(first[a] @ f).real == pytest.approx(1.0 / d, abs=1e-12)
    # d = 2 coincides with the X/Z pair
    fc = fourier_and_computational(2)
    xz = pauli_xz()
    for got, want in zip(fc, xz):
        for ge, we in zip(got.elements, want.elements):
            assert np.max(np.abs(ge - we)) <= 1e-12


def test_apply_loss_limits():
    z = pauli_xz()[1]
    lossless = apply_loss(z, 1.0)
    assert lossless.n_outcomes == 3
    assert np.max(np.abs(lossless[2])) == 0.0
    dead = apply_loss(z, 0.0)
    assert np.max(np.abs(dead[2] - np.eye(2))) == 0.0
    assert all(np.max(np.abs(dead[a])) == 0.0 for a in range(2))
    half = apply_loss(z, 0.5)
    assert np.max(np.abs(half[0] - 0.5 * proj(KET0))) <= 1e-15
    assert np.max(np.abs(half[2] - 0.5 * np.eye(2))) <= 1e-15
    with pytest.raises(ValueError):
        apply_loss(z, 1.1)


def test_apply_loss_preserves_completeness():
    rng = np.random.default_rng(4)
    u = random_unitary(3, rng)
    from steercert.qlin import basis_povm

    povm = basis_povm(u)
    for eta in (0.0, 0.3, 0.77, 1.0):
        lossy = apply_loss(povm, eta)
        total = sum(lossy.elements)
        assert np.max(np.abs(total - np.eye(3))) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_apply_loss_matches_the_per_element_form(d):
    rng = np.random.default_rng(60 + d)
    for _ in range(50):
        povm = basis_povm(random_unitary(d, rng))
        eta = float(rng.uniform())
        want = np.stack([eta * e for e in povm] + [(1.0 - eta) * np.eye(d, dtype=complex)])
        assert np.array_equal(apply_loss(povm, eta).elements, want)


def _random_basis_povms(d, m, rng):
    return [basis_povm(random_unitary(d, rng)) for _ in range(m)]


ASSEMBLAGE_CASES = {
    "lossless": lambda rng: (werner_state(0.9), pauli_xz()),
    "lossy": lambda rng: (werner_state(1.0), [apply_loss(p, 0.75) for p in pauli_xz()]),
    "qutrit MUBs": lambda rng: (isotropic_state(3, 0.8), [apply_loss(p, 0.6) for p in mub_povms(3, 4)]),
    "PM inputs": lambda rng: (isotropic_state(3, 0.7), mub_povms(3, 2)),
    "random": lambda rng: (random_density(6, rng), _random_basis_povms(2, 3, rng)),
    "random qutrit on qubit": lambda rng: (random_density(6, rng), _random_basis_povms(3, 2, rng)),
}


@pytest.mark.parametrize("case", sorted(ASSEMBLAGE_CASES))
def test_assemblage_from_matches_the_per_element_map(case):
    rho, povms = ASSEMBLAGE_CASES[case](np.random.default_rng(70))
    d_a = povms[0].dim
    d_b = rho.shape[0] // d_a
    # the reference: one kron, one product and one partial trace per element
    want = np.array([
        [partial_trace(np.kron(m, np.eye(d_b, dtype=complex)) @ rho, (d_a, d_b), keep="B") for m in povm] for povm in povms
    ]).swapaxes(0, 1)
    assert np.array_equal(assemblage_from(rho, povms).sigma, want)


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_steering_adjoint_matches_the_per_element_map(d_a, d_b):
    rng = np.random.default_rng(80 + d_a * d_b)
    rho = random_density(d_a * d_b, rng)
    g = rng.standard_normal((7, d_b, d_b)) + 1j * rng.standard_normal((7, d_b, d_b))
    mats = g + dagger(g)
    c = np.stack([partial_trace(np.kron(np.eye(d_a, dtype=complex), f) @ rho, (d_a, d_b), keep="A") for f in mats])
    assert np.array_equal(steering_adjoint(rho, mats), 0.5 * (c + dagger(c)))


def test_assemblage_from_bell_xz():
    asm = assemblage_from(bell_state(2), pauli_xz())
    plus = (KET0 + KET1) / np.sqrt(2)
    minus = (KET0 - KET1) / np.sqrt(2)
    assert np.max(np.abs(asm.sigma[0, 1] - 0.5 * proj(KET0))) <= 1e-12
    assert np.max(np.abs(asm.sigma[1, 1] - 0.5 * proj(KET1))) <= 1e-12
    assert np.max(np.abs(asm.sigma[0, 0] - 0.5 * proj(plus))) <= 1e-12
    assert np.max(np.abs(asm.sigma[1, 0] - 0.5 * proj(minus))) <= 1e-12


def test_assemblage_from_schmidt_tilted():
    theta = 0.4
    asm = assemblage_from(schmidt_state([np.cos(theta) ** 2, np.sin(theta) ** 2]), pauli_xz())
    up = np.cos(theta) * KET0 + np.sin(theta) * KET1
    assert np.max(np.abs(asm.sigma[0, 0] - 0.5 * proj(up))) <= 1e-12


def test_assemblage_from_product_state():
    rng = np.random.default_rng(12)
    rho_a = random_density(2, rng)
    rho_b = random_density(2, rng)
    asm = assemblage_from(np.kron(rho_a, rho_b), pauli_xz())
    for a, x in np.ndindex(2, 2):
        p = np.trace(pauli_xz()[x][a] @ rho_a).real
        assert np.max(np.abs(asm.sigma[a, x] - p * rho_b)) <= 1e-12


def test_assemblage_validation_random_inputs():
    rng = np.random.default_rng(30)
    for _ in range(5):
        rho = random_density(4, rng)
        u1, u2 = random_unitary(2, rng), random_unitary(2, rng)
        from steercert.qlin import basis_povm

        asm = assemblage_from(rho, [basis_povm(u1), basis_povm(u2)])
        assert asm.sigma.shape == (2, 2, 2, 2)
        assert abs(np.trace(asm.reduced_state()).real - 1.0) <= 1e-9


def test_assemblage_rejects_signalling():
    sig = np.zeros((2, 2, 2, 2), dtype=complex)
    sig[0, 0] = 0.6 * proj(KET0)
    sig[1, 0] = 0.4 * proj(KET1)
    sig[0, 1] = 0.9 * proj(KET0)
    sig[1, 1] = 0.1 * proj(KET1)
    with pytest.raises(ValueError):
        Assemblage(sig)


def test_assemblage_errors_name_the_first_failing_element():
    # three outcomes, two inputs: sigma[0|1] and sigma[2|0] fail, sigma[0|1] comes first
    sig = np.zeros((3, 2, 2, 2), dtype=complex)
    sig[:, 0] = [0.5 * proj(KET0), 0.5 * proj(KET1), 0.0 * proj(KET0)]
    sig[:, 1] = [0.5 * proj(KET0), 0.5 * proj(KET1), 0.0 * proj(KET0)]
    Assemblage(sig)
    sig[2, 0, 1, 1] = -1e-8
    with pytest.raises(ValueError, match=r"^sigma\[2\|0\] is not PSD within 1e-09$"):
        Assemblage(sig)
    sig[0, 1, 0, 1] = 1e-3
    with pytest.raises(ValueError, match=r"^sigma\[0\|1\] is not PSD within 1e-09$"):
        Assemblage(sig)
    Assemblage(sig, tol=1e-2)  # within a looser tolerance, both pass


def test_assemblage_json_round_trip():
    asm = assemblage_from(werner_state(0.8), pauli_xz())
    data = asm.to_json()
    assert data["m_A"] == 2 and data["n_A"] == 2 and data["d_B"] == 2
    back = Assemblage.from_json(data)
    assert np.max(np.abs(back.sigma - asm.sigma)) <= 1e-15


@pytest.mark.parametrize("key", ["m_A", "n_A", "d_B", "sigma"])
def test_assemblage_from_json_names_a_missing_key(key):
    data = assemblage_from(werner_state(0.8), pauli_xz()).to_json()
    del data[key]
    with pytest.raises(ValueError, match=f"^assemblage document: '{key}' missing or malformed$"):
        Assemblage.from_json(data)


@pytest.mark.parametrize(
    "key, value", [("m_A", "two"), ("n_A", None), ("d_B", [2]), ("d_B", 2.5), ("sigma", [[1.0, 2.0]])]
)
def test_assemblage_from_json_names_a_malformed_key(key, value):
    data = {**assemblage_from(werner_state(0.8), pauli_xz()).to_json(), key: value}
    with pytest.raises(ValueError, match=f"^assemblage document: '{key}' missing or malformed$"):
        Assemblage.from_json(data)


@pytest.mark.parametrize("key", ["m_A", "n_A", "d_B"])
def test_assemblage_from_json_rejects_sizes_that_contradict_sigma(key):
    data = assemblage_from(werner_state(0.8), pauli_xz()).to_json()
    data[key] += 1
    with pytest.raises(ValueError, match=r"^sigma has shape \(2, 2, 2, 2\), but the document declares"):
        Assemblage.from_json(data)


@pytest.mark.parametrize("shape", [(2, 2, 2, 3), (2, 2, 2), (0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 2, 2, 2)])
def test_assemblage_rejects_what_is_not_a_grid_of_square_blocks(shape):
    with pytest.raises(ValueError, match=r"^sigma has shape"):
        Assemblage(np.zeros(shape, dtype=complex))


def test_deterministic_strategies_enumeration():
    strategies = deterministic_strategies(2, 2)
    assert strategies.shape == (4, 2)
    assert {tuple(s) for s in strategies} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_lhs_werner_below_threshold():
    asm = assemblage_from(werner_state(0.5), pauli_xz())
    res = lhs_test(asm)
    assert res.is_lhs
    assert res.members is not None
    # members reconstruct the assemblage
    strategies = deterministic_strategies(2, 2)
    for a, x in np.ndindex(2, 2):
        rebuilt = sum(res.members[lam] for lam in range(4) if strategies[lam, x] == a)
        assert np.max(np.abs(rebuilt - asm.sigma[a, x])) <= 1e-6


def test_lhs_werner_above_threshold():
    asm = assemblage_from(werner_state(1.0), pauli_xz())
    res = lhs_test(asm)
    assert not res.is_lhs
    assert res.robustness > 1e-3


def test_lhs_product_state_zero_robustness():
    rng = np.random.default_rng(44)
    rho = np.kron(random_density(2, rng), random_density(2, rng))
    res = lhs_test(assemblage_from(rho, pauli_xz()))
    assert res.is_lhs
    assert res.robustness <= 1e-8


def test_lhs_monotone_and_threshold_location():
    povms = pauli_xz()
    vs = np.linspace(0.6, 0.8, 9)
    flags = [lhs_test(assemblage_from(werner_state(v), povms)).is_lhs for v in vs]
    # monotone: once steerable, stays steerable as v grows
    first_false = next((i for i, f in enumerate(flags) if not f), len(flags))
    assert all(flags[:first_false]) and not any(flags[first_false:])

    lo, hi = 0.6, 0.8
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if lhs_test(assemblage_from(werner_state(mid), povms)).is_lhs:
            lo = mid
        else:
            hi = mid
    threshold = 0.5 * (lo + hi)
    assert abs(threshold - 1 / np.sqrt(2)) <= 0.01


def test_lhs_refuses_oversized_scenarios():
    sigma = np.zeros((10, 6, 2, 2), dtype=complex)
    sigma[0, :, :, :] = np.eye(2) / 2
    asm = Assemblage(sigma)
    with pytest.raises(ValueError):
        lhs_test(asm)


def test_lhs_refuses_a_solve_that_does_not_end_optimal(monkeypatch):
    import dataclasses

    import steercert.sdp as sdp_module

    solve = sdp_module.solve
    monkeypatch.setattr(sdp_module, "solve", lambda p, **kw: dataclasses.replace(
        solve(p, **kw), status=sdp_module.SolverStatus.NUMERICAL_TROUBLE))
    with pytest.raises(RuntimeError, match="^LHS membership solve failed with status numerical_trouble$"):
        lhs_test(assemblage_from(werner_state(0.5), pauli_xz()))


@pytest.mark.parametrize("build, message", [
    (lambda: Assemblage(np.broadcast_to(np.eye(2) / 8, (2, 2, 2, 2))),
     r"^assemblage is not normalized: Tr = 0\.5$"),
    (lambda: isotropic_state(1, 0.5), "^isotropic states need d >= 2$"),
    (lambda: isotropic_state(3, 1.2), r"^visibility v must lie in \[0, 1\], got 1\.2$"),
    (lambda: isotropic_state(3, -0.1), r"^visibility v must lie in \[0, 1\], got -0\.1$"),
    (lambda: fourier_and_computational(1), "^need d >= 2$"),
    (lambda: assemblage_from(werner_state(0.8), []), "^need at least one measurement$"),
    (lambda: assemblage_from(werner_state(0.8), [pauli_xz()[0], mub_povms(3, 2)[0]]),
     "^all measurements must share dimension and outcome count$"),
    (lambda: assemblage_from(werner_state(0.8), [pauli_xz()[0], apply_loss(pauli_xz()[1], 0.9)]),
     "^all measurements must share dimension and outcome count$"),
    (lambda: assemblage_from(werner_state(0.8), mub_povms(3, 2)),
     "^state dimension 4 incompatible with Alice dimension 3$"),
], ids=["unnormalised assemblage", "isotropic d = 1", "isotropic v > 1", "isotropic v < 0",
        "fourier_and_computational(1)", "no measurement", "dimensions differ", "outcome counts differ",
        "state dimension not a multiple"])
def test_malformed_inputs_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_lhs_handles_loss_outcomes():
    povms = [apply_loss(p, 0.4) for p in pauli_xz()]
    res = lhs_test(assemblage_from(werner_state(1.0), povms))
    assert res.is_lhs  # inconclusive rounds dominate: 40% efficiency is unsteerable
    res_hi = lhs_test(assemblage_from(werner_state(1.0), [apply_loss(p, 0.95) for p in pauli_xz()]))
    assert not res_hi.is_lhs


def test_lhs_tests_share_a_structure_bit_for_bit(monkeypatch):
    import dataclasses

    import steercert.sdp as sdp_module
    from steercert.scenario import _lhs_problem, _symmetry

    solve = sdp_module.solve
    povms = mub_povms(3, 4)
    first = assemblage_from(isotropic_state(3, 0.3), povms)
    lhs_test(first)  # the parent and its structure exist
    misses = _lhs_problem.cache_info().misses
    structure = _lhs_problem(3, 4, 3, _symmetry(first.sigma))[0]._children_structure
    arrays = [a for value in vars(structure).values() for a in (value if isinstance(value, list) else [value])
              if isinstance(a, np.ndarray)]
    assert not any(a.flags.writeable for a in arrays)
    before = [a.tobytes() for a in arrays]
    for v in (0.2, 0.6):  # one LHS, one steerable
        asm = assemblage_from(isotropic_state(3, v), povms)
        solutions = []
        monkeypatch.setattr(sdp_module, "solve",
                            lambda p, **kw: solutions.append((p, solve(p, **kw))) or solutions[-1][1])
        shared = lhs_test(asm)
        monkeypatch.setattr(sdp_module, "solve", lambda p, **kw: solve(dataclasses.replace(p), **kw))
        fresh = lhs_test(asm)
        monkeypatch.undo()
        problem, solution = solutions[0]
        assert problem._shared is structure
        assert shared.robustness == fresh.robustness and shared.is_lhs == fresh.is_lhs == (v < 0.5)
        assert (shared.members is None and fresh.members is None) or np.array_equal(shared.members, fresh.members)
        again = solve(dataclasses.replace(problem))
        assert np.array_equal(solution.dual, again.dual)
        assert all(np.array_equal(a, b) for a, b in zip(solution.primal, again.primal))
    assert _lhs_problem.cache_info().misses == misses
    assert [a.tobytes() for a in arrays] == before


def test_lhs_tests_keep_one_parent():
    from steercert.scenario import _lhs_problem, _symmetry

    lhs_test(assemblage_from(werner_state(0.3), pauli_xz()))
    last = assemblage_from(isotropic_state(3, 0.3), mub_povms(3, 2))
    lhs_test(last)
    info = _lhs_problem.cache_info()
    assert info.currsize == 1
    _lhs_problem(3, 2, 3, _symmetry(last.sigma))  # the last scenario's is the one kept
    assert _lhs_problem.cache_info().misses == info.misses


def _trivial_group(sigma):
    """The outcome-permutation table of the trivial group, which makes `lhs_test` solve the full problem."""
    n_outcomes, n_inputs = sigma.shape[:2]
    return (tuple(tuple(range(n_outcomes)) for _ in range(n_inputs)),)


def _reconstruction_error(asm, members):
    """The largest entry of sum_{lam: lam(x) = a} members[lam] - sigma[a, x] over every (a, x)."""
    n_outcomes, n_inputs = asm.sigma.shape[:2]
    rebuilt = np.zeros_like(asm.sigma)
    for lam, strategy in enumerate(deterministic_strategies(n_inputs, n_outcomes)):
        rebuilt[strategy, np.arange(n_inputs)] += members[lam]
    return np.abs(rebuilt - asm.sigma).max()


@pytest.mark.parametrize("rho, povms", [
    *((isotropic_state(3, round(0.1 * k, 1)), mub_povms(3, 4)) for k in range(1, 11)),
    *((werner_state(v), family) for v in (0.5, 0.9) for family in (pauli_xz(), mub_povms(2, 3))),
    *((werner_state(1.0), [apply_loss(p, eta) for p in pauli_xz()]) for eta in (0.4, 0.95)),
    *((isotropic_state(5, v), fourier_and_computational(5)) for v in (0.3, 0.9)),
], ids=[*(f"isotropic qutrits, 4 MUBs, v = {0.1 * k:.1f}" for k in range(1, 11)),
        *(f"Werner v = {v} under {name}" for v in (0.5, 0.9) for name in ("X, Z", "X, Z, Y")),
        *(f"Werner under lossy X, Z at eta = {eta}" for eta in (0.4, 0.95)),
        *(f"isotropic d = 5, Fourier and computational, v = {v}" for v in (0.3, 0.9))])
def test_the_covariant_lhs_test_agrees_with_the_full_problem(monkeypatch, rho, povms):
    from steercert import scenario
    from steercert.scenario import _lhs_problem, _symmetry

    asm = assemblage_from(rho, povms)
    n_outcomes, n_inputs, d = asm.sigma.shape[:3]
    table = _symmetry(asm.sigma)
    assert len(table) == d * d  # the whole Weyl-Heisenberg group
    reduced = lhs_test(asm)
    assert len(_lhs_problem(n_outcomes, n_inputs, d, table)[0].block_dims) < n_outcomes**n_inputs + 1
    monkeypatch.setattr(scenario, "_symmetry", _trivial_group)
    full = lhs_test(asm)
    full_parent = _lhs_problem(n_outcomes, n_inputs, d, _trivial_group(asm.sigma))[0]
    assert full_parent.block_dims == (d,) * n_outcomes**n_inputs + (1,)
    assert abs(reduced.robustness - full.robustness) <= 1e-9
    assert reduced.is_lhs == full.is_lhs
    for result in (reduced, full):
        assert result.members is None or _reconstruction_error(asm, result.members) <= 1e-9


def test_data_covariant_only_to_rounding_take_the_trivial_group():
    from steercert.scenario import _symmetry

    asm = assemblage_from(isotropic_state(3, 0.7), mub_povms(3, 4))
    assert len(_symmetry(asm.sigma)) == 9
    rng = np.random.default_rng(7)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    vals, vecs = np.linalg.eigh(h + dagger(h))
    u = vecs @ np.diag(np.exp(1e-10j * vals)) @ dagger(vecs)  # exp(i eps H), eps = 1e-10
    rotated = Assemblage(u @ asm.sigma @ dagger(u))  # still an assemblage, covariant to about 1e-10
    assert 1e-12 < np.abs(rotated.sigma - asm.sigma).max() < 1e-9
    assert _symmetry(rotated.sigma) == _trivial_group(rotated.sigma)
    # with v = 0 every block is I / 9, so no outcome permutation is singled out
    blank = assemblage_from(isotropic_state(3, 0.0), mub_povms(3, 4))
    assert _symmetry(blank.sigma) == _trivial_group(blank.sigma)


def test_non_covariant_data_solve_the_full_problem_bit_for_bit():
    from steercert import sdp
    from steercert.scenario import _symmetry

    rng = np.random.default_rng(44)  # the product state of test_lhs_product_state_zero_robustness
    asm = assemblage_from(np.kron(random_density(2, rng), random_density(2, rng)), pauli_xz())
    assert _symmetry(asm.sigma) == _trivial_group(asm.sigma)
    # the full problem, built as it was before the reduction: one identity term per strategy
    strategies, noise = deterministic_strategies(2, 2), np.eye(2) / 4
    t_term = sdp.term_stack(2, lambda e: -np.real(np.sum(np.conj(e) * noise, axis=(-2, -1)))[:, None, None]
                            * np.eye(1, dtype=complex))
    equalities = [sdp.MatrixEquality({**{lam: sdp.term_stack(2) for lam in range(4) if strategies[lam, x] == a},
                                      4: t_term}, asm.sigma[a, x]) for a, x in np.ndindex(2, 2)]
    full = sdp.solve(sdp.SdpProblem((2,) * 4 + (1,), [None] * 4 + [-np.eye(1, dtype=complex)], equalities))
    result = lhs_test(asm)
    assert result.robustness == max(0.0, -full.primal_value)
    assert np.array_equal(result.members, np.stack(full.primal[:4]))


@pytest.mark.parametrize("d", [5, 7])
def test_lossy_isotropic_data_lose_their_lhs_model_above_half_efficiency(d):
    # the paper's threshold on the LHS side: a model exists at eta = 1/2 and none just above it
    def lhs(eta):
        return lhs_test(assemblage_from(isotropic_state(d, 1.0),
                                        [apply_loss(p, eta) for p in fourier_and_computational(d)]))

    assert lhs(0.5).is_lhs
    assert lhs(0.51).robustness > 1e-3


def test_measurement_families_are_built_once():
    for family in (pauli_xz, lambda: mub_povms(3, 4), lambda: fourier_and_computational(5),
                   lambda: mub_povms(2, 3)):
        first = family()
        assert isinstance(first, tuple) and family() is first
        assert not any(p.elements.flags.writeable for p in first)
    assert pauli_xz() is mub_povms(2, 2)
