import functools
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from steercert.qlin import dagger, eigvalsh, hermitian_basis, hermitian_inner, partial_trace
from steercert.sdp import (
    LinearConstraint,
    MatrixEquality,
    SdpProblem,
    SolverStatus,
    _STALL_ITERS,
    _STALL_REGULARISED,
    _coordinates,
    _coords,
    _kernels,
    _matrices,
    _max_steps,
    _nt_scaling,
    _schur,
    _sparse_rows,
    _svec,
    _svec_indices,
    _sym,
    derealify,
    fold,
    realify,
    solve,
    term_stack,
)

Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _coeffs(row):
    """A row's coefficient on each block it touches: the 1 x 1 equality's terms, as matrices."""
    return {k: t[0] for k, t in row.terms.items()}


def _rhs_of(row):
    """A row's right-hand side: the real entry of the 1 x 1 equality's."""
    return row.rhs[0, 0].real


def random_herm(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (h + dagger(h)) / 2


def planted_problem(d, m, rank, rng):
    """Random instance with a known primal-dual optimal pair.

    Plant complementary X* (rank `rank`) and Z* (supported on the orthogonal
    complement), draw random Hermitian constraint coefficients and free
    multipliers y*, then back out C and b. (X*, y*, Z*) is feasible for both
    sides with zero gap, so the optimal value is <C, X*> = b . y*.
    """
    q = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    x_star = q @ dagger(q)
    u, _, _ = np.linalg.svd(q, full_matrices=True)
    comp = u[:, rank:]
    w = comp @ (np.eye(d - rank) + 0.0j) @ dagger(comp)
    z_star = comp @ dagger(comp)
    amats = [random_herm(d, rng) for _ in range(m)]
    y_star = rng.standard_normal(m)
    c = sum(y_star[i] * amats[i] for i in range(m)) - z_star
    constraints = [
        LinearConstraint({0: amats[i]}, hermitian_inner(amats[i], x_star)) for i in range(m)
    ]
    problem = SdpProblem((d,), [c], constraints)
    return problem, hermitian_inner(c, x_star)


def test_scalar_block():
    p = SdpProblem((1,), [np.eye(1)], [LinearConstraint({0: np.eye(1)}, 0.7)])
    sol = solve(p)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.primal_value == pytest.approx(0.7, abs=1e-8)
    assert sol.primal[0][0, 0].real == pytest.approx(0.7, abs=1e-8)


def test_max_eigenvalue_form():
    c = np.diag([1.0, 0.0]).astype(complex)
    p = SdpProblem((2,), [c], [LinearConstraint({0: np.eye(2, dtype=complex)}, 1.0)])
    sol = solve(p)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.primal_value == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(sol.primal[0] - np.diag([1.0, 0.0]))) <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_planted_optimum(seed):
    rng = np.random.default_rng(seed)
    problem, value = planted_problem(d=3, m=4, rank=2, rng=rng)
    sol = solve(problem)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.primal_value == pytest.approx(value, abs=1e-7)
    assert sol.dual_value == pytest.approx(value, abs=1e-7)


def planted_blocks(dims, ranks, m, rng, none_block=None):
    """Multi-block instance with a known optimum, planted as in planted_problem.

    Block k gets a rank-ranks[k] X*_k and Z*_k, the projector onto the
    complement of its range. The block `none_block` has a None objective, so
    its coefficients in the last constraint are chosen to make
    sum_i y*_i A_ik = Z*_k there.
    """
    qs = [rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
    x_stars = [q @ dagger(q) for q in qs]
    z_stars = []
    for d, r, q in zip(dims, ranks, qs):
        u = np.linalg.svd(q, full_matrices=True)[0] if r else np.eye(d)
        z_stars.append(u[:, r:] @ dagger(u[:, r:]))
    amats = [[random_herm(d, rng) for d in dims] for _ in range(m)]
    y_star = rng.standard_normal(m)
    if none_block is not None:
        k = none_block
        rest = sum(y_star[i] * amats[i][k] for i in range(m - 1))
        amats[m - 1][k] = (z_stars[k] - rest) / y_star[m - 1]
    cs = [sum(y_star[i] * amats[i][k] for i in range(m)) - z_stars[k] for k in range(len(dims))]
    objective = [None if k == none_block else c for k, c in enumerate(cs)]
    cons = [
        LinearConstraint(
            {k: a for k, a in enumerate(row)},
            sum(hermitian_inner(a, x) for a, x in zip(row, x_stars)),
        )
        for row in amats
    ]
    value = sum(hermitian_inner(c, x) for c, x in zip(cs, x_stars))
    return SdpProblem(tuple(dims), objective, cons), value


@pytest.mark.parametrize(
    "dims, ranks, m, seed, none_block",
    [
        ((2, 3), (1, 2), 5, 9, None),
        # interleaved dimensions: equal-dimension blocks are solved as one
        # stack, and the results must come back in the caller's order
        ((2, 1, 3, 1, 2, 3), (1, 1, 2, 0, 2, 1), 8, 4, 2),
    ],
    ids=["two_blocks", "interleaved"],
)
def test_planted_blocks(dims, ranks, m, seed, none_block):
    problem, value = planted_blocks(dims, ranks, m, np.random.default_rng(seed), none_block)
    sol = solve(problem)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.primal_value == pytest.approx(value, abs=1e-7)
    for d, r, x, z in zip(dims, ranks, sol.primal, sol.dual_slacks):
        assert x.shape == (d, d) and z.shape == (d, d)
        assert abs(hermitian_inner(x, z)) <= 1e-7
        # distinct planted ranks tell equal-dimension blocks apart
        assert int(np.sum(np.linalg.eigvalsh(x) > 1e-4)) == r


def test_realify_examples():
    for d in (1, 2, 3):
        assert np.array_equal(realify(np.eye(d)), np.eye(2 * d))
    expected = np.array(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float
    )
    assert np.array_equal(realify(Y), expected)
    with pytest.raises(ValueError):
        realify(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_realify_preserves_spectrum_floor():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = random_herm(4, rng)
        assert eigvalsh(realify(a))[0] == pytest.approx(eigvalsh(a)[0], abs=1e-10)
        assert np.trace(realify(a)).real == pytest.approx(2 * np.trace(a).real, abs=1e-10)


def test_realify_and_derealify_act_per_matrix_on_stacks():
    rng = np.random.default_rng(4)
    stack = np.stack([random_herm(3, rng) for _ in range(4)])
    assert np.array_equal(realify(stack), np.stack([realify(a) for a in stack]))
    assert np.array_equal(derealify(realify(stack)), np.stack([derealify(realify(a)) for a in stack]))
    bad = stack.copy()
    bad[2, 0, 1] += 1.0
    with pytest.raises(ValueError):
        realify(bad)


def test_derealify_round_trip():
    rng = np.random.default_rng(2)
    a = random_herm(3, rng)
    assert np.max(np.abs(derealify(realify(a)) - a)) <= 1e-14


def test_weak_duality_and_complementarity():
    rng = np.random.default_rng(33)
    problem, _ = planted_problem(d=4, m=6, rank=2, rng=rng)
    sol = solve(problem)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.dual_value >= sol.primal_value - 1e-12 * (1 + abs(sol.primal_value))
    for x, z in zip(sol.primal, sol.dual_slacks):
        assert abs(hermitian_inner(x, z)) <= 1e-7


def test_determinism():
    rng = np.random.default_rng(5)
    problem, _ = planted_problem(d=3, m=4, rank=1, rng=rng)
    s1 = solve(problem)
    s2 = solve(problem)
    assert s1.primal_value == s2.primal_value
    assert all(np.array_equal(a, b) for a, b in zip(s1.primal, s2.primal))
    assert np.array_equal(s1.dual, s2.dual)


def test_objective_scaling_covariance():
    rng = np.random.default_rng(8)
    problem, value = planted_problem(d=3, m=5, rank=2, rng=rng)
    scaled = SdpProblem(
        problem.block_dims, [3.7 * problem.objective[0]], problem.constraints
    )
    s1 = solve(problem)
    s2 = solve(scaled)
    assert s2.primal_value == pytest.approx(3.7 * s1.primal_value, rel=1e-7)
    assert np.max(np.abs(s2.primal[0] - s1.primal[0])) <= 1e-6


def test_presolve_drops_redundant_rows():
    c = np.diag([1.0, 0.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    cons = [
        LinearConstraint({0: eye}, 1.0),
        LinearConstraint({0: 2.0 * eye}, 2.0),  # same row, doubled
        LinearConstraint({0: np.diag([1.0, -1.0]).astype(complex)}, 1.0),
    ]
    sol = solve(SdpProblem((2,), [c], cons))
    assert sol.status is SolverStatus.OPTIMAL
    assert len(sol.dropped_rows) == 1
    assert sol.primal_value == pytest.approx(1.0, abs=1e-8)
    assert sol.dual.shape == (3,)


def test_inconsistent_rows_infeasible():
    eye = np.eye(1, dtype=complex)
    cons = [LinearConstraint({0: eye}, 1.0), LinearConstraint({0: eye}, 2.0)]
    sol = solve(SdpProblem((1,), [eye], cons))
    assert sol.status is SolverStatus.INFEASIBLE
    assert sol.primal_residual == pytest.approx(1.0, abs=1e-12)  # in the caller's units


@pytest.mark.parametrize("offset", [1e-6, 0.0], ids=["inconsistent", "consistent"])
def test_presolve_dependent_rows(offset):
    # three independent rows and two combinations of them, the first off by `offset`
    eye, z = np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)
    rows = [(eye, 1.0), (z, 0.2), (Y, 0.1), (eye + 2 * z - Y, 1.3 + offset), (3 * Y - z, 0.1)]
    c = np.diag([1.0, 0.0]).astype(complex)
    sol = solve(SdpProblem((2,), [c], [LinearConstraint({0: a}, rhs) for a, rhs in rows]))
    assert len(sol.dropped_rows) == 2
    if not offset:
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.primal_value == pytest.approx(0.6, abs=1e-8)
        return
    assert sol.status is SolverStatus.INFEASIBLE
    vecs = np.array([np.concatenate([a.real.ravel(), a.imag.ravel()]) for a, _ in rows])
    rhs = np.array([r for _, r in rows])
    drop = list(sol.dropped_rows)
    kept = [i for i in range(len(rows)) if i not in drop]
    coef = np.linalg.lstsq(vecs[kept].T, vecs[drop].T, rcond=None)[0]
    assert sol.primal_residual == pytest.approx(np.max(np.abs(rhs[drop] - coef.T @ rhs[kept])), rel=1e-7)


def test_no_independent_row():
    zero = np.zeros((2, 2))
    for rows in ([], [LinearConstraint({0: zero}, 0.0)]):
        with pytest.raises(ValueError, match="at least one linearly independent constraint"):
            solve(SdpProblem((2,), [zero], rows))
    sol = solve(SdpProblem((2,), [zero], [LinearConstraint({0: zero}, 1.0)]))
    assert sol.status is SolverStatus.INFEASIBLE
    assert sol.primal_residual == 1.0
    assert sol.dropped_rows == (0,)


@pytest.mark.parametrize("dims, objective", [((2, 2), [None]), ((2, 1), [np.zeros((1, 1))])],
                         ids=["untouched block", "untouched group"])
def test_blocks_no_row_touches(dims, objective):
    eye = np.eye(2)
    sol = solve(SdpProblem(dims, [-eye] + objective, [LinearConstraint({0: eye}, 1.0)]))
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.primal_value == pytest.approx(-1.0, abs=1e-8)


def test_negative_trace_infeasible():
    eye = np.eye(1, dtype=complex)
    sol = solve(SdpProblem((1,), [None], [LinearConstraint({0: eye}, -1.0)]))
    assert sol.status is SolverStatus.INFEASIBLE


def test_forced_zero_block():
    # one block pinned to zero by its constraints, as in lossless scenarios
    basis = hermitian_basis(2)
    cons = [LinearConstraint({1: e}, 0.0) for e in basis]
    cons.append(LinearConstraint({0: np.eye(2, dtype=complex)}, 1.0))
    c0 = np.diag([1.0, 0.0]).astype(complex)
    sol = solve(SdpProblem((2, 2), [c0, np.eye(2, dtype=complex)], cons))
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.primal_value == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(sol.primal[1])) <= 1e-7


def test_matrix_equality_rows_and_multipliers():
    # a rank-deficient compression X -> V X V^dag and the prepare-and-measure map
    # M -> Tr_A[(M (x) 1) rho] into 3 x 3 matrices, then the identity into 2 x 2 ones
    rng = np.random.default_rng(29)
    d_a, d = 2, 3
    v = np.linalg.qr(rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)))[0]
    g = rng.standard_normal((d_a * d, d_a * d)) + 1j * rng.standard_normal((d_a * d, d_a * d))
    rho = g @ dagger(g) / np.trace(g @ dagger(g)).real

    def pm_adjoint(e):  # E -> Herm Tr_B[(1 (x) E) rho]
        c = np.stack([partial_trace(np.kron(np.eye(d_a), x) @ rho, (d_a, d), keep="A") for x in e])
        return 0.5 * (c + dagger(c))

    maps = [
        {
            0: lambda x: v @ x @ dagger(v),
            1: lambda m: partial_trace(np.kron(m, np.eye(d)) @ rho, (d_a, d), keep="B"),
        },
        {2: lambda x: x},
    ]
    equalities = [
        MatrixEquality({0: term_stack(d, lambda e: dagger(v) @ e @ v), 1: term_stack(d, pm_adjoint)},
                       random_herm(d, rng)),
        MatrixEquality({2: term_stack(2)}, random_herm(2, rng)),
    ]
    xs = {0: random_herm(2, rng), 1: random_herm(d_a, rng), 2: random_herm(2, rng)}
    rows = SdpProblem((2, d_a, 2), [None] * 3, equalities).constraints
    assert len(rows) == d * d + 4
    y = rng.standard_normal(len(rows))
    start = 0
    for eq, terms, big_y in zip(equalities, maps, fold(equalities, y)):
        image = sum(t(xs[k]) for k, t in terms.items())
        basis = hermitian_basis(len(eq.rhs))
        values = []
        for e, row in zip(basis, rows[start:start + len(basis)]):
            values.append(sum(hermitian_inner(c, xs[k]) for k, c in _coeffs(row).items()))
            assert values[-1] == pytest.approx(hermitian_inner(e, image), abs=1e-12)
            assert _rhs_of(row) == pytest.approx(hermitian_inner(e, eq.rhs), abs=1e-12)
        assert np.max(np.abs(big_y - dagger(big_y))) == 0.0
        assert y[start:start + len(basis)] @ values == pytest.approx(hermitian_inner(big_y, image), abs=1e-12)
        start += len(basis)


def test_solution_residuals_small():
    rng = np.random.default_rng(77)
    problem, _ = planted_problem(d=3, m=6, rank=2, rng=rng)
    sol = solve(problem)
    assert sol.primal_residual <= 1e-8
    assert sol.dual_residual <= 1e-8
    for x in sol.primal:
        assert eigvalsh(x)[0] >= -1e-9


def recomputed_residuals(problem, sol):
    """The largest violation of a kept row and the largest entry of sum_i y_i A_i - C - Z,
    computed from the returned iterate."""
    kept = [i for i in range(len(problem.constraints)) if i not in sol.dropped_rows]
    pres = max(
        abs(_rhs_of(problem.constraints[i]) - sum(hermitian_inner(a, sol.primal[k])
                                                  for k, a in _coeffs(problem.constraints[i]).items()))
        for i in kept
    )
    dres = 0.0
    for k, (c, z) in enumerate(zip(problem.objective, sol.dual_slacks)):
        r = -z if c is None else -c - z
        for y, con in zip(sol.dual, problem.constraints):
            if k in con.terms:
                r = r + y * con.terms[k][0]
        dres = max(dres, np.max(np.abs(r.real)), np.max(np.abs(r.imag)))
    return pres, dres


def captured_problem(monkeypatch, certify, *args, **kwargs):
    """The SDP a certification hands to ``solve``."""
    import steercert.sdp as sdp_module

    captured = []
    monkeypatch.setattr(sdp_module, "solve", lambda p, **kw: captured.append(p) or solve(p, **kw))
    certify(*args, **kwargs)
    monkeypatch.undo()
    return captured[0]


def test_reported_residuals_are_those_of_the_returned_iterate(monkeypatch):
    # the local problem of a Werner state
    from steercert.certify import certify_local
    from steercert.scenario import assemblage_from, pauli_xz, werner_state

    problem = captured_problem(monkeypatch, certify_local, assemblage_from(werner_state(0.9), pauli_xz()), 0)
    sol = solve(problem, max_iters=1)
    pres, dres = recomputed_residuals(problem, sol)
    assert sol.primal_residual == pytest.approx(pres, rel=1e-9)
    assert sol.dual_residual == pytest.approx(dres, rel=1e-9)
    assert dres > 1.0  # the start point is far from dual feasible


def test_stalled_solve_stops_early(monkeypatch, caplog):
    # a see-saw stepping certification: Pauli X/Z on a pure state, smoothed by
    # uniform noise of weight 3e-7, at the see-saw's solver targets
    from steercert.certify import _smoothed, certify_local
    from steercert.scenario import assemblage_from, pauli_xz, schmidt_state
    from steercert.seesaw import _SEESAW_SOLVER_OPTS

    theta = np.pi / 7
    rho = schmidt_state([np.cos(theta) ** 2, np.sin(theta) ** 2])
    asm = _smoothed(assemblage_from(rho, pauli_xz()), 3e-7)
    problem = captured_problem(monkeypatch, certify_local, asm, 0, solver_opts=_SEESAW_SOLVER_OPTS)
    with caplog.at_level(logging.DEBUG, logger="steercert"):
        sol = solve(problem, **_SEESAW_SOLVER_OPTS)
    assert sol.status is SolverStatus.NUMERICAL_TROUBLE
    stalled = [r.getMessage() for r in caplog.records if "stalled" in r.getMessage()]
    assert len(stalled) == 1
    match = re.fullmatch(r"iter +(\d+)  stalled: best merit at iter (\d+), Schur complement "
                         r"regularised at each of the last (\d+) steps", stalled[0])
    assert match is not None
    it, best_it, regularised = map(int, match.groups())
    assert it == sol.iterations and it - best_it >= _STALL_ITERS and regularised >= _STALL_REGULARISED
    # before the stall stop, this solve ran 30 iterations to the same status and iterate
    assert sol.iterations < 30
    pres, dres = recomputed_residuals(problem, sol)
    assert sol.primal_residual == pytest.approx(pres, rel=1e-9)
    assert sol.dual_residual == pytest.approx(dres, rel=1e-9)


def test_iterations_are_logged_at_debug_level(caplog):
    problem, _ = planted_problem(d=2, m=2, rank=1, rng=np.random.default_rng(3))
    with caplog.at_level(logging.DEBUG, logger="steercert"):
        sol = solve(problem)
    lines = [r.getMessage() for r in caplog.records if r.name == "steercert"]
    assert len(lines) == sol.iterations + 1
    assert lines[0].startswith("iter   0  gap ") and " pres " in lines[0] and " dres " in lines[0]


def _fig3_qubit_at(eta):
    """The fig3_qubit point at detection efficiency eta: a Werner state of visibility 1 under lossy X/Z."""
    from steercert.scenario import apply_loss, assemblage_from, pauli_xz, werner_state

    return assemblage_from(werner_state(1.0), [apply_loss(p, eta) for p in pauli_xz()])


def test_schur_regularisation_is_logged(caplog):
    from steercert.certify import certify_local

    with caplog.at_level(logging.DEBUG, logger="steercert"):
        certify_local(_fig3_qubit_at(0.9), 0)
    lines = [r.getMessage() for r in caplog.records if "Schur" in r.getMessage()]
    assert lines == ["iter   7  Schur complement regularised by 1e-13 of its mean diagonal"]


def _psd_stack(n, d, rng):
    q = rng.standard_normal((n, d, d))
    return q @ q.mT + 0.1 * np.eye(d)


def _step_factors(x, z):
    """The stack [F_X^T; F_Z^T] of the NT scaling of [X; Z], F M F^T = I."""
    return _nt_scaling(np.concatenate([x, z]), np.eye(x.shape[-1]))[-1]


def test_joint_step_lengths_match_separate_stacks():
    rng = np.random.default_rng(12)
    groups = []  # (X, dX, Z, dZ) per block dimension
    for n, d in ((3, 4), (5, 2)):
        x, z = _psd_stack(n, d, rng), _psd_stack(n, d, rng)
        groups.append((x, _sym(rng.standard_normal((n, d, d))), z, _sym(rng.standard_normal((n, d, d)))))

    def separate(ft, dm):
        # the smallest eigenvalue of F dM F^T over one stack alone
        return float(np.min(np.linalg.eigvalsh(_sym(ft.mT @ dm @ ft))[:, 0]))

    factors = [_step_factors(x, z) for x, _, z, _ in groups]
    ap, ad = _max_steps(factors, [np.concatenate([dx, dz]) for _, dx, _, dz in groups])
    expected = (-1.0 / min(separate(ft[:len(x)], dx) for ft, (x, dx, _, _) in zip(factors, groups)),
                -1.0 / min(separate(ft[len(x):], dz) for ft, (x, _, _, dz) in zip(factors, groups)))
    assert np.array_equal((ap, ad), expected)
    # each step ends on the boundary of the PSD cone
    assert abs(min(np.min(np.linalg.eigvalsh(x + ap * dx)) for x, dx, _, _ in groups)) <= 1e-10
    assert abs(min(np.min(np.linalg.eigvalsh(z + ad * dz)) for _, _, z, dz in groups)) <= 1e-10
    psd = [np.concatenate([_psd_stack(len(x), x.shape[-1], rng) for _ in range(2)]) for x, *_ in groups]
    assert _max_steps(factors, psd) == (np.inf, np.inf)


@pytest.mark.parametrize("seed", range(4))
def test_step_lengths_from_the_scaling_are_those_to_the_boundary(seed):
    # sup {alpha : M + alpha dM >= 0} = -1 / lambda_min(M^-1/2 dM M^-1/2), by eigh, against the
    # NT factors F (F M F^T = I) that _max_steps uses, for X and for Z
    rng = np.random.default_rng(40 + seed)

    def to_boundary(m, dm):
        vals, vecs = np.linalg.eigh(m)
        root = (vecs * vals[:, None, :] ** -0.5) @ vecs.mT
        lam = np.linalg.eigvalsh(root @ dm @ root)[:, 0].min()
        return np.inf if lam >= 0 else -1.0 / lam

    n, d = int(rng.integers(1, 9)), 2 * int(rng.integers(1, 4))
    x, z = _psd_stack(n, d, rng), _psd_stack(n, d, rng)
    dx, dz = _sym(rng.standard_normal((n, d, d))), _sym(rng.standard_normal((n, d, d)))
    steps = _max_steps([_step_factors(x, z)], [np.concatenate([dx, dz])])
    assert steps == pytest.approx((to_boundary(x, dx), to_boundary(z, dz)), rel=1e-12)


@pytest.mark.parametrize("lone_row", [[], [5]], ids=["untouched group", "group of width one"])
def test_sparse_schur_matches_the_dense_build(lone_row):
    # Hermitian dims 2, 3, 2, 1, 3, 1, 2: groups {0, 2, 6}, {1, 4} and {3, 5}; the rows of blocks
    # 0, 1 and 6 overlap, so that row 2 takes three terms in the caller's order, and block 2's
    # are disjoint from theirs; no row touches block 3 or block 4, and block 5 touches either
    # none (so no block of its group) or one
    rng = np.random.default_rng(14)
    dims, blocks, mr = [2, 3, 1], [np.array([0, 2, 6]), np.array([1, 4]), np.array([3, 5])], 6
    touched = {0: [0, 1, 2], 1: [1, 2, 3], 2: [4, 5], 3: [], 4: [], 5: lone_row, 6: [0, 2, 3]}
    coordinates = [_coordinates(d) for d in dims]
    assert _coordinates(2) is coordinates[0] and not any(a.flags.writeable for a in coordinates[0])  # cached, read-only
    a3 = [np.zeros((len(k), mr, d * d)) for k, d in zip(blocks, dims)]
    for a, ks in zip(a3, blocks):
        for a_k, k in zip(a, ks):
            a_k[touched[k]] = rng.standard_normal((len(touched[k]), a.shape[-1]))
    tmats = [_psd_stack(len(k), 2 * d, rng) for k, d in zip(blocks, dims)]
    a_sp, a_t, plan = _sparse_rows(a3, np.argsort(np.concatenate(blocks)))
    assert [a.shape[1] for a in a_sp] == [3, 3, 2 if lone_row else 0]
    assert all(a.flags.c_contiguous for a in a_sp + a_t) and all(np.array_equal(a.mT, at) for a, at in zip(a_sp, a_t))

    # the dense build: every block's a K a^T over all rows, added block by block in the caller's order
    kernels = [_kernels(t, c) for t, c in zip(tmats, coordinates)]
    schur = np.zeros((mr, mr))
    for k in range(7):
        g = next(g for g, ks in enumerate(blocks) if k in ks)
        j = list(blocks[g]).index(k)
        schur += a3[g][j] @ kernels[g][j] @ a3[g][j].T
    assert np.array_equal(_schur(tmats, a_sp, a_t, coordinates, plan), 0.5 * (schur + schur.T))


@pytest.mark.parametrize("seed", range(4))
def test_schur_complement_is_its_definition(seed):
    # S_ij = sum_k <A_ik, T_k A_jk T_k> from full realified matrices, on a random layout of blocks
    # of Hermitian dimensions 1 to 4, each touching random rows, a group's first block the most;
    # in the group of dimension seed + 1, every block touches at most one row, so that the group
    # has width one
    rng = np.random.default_rng(60 + seed)
    dims = rng.permutation(np.repeat([1, 2, 3, 4], rng.integers(1, 4, 4)))
    mr = int(rng.integers(3, 12))
    groups = [np.flatnonzero(dims == d) for d in dict.fromkeys(dims.tolist())]
    coordinates = [_coordinates(dims[ks[0]]) for ks in groups]
    a3 = [rng.standard_normal((len(ks), mr, dims[ks[0]] ** 2)) for ks in groups]
    for a, ks in zip(a3, groups):
        width = 1 if dims[ks[0]] == seed + 1 else mr
        for j, a_k in enumerate(a):
            a_k[rng.permutation(mr)[width if j == 0 else rng.integers(0, width + 1):]] = 0.0
    tmats = [realify(np.array([(h := random_herm(dims[k], rng)) @ h + 0.1 * np.eye(dims[k]) for k in ks]))
             for ks in groups]
    a_sp, a_t, plan = _sparse_rows(a3, np.argsort(np.concatenate(groups)))
    assert any(a.shape[1] == 2 for a in a_sp)  # the width-one group, padded to two rows

    want = np.zeros((mr, mr))
    for a, t, c in zip(a3, tmats, coordinates):
        for a_k, t_k in zip(a, t):
            full = _matrices(a_k, c)  # the realified A_ik of every row i
            want += np.einsum("iab,jab->ij", full, t_k @ full @ t_k)
    got = _schur(tmats, a_sp, a_t, coordinates, plan)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kernels_are_the_coordinates_of_t_e_t(d):
    # K[k, l, m] = <E_m, T_k E_l T_k> over the basis E_l that _coordinates holds
    rng = np.random.default_rng(70 + d)
    c = _coordinates(d)
    basis = _matrices(np.eye(d * d), c)
    assert np.array_equal(c[4], basis)
    t = _psd_stack(5, 2 * d, rng)
    k = _kernels(t, c)
    want = np.einsum("mab,klab->klm", basis, t[:, None] @ basis @ t[:, None])
    assert k.shape == (5, d * d, d * d)
    assert np.abs(k - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(k - k.mT).max() <= 1e-14 * np.abs(k).max()


@pytest.mark.parametrize("seed", range(10))
def test_planted_fuzz_across_shapes(seed):
    rng = np.random.default_rng(1000 + seed)
    d = int(rng.integers(1, 5))
    rank = int(rng.integers(1, d + 1))
    m = int(rng.integers(1, 2 * d * d))
    problem, value = planted_problem(d=d, m=m, rank=rank, rng=rng)
    sol = solve(problem)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.primal_value == pytest.approx(value, abs=5e-7)


def _svec_by_index(mats, dim):
    jj, ii = np.triu_indices(dim)
    return mats[..., ii, jj] * _svec_indices(dim)[1]


def _copies(dim):
    """Each coordinate's copies in a dim x dim realified matrix: (sign, row, column) triples."""
    signs = np.sign(realify(hermitian_basis(dim // 2)))
    return [[(e[i, j], i, j) for i, j in zip(*np.nonzero(e))] for e in signs]


def _coords_by_index(mats, dim):
    scale = _coordinates(dim // 2)[2]
    out = np.zeros(mats.shape[:-2] + scale.shape)
    for k, copies in enumerate(_copies(dim)):
        out[..., k] = sum(sign * mats[..., i, j] for sign, i, j in copies) * scale[k]
    return out


def _matrices_by_index(vec, dim):
    scale = _coordinates(dim // 2)[2]
    out = np.zeros(vec.shape[:-1] + (dim, dim))
    for k, copies in enumerate(_copies(dim)):
        for sign, i, j in copies:
            out[..., i, j] = vec[..., k] * scale[k] * sign
    return out


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_svec_gathers_match_the_index_forms(dim):
    # the svec of the assembly, and the coordinates' reads and writes; a read sums its copies exactly
    # when the entries are integers, so that its rounding is the last product's in any order
    rng = np.random.default_rng(20 + dim)
    idx, c = _svec_indices(dim), _coordinates(dim // 2)
    for lead in [(), (3,), (2, 5), (4, 0)]:
        mats = rng.standard_normal(lead + (dim, dim))
        whole = rng.integers(-9, 10, lead + (dim, dim)).astype(float)
        vec = rng.standard_normal(lead + (len(c[2]),))
        for got, want in [
            (_svec(mats, idx), _svec_by_index(mats, dim)),
            (_svec(mats.mT, idx), _svec_by_index(mats.mT, dim)),  # a strided stack
            (_coords(whole, c), _coords_by_index(whole, dim)),
            (_coords(whole.mT, c), _coords_by_index(whole.mT, dim)),
            (_matrices(vec, c), _matrices_by_index(vec, dim)),
        ]:
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_coordinates_are_the_projection_onto_realifications(d):
    rng = np.random.default_rng(50 + d)
    c = _coordinates(d)
    h, h2 = (np.array([random_herm(d, rng) for _ in range(5)]) for _ in range(2))

    def off_image(n):
        # [[S1 + K1, S2 + K], [S3 + K, -S1 + K2]] (S symmetric, K antisymmetric) is orthogonal to every
        # realification [[S, -K'], [K', S]]; integer entries keep every sum exact
        sym = [(q := rng.integers(-9, 10, (n, d, d))) + q.mT for _ in range(3)]
        anti = [(q := rng.integers(-9, 10, (n, d, d))) - q.mT for _ in range(3)]
        return np.block([[sym[0] + anti[0], sym[1] + anti[2]], [sym[2] + anti[2], -sym[0] + anti[1]]]).astype(float)

    q = rng.integers(-9, 10, (5, d, d)) + 1j * rng.integers(-9, 10, (5, d, d))
    whole = realify(q + dagger(q))
    assert np.array_equal(_coords(whole + off_image(5), c), _coords(whole, c))
    assert np.max(np.abs(_coords(realify(h) + off_image(5), c) - _coords(realify(h), c))) <= 1e-14
    # sqrt(2) times the expansion on hermitian_basis; writing and reading back
    want = np.sqrt(2.0) * np.einsum("kij,nji->nk", hermitian_basis(d), h).real
    assert np.max(np.abs(_coords(realify(h), c) - want)) <= 1e-14
    assert np.max(np.abs(_matrices(want, c) - realify(h))) <= 1e-14
    vec = rng.standard_normal((5, d * d))
    assert np.max(np.abs(_coords(_matrices(vec, c), c) - vec)) <= 1e-15 * np.abs(vec).max()
    # dot products are the Frobenius products of the realified matrices, 2 Re Tr[H H2]
    dots = (_coords(realify(h), c) * _coords(realify(h2), c)).sum(-1)
    assert dots == pytest.approx(2.0 * np.einsum("nij,nji->n", h, h2).real, rel=1e-13, abs=1e-13)


def test_factorisations_match_numpy_linalg():
    # the gufuncs called without numpy.linalg's wrappers; a numpy that moves them fails here
    from steercert.sdp import _cholesky, _eigvalsh, _svd

    rng = np.random.default_rng(25)
    for n, d in [(16, 2), (16, 4), (5, 6), (3, 8)]:
        q = rng.standard_normal((n, d, d))
        pd = _psd_stack(n, d, rng)
        assert np.array_equal(_cholesky(pd, signature="d->d"), np.linalg.cholesky(pd))
        for got, want in zip(_svd(q, signature="d->ddd"), np.linalg.svd(q)):
            assert np.array_equal(got, want)
        assert np.array_equal(_eigvalsh(_sym(q), signature="d->d"), np.linalg.eigvalsh(_sym(q)))


def test_a_block_that_is_not_positive_definite_fails_the_scaling():
    import warnings

    from steercert.sdp import _nt_scaling

    xz = _psd_stack(8, 4, np.random.default_rng(26))
    xz[5] = -xz[5]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(xz)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _nt_scaling(xz, np.eye(4))


def _realified_scalars(a):
    """The stack a I_2 of a stack of 1 x 1 blocks, its off-diagonal entries exact zeros."""
    return np.where(np.eye(2, dtype=bool), a, 0.0)


def _diagonals(got):
    """The diagonals of a stack of matrices; lam, a stack of vectors, as it is."""
    return got if got.ndim == 2 else np.diagonal(got, axis1=-2, axis2=-1)


@pytest.mark.parametrize("seed", range(4))
def test_scalar_blocks_scale_and_step_as_their_realification_bit_for_bit(seed):
    # 1 x 1 blocks are kept as scalars a; the engine used to realify them to a I_2 and call LAPACK
    rng = np.random.default_rng(70 + seed)
    n = int(rng.integers(1, 60))
    xz = 10.0 ** rng.uniform(-12, 4, (2 * n, 1, 1))
    scalar, realified = _nt_scaling(xz, np.eye(1)), _nt_scaling(_realified_scalars(xz), np.eye(2))
    for got, want in zip(scalar, realified):
        assert got.shape[-1] == 1 and _identical(_diagonals(want), _diagonals(got).repeat(2, -1))
        if want.ndim == 3:
            assert np.array_equal(want, _realified_scalars(got))  # nothing off the diagonal
    delta = rng.choice([-1.0, 1.0], (2 * n, 1, 1)) * 10.0 ** rng.uniform(-12, 4, (2 * n, 1, 1))
    delta[[0, n]] = -1.0  # a step to the boundary for X and for Z
    for d in (delta, np.abs(delta)):
        assert _max_steps([scalar[-1]], [d]) == _max_steps([realified[-1]], [_realified_scalars(d)])
    assert np.isfinite(_max_steps([scalar[-1]], [delta])).all()
    assert _max_steps([scalar[-1]], [np.abs(delta)]) == (np.inf, np.inf)


@pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_a_scalar_block_that_is_not_positive_fails_the_scaling_as_its_realification(bad):
    import warnings

    xz = 10.0 ** np.random.default_rng(75).uniform(-12, 4, (8, 1, 1))
    xz[5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack, eye in ((xz, np.eye(1)), (_realified_scalars(xz), np.eye(2))):
            with pytest.raises(np.linalg.LinAlgError):
                _nt_scaling(stack, eye)


def _lapack_calls(monkeypatch):
    """The shapes of the stacks sdp's Cholesky, SVD and eigvalsh gufuncs are called on from here on."""
    import steercert.sdp as sdp_module

    shapes = []
    for name in ("_cholesky", "_svd", "_eigvalsh"):
        monkeypatch.setattr(sdp_module, name, lambda a, *args, f=getattr(sdp_module, name), **kw:
                            shapes.append(a.shape) or f(a, *args, **kw))
    return shapes


def _pm_on_bases_not_unbiased(v=0.7):
    """certify_pm on isotropic qutrits under the computational basis and {|0>, (|1> +- |2>)/sqrt 2}: projective
    measurements, so each of Eve's blocks is 1 x 1, that are not unbiased, so an SDP decides."""
    from steercert.certify import certify_pm
    from steercert.qlin import basis_povm
    from steercert.scenario import isotropic_state

    s = 1 / np.sqrt(2)
    bases = [np.eye(3, dtype=complex), np.array([[1, 0, 0], [0, s, s], [0, s, -s]])]
    return certify_pm(isotropic_state(3, v), [basis_povm(b) for b in bases])


@pytest.mark.parametrize("preset, value, lapack_dims",
                         [("pm_not_unbiased", 0.7, set()), ("fig4_qutrit_loss", 0.8, {6})])
def test_scalar_blocks_call_no_lapack(monkeypatch, preset, value, lapack_dims):
    # projective prepare-and-measure blocks are all 1 x 1; fig4_qutrit_loss has 48 of them next to 16 qutrit blocks
    import steercert.sdp as sdp_module
    from steercert.cli import _certify_point, presets

    solves, solve = [], sdp_module.solve
    monkeypatch.setattr(sdp_module, "solve", lambda p, **kw: solves.append((p.block_dims, s := solve(p, **kw))) or s)
    shapes = _lapack_calls(monkeypatch)
    if preset == "pm_not_unbiased":
        result = _pm_on_bases_not_unbiased(value)
    else:
        result = _certify_point(presets()[preset].at_parameter(value))
    assert result.status is SolverStatus.OPTIMAL
    (dims, sol), = solves
    assert 1 in dims and sol.iterations > 0
    assert {2 * d for d in dims} - {2} == lapack_dims
    assert {shape[1:] for shape in shapes} == {(d, d) for d in lapack_dims}


def test_a_scalar_objective_is_read_by_its_real_part():
    # its imaginary part, within the 1e-10 of the Hermiticity check, went into the realified
    # objective's off-diagonal entries; a 1 x 1 block is no longer realified
    rng = np.random.default_rng(77)
    dims = (1, 2, 3, 2, 2)
    objective = [np.array([[0.7]]), random_herm(2, rng), None, random_herm(2, rng), -np.eye(2)]
    equalities = _mixed_equalities(rng)
    met = [MatrixEquality(eq.terms, r) for eq, r in zip(equalities, _met_by(equalities, dims, rng))]
    want = solve(SdpProblem(dims, objective, met))
    assert want.status is SolverStatus.OPTIMAL
    for imag in (4e-11, -4e-11):
        _solutions_identical(solve(SdpProblem(dims, [objective[0] + 1j * imag, *objective[1:]], met)), want)
    with pytest.raises(ValueError, match="objective block 0 is not Hermitian"):
        solve(SdpProblem(dims, [objective[0] + 1e-10j, *objective[1:]], met))


def test_a_step_out_of_the_cone_ends_in_numerical_trouble(monkeypatch):
    # the SDP of the first fig2 point; with steps past the boundary, [X; Z] leaves the PSD cone at
    # iteration 2. certify_local decides that unsteerable point by an attack, so the problem it
    # solved before is built here from its steering parent, as certify_local builds it
    import warnings

    import steercert.sdp as sdp_module
    from steercert.certify import _steering_parent, _supports
    from steercert.scenario import assemblage_from, pauli_xz, werner_state

    asm = assemblage_from(werner_state(0.6), pauli_xz())
    _, parent, kept = _steering_parent(_supports(asm.sigma), 0, np.arange(2), np.eye(2, dtype=complex)[None].repeat(2, 0))
    problem = parent.with_rhs([*(asm.sigma[key] for key in kept[0]), *(eq.rhs for eq in kept[1].values())])
    monkeypatch.setattr(sdp_module, "_STEP_FRAC", 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(problem)
    assert sol.status is SolverStatus.NUMERICAL_TROUBLE
    assert sol.iterations == 2


@pytest.mark.parametrize("name, calls_per_iteration, failure", [
    ("_dpotrf", 1, lambda schur, *args: (schur, 1)),
    ("_max_steps", 2, lambda factors, deltas: (0.0, 0.0)),
], ids=["every Schur shift fails", "both step lengths below 1e-10"])
def test_a_solve_that_cannot_step_returns_its_best_merit_iterate(monkeypatch, name, calls_per_iteration, failure):
    # a Werner point whose Schur complement factorises unshifted at every iteration; from
    # iteration 3 on, sdp.<name> fails: Cholesky at every shift, or both steps to the boundary are 0
    import steercert.sdp as sdp_module
    from steercert.certify import certify_local
    from steercert.scenario import assemblage_from, pauli_xz, werner_state

    problem = captured_problem(monkeypatch, certify_local, assemblage_from(werner_state(0.9), pauli_xz()), 0)
    stop, original, calls = 3, getattr(sdp_module, name), iter(range(10**6))
    monkeypatch.setattr(sdp_module, name,
                        lambda *args: original(*args) if next(calls) < calls_per_iteration * stop else failure(*args))
    sol = solve(problem)
    monkeypatch.undo()
    assert sol.status is SolverStatus.NUMERICAL_TROUBLE
    assert sol.iterations == stop
    # the best merit of the iterates 0 to 3, which a solve capped after iteration 3 returns too
    capped = solve(problem, max_iters=stop + 1)
    assert capped.status is SolverStatus.MAX_ITERATIONS
    assert sol.primal_value == capped.primal_value and np.array_equal(sol.dual, capped.dual)
    assert all(np.array_equal(a, b) for a, b in zip(sol.primal, capped.primal))
    merit = max(sol.gap, sol.primal_residual, sol.dual_residual)
    for iters in range(1, stop + 1):
        earlier = solve(problem, max_iters=iters)
        assert merit <= max(earlier.gap, earlier.primal_residual, earlier.dual_residual)


def test_regularised_steps_count_the_shifted_schur_complements(monkeypatch, caplog):
    import steercert.sdp as sdp_module
    from steercert.certify import certify_local

    sols = []
    monkeypatch.setattr(sdp_module, "solve", lambda p, **kw: sols.append(s := solve(p, **kw)) or s)
    with caplog.at_level(logging.DEBUG, logger="steercert"):
        certify_local(_fig3_qubit_at(0.9), 0)
    shifted = [r for r in caplog.records if "Schur complement regularised" in r.getMessage()]
    assert [s.regularised_steps for s in sols] == [len(shifted)] == [1]
    problem, _ = planted_problem(d=2, m=2, rank=1, rng=np.random.default_rng(3))
    assert solve(problem).regularised_steps == 0


def _row_by_row(problem):
    """The reference build of the row matrix and b: every row's coefficient on every block,
    realified and svec'd one at a time (zero where the row leaves the block out), one column
    block per block in the caller's order."""
    cons = list(problem.constraints)
    columns = []
    for k, d in enumerate(problem.block_dims):
        idx = _svec_indices(2 * d)
        columns.append(np.array([_svec(realify(con.terms[k][0]), idx) if k in con.terms else np.zeros(len(idx[0]))
                                 for con in cons]).reshape(len(cons), len(idx[0])))
    return np.hstack(columns), np.array([2.0 * _rhs_of(con) for con in cons], dtype=float)


def _identical(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _mixed_equalities(rng):
    """Equalities on blocks of dimensions 1, 2, 3, 2 and 2, of which block 4 is untouched: one term
    stack shared by blocks 1 and 3 and by two equalities, and a term-less equality."""
    v = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))[0]
    shared = term_stack(2)
    scalar = term_stack(2, lambda e: np.trace(e, axis1=1, axis2=2).real[:, None, None] / 2)
    return [
        MatrixEquality({0: scalar, 1: shared, 3: shared, 2: term_stack(2, lambda e: v @ e @ dagger(v))},
                       random_herm(2, rng)),
        MatrixEquality({}, np.zeros((3, 3))),
        MatrixEquality({2: term_stack(3), 0: term_stack(3, lambda e: np.trace(e, axis1=1, axis2=2)[:, None, None])},
                       random_herm(3, rng)),
        MatrixEquality({1: shared, 0: term_stack(2, lambda e: e[:, :1, :1])}, random_herm(2, rng)),
        MatrixEquality({3: term_stack(1, lambda e: e[:, 0, 0, None, None] * np.eye(2))}, np.eye(1)),
    ]


def test_assembly_matches_the_row_by_row_build(monkeypatch):
    import steercert.sdp as sdp_module
    from steercert.sdp import _assemble, _rhs

    rng = np.random.default_rng(31)
    dims = (1, 2, 3, 2, 2)
    objective = [np.eye(1), random_herm(2, rng), None, random_herm(2, rng), -np.eye(2)]
    hand_built = [LinearConstraint({0: np.eye(1)}, 0.5), LinearConstraint({1: random_herm(2, rng), 2: np.eye(3)}, 1.0),
                  LinearConstraint({}, 0.0), LinearConstraint({3: np.diag([1.0, 0.0]), 1: np.eye(2)}, 0.25)]
    for constraints in (_mixed_equalities(rng), hand_built):
        problem = SdpProblem(dims, objective, constraints)
        rows, groups, objectives, _ = _assemble(problem)
        b = _rhs(problem.constraints)
        ref_rows, ref_b = _row_by_row(problem)
        assert _identical(rows, ref_rows) and _identical(b, ref_b)
        assert [list(g) for g in groups] == [[0], [1, 3, 4], [2]]
        for g, stack in zip(groups, objectives):
            assert all(np.array_equal(s, np.zeros_like(s) if objective[k] is None else objective[k])
                       for k, s in zip(g, stack))
        # the group stacks the Newton loop gets: each group's blocks on the kept rows
        stacks = []
        monkeypatch.setattr(sdp_module, "_sparse_rows", lambda a3, *rest: stacks.append(a3) or _sparse_rows(a3, *rest))
        sol = solve(problem)
        monkeypatch.undo()
        keep = [i for i in range(len(b)) if i not in sol.dropped_rows]
        starts = np.cumsum([0] + [d * (2 * d + 1) for d in dims])
        for g, a in zip(groups, stacks[0]):
            from_svec = _coordinates(dims[g[0]])[3]
            want = np.stack([ref_rows[keep, starts[k]:starts[k + 1]] @ from_svec for k in g])
            assert a.flags.c_contiguous and _identical(a, want)


def test_expanded_rows_are_a_sequence_of_the_rows():
    rng = np.random.default_rng(32)
    equalities = _mixed_equalities(rng)
    rows = SdpProblem((1, 2, 3, 2, 2), [None] * 5, equalities).constraints
    assert rows.equalities == equalities and len(rows) == 4 + 9 + 9 + 4 + 1
    assert SdpProblem((1, 2, 3, 2, 2), [None] * 5, rows).constraints.equalities == equalities
    listed = list(rows)
    assert len(listed) == len(rows) and rows[-1] is listed[-1] and rows[4:13] == listed[4:13]
    # each row a 1 x 1 equality
    assert all(con.rhs.shape == (1, 1) and all(t.shape[0] == 1 for t in con.terms.values()) for con in listed)
    assert all(con.terms == {} and _rhs_of(con) == 0.0 for con in rows[4:13])  # the term-less equality
    for i, con in enumerate(listed[13:22]):
        assert list(con.terms) == [2, 0]
        assert np.array_equal(con.terms[2][0], hermitian_basis(3)[i])
        assert _rhs_of(con) == hermitian_inner(hermitian_basis(3)[i], equalities[2].rhs)
    with pytest.raises(IndexError):
        rows[len(rows)]


def test_equalities_and_their_rows_mix_in_one_list_bit_for_bit():
    # one constraint type: a row, hand-built or read off a problem, is a 1 x 1 equality
    rng = np.random.default_rng(42)
    dims = (1, 2, 3, 2, 2)
    objective = [np.eye(1), random_herm(2, rng), None, random_herm(2, rng), -np.eye(2)]
    base = _mixed_equalities(rng)
    equalities = [MatrixEquality(eq.terms, r) for eq, r in zip(base, _met_by(base, dims, rng))]
    whole = SdpProblem(dims, objective, equalities)
    rows = list(whole.constraints)
    starts = np.cumsum([0] + [eq.rhs.size for eq in equalities])
    by_hand = [LinearConstraint(_coeffs(row), _rhs_of(row)) for row in rows[starts[3]:starts[4]]]  # equality 3
    mixed = [equalities[0], *rows[starts[1]:starts[3]], *by_hand, equalities[4]]
    want = solve(whole)
    assert want.status is SolverStatus.OPTIMAL and len(want.dual) == len(rows) == 27
    for constraints in (rows, mixed):
        problem = SdpProblem(dims, objective, constraints)
        assert len(problem.constraints) == len(rows)
        _solutions_identical(solve(problem), want)


def test_every_builder_gives_one_dual_entry_per_row(monkeypatch):
    # len(problem.constraints) counts rows, d*d per equality, and the dual holds one multiplier per row,
    # dropped rows included: the row count perfbench's tracer reads
    import steercert.sdp as sdp_module
    from steercert.cli import _certify_point, presets
    from steercert.scenario import assemblage_from, isotropic_state, lhs_test, mub_povms
    from steercert.seesaw import optimize_measurements

    seen, solve_ = [], sdp_module.solve
    monkeypatch.setattr(sdp_module, "solve", lambda p, **kw: seen.append((p, solve_(p, **kw))) or seen[-1][1])
    rng = np.random.default_rng(43)
    runs = [lambda name=name, value=value: _certify_point(presets()[name].at_parameter(value))
            for name, value in (("fig2", 0.9), ("fig_global", 0.9), ("fig3_qubit", 0.8),
                                ("fig4_qutrit_loss", 0.8))]
    runs.append(_pm_on_bases_not_unbiased)  # fig_pm's points are in closed form
    runs.append(lambda: lhs_test(assemblage_from(isotropic_state(3, 0.5), mub_povms(3, 4))))
    runs.append(lambda: optimize_measurements(isotropic_state(3, 0.9), np.stack(
        [[random_herm(3, rng) for _ in range(2)] for _ in range(3)])))  # three outcomes: an SDP
    for run in runs:
        before = len(seen)
        run()
        assert len(seen) > before
    for problem, sol in seen:
        assert len(problem.constraints) == sum(eq.rhs.size for eq in problem.constraints.equalities)
        assert len(sol.dual) == len(problem.constraints) > 0


def test_a_non_hermitian_term_names_its_constraint_and_block():
    rng = np.random.default_rng(33)
    equalities = _mixed_equalities(rng)
    bad = term_stack(3).copy()
    bad[5, 0, 1] += 1e-3  # row 5 of the equality whose rows start at 13
    equalities[2] = MatrixEquality({2: term_stack(3), 0: equalities[2].terms[0], 3: bad[:, :2, :2]},
                                   equalities[2].rhs)
    objective = [None] * 5
    with pytest.raises(ValueError, match=r"^constraint 18 block 3 is not Hermitian \(defect 1\.00e-03\)$"):
        solve(SdpProblem((1, 2, 3, 2, 2), objective, equalities))
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    hand_built = [LinearConstraint({0: np.eye(2)}, 1.0), LinearConstraint({1: np.eye(2), 0: skew}, 0.0)]
    with pytest.raises(ValueError, match=r"^constraint 1 block 0 is not Hermitian \(defect 1\.00e\+00\)$"):
        solve(SdpProblem((2, 2), [None, None], hand_built))
    with pytest.raises(ValueError, match=r"^objective block 1 is not Hermitian"):
        solve(SdpProblem((2, 2), [None, skew], hand_built[:1]))
    shape = r"^constraint 0 block 1 has coefficients of shape \(1, 3, 3\), not \(1, 2, 2\)$"
    with pytest.raises(ValueError, match=shape):
        solve(SdpProblem((2, 2), [None, None], [LinearConstraint({1: np.eye(3)}, 1.0)]))


def test_fold_adds_the_terms_as_a_python_sum_does():
    rng = np.random.default_rng(34)
    equalities = _mixed_equalities(rng)
    mixed = rng.standard_normal(sum(eq.rhs.size for eq in equalities))
    mixed[[0, 5, 14]] = 0.0, -0.0, -0.0
    # all terms negative: an entry that only -0.0 terms reach is +0.0 after the sum's zero start
    negative = -np.abs(mixed)
    for y in (mixed, negative):
        start = 0
        for eq, big_y in zip(equalities, fold(equalities, y)):
            basis = hermitian_basis(len(eq.rhs))
            want = sum(y_r * e for y_r, e in zip(y[start:start + len(basis)], basis))
            assert _identical(big_y, want)
            start += len(basis)


def _solutions_identical(got, want):
    """Every field of two solutions equal, array by array."""
    for name in ("primal", "dual_slacks"):
        assert len(getattr(got, name)) == len(getattr(want, name))
        assert all(_identical(a, b) for a, b in zip(getattr(got, name), getattr(want, name)))
    assert _identical(got.dual, want.dual)
    for name in ("primal_value", "dual_value", "gap", "status", "iterations", "primal_residual",
                 "dual_residual", "dropped_rows", "regularised_steps"):
        assert getattr(got, name) == getattr(want, name), name


def _retained_arrays(structure):
    """Every array a shared structure holds."""
    found = []

    def walk(value):
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(list(vars(structure).values()))
    return found


def _met_by(equalities, dims, rng):
    """The right-hand sides that a random positive definite point X_k (k < len(dims)) meets."""
    return _met(equalities, [g @ dagger(g) + np.eye(d) for d in dims for g in [random_herm(d, rng)]])


def _met(equalities, points):
    """The right-hand sides that the point X_k = points[k] meets."""
    return [fold([eq], np.array([sum(hermitian_inner(t[r], points[k]) for k, t in eq.terms.items())
                                 for r in range(eq.rhs.shape[-1] ** 2)], dtype=float))[0] for eq in equalities]


def test_a_child_solves_as_the_same_problem_built_afresh():
    rng = np.random.default_rng(35)
    dims = (1, 2, 3, 2, 2)
    objective = [np.eye(1), random_herm(2, rng), None, random_herm(2, rng), -np.eye(2)]
    equalities = _mixed_equalities(rng)
    parent = SdpProblem(dims, objective, equalities)
    met = _met_by(equalities, dims, rng)
    optimal, infeasible = SolverStatus.OPTIMAL, SolverStatus.INFEASIBLE
    for rhs, status in ((met, optimal), ([0.5 * r for r in met], optimal), ([eq.rhs for eq in equalities], infeasible)):
        fresh = SdpProblem(dims, objective, [MatrixEquality(eq.terms, r) for eq, r in zip(equalities, rhs)])
        child = parent.with_rhs(rhs)
        assert child.block_dims == dims and child._shared is not None and fresh._shared is None
        assert [_rhs_of(row) for row in child.constraints] == [_rhs_of(row) for row in fresh.constraints]
        _solutions_identical(got := solve(child), solve(fresh))
        assert got.status is status


def test_one_parent_builds_its_structure_once(monkeypatch):
    import dataclasses

    import steercert.sdp as sdp_module

    built, make = [], sdp_module.Structure
    monkeypatch.setattr(sdp_module, "Structure", lambda problem: built.append(problem) or make(problem))
    rng = np.random.default_rng(39)
    equalities = _mixed_equalities(rng)
    parent = SdpProblem((1, 2, 3, 2, 2), [np.eye(1), None, None, None, -np.eye(2)], equalities)
    met = _met_by(equalities, parent.block_dims, rng)
    children = [parent.with_rhs([scale * r for r in met]) for scale in (1.0, 0.5, 0.25)]
    assert len(built) == 1 and built[0] is parent
    assert all(child._shared is children[0]._shared for child in children)
    solutions = [solve(child) for child in children]
    assert len(built) == 1 and all(sol.status is SolverStatus.OPTIMAL for sol in solutions)
    solve(parent)  # every problem with_rhs did not make builds its own, the parent too
    _solutions_identical(solve(dataclasses.replace(children[1])), solutions[1])
    assert len(built) == 3 and built[1] is parent


def test_an_inconsistent_rhs_on_a_child_is_infeasible():
    rng = np.random.default_rng(36)
    identity = term_stack(2)
    zeros = [MatrixEquality({0: identity}, np.zeros((2, 2))), MatrixEquality({0: identity}, np.zeros((2, 2)))]
    parent = SdpProblem((2,), [np.eye(2)], zeros)
    a = random_herm(2, rng) @ random_herm(2, rng)
    a = a @ dagger(a) + np.eye(2)  # X = a is the one feasible point
    consistent = solve(parent.with_rhs([a, a]))
    assert consistent.status is SolverStatus.OPTIMAL and len(consistent.dropped_rows) == 4
    rhs = [a, a + 1e-3 * np.diag([1.0, -1.0])]
    fresh = solve(SdpProblem((2,), [np.eye(2)], [MatrixEquality({0: identity}, r) for r in rhs]))
    shared = solve(parent.with_rhs(rhs))
    assert shared.status is fresh.status is SolverStatus.INFEASIBLE
    assert shared.primal_residual == fresh.primal_residual == pytest.approx(1e-3)
    _solutions_identical(shared, fresh)


def test_a_solve_leaves_the_shared_structure_unchanged():
    import dataclasses

    rng = np.random.default_rng(37)
    equalities = _mixed_equalities(rng)
    objective = [np.eye(1), random_herm(2, rng), None, random_herm(2, rng), -np.eye(2)]
    parent = SdpProblem((1, 2, 3, 2, 2), objective, equalities)
    rhs = _met_by(equalities, parent.block_dims, rng)
    child = parent.with_rhs(rhs)
    want = solve(dataclasses.replace(child))
    assert want.status is SolverStatus.OPTIMAL
    arrays = _retained_arrays(child._shared)
    assert len(arrays) > 20 and not any(a.flags.writeable for a in arrays)
    before = [a.tobytes() for a in arrays]
    _solutions_identical(solve(child), want)
    # writes to the parent after its first with_rhs: the structure keeps derived copies, not its arrays
    objective[1][0, 0] += 1.0
    equalities[0].terms[2][...] = 0.0
    assert solve(dataclasses.replace(child)).primal_value != want.primal_value
    _solutions_identical(solve(child), want)
    _solutions_identical(solve(parent.with_rhs(rhs)), want)  # a later child shares the same structure
    assert [a.tobytes() for a in arrays] == before


def test_with_rhs_refuses_right_hand_sides_of_the_wrong_shape():
    rng = np.random.default_rng(38)
    equalities = _mixed_equalities(rng)
    parent = SdpProblem((1, 2, 3, 2, 2), [None] * 5, equalities)
    rhs = [eq.rhs for eq in equalities]
    with pytest.raises(ValueError, match="right-hand side 2 has shape"):
        parent.with_rhs(rhs[:2] + [np.eye(2)] + rhs[3:])
    with pytest.raises(ValueError, match="4 right-hand sides for 5 equalities"):
        parent.with_rhs(rhs[:4])
    assert "_children_structure" not in vars(parent)  # nothing built for a refused call


def test_a_right_hand_side_that_is_not_hermitian_is_refused():
    identity = term_stack(2)
    upper = np.array([[0.5, 1.0], [0.0, 0.5]])  # no Hermitian X has identity(X) = upper
    with pytest.raises(ValueError, match="right-hand side of equality 0 is not Hermitian"):
        solve(SdpProblem((2,), [np.eye(2)], [MatrixEquality({0: identity}, upper)]))
    # a complex scalar right-hand side is a 1 x 1 matrix that is not Hermitian either
    rows = [LinearConstraint({0: np.eye(2)}, 1.0), LinearConstraint({0: np.diag([1.0, 0.0])}, 0.5 + 2j)]
    with pytest.raises(ValueError, match="right-hand side of equality 1 is not Hermitian"):
        solve(SdpProblem((2,), [np.eye(2)], rows))
    parent = SdpProblem((2,), [np.eye(2)], [MatrixEquality({0: identity}, np.eye(2) / 2)])
    with pytest.raises(ValueError, match="right-hand side of equality 0 is not Hermitian"):
        solve(parent.with_rhs([upper]))
    # within 1e-9, the tolerance of Assemblage and realify, a right-hand side is accepted
    near = np.eye(2) / 2 + np.array([[0.0, 9e-10j], [0.0, 0.0]])
    assert solve(parent.with_rhs([near])).status is SolverStatus.OPTIMAL


def test_a_nested_list_right_hand_side_solves_as_an_array():
    identity = term_stack(2)
    upper = [[0.5, 1], [0, 0.5]]
    for rhs in (upper, np.array(upper)):
        with pytest.raises(ValueError, match=r"^the right-hand side of equality 0 is not Hermitian \(defect 1\.00e\+00\)$"):
            solve(SdpProblem((2,), [np.eye(2)], [MatrixEquality({0: identity}, rhs)]))
    hermitian = [[0.5, 0.25 - 0.1j], [0.25 + 0.1j, 0.5]]
    from_list, from_array = (solve(SdpProblem((2,), [np.eye(2)], [MatrixEquality({0: identity}, rhs)]))
                             for rhs in (hermitian, np.array(hermitian)))
    assert from_list.status is SolverStatus.OPTIMAL
    _solutions_identical(from_list, from_array)
    parent = SdpProblem((2,), [np.eye(2)], [MatrixEquality({0: identity}, np.eye(2) / 2)])
    _solutions_identical(solve(parent.with_rhs([hermitian])), solve(parent.with_rhs([np.array(hermitian)])))
    with pytest.raises(ValueError, match="right-hand side 0 has shape"):
        parent.with_rhs([[0.5, 0.5]])


def _start_problem():
    """max <C, X> subject to Tr X = 1 on a 2 x 2 block and X_11 = 1 on a 1 x 1 block."""
    rows = [LinearConstraint({0: np.eye(2)}, 1.0), LinearConstraint({1: np.eye(1)}, 1.0)]
    return SdpProblem((2, 1), [np.diag([1.0, 0.0]), None], rows)


def test_a_start_of_the_wrong_kind_is_refused():
    problem = _start_problem()
    good = [np.eye(2) / 2, np.eye(1)]
    cases = {
        r"^start has 1 blocks, the problem 2$": good[:1],
        r"^start block 1 has shape \(2, 2\), expected \(1, 1\)$": [good[0], np.eye(2)],
        r"^start block 0 is not Hermitian \(defect 1\.00e-03\)$": [good[0] + np.array([[0, 1e-3], [0, 0]]), good[1]],
        r"^start block 0 is not positive definite$": [np.diag([1.0, 0.0]), good[1]],
        r"^start block 1 is not positive definite$": [good[0], -np.eye(1)],
    }
    for message, start in cases.items():
        with pytest.raises(ValueError, match=message):
            solve(problem, start=start)
    # within 1e-9, the tolerance of realify, a start is Hermitian
    near = [good[0] + np.array([[0, 9e-10j], [0, 0]]), good[1]]
    assert solve(problem, start=near).status is SolverStatus.OPTIMAL


def test_a_start_replaces_only_the_primal_identity():
    rng = np.random.default_rng(41)
    dims = (1, 2, 3, 2, 2)
    objective = [np.eye(1), random_herm(2, rng), None, random_herm(2, rng), -np.eye(2)]
    equalities = _mixed_equalities(rng)
    # the right-hand sides a positive definite point meets: that point is a strictly feasible start
    points = [0.5 * (h + dagger(h)) + np.eye(d) for d in dims for g in [random_herm(d, rng)] for h in [g @ dagger(g)]]
    met = _met(equalities, points)
    problem = SdpProblem(dims, objective, [MatrixEquality(eq.terms, r) for eq, r in zip(equalities, met)])
    plain, started = solve(problem), solve(problem, start=points)
    _solutions_identical(solve(problem, start=None), plain)
    assert plain.status is started.status is SolverStatus.OPTIMAL
    assert started.primal_value == pytest.approx(plain.primal_value, abs=1e-8)
    # before any step: the primal iterate is the start, and the dual slacks are those of the plain start
    first, plain_first = solve(problem, start=points, max_iters=0), solve(problem, max_iters=0)
    assert all(np.array_equal(x, p) for x, p in zip(first.primal, points))
    assert not np.array_equal(first.primal[0], plain_first.primal[0])
    assert all(np.array_equal(z, w) for z, w in zip(first.dual_slacks, plain_first.dual_slacks))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_bar_above_the_optimum_changes_no_solve(seed):
    problem, opt = planted_problem(4, 6, 2, np.random.default_rng(seed))
    plain = solve(problem)
    assert plain.status is SolverStatus.OPTIMAL
    _solutions_identical(solve(problem, stop_above=opt + 1e-6), plain)


def test_a_bar_below_the_optimum_stops_at_a_feasible_iterate_above_it():
    problem, opt = planted_problem(4, 6, 2, np.random.default_rng(3))
    plain = solve(problem)
    bar = opt - 0.1 * (1.0 + abs(opt))
    cut = solve(problem, stop_above=bar)
    assert cut.status is SolverStatus.BOUND_EXCEEDED
    assert cut.iterations < plain.iterations
    assert cut.primal_residual <= 1e-9  # feas_tol: the iterate is feasible
    assert min(np.linalg.eigvalsh(x)[0] for x in cut.primal) > 0
    assert bar < cut.primal_value <= opt + 1e-7


@pytest.mark.parametrize("lossy", [True, False])
def test_presolve_matches_scipy_qr_bit_for_bit(lossy):
    # _presolve calls LAPACK's dgeqp3 and dtrtrs itself, with dgeqp3's queried workspace (a smaller one
    # takes its unblocked path, which rounds the large problem differently); scipy is the reference
    # the rows of the steering parent certify_local solves on these faces; pure data reach no solve,
    # being certified in closed form, but their parent's rows are those of the facially reduced SDP
    from steercert.certify import _steering_parent, _supports
    from steercert.sdp import _assemble, _presolve
    from steercert.scenario import apply_loss, assemblage_from, isotropic_state, mub_povms, pauli_xz, schmidt_state

    if lossy:  # a fig4_qutrit_loss point: qutrits under 4 MUBs at efficiency 0.5
        asm, shape = assemblage_from(isotropic_state(3, 1.0), [apply_loss(p, 0.5) for p in mub_povms(3, 4)]), (252, 480)
    else:  # a see-saw round's rank-1 faces: a pure qubit state under X and Z
        asm, shape = assemblage_from(schmidt_state([0.7, 0.3]), pauli_xz()), (24, 24)
    n_a, d = asm.sigma.shape[0], asm.sigma.shape[-1]
    targets = np.eye(d, dtype=complex)[None].repeat(n_a, axis=0)
    rows = _assemble(_steering_parent(_supports(asm.sigma), 0, np.arange(n_a), targets)[1])[0]
    assert rows.shape == shape
    piv, rank, coef = _presolve(rows, pivot_tol=1e-10)
    r, want_piv = sla.qr(rows.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    want_rank = int(np.sum(diag > 1e-10 * diag[:1]))
    want_coef = sla.solve_triangular(r[:want_rank, :want_rank], r[:want_rank, want_rank:])
    assert rank == want_rank < len(rows)
    assert piv.dtype == want_piv.dtype and np.array_equal(piv, want_piv)
    assert coef.shape == want_coef.shape and coef.tobytes() == want_coef.tobytes()


# a fig2 point that reaches the SDP, certified in a fresh interpreter, optionally with scipy's _flapack
# file missing; it prints whether scipy.linalg was imported, the certification's status and bytes, and,
# after importing scipy.linalg, whether scipy.linalg.lapack took the _flapack module already imported and
# its four routines are the ones sdp calls
_FIG2_POINT = """
import hashlib, logging, sys
logging.basicConfig(level=logging.DEBUG, format="%(message)s")
if {missing}:
    import importlib.util
    load = importlib.util.spec_from_file_location
    importlib.util.spec_from_file_location = lambda name, path: load(name, path.replace("_flapack", "_missing"))
import steercert.cli
from steercert import sdp
from steercert.certify import certify_local
from steercert.scenario import assemblage_from
config = steercert.cli.presets()["fig2"].at_parameter(0.8)
res = certify_local(assemblage_from(config.build_state(), config.build_measurements()))
f = res.functional
print("scipy.linalg" in sys.modules, res.status, res.p_guess.hex(), res.dual_value.hex(),
      hashlib.sha256(f.F.tobytes() + f.G.tobytes() + res.joint.sigma_e.tobytes()).hexdigest())
flapack = sys.modules.get("scipy.linalg._flapack")
import scipy.linalg
print(scipy.linalg.lapack._flapack is flapack is not None
      and all(getattr(scipy.linalg.lapack, name) is getattr(sdp, "_" + name) for name in ("dtrtrs", "dpotrf", "dpotrs", "dgeqp3")))
"""


@functools.cache
def _fig2_point(missing: bool) -> tuple[list[str], str]:
    """The lines _FIG2_POINT prints, and its log."""
    path = os.pathsep.join(filter(None, (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _FIG2_POINT.format(missing=missing)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines(), out.stderr


def test_a_certification_runs_without_importing_scipy_linalg():
    lines, log = _fig2_point(False)
    imported, status = lines[0].split()[:2]
    assert imported == "False" and status == "optimal"
    assert "did not load" not in log


def test_a_missing_flapack_falls_back_to_scipy_linalg_lapack_bit_for_bit():
    lines, log = _fig2_point(True)
    assert lines[0].split()[0] == "True"  # the fallback imported scipy.linalg
    assert lines[1] == "True"  # and sdp calls its routines
    assert "scipy's _flapack did not load from its file" in log and "_missing" in log
    assert lines[0].split()[1:] == _fig2_point(False)[0][0].split()[1:]


def test_scipy_linalg_imported_later_reuses_the_loaded_flapack():
    assert _fig2_point(False)[0][1] == "True"
