"""States, measurements and observed assemblages for steering experiments.

An assemblage is the grid of unnormalized conditional states prepared on
the trusted (Bob) side by the untrusted party's measurement choice x and
outcome a: sigma_{a|x} = Tr_A[(M_{a|x} (x) 1_B) rho]. The grid is stored
with shape (n_outcomes, n_inputs, d_B, d_B).

One stacked contraction computes that map and its adjoint: it lifts a whole
stack of operators with one ``kron``, multiplies by rho once per stack and
takes one partial trace. `assemblage_from` applies it to the (n_outcomes,
n_inputs) grid of POVM elements, each measurement's elements being one
`Povm` stack; `steering_adjoint` applies it to Bob's side, giving the
see-saw's weights and the prepare-and-measure consistency terms.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import sdp
from .qlin import Povm, basis_povm, dagger, matrix_from_json, matrix_to_json, not_psd, partial_trace, square_grid

ASSEMBLAGE_TOL = 1e-9
LHS_TOL = 1e-8
MAX_DETERMINISTIC_STRATEGIES = 100_000
# the named measurement families kept once built; a family is a tuple of read-only Povms
MEASUREMENT_FAMILIES = 16


@dataclass(frozen=True)
class Assemblage:
    """Validated grid sigma[a, x] of unnormalized conditional states, whose shape
    (n_outcomes, n_inputs, d, d) is the experiment's."""

    sigma: np.ndarray

    def __init__(self, sigma, *, tol: float = ASSEMBLAGE_TOL):
        sigma = square_grid("sigma", sigma, 4)
        if (bad := not_psd(sigma, tol)).any():
            a, x = np.argwhere(bad)[0]
            raise ValueError(f"sigma[{a}|{x}] is not PSD within {tol:g}")
        reduced = sigma.sum(axis=0)
        if np.abs(reduced[1:] - reduced[0]).max(initial=0.0) > tol:
            raise ValueError("assemblage signals: sum_a sigma[a|x] depends on x")
        if abs(reduced[0].trace().real - 1.0) > tol:
            raise ValueError(f"assemblage is not normalized: Tr = {reduced[0].trace().real}")
        object.__setattr__(self, "sigma", sigma)

    def reduced_state(self) -> np.ndarray:
        """Bob's marginal, independent of the input by no-signalling."""
        return self.sigma.sum(axis=0)[0]

    def outcome_probs(self, x: int) -> np.ndarray:
        return np.real(np.trace(self.sigma[:, x], axis1=1, axis2=2))

    def to_json(self) -> dict:
        n_a, m, d = self.sigma.shape[:3]
        return {"m_A": m, "n_A": n_a, "d_B": d, "sigma": matrix_to_json(self.sigma)}

    @classmethod
    def from_json(cls, data: dict) -> "Assemblage":
        """The assemblage of a `to_json` document, whose declared sizes must be sigma's shape;
        a missing or malformed key (a size that is not an integer) raises ValueError naming it."""

        def read(key: str, parse):
            try:
                return parse(data[key])
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"assemblage document: {key!r} missing or malformed") from None

        n_a, m, d = (read(key, operator.index) for key in ("n_A", "m_A", "d_B"))
        sigma = read("sigma", matrix_from_json)
        if sigma.shape != (n_a, m, d, d):
            raise ValueError(f"sigma has shape {sigma.shape}, but the document declares n_A={n_a}, m_A={m}, d_B={d}")
        return cls(sigma)


@dataclass(frozen=True)
class LhsResult:
    """Outcome of the local-hidden-state membership test."""

    is_lhs: bool
    robustness: float
    members: np.ndarray | None  # (n_strategies, d, d) when is_lhs


def bell_state(d: int = 2) -> np.ndarray:
    """Density matrix of the maximally entangled state sum_k |kk> / sqrt(d)."""
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(vec, vec.conj())


def werner_state(v: float) -> np.ndarray:
    """Two-qubit mixture v |Phi+><Phi+| + (1 - v) I/4: ``isotropic_state(2, v)``."""
    return isotropic_state(2, v)


def isotropic_state(d: int, v: float) -> np.ndarray:
    """Mixture v |Phi+(d)><Phi+(d)| + (1 - v) I/d^2 of two qudits."""
    if d < 2:
        raise ValueError("isotropic states need d >= 2")
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility v must lie in [0, 1], got {v}")
    return v * bell_state(d) + (1.0 - v) * np.eye(d * d) / d**2


def schmidt_state(lambdas) -> np.ndarray:
    """Pure state sum_k sqrt(lambda_k) |kk> as a density matrix."""
    lam = np.asarray(lambdas, dtype=float)
    if np.any(lam < -1e-12) or abs(lam.sum() - 1.0) > 1e-9:
        raise ValueError("Schmidt coefficients must be a probability vector")
    d = lam.size
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = np.sqrt(np.clip(lam, 0.0, None))
    return np.outer(vec, vec.conj())


def pauli_xz() -> tuple[Povm, ...]:
    """The two mutually unbiased qubit spin measurements, X first."""
    return mub_povms(2, 2)


@functools.lru_cache(maxsize=MEASUREMENT_FAMILIES)
def fourier_and_computational(d: int) -> tuple[Povm, ...]:
    """Fourier-transform basis (outcome a has amplitudes w^{ak}/sqrt(d)) then
    the computational basis; mutually unbiased in every dimension. Built once per d."""
    if d < 2:
        raise ValueError("need d >= 2")
    omega = np.exp(2j * np.pi / d)
    ks = np.arange(d)
    fourier = omega ** np.outer(ks, ks) / np.sqrt(d)  # column a = |a~>
    return basis_povm(fourier), basis_povm(np.eye(d, dtype=complex))


def mub_bases(d: int) -> list[np.ndarray]:
    """The unitaries whose columns are the pairwise mutually unbiased bases supplied in
    dimension d, of which `mub_povms` takes the first `count`: X, Z, Y (in that order)
    for d = 2; the Fourier basis, the computational basis and the two quadratically
    twisted Fourier bases for d = 3. Other dimensions raise ValueError."""
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        return [
            np.array([[s, s], [s, -s]], dtype=complex),  # X eigenbasis
            np.eye(2, dtype=complex),  # Z eigenbasis
            np.array([[s, s], [1j * s, -1j * s]], dtype=complex),  # Y eigenbasis
        ]
    if d == 3:
        omega = np.exp(2j * np.pi / 3)
        ls = np.arange(3)
        # column k of twist j has amplitudes omega^(j l^2 + k l) / sqrt(3)
        twisted = [omega ** (((j * ls * ls)[:, None] + np.outer(ls, ls)) % 3) / np.sqrt(3.0) for j in (1, 2)]
        return [omega ** np.outer(ls, ls) / np.sqrt(3.0), np.eye(3, dtype=complex), *twisted]
    raise ValueError(f"no MUB construction supplied for d = {d}")


@functools.lru_cache(maxsize=MEASUREMENT_FAMILIES)
def mub_povms(d: int, count: int) -> tuple[Povm, ...]:
    """`count` pairwise mutually unbiased bases of `mub_bases(d)` as projective POVMs,
    built once per (d, count)."""
    bases = mub_bases(d)
    if not 1 <= count <= len(bases):
        raise ValueError(f"requested {count} bases, have {len(bases)} for d = {d}")
    return tuple(basis_povm(b) for b in bases[:count])


def apply_loss(povm: Povm, eta: float) -> Povm:
    """Detector with efficiency eta: elements scaled by eta plus a no-click
    outcome (1 - eta) * I appended as the last outcome."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"detection efficiency must lie in [0, 1], got {eta}")
    no_click = (1.0 - eta) * np.eye(povm.dim, dtype=complex)
    return Povm(np.concatenate([eta * povm.elements, no_click[None]]))


def _contract(rho: np.ndarray, mats: np.ndarray, on_alice: bool) -> np.ndarray:
    """Tr_A[(M (x) 1) rho] for each M of a stack when ``on_alice``, else Tr_B[(1 (x) M) rho]:
    one Kronecker product (the products ``np.kron`` forms, by one broadcast multiply), one
    product with rho and one partial trace for the whole stack, whose products and order of
    accumulation are those of each matrix taken alone. The stack's matrices act on A when
    ``on_alice``, else on B, and rho's dimension is d_A d_B."""
    d_m = mats.shape[-1]
    d_a, d_b = (d_m, rho.shape[0] // d_m) if on_alice else (rho.shape[0] // d_m, d_m)
    if on_alice:
        lifted = mats[..., :, None, :, None] * np.eye(d_b, dtype=complex)[:, None, :]
    else:
        lifted = np.eye(d_a, dtype=complex)[:, None, :, None] * mats[..., None, :, None, :]
    lifted = lifted.reshape(mats.shape[:-2] + (d_a * d_b, d_a * d_b))
    return partial_trace(lifted @ rho, (d_a, d_b), keep="B" if on_alice else "A")


def assemblage_from(rho: np.ndarray, povms: list[Povm]) -> Assemblage:
    """Observed assemblage sigma_{a|x} = Tr_A[(M_{a|x} (x) 1_B) rho]."""
    rho = np.asarray(rho, dtype=complex)
    if not povms:
        raise ValueError("need at least one measurement")
    d_a = povms[0].dim
    n_outcomes = povms[0].n_outcomes
    if any(p.dim != d_a or p.n_outcomes != n_outcomes for p in povms):
        raise ValueError("all measurements must share dimension and outcome count")
    total = rho.shape[0]
    if total % d_a != 0:
        raise ValueError(f"state dimension {total} incompatible with Alice dimension {d_a}")
    d_b = total // d_a
    grid = np.stack([p.elements for p in povms], axis=1)  # (n_outcomes, m, d_a, d_a)
    sigma = _contract(rho, grid.reshape(-1, d_a, d_a), on_alice=True)
    return Assemblage(sigma.reshape(n_outcomes, len(povms), d_b, d_b))


def steering_adjoint(rho: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Herm Tr_B[(1 (x) F) rho] for each F of a stack of d_B x d_B matrices: the adjoint of
    M -> Tr_A[(M (x) 1) rho], so that Tr[(M (x) F) rho] = <result, M>."""
    c = _contract(rho, mats, on_alice=False)
    return 0.5 * (c + dagger(c))


def deterministic_strategies(n_inputs: int, n_outcomes: int) -> np.ndarray:
    """All response functions lambda: x -> a, shape (n_outcomes^n_inputs, n_inputs)."""
    return np.array(list(itertools.product(range(n_outcomes), repeat=n_inputs)), dtype=int)


@functools.cache
def _weyl_heisenberg(d: int) -> np.ndarray:
    """The d*d Weyl-Heisenberg operators X^j Z^k, phases dropped, in Bob's computational basis as
    one read-only stack, element j*d + k: X|k> = |k+1 mod d> and Z|k> = exp(2 pi i k / d)|k>."""
    shift, clock = np.roll(np.eye(d), 1, axis=0), np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = np.array([np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
                    for j in range(d) for k in range(d)])
    ops.setflags(write=False)
    return ops


def _symmetry(sigma: np.ndarray) -> tuple:
    """The permutations table[g][x][a] = b with U_g sigma[a, x] U_g^dag = sigma[b, x] of each
    Weyl-Heisenberg operator U_g, composed from those of X and Z. Each generator must send every
    block onto exactly one block, and onto distinct blocks, within 1e-12 in every entry; if not,
    the trivial group's table, whose one element is the identity."""
    n_outcomes, n_inputs, d = sigma.shape[:3]
    identity = np.broadcast_to(np.arange(n_outcomes), (n_inputs, n_outcomes))
    trivial = (tuple(map(tuple, identity)),)
    powers = []
    for u in _weyl_heisenberg(d)[[d, 1] if d > 1 else [0, 0]]:  # X, then Z
        match = np.abs((u @ sigma @ dagger(u))[:, None] - sigma).max(axis=(-2, -1)) <= 1e-12  # [a, b, x]
        if (match.sum(axis=0) != 1).any() or (match.sum(axis=1) != 1).any():
            return trivial
        perm = match.argmax(axis=1).T  # [x, a]
        powers.append(list(itertools.accumulate(
            range(d - 1), lambda p, _: np.take_along_axis(perm, p, axis=1), initial=identity)))
    # X^j Z^k sends a to pi_X^j(pi_Z^k(a))
    return tuple(tuple(map(tuple, np.take_along_axis(px, pz, axis=1))) for px in powers[0] for pz in powers[1])


# one parent, kept only while tests stay in one scenario and symmetry: the full problem, built only
# for data with no symmetry, grows as outcomes^inputs (12 MB for lossy qutrits under 4 MUBs)
@functools.lru_cache(maxsize=1)
def _lhs_problem(n_outcomes: int, n_inputs: int, d: int, table: tuple) -> tuple[sdp.SdpProblem, list, list]:
    """The parent problem of `lhs_test`'s SDPs on data with the outcome permutations ``table``
    (see `_symmetry`), the flat (a, x) index of sigma on each of its equalities, and each
    strategy's member as (its block, the operators U_h it is averaged over).

    One block X_r per orbit representative r of the strategies, in the order of
    `deterministic_strategies`, then t; one equality per orbit of (a, x):
    sum_r sum_{h: (h.r)(x) = a} U_h X_r U_h^dag / |S_r| - t * noise = sigma[a, x], where S_r is
    r's stabiliser. The member of h.r is the average of U_k X_r U_k^dag over k in h S_r, so that
    no equality is needed for S_r. The trivial group gives the problem over every strategy."""
    ops = _weyl_heisenberg(d)[:len(table)]
    table = np.array(table)  # [g, x, a]
    strategies = deterministic_strategies(n_inputs, n_outcomes)
    acted = table[:, np.arange(n_inputs), strategies] @ n_outcomes ** np.arange(n_inputs)[::-1]  # [g, lam]: g.lam
    first = acted.min(axis=0)  # the first strategy of each one's orbit
    reps = np.flatnonzero(first == np.arange(len(strategies)))
    block, stabiliser = np.searchsorted(reps, first), (acted[:, reps] == reps).sum(axis=0).tolist()
    expansion = [(block[lam], ops[acted[:, first[lam]] == lam]) for lam in range(len(strategies))]
    noise = np.eye(d) / (n_outcomes * d)
    t_block = len(reps)
    block_dims = (d,) * t_block + (1,)
    objective: list[np.ndarray | None] = [None] * t_block + [-np.eye(1, dtype=complex)]
    # the term t -> -t * noise, whose adjoint is E -> -<E, noise>
    t_term = sdp.term_stack(
        d, lambda e: -np.real(np.sum(np.conj(e) * noise, axis=(-2, -1)))[:, None, None]
        * np.eye(1, dtype=complex)
    )

    @functools.cache
    def term(hs: tuple, n: int) -> np.ndarray:  # X -> sum_{h in hs} U_h X U_h^dag / n; X -> X the shared identity
        u = ops[list(hs)]
        return sdp.term_stack(d) if (hs, n) == ((0,), 1) else \
            sdp.term_stack(d, lambda e: (dagger(u) @ e[:, None] @ u).sum(axis=1) / n)

    equalities, rhs_index = [], []
    for a, x in np.ndindex(n_outcomes, n_inputs):
        if a > table[:, x, a].min():  # not the first (a, x) of its orbit
            continue
        hs = [tuple(np.flatnonzero(table[:, x, strategies[r, x]] == a).tolist()) for r in reps]
        terms = {i: term(h, n) for i, (h, n) in enumerate(zip(hs, stabiliser)) if h}
        equalities.append(sdp.MatrixEquality({**terms, t_block: t_term}, np.zeros((d, d), dtype=complex)))
        rhs_index.append(a * n_inputs + x)
    return sdp.SdpProblem(block_dims, objective, equalities), rhs_index, expansion


def lhs_test(asm: Assemblage) -> LhsResult:
    """Decide membership in the local-hidden-state set.

    Solves the feasibility problem over hidden states indexed by the
    deterministic response functions, reporting the minimal uniform-noise
    weight t for which (asm + t * noise) / (1 + t) admits a decomposition.
    t <= LHS_TOL means the assemblage itself is unsteerable. Data covariant under
    the Weyl-Heisenberg group (`_symmetry`) are solved over one block per orbit
    of strategies, which loses nothing; the members are expanded from them, one
    per strategy in the order of `deterministic_strategies`.
    """
    n_outcomes, n_inputs, d = asm.sigma.shape[:3]
    n_strat = n_outcomes**n_inputs
    if n_strat > MAX_DETERMINISTIC_STRATEGIES:
        raise ValueError(
            f"{n_outcomes}^{n_inputs} = {n_strat} deterministic strategies "
            f"exceeds the supported limit {MAX_DETERMINISTIC_STRATEGIES}"
        )
    parent, rhs_index, expansion = _lhs_problem(n_outcomes, n_inputs, d, _symmetry(asm.sigma))
    solution = sdp.solve(parent.with_rhs(asm.sigma.reshape(-1, d, d)[rhs_index]))
    if solution.status is not sdp.SolverStatus.OPTIMAL:
        raise RuntimeError(f"LHS membership solve failed with status {solution.status}")
    robustness = max(0.0, -solution.primal_value)
    is_lhs = robustness <= LHS_TOL
    members = None
    if is_lhs:
        members = np.stack([(u @ solution.primal[i] @ dagger(u)).mean(axis=0) for i, u in expansion])
    return LhsResult(is_lhs=is_lhs, robustness=robustness, members=members)
