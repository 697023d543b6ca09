"""Closed-form randomness bounds and explicit eavesdropper strategies.

Two independent oracles live here, used to sandwich the SDP results:

* exact guessing probabilities for pure Schmidt-form states measured in
  the Fourier and computational bases (1/d, independent of the Schmidt
  coefficients as long as none vanish);
* an explicit-strategy lower bound: purify the shared state, hand the
  purifying system to Eve, and let her discriminate her conditional states
  in closed form (the better of the pretty-good measurement and, for two
  outcomes, Helstrom's). Every strategy built this way induces a feasible
  Eve-resolved assemblage, so its guessing probability can never exceed
  the SDP optimum.

Neither path touches the SDP machinery, which keeps the cross-checks
honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import JointAssemblage
from .qlin import Povm
from .scenario import Assemblage, assemblage_from, pauli_xz, schmidt_state


@dataclass(frozen=True)
class PureQubitBound:
    """Guessing probability of a partially entangled qubit pair under X/Z,
    with the purity evidence that pins it.

    Every element of the observed assemblage is rank one. An eavesdropper
    must therefore prepare the same conditional state in every round and
    can only reweight outcomes; the off-diagonal part of the no-signalling
    constraint (nonzero exactly when the state is entangled) forces both
    weights of the first input to be equal, which fixes her success at the
    first input to P(0|0) + P(1|0) halved, i.e. exactly 1/2.
    """

    p_guess: float
    theta: float
    assemblage: Assemblage
    purity_defects: np.ndarray  # (n_outcomes, n_inputs), trace-normalized


def _purity_defects(asm: Assemblage) -> np.ndarray:
    n_a, m = asm.scenario.n_outcomes, asm.scenario.n_inputs
    out = np.zeros((n_a, m))
    for a, x in np.ndindex(n_a, m):
        block = asm.sigma[a, x]
        tr = float(np.trace(block).real)
        if tr > 1e-14:
            out[a, x] = 1.0 - float(np.linalg.eigvalsh(block)[-1]) / tr
    return out


def pure_qubit_pg(theta: float) -> PureQubitBound:
    """Exact local guessing probability 1/2 for cos(theta)|00> + sin(theta)|11>
    measured in X and Z, valid for theta in (0, pi/4]."""
    if not 0.0 < theta <= np.pi / 4:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta}")
    lam = (np.cos(theta) ** 2, np.sin(theta) ** 2)
    asm = assemblage_from(schmidt_state(lam), pauli_xz())
    return PureQubitBound(
        p_guess=0.5,
        theta=float(theta),
        assemblage=asm,
        purity_defects=_purity_defects(asm),
    )


def pure_qudit_pg(lambdas) -> float:
    """Exact guessing probability 1/d for a Schmidt-rank-d state measured in
    the Fourier and computational bases; requires every coefficient > 0."""
    lam = np.asarray(lambdas, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("all Schmidt coefficients must be strictly positive")
    if abs(lam.sum() - 1.0) > 1e-9:
        raise ValueError("Schmidt coefficients must sum to 1")
    return 1.0 / lam.size


def purify(rho: np.ndarray, *, tol: float = 1e-12) -> np.ndarray:
    """Purification of rho as a tensor of shape (dim(rho), rank), built from
    the eigendecomposition with eigenvalues sorted descending."""
    rho = np.asarray(rho, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > tol * max(vals[0], 1e-300)
    vals, vecs = vals[keep], vecs[:, keep]
    return vecs * np.sqrt(vals)


@dataclass(frozen=True)
class EveStrategy:
    """Explicit eavesdropper strategy: her measurement on the purifying
    system and the feasible Eve-resolved assemblage it induces."""

    eve_povm: Povm
    induced: JointAssemblage

    def value(self, x_star: int) -> float:
        """Guessing probability with each measurement outcome relabeled to
        its most likely untrusted outcome at the target input."""
        traces = np.real(np.trace(self.induced.sigma_e[:, :, x_star], axis1=2, axis2=3))
        guesses = np.argmax(traces, axis=1)
        return self.induced.guess_probability(x_star, guesses)


def eve_strategy(rho: np.ndarray, povms: list[Povm], eve_povm: Povm) -> EveStrategy:
    """Joint assemblage induced by Eve measuring the purification of rho."""
    obs = assemblage_from(rho, povms)
    sc = obs.scenario
    d_a = povms[0].dim
    d_b = sc.bob_dim
    psi = purify(rho)  # (d_a*d_b, d_e)
    d_e = psi.shape[1]
    if eve_povm.dim != d_e:
        raise ValueError(f"Eve's measurement acts on dimension {eve_povm.dim}, purification has {d_e}")
    psi_t = psi.reshape(d_a, d_b, d_e)
    n_e = eve_povm.n_outcomes
    sigma_e = np.empty((n_e, sc.n_outcomes, sc.n_inputs, d_b, d_b), dtype=complex)
    for e in range(n_e):
        for x, povm in enumerate(povms):
            for a in range(sc.n_outcomes):
                sigma_e[e, a, x] = np.einsum(
                    "ij,kl,jbl,ick->bc",
                    np.asarray(povm[a]), np.asarray(eve_povm[e]), psi_t, psi_t.conj(),
                    optimize=True,
                )
    joint = JointAssemblage(sc, n_e, sigma_e)
    joint.validate(obs, tol=1e-8)  # a violation here means the purification is wrong
    return EveStrategy(eve_povm=eve_povm, induced=joint)


def _conditional_eve_states(rho, povms, x_star) -> np.ndarray:
    """Eve's subnormalized conditional states W_a on the purifying system,
    given the untrusted outcome a at the target input."""
    d_a = povms[0].dim
    d_b = rho.shape[0] // d_a
    psi = purify(rho)
    d_e = psi.shape[1]
    psi_t = psi.reshape(d_a, d_b, d_e)
    n_a = povms[x_star].n_outcomes
    w = np.empty((n_a, d_e, d_e), dtype=complex)
    for a in range(n_a):
        w[a] = np.einsum(
            "ij,jbk,ibl->kl", np.asarray(povms[x_star][a]), psi_t, psi_t.conj(), optimize=True
        )
        w[a] = 0.5 * (w[a] + w[a].conj().T)
    return w


def _guess_value(w: np.ndarray, elements: np.ndarray) -> float:
    return float(np.real(np.einsum("eij,eji->", elements, w)))


def _pretty_good(w: np.ndarray) -> np.ndarray:
    total = w.sum(axis=0)
    vals, vecs = np.linalg.eigh(total)
    vals = np.maximum(vals, 1e-300)
    inv_sqrt = (vecs * (vals**-0.5)) @ vecs.conj().T
    return np.einsum("ij,ejk,kl->eil", inv_sqrt, w, inv_sqrt)


def _helstrom_pair(w: np.ndarray) -> np.ndarray:
    """Exact optimal two-outcome discrimination of {W_0, W_1}."""
    vals, vecs = np.linalg.eigh(w[0] - w[1])
    pos = vecs[:, vals > 0]
    m0 = pos @ pos.conj().T
    return np.stack([m0, np.eye(w.shape[1]) - m0])


def eve_lower_bound(
    rho: np.ndarray,
    povms: list[Povm],
    x_star: int = 0,
    *,
    eve_povm: Povm | None = None,
) -> float:
    """Lower bound on the guessing probability from an explicit strategy on
    the purification.

    With `eve_povm` given, evaluates that single strategy (verifying the
    induced assemblage is feasible). Otherwise returns the better of two
    discriminators of Eve's conditional states: the pretty-good measurement
    and, for two outcomes, Helstrom's, which is optimal among all two-outcome
    measurements.
    """
    if eve_povm is not None:
        return eve_strategy(rho, povms, eve_povm).value(x_star)
    w = _conditional_eve_states(rho, povms, x_star)
    best = _guess_value(w, _pretty_good(w))
    if w.shape[0] == 2:
        best = max(best, _guess_value(w, _helstrom_pair(w)))
    return best
