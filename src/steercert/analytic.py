"""Closed-form randomness bounds and explicit eavesdropper strategies.

Two independent oracles live here, used to sandwich the SDP results:

* exact guessing probabilities for pure Schmidt-form states measured in
  the Fourier and computational bases (1/d, independent of the Schmidt
  coefficients as long as none vanish);
* an explicit-strategy lower bound: purify the shared state, hand the purifying
  system to Eve, and let her discriminate her conditional states in closed form
  (the better of the pretty-good measurement and, for two outcomes, Helstrom's),
  or guess with certainty where `loss_attack` or `lhs_attack` validates. Every
  such strategy induces a feasible Eve-resolved assemblage, so its guessing
  probability can never exceed the SDP optimum.

Neither path touches the SDP machinery, which keeps the cross-checks
honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import JointAssemblage, lhs_attack, loss_attack
from .qlin import Povm, dagger, eigh, eigvalsh, helstrom_pair, normalised
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
    traces = np.real(np.trace(asm.sigma, axis1=-2, axis2=-1))
    tops = eigvalsh(asm.sigma)[..., -1]
    return np.where(traces > 1e-14, 1.0 - tops / np.maximum(traces, 1e-14), 0.0)


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


def purify(rho: np.ndarray) -> np.ndarray:
    """Purification of rho as a tensor of shape (dim(rho), rank), built from
    the eigendecomposition with eigenvalues sorted descending; eigenvalues
    at most 1e-12 of the largest are left out."""
    rho = np.asarray(rho, dtype=complex)
    vals, vecs = eigh(0.5 * (rho + rho.conj().T))
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > 1e-12 * max(vals[0], 1e-300)
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
    d_a, d_b = povms[0].dim, obs.sigma.shape[-1]
    psi = purify(rho)  # (d_a*d_b, d_e)
    d_e = psi.shape[1]
    if eve_povm.dim != d_e:
        raise ValueError(f"Eve's measurement acts on dimension {eve_povm.dim}, purification has {d_e}")
    psi_t = psi.reshape(d_a, d_b, d_e)
    grid = np.stack([p.elements for p in povms], axis=1)  # (n_a, m, d_a, d_a)
    sigma_e = np.einsum(
        "axij,ekl,jbl,ick->eaxbc", grid, eve_povm.elements, psi_t, psi_t.conj(), optimize=True
    )
    joint = JointAssemblage(sigma_e)
    joint.validate(obs, tol=1e-8)  # a violation here means the purification is wrong
    return EveStrategy(eve_povm=eve_povm, induced=joint)


def _conditional_eve_states(rho, povms, x_star) -> np.ndarray:
    """Eve's subnormalized conditional states W_a on the purifying system,
    given the untrusted outcome a at the target input."""
    d_a = povms[0].dim
    psi = purify(rho)
    psi_t = psi.reshape(d_a, rho.shape[0] // d_a, psi.shape[1])
    w = np.einsum("aij,jbk,ibl->akl", povms[x_star].elements, psi_t, psi_t.conj(), optimize=True)
    return 0.5 * (w + dagger(w))


def _guess_value(w: np.ndarray, elements: np.ndarray) -> float:
    return float(np.real(np.einsum("eij,eji->", elements, w)))


def eve_lower_bound(rho: np.ndarray, povms: list[Povm], x_star: int = 0) -> float:
    """Lower bound on the guessing probability from an explicit strategy: the best of
    `loss_attack` and `lhs_attack`, which guess with certainty where they validate, and two
    discriminators of Eve's conditional states on the purification, the pretty-good measurement
    and, for two outcomes, Helstrom's, which is optimal among all two-outcome measurements. A given
    measurement of Eve's is evaluated by `eve_strategy(rho, povms, eve_povm).value(x_star)`,
    which also verifies that the assemblage it induces is feasible.
    """
    w = _conditional_eve_states(rho, povms, x_star)
    best = _guess_value(w, normalised(w))
    if w.shape[0] == 2:
        # Helstrom's M_0 projects onto the positive eigenspace of W_0 - W_1
        best = max(best, _guess_value(w, helstrom_pair(w[1] - w[0])))
    asm = assemblage_from(rho, povms)
    return max([best, *(j.guess_probability(x_star) for j in (loss_attack(asm, x_star), lhs_attack(asm, x_star)) if j)])
