"""Certifiable randomness from quantum steering and prepare-and-measure
experiments, computed by semidefinite programming."""

from .analytic import EveStrategy, eve_lower_bound, eve_strategy, pure_qubit_pg, pure_qudit_pg
from .certify import (
    CertificationResult,
    JointAssemblage,
    SteeringFunctional,
    certify_global,
    certify_local,
    certify_pm,
    dual_functional_direct,
    min_entropy,
)
from .qlin import Povm, basis_povm, is_hermitian, is_psd, kron, min_eig, partial_trace
from .scenario import (
    Assemblage,
    LhsResult,
    Scenario,
    apply_loss,
    assemblage_from,
    bell_state,
    fourier_and_computational,
    isotropic_state,
    lhs_test,
    mub_povms,
    pauli_xz,
    schmidt_state,
    standard_povms,
    werner_state,
)
from .sdp import LinearConstraint, SdpProblem, SdpSolution, SolverStatus, realify, solve
from .seesaw import SeesawError, SeesawTrace, StopReason, optimize_measurements, random_povms, seesaw

__version__ = "0.1.0"
