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
    min_entropy,
)
from .qlin import Povm, basis_povm, is_hermitian, partial_trace
from .scenario import (
    Assemblage,
    LhsResult,
    apply_loss,
    assemblage_from,
    bell_state,
    fourier_and_computational,
    isotropic_state,
    lhs_test,
    mub_povms,
    pauli_xz,
    schmidt_state,
    werner_state,
)
from .sdp import SdpProblem, SdpSolution, SolverStatus, solve
from .seesaw import SeesawError, SeesawTrace, StopReason, optimize_measurements, random_povms, seesaw

__version__ = "0.1.0"
