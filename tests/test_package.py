import inspect

import steercert


def test_package_exports():
    public = {name: value for name, value in vars(steercert).items() if not name.startswith("_")}
    names = {name for name, value in public.items() if not inspect.ismodule(value)}
    assert names == {
        # analytic
        "EveStrategy", "eve_lower_bound", "eve_strategy", "pure_qubit_pg", "pure_qudit_pg",
        # certify
        "CertificationResult", "JointAssemblage", "SteeringFunctional", "certify_global", "certify_local",
        "certify_pm", "min_entropy",
        # qlin
        "Povm", "basis_povm", "is_hermitian", "partial_trace",
        # scenario
        "Assemblage", "LhsResult", "apply_loss", "assemblage_from", "bell_state", "fourier_and_computational",
        "isotropic_state", "lhs_test", "mub_povms", "pauli_xz", "schmidt_state", "werner_state",
        # sdp
        "SdpProblem", "SdpSolution", "SolverStatus", "solve",
        # seesaw
        "SeesawError", "SeesawTrace", "StopReason", "optimize_measurements", "random_povms", "seesaw",
    }
