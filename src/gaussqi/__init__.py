"""Gaussian quantum illumination: error exponents for target detection in a
target-agnostic thermal background, with a truncated-Fock-space oracle."""

from .divergence import (
    ChernoffResult,
    bhattacharyya_error_bound,
    chernoff,
    fidelity,
    g_factor,
    lambda_factor,
    q_s_alt,
    q_s_coherent_closed,
    q_s_general,
)
from .symplectic import (
    GaussianState,
    GaussianUnitary,
    WilliamsonDecomposition,
    apply_unitary,
    beamsplitter,
    displacement,
    partial_trace,
    phase_rotation,
    random_physical_cov,
    random_symplectic,
    squeezer,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_inverse,
    tensor,
    williamson,
)
from .target import (
    HypothesisPair,
    TargetConfig,
    dilated_present,
    make_pair,
    target_present,
)
from .fock_oracle import (
    FockOperator,
    apply_target_fock,
    build_state,
    choose_cutoff,
    fidelity_fock,
    hypothesis_pair_fock,
    mean_photon_number,
    partial_trace_fock,
    q_s_fock,
    thermal_fock,
)
from .sweeps import (
    ExpansionCheck,
    SweepPlan,
    SweepRow,
    emit,
    limit_order_study,
    reproduce_figure,
    run_sweep,
    verify_expansion,
)
from .transmitters import (
    TransmitterSpec,
    coherent,
    probe_state,
    smsv,
    thermal_state,
    tmss,
    vacuum,
)

__version__ = "0.1.0"
