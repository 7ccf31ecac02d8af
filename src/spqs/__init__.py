"""Quasi-states on the skew-symplectic matrix algebra: the Maslov quasi-state
computed by independent methods, constructors for the known quasi-state
families, and property-based verification of their defining identities."""

from .harness import (
    GlEmbedding,
    VerificationReport,
    check_ad_invariance,
    check_isotropic_linearity,
    check_quasi_linearity,
    embed_gl,
    fit_gleason_on_unitary,
    fit_main_theorem,
    fit_rank_one_trace,
    frobenius_pseudo_state,
    maslov_imtrace_oracle,
)
from .kernels import (
    PolarSample,
    complexify_orthosymplectic,
    det_complex,
    expm,
    lift_argument,
    polar_decompose,
    sample_polar_path,
)
from .maslov import (
    MaslovEstimate,
    MaslovLimitConfig,
    maslov_dim2,
    maslov_limit,
    maslov_limit_batch,
    maslov_spectral,
    phase_trace,
)
from .quasistates import (
    QuasiState,
    dim2_homogeneous_qs,
    discontinuous_qs,
    linear_combination,
    linear_qs,
    maslov_qs,
    nilpotent_jordan_sp,
)
from .symplectic import (
    CommutingPair,
    CommutingStrategy,
    RankOneKind,
    SamplingError,
    SpElement,
    SymplecticSpace,
    commuting_pair,
    omega,
    omega_adjoint,
    project_skew_symplectic,
    random_sp_element,
    random_symplectic_group_element,
    standard_complex_structure,
    y_element,
    z_element,
)
from .williamson import (
    WilliamsonBlock,
    WilliamsonDecomposition,
    classify_eigenstructure,
    random_semisimple,
    williamson_decompose,
    yz_decomposition,
)

__version__ = "0.1.0"
