"""Compressive averaged-periodogram estimation from multi-coset samples."""

from .analysis import (
    DetectorSpec,
    RocCurve,
    VarianceReport,
    analytical_gaussian_covariance,
    mc_caps,
    nmse,
    nyquist_ap,
    propagate_variance,
    roc_harness,
    spectral_ap,
    whitenoise_variance_closed_form,
)
from .estimator import (
    CAP_CB,
    CAP_UB,
    NAP,
    CovarianceStack,
    IdentifiabilityError,
    Periodogram,
    assemble_cap,
    average_periodograms,
    estimate_correlated_bins,
    estimate_multicluster,
    ls_reconstruct_rbar,
    reconstruct_cap,
    sample_covariance,
)
from .patterns import (
    CosetPattern,
    PatternFamily,
    RulerSearchResult,
    design_pair_cover_family,
    exhaustive_minimal_ruler,
    is_circular_sparse_ruler,
    minimal_circular_sparse_ruler,
)
from .sensing import (
    CosetObservationSet,
    ScenarioConfig,
    SensingRun,
    UserSpec,
    dbm_to_linear,
    extract_coset_observations,
    synthesize_observations,
)
from .structure import (
    PsiMatrix,
    SystemMatrixRc,
    build_modulation_matrix,
    build_psi,
    build_repetition_matrix,
    build_system_matrix,
)

__version__ = "0.1.0"
