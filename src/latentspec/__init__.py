"""Latent row-space estimation from second moments, with rank selection.

Public surface: dense matrix primitives, the six quadratic-variance
exponential families, diagonal variance correction, the latent-space
estimator with automatic rank selection, subspace distance, and a seeded
simulation harness.  The ``latentspec`` command line fronts the same
pipeline.
"""

from .errors import (
    DegenerateTailError,
    EmptyGridError,
    InvalidParameterError,
    LatentSpecError,
    LengthMismatchError,
    NoConvergenceError,
    NotOrthonormalWarning,
    NotSymmetricError,
    OutOfSupportError,
    RankDeficientError,
    SupportViolationError,
)
from .latent_space import (
    CalibrationTrace,
    RankEstimate,
    ScalingConfig,
    SubspaceEstimate,
    adjusted_gram,
    calibrate_scale,
    default_grid,
    estimate_latent_space,
    estimate_rank,
    ETA_DEFAULT,
    ETA_PRESET_FAST,
    ETA_PRESET_MEDIUM,
)
from .matrix_core import (
    DataMatrix,
    SymmetricEigen,
    frobenius_norm,
    gram_scaled,
    sym_eigen,
)
from .nef_qvf import (
    Family,
    QvfCoefficients,
    binomial,
    family_from_dict,
    family_to_dict,
    gamma,
    ghs,
    natural_link,
    negbin,
    normal,
    poisson,
    qvf_coefficients,
    v_value,
    variance_from_mean,
)
from .simulation import (
    RepRecord,
    ReplicationStats,
    ScenarioConfig,
    ScenarioDraw,
    generate_scenario,
    rep_rng,
    run_replications,
    scenario_family,
)
from .subspace_metrics import (
    RowSpaceBasis,
    projection_matrix,
    subspace_distance,
)
from .variance_estimation import (
    VarianceEstimate,
    dk_error,
    estimate_dk_leek,
    estimate_dk_qvf,
    explicit,
    known_unit,
)

__version__ = "0.1.0"
