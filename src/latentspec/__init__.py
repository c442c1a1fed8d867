"""Latent row-space estimation from second moments, with rank selection.

The package namespace holds the library quick start of the README: the six
family constructors, the variance correction, the latent-space estimator
with its ``ScalingConfig``, the replication harness, the subspace distance
and projector, and the exception classes.  Everything else is imported from
its module.  The ``latentspec`` command line fronts the same pipeline.
"""

from .errors import (
    DegenerateTailError,
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
from .latent_space import ScalingConfig, estimate_latent_space
from .nef_qvf import binomial, gamma, ghs, negbin, normal, poisson
from .simulation import ScenarioConfig, run_replications
from .subspace_metrics import projection_matrix, subspace_distance
from .variance_estimation import estimate_dk_qvf

__version__ = "0.1.0"
