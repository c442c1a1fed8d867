"""Latent row-space estimation from second moments, with rank selection.

The package namespace holds the library quick start of the README: the six
family constructors, the variance correction, the latent-space estimator
with its ``ScalingConfig``, the replication harness, the subspace distance
and projector, and the exception classes.  Everything else is imported from
its module.  The ``latentspec`` command line fronts the same pipeline.

``ScenarioConfig``, ``run_replications``, ``subspace_distance`` and
``projection_matrix`` are resolved on first use (PEP 562): importing the
package, or a one-shot ``latentspec estimate``, loads the simulation and
subspace_metrics modules only once one of these names is used.
"""

import importlib

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
from .variance_estimation import estimate_dk_qvf

__version__ = "0.1.0"

# Name -> module, for the names resolved on first use.
_LAZY = {
    "ScenarioConfig": "simulation",
    "run_replications": "simulation",
    "projection_matrix": "subspace_metrics",
    "subspace_distance": "subspace_metrics",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
