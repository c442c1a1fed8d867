"""Reference spellings shared by the tests."""

import numpy as np

from latentspec.errors import OutOfSupportError
from latentspec.nef_qvf import (
    binomial,
    gamma,
    ghs,
    in_support,
    negbin,
    normal,
    poisson,
    qvf_coefficients,
    qvf_transform,
)

ALL_FAMILIES = [
    normal(),
    poisson(),
    binomial(20),
    negbin(10),
    gamma(10),
    ghs(2),
]


def v_value(f, y):
    """Per-observation transform v(y) of family f, with E[v(y)] = Var[y].

    Scalars give a float, arrays are transformed elementwise.
    """
    y = np.asarray(y, dtype=float)
    out = qvf_transform(qvf_coefficients(f), y, y * y)
    return float(out) if out.ndim == 0 else out


def variance_from_mean(f, theta):
    """Family variance b0 + b1*m + b2*m^2 at the given mean(s).

    Raises OutOfSupportError outside the mean region.  The region check
    skips NaN means, so one NaN mean does not hide another's fault.
    """
    arr = np.asarray(theta, dtype=float)
    lo = np.fmin.reduce(arr, axis=None, initial=np.inf)
    hi = np.fmax.reduce(arr, axis=None, initial=-np.inf)
    if not in_support(f, lo, hi, True):
        raise OutOfSupportError(f"{f.kind} mean outside its mean region")
    c = qvf_coefficients(f)
    out = c.b0 + c.b1 * arr + c.b2 * arr * arr
    return float(out) if out.ndim == 0 else out


def old_mean_region_check(f, lo, hi):
    """Raise unless means from ``lo`` up to ``hi`` lie in the mean region,
    family by family: the reference that ``in_support(f, lo, hi, True)``
    must match on finite ranges."""
    s = f.s
    kind = f.kind
    if kind == "poisson" and lo < 0:
        raise OutOfSupportError("poisson mean must be >= 0")
    if kind == "binomial" and (lo < 0 or hi > s):
        raise OutOfSupportError(f"binomial mean must lie in [0, s={s:g}]")
    if kind == "negbin" and lo < 0:
        raise OutOfSupportError("negative binomial mean must be >= 0")
    if kind == "gamma" and lo <= 0:
        raise OutOfSupportError("gamma mean must be > 0")


def assert_moments_equal(got, want):
    """Every field of two Moments equal, the arrays bit for bit."""
    for name in ("gram", "colsum", "colsumsq"):
        a, b = getattr(got, name), getattr(want, name)
        assert a is b is None or a.tobytes() == b.tobytes(), name
    assert (got.k, got.ymin, got.ymax, got.integral) == \
        (want.k, want.ymin, want.ymax, want.integral)
