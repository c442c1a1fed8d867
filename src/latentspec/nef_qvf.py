"""The six one-parameter exponential families with quadratic variance.

Each family carries its mean-variance relation V[y] = b0 + b1*m + b2*m^2
and a per-observation transform v(.) whose expectation equals the
variance.  That last identity is what lets a column average of
v(y) estimate the column-average variance without knowing the means.

All means are in MEAN parameterization: the binomial mean is s*p (not the
probability p), the negative binomial mean is s*p/(1-p), and the gamma mean
is shape/rate.  Callers working in other parameterizations convert first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, OutOfSupportError

FAMILY_KINDS = ("normal", "poisson", "binomial", "negbin", "gamma", "ghs")
_NEEDS_S = frozenset({"binomial", "negbin", "gamma", "ghs"})


@dataclass(frozen=True)
class Family:
    """One of the six distributions, with auxiliary parameter ``s``.

    ``s`` is the binomial trial count, negative binomial size, gamma shape,
    or GHS shape; it is absent for normal (unit variance) and poisson.
    """

    kind: str
    s: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidParameterError(f"unknown family kind {self.kind!r}")
        if self.kind in _NEEDS_S:
            if self.s is None or not np.isfinite(self.s) or self.s <= 0:
                raise InvalidParameterError(
                    f"family {self.kind!r} needs a positive parameter s"
                )
            if self.kind == "binomial":
                if float(self.s) != int(self.s) or int(self.s) < 2:
                    raise InvalidParameterError(
                        "binomial trial count s must be an integer >= 2"
                    )
            object.__setattr__(self, "s", float(self.s))
        elif self.s is not None:
            raise InvalidParameterError(
                f"family {self.kind!r} takes no parameter s"
            )


def normal() -> Family:
    return Family("normal")


def poisson() -> Family:
    return Family("poisson")


def binomial(s) -> Family:
    return Family("binomial", s)


def negbin(s) -> Family:
    return Family("negbin", s)


def gamma(s) -> Family:
    return Family("gamma", s)


def ghs(s) -> Family:
    return Family("ghs", s)


@dataclass(frozen=True)
class QvfCoefficients:
    """Coefficients of the quadratic mean-variance relation."""

    b0: float
    b1: float
    b2: float

    def __post_init__(self):
        if self.b2 == -1.0:
            raise InvalidParameterError("b2 = -1 is not admissible")


def qvf_coefficients(f: Family) -> QvfCoefficients:
    """Return (b0, b1, b2) with variance = b0 + b1*mean + b2*mean^2."""
    s = f.s
    table = {
        "normal": (1.0, 0.0, 0.0),
        "poisson": (0.0, 1.0, 0.0),
        "binomial": (0.0, 1.0, -1.0 / s) if s else None,
        "negbin": (0.0, 1.0, 1.0 / s) if s else None,
        "gamma": (0.0, 0.0, 1.0 / s) if s else None,
        "ghs": (s, 0.0, 1.0 / s) if s else None,
    }
    return QvfCoefficients(*table[f.kind])


def qvf_transform(c: QvfCoefficients, y, y2):
    """(b0 + b1*y + b2*y2) / (1 + b2), the one spelling of the QVF transform.

    With y2 = y*y this is v(y); with the column means of y and y*y it is
    the column mean of v(y).  A term whose coefficient is zero is left out,
    so its argument may be None and an overflowing y*y cannot give 0 * inf.
    """
    out = np.full(np.shape(y), c.b0)
    if c.b1:
        out += c.b1 * y
    if c.b2:
        out += c.b2 * y2
    return out / (1.0 + c.b2)


def _check_mean_region(f: Family, theta: np.ndarray) -> None:
    s = f.s
    kind = f.kind
    if kind == "poisson" and np.any(theta < 0):
        raise OutOfSupportError("poisson mean must be >= 0")
    if kind == "binomial" and (np.any(theta < 0) or np.any(theta > s)):
        raise OutOfSupportError(f"binomial mean must lie in [0, s={s:g}]")
    if kind == "negbin" and np.any(theta < 0):
        raise OutOfSupportError("negative binomial mean must be >= 0")
    if kind == "gamma" and np.any(theta <= 0):
        raise OutOfSupportError("gamma mean must be > 0")


def variance_from_mean(f: Family, theta):
    """Family variance at the given mean(s); raises outside the mean region."""
    arr = np.asarray(theta, dtype=float)
    _check_mean_region(f, arr)
    c = qvf_coefficients(f)
    out = c.b0 + c.b1 * arr + c.b2 * arr * arr
    if out.ndim == 0:
        return float(out)
    return out


def in_support(f: Family, lo, hi, whole):
    """Whether finite data lie inside the family's observation support.

    Counts (poisson, binomial, negbin) must be nonnegative whole numbers,
    the binomial ones at most s; gamma observations must be positive.
    Normal and GHS accept any finite real and read no argument.  Given the
    range of a matrix (its smallest entry ``lo``, its largest ``hi`` and
    ``whole``, whether every entry is a whole number) this is the verdict
    on the whole matrix; given arrays (``lo = hi = y`` and
    ``whole = (y == floor(y))``) the same rule is the entry mask.
    """
    kind = f.kind
    if kind in ("normal", "ghs"):
        return np.full(np.shape(lo), True)
    if kind == "gamma":
        return lo > 0
    ok = (lo >= 0) & whole
    if kind == "binomial":
        ok = ok & (hi <= f.s)
    return ok


def family_to_dict(f: Family) -> dict:
    """JSON-ready mapping, e.g. {"family": "binomial", "s": 20}."""
    out = {"family": f.kind}
    if f.s is not None:
        out["s"] = int(f.s) if float(f.s).is_integer() else f.s
    return out

