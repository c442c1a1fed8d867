"""The six natural exponential families with quadratic variance (Morris 1982).

Each family carries its mean-variance relation V[y] = b0 + b1*m + b2*m^2
and a per-observation transform v(.) whose expectation equals the
variance.  That last identity is what lets a column average of
v(y) estimate the column-average variance without knowing the means.
``_FAMILIES`` holds each family's facts in one row, which everything here
reads: whether it takes ``s``, its (b0, b1, b2) and its support.

All means are in MEAN parameterization: the binomial mean is s*p (not the
probability p), the negative binomial mean is s*p/(1-p), and the gamma mean
is shape/rate.  Callers working in other parameterizations convert first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# One row per family: whether it takes s; (b0, b1, b2) as a function of s;
# and the support: its lower end (None: the whole line), whether that end is
# open, whether the support is whole numbers and whether s is its upper end.
_FAMILIES = {
    "normal": (False, lambda s: (1.0, 0.0, 0.0), None, False, False, False),
    "poisson": (False, lambda s: (0.0, 1.0, 0.0), 0.0, False, True, False),
    "binomial": (True, lambda s: (0.0, 1.0, -1.0 / s), 0.0, False, True, True),
    "negbin": (True, lambda s: (0.0, 1.0, 1.0 / s), 0.0, False, True, False),
    "gamma": (True, lambda s: (0.0, 0.0, 1.0 / s), 0.0, True, False, False),
    "ghs": (True, lambda s: (s, 0.0, 1.0 / s), None, False, False, False),
}
FAMILY_KINDS = tuple(_FAMILIES)


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
        kind, s = self.kind, self.s
        takes_s, _, _, _, _, s_caps = _FAMILIES[kind]
        if not takes_s and s is not None:
            raise InvalidParameterError(f"family {kind!r} takes no parameter s")
        if takes_s and (s is None or not np.isfinite(s) or s <= 0):
            raise InvalidParameterError(f"family {kind!r} needs a positive parameter s")
        # A trial count; s >= 2 keeps b2 = -1/s off -1, where 1 + b2 = 0.
        if s_caps and (float(s) != int(s) or s < 2):
            raise InvalidParameterError(f"{kind} trial count s must be an integer >= 2")
        if takes_s:
            object.__setattr__(self, "s", float(s))


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


def qvf_coefficients(f: Family) -> QvfCoefficients:
    """Return (b0, b1, b2) with variance = b0 + b1*mean + b2*mean^2."""
    return QvfCoefficients(*_FAMILIES[f.kind][1](f.s))


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


def in_support(f: Family, lo, hi, whole):
    """Whether finite values lie inside the family's observation support.

    Given the range of a matrix (its smallest entry ``lo``, its largest
    ``hi`` and ``whole``, whether every entry is a whole number) this is the
    verdict on the whole matrix; given arrays (``lo = hi = y`` and
    ``whole = (y == floor(y))``) the same rule is the entry mask.  Given
    the range of means and ``whole=True`` it is the check against the mean
    region, the hull of the support.  A family whose support is the whole
    line reads no argument.
    """
    _, _, low, open_low, whole_only, s_caps = _FAMILIES[f.kind]
    ok = np.full(np.shape(lo), True)
    if low is not None:
        ok = lo > low if open_low else lo >= low
    if whole_only:
        ok = ok & whole
    if s_caps:
        ok = ok & (hi <= f.s)
    return ok


def whole_support(f: Family) -> bool:
    """Whether the family's observations are whole numbers."""
    return _FAMILIES[f.kind][4]

