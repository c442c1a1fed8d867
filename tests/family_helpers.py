"""Reference spellings shared by the tests."""

import numpy as np

from latentspec.nef_qvf import qvf_coefficients, qvf_transform


def v_value(f, y):
    """Per-observation transform v(y) of family f, with E[v(y)] = Var[y].

    Scalars give a float, arrays are transformed elementwise.
    """
    y = np.asarray(y, dtype=float)
    out = qvf_transform(qvf_coefficients(f), y, y * y)
    return float(out) if out.ndim == 0 else out


def assert_moments_equal(got, want):
    """Every field of two Moments equal, the arrays bit for bit."""
    for name in ("gram", "colsum", "colsumsq"):
        a, b = getattr(got, name), getattr(want, name)
        assert a is b is None or a.tobytes() == b.tobytes(), name
    assert (got.k, got.ymin, got.ymax, got.integral) == \
        (want.k, want.ymin, want.ymax, want.integral)
