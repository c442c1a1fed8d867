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
