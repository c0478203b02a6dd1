"""Cross-check for ``behavior.hardy_values``: the dense coefficient
tensors the package used before the slicing evaluator.

``hardy_functionals(n)`` returns one 4^n coefficient tensor for p and one
for each of the n+1 Hardy terms; contracting a behavior table against
them gives the same numbers as ``hardy_values``.
"""

import numpy as np


def hardy_functionals(n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Coefficient tensors over the behavior table for p and the zero terms.

    Returns (p_coeff, [z_1, ..., z_n, z_minus]); z_i marginalises the
    parties other than (i, i+1 cyclic) at setting U.
    """
    shape = (2,) * (2 * n)
    p_coeff = np.zeros(shape)
    p_coeff[(0,) * (2 * n)] = 1.0
    zs = []
    for i in range(n):
        j = (i + 1) % n
        coeff = np.zeros(shape)
        settings = [0] * n
        settings[i] = 1
        sel = [slice(None)] * n
        sel[i] = 0
        sel[j] = 0
        coeff[tuple(settings) + tuple(sel)] = 1.0
        zs.append(coeff)
    last = np.zeros(shape)
    last[(1,) * (2 * n)] = 1.0
    zs.append(last)
    return p_coeff, zs
