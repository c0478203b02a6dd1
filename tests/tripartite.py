"""Cross-check for ``states.hardy_state`` at three parties: the symmetric
closed form of the three-qubit Hardy state in its own coefficients.

``tripartite_explicit(pair)`` writes the state with the same pair at every
party as one coefficient per Hamming weight; the tests compare it against
``hardy_state`` and the Gram-Schmidt construction (``gram_schmidt.py``).
"""

import math

import numpy as np

from hardylab.linalg import StateVector


def tripartite_explicit(pair) -> StateVector:
    """Three-qubit Hardy state in its symmetric closed form.

    With a = |alpha|, b = |beta| and N = sqrt(1 - a^6):

        c0 = a^3 b^3 / N              on |000>
        c1 = -beta a^4 b / N          on |001> + |010> + |100>
        c2 = beta^2 a^5 / (b N)       on |011> + |101> + |110>
        c3 = beta^3 N / b^3           on |111>

    The displayed formulas take alpha real; a complex alpha contributes an
    extra factor (conj(alpha)/|alpha|)^w on the weight-w coefficients,
    which keeps the overall phase convention <psi|000> > 0.
    """
    a = abs(pair.alpha)
    b = abs(pair.beta)
    beta = pair.beta
    norm = math.sqrt(1.0 - a ** 6)
    ph = np.conj(pair.alpha) / a
    coeffs = np.array([a ** 3 * b ** 3 / norm,
                       -beta * a ** 4 * b / norm * ph,
                       beta ** 2 * a ** 5 / (b * norm) * ph ** 2,
                       beta ** 3 * norm / b ** 3 * ph ** 3])
    return StateVector((2, 2, 2), coeffs[[bin(idx).count("1") for idx in range(8)]])
