"""Cross-check for ``states.is_genuinely_entangled``: the Schmidt spectrum
of one bipartition at a time, the per-cut route the batched test replaced.

``schmidt_spectrum(psi, keep)`` takes the eigenvalues of the Gram matrix
of the amplitude block with the kept parties as rows; the tests compare
it against a partial trace of the density matrix (``partial_trace.py``).
"""

import numpy as np

from hardylab.errors import NumericError, ValidationError


def schmidt_spectrum(psi, bipartition) -> np.ndarray:
    """Eigenvalues (descending) of the reduced state on ``bipartition``."""
    keep = sorted(set(int(k) for k in bipartition))
    n = psi.n_parties
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"bipartition {keep} out of range")
    if len(keep) == 0 or len(keep) == n:
        raise ValidationError("bipartition must be a proper nonempty subset")
    rest = [i for i in range(n) if i not in keep]
    t = psi.tensor().transpose(keep + rest)
    da = int(np.prod([psi.dims[k] for k in keep]))
    m = t.reshape(da, -1)
    vals = np.clip(np.linalg.eigvalsh(m @ m.conj().T)[::-1], 0.0, None)
    s = vals.sum()
    if abs(s - 1.0) > 1e-10:
        raise NumericError(f"Schmidt spectrum sums to {s!r}, not 1")
    return vals
