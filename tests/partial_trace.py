"""Cross-check for ``schmidt_spectrum.py``: the reduced density matrix
by partial trace, the route the Gram-matrix spectrum replaces.

``partial_trace(rho, dims, keep)`` traces every party not in ``keep``
out of a density matrix one axis pair at a time; the eigenvalues of the
result are the Schmidt spectrum of the kept side.
"""

import numpy as np

from hardylab.errors import ValidationError


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all parties not listed in ``keep`` (0-based indices)."""
    dims = tuple(int(d) for d in dims)
    rho = np.asarray(rho)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValidationError(
            f"density matrix shape {rho.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValidationError(f"keep indices {keep} out of range for {len(dims)} parties")
    n = len(dims)
    t = rho.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for off, i in enumerate(sorted(traced, reverse=True)):
        cur = n - off
        t = np.trace(t, axis1=i, axis2=cur + i)
    dk = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(dk, dk)
