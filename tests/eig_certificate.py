"""Residual certificate for a Hermitian eigendecomposition.

The tests check ``linalg.eig_herm`` (and the LAPACK spectra that
production code reads) by the decomposition's own residuals instead of
against a second eigensolver.  With R = H V - V diag(w) and
eta = ||V^H V - I||_F < 1, write V = Q P (polar form, Q unitary).  Then
Q^H H Q = diag(w) + E with E Hermitian and

    ||E||_2 <= (||R||_F + 2 eta max|w|) / (1 - eta),

so by Weyl's inequality every eigenvalue of H, in ascending order, lies
within that bound of the matching entry of ascending ``w``.  Forming R
in floating point adds at most about d * u * (||H||_F + max|w|) * ||V||_F
(u the unit round-off), which the bound includes.
"""

import numpy as np

RESIDUAL_RTOL = 1e-12
ORTHO_TOL = 1e-12


def certified_error(h, vals, vecs):
    """Bound on max_i |lambda_i(h) - vals[i]| after asserting that
    ||h V - V diag(vals)||_F <= 1e-12 ||h||_F, ||V^H V - I||_F <= 1e-12
    and that ``vals`` ascend."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    assert vals.shape == (d,) and vecs.shape == (d, d)
    assert np.all(np.diff(vals) >= 0)
    scale = float(np.linalg.norm(h))
    resid = float(np.linalg.norm(h @ vecs - vecs * vals))
    eta = float(np.linalg.norm(vecs.conj().T @ vecs - np.eye(d)))
    assert resid <= RESIDUAL_RTOL * scale
    assert eta <= ORTHO_TOL
    top = float(np.max(np.abs(vals), initial=0.0))
    rounding = d * np.finfo(float).eps * (scale + top) * float(np.linalg.norm(vecs))
    return (resid + rounding + 2.0 * eta * top) / (1.0 - eta)
