"""Cross-check for ``states.hardy_state``: the product basis and the
Gram-Schmidt construction the package used before the closed form.

``product_basis`` materialises phi_minus = |-..-> and the product
vectors phi_1 .. phi_{2^n - 1} as one 2^n x 2^n matrix; ``hardy_state``
here orthogonalises phi_{2^n - 1} = |0..0> against the rest in O(8^n).
The tests check the closed form against this state and against every
basis vector.
"""

from dataclasses import dataclass

import numpy as np

from hardylab.errors import NumericError, ValidationError
from hardylab.linalg import StateVector
from hardylab.states import _check_scenario


@dataclass(frozen=True)
class ProductBasis:
    """The 2^n product vectors (phi_minus, phi_1, ..., phi_{2^n - 1}).

    phi_k tensors |0> (bit 1) or |+> (bit 0) per party, with party i
    supplying bit 2^(i-1) of k; phi_minus is |--...->.  phi_minus is
    orthogonal to phi_k for every k < 2^n - 1 and the listed vectors are
    linearly independent, so together they form a (non-orthogonal) basis.

    ``matrix`` is stored, read-only, as the 2^n x 2^n array whose column
    k is phi_k for k >= 1 and whose column 0 is phi_minus.
    """

    n: int
    matrix: np.ndarray

    def phi(self, k: int) -> StateVector:
        """phi_k for k in 1..2^n-1 (column 0 of ``matrix`` is phi_minus)."""
        if not 1 <= k <= 2 ** self.n - 1:
            raise ValidationError(f"k = {k} out of range")
        return StateVector((2,) * self.n, self.matrix[:, k])

    @property
    def phi_minus(self) -> StateVector:
        return StateVector((2,) * self.n, self.matrix[:, 0])

    @property
    def vectors(self) -> tuple[StateVector, ...]:
        """(phi_minus, phi_1, ..., phi_{2^n - 1}), one StateVector per column."""
        return tuple(StateVector((2,) * self.n, col) for col in self.matrix.T)


def product_basis(n: int, pairs) -> ProductBasis:
    """Build the product basis used to pin down the Hardy state.

    One running Kronecker product of the per-party column pairs
    [|+>_i, |0>] gives every phi_k at once.  Each step makes party i's
    row bit the least significant and, unlike ``np.kron``, its column bit
    the most significant, so column k takes bit 2^(i-1) from party i
    while the rows keep party 1 most significant.  Column 0 (all |+>) is
    then overwritten with phi_minus.
    """
    pairs = _check_scenario(n, pairs)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    mat = np.ones((1, 1), dtype=complex)
    minus = np.ones(1, dtype=complex)
    for p in pairs:
        cols = np.stack([p.ket_plus, ket0], axis=1)
        rows = mat.shape[0]
        mat = (mat[:, None, None, :] * cols[None, :, :, None]).reshape(2 * rows, 2 * rows)
        minus = np.kron(minus, p.ket_minus)
    mat[:, 0] = minus
    mat.flags.writeable = False
    return ProductBasis(n=n, matrix=mat)


def hardy_state(n: int, pairs) -> StateVector:
    """The unique state satisfying all Hardy conditions for ``pairs``.

    Modified Gram-Schmidt (with one re-orthogonalisation pass) over
    (phi_minus, phi_1, ..., phi_{2^n - 2}) spans the excluded subspace;
    the state is the normalised residual of phi_{2^n - 1}, multiplied by
    overlap/|overlap| with overlap = <psi|phi_{2^n - 1}>, so that the
    overlap of the returned state is real and positive.
    """
    basis = product_basis(n, pairs)
    dim = 2 ** n
    # rows of qh are the conjugated orthonormal vectors, so a projection
    # sum_k q_k <q_k|v> is conj(conj(qh v) @ qh) and conjugates only
    # vectors, never the growing basis block
    qh = np.empty((dim - 1, dim), dtype=complex)
    for k in range(dim - 1):
        v = basis.matrix[:, k].copy()
        for _ in range(2):
            if k:
                v -= ((qh[:k] @ v).conj() @ qh[:k]).conj()
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise NumericError("product basis numerically degenerate")
        qh[k] = v.conj() / nrm
    target = basis.matrix[:, dim - 1]
    resid = target.copy()
    for _ in range(2):
        resid -= ((qh @ resid).conj() @ qh).conj()
    nrm = np.linalg.norm(resid)
    if nrm < 1e-12:
        raise NumericError("Hardy residual vanished; basis numerically degenerate")
    psi = resid / nrm
    overlap = np.vdot(psi, target)
    psi = psi * (overlap / abs(overlap))
    worst = float(np.max(np.abs(qh @ psi)))
    if worst > 1e-10:
        raise NumericError(f"orthogonality loss {worst:.2e} exceeds 1e-10")
    return StateVector((2,) * n, psi)
