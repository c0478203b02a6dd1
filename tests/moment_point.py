"""Feasible points of the moment relaxation from qubit realizations.

``quantum_moment_vector`` evaluates <psi| W |psi> for every variable of a
``MomentProblem``, applying each party's word of '+' projectors to its
tensor axis; ``hardy_moment_vector`` does so at the optimal n-qubit Hardy
realization, where every Hardy term vanishes and the objective is
``pmax(n).p_max``.  The tests use these points to check the builder and
the solver against a known feasible moment matrix.
"""

import numpy as np

from hardylab.states import MeasurementPair, hardy_state, pmax


def word_operator(word, pair) -> np.ndarray:
    """Matrix product of the '+' projectors along a one-party word."""
    projectors = pair.projectors
    out = np.eye(2, dtype=complex)
    for letter in word:
        out = out @ projectors[letter][0]
    return out


def quantum_moment_vector(problem, psi, pairs) -> np.ndarray:
    """Moments <psi| W |psi> of a qubit realization, per problem variable."""
    tensor = psi.tensor()
    moments = np.empty(problem.n_vars)
    for idx, mono in enumerate(problem.variables):
        t = tensor
        for party, word in enumerate(mono):
            if not word:
                continue
            t = np.tensordot(word_operator(word, pairs[party]), t, axes=([1], [party]))
            t = np.moveaxis(t, 0, party)
        moments[idx] = float(np.vdot(tensor, t).real)
    return moments


def hardy_moment_vector(problem) -> np.ndarray:
    """Moments of the optimal n-qubit Hardy realization (exact Hardy point)."""
    n = problem.n
    pairs = [MeasurementPair.from_alpha_sq(pmax(n).t)] * n
    return quantum_moment_vector(problem, hardy_state(n, pairs), pairs)
