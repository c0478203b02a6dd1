import numpy as np

from hardylab.linalg import StateVector
from hardylab.states import MeasurementPair


def random_pair(rng, complex_phases=True):
    """Random valid measurement pair, away from the degenerate edges."""
    a2 = rng.uniform(0.08, 0.92)
    a = np.sqrt(a2)
    b = np.sqrt(1.0 - a2)
    if complex_phases:
        a = a * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = b * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return MeasurementPair(a, b)


def random_pairs(rng, n, complex_phases=True):
    return [random_pair(rng, complex_phases) for _ in range(n)]


def random_state(rng, dims):
    """Pure state on ``dims`` with independent complex Gaussian amplitudes."""
    total = int(np.prod(dims))
    amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return StateVector(tuple(dims), amps / np.linalg.norm(amps))
