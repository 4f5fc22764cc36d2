import numpy as np

from attsim.numerics import RngStream
from attsim.startracker import ObservationSet


def random_unit_quat(rng: RngStream) -> np.ndarray:
    """Uniform random rotation via normalized Gaussian 4-tuples."""
    while True:
        q = np.array([rng.gaussian(1.0) for _ in range(4)])
        n = float(np.sqrt(q @ q))
        if n > 1e-6:
            return q / n


def random_unit_vec(rng: RngStream) -> np.ndarray:
    while True:
        v = np.array([rng.gaussian(1.0) for _ in range(3)])
        n = float(np.sqrt(v @ v))
        if n > 1e-6:
            return v / n


def random_symmetric(rng: RngStream, n: int) -> np.ndarray:
    m = np.array([[rng.gaussian(1.0) for _ in range(n)] for _ in range(n)])
    return 0.5 * (m + m.T)


def pack_sets(sets) -> ObservationSet:
    """One-epoch sets packed into one set of those epochs, in order, with ``counts``."""
    return ObservationSet(
        b=np.concatenate([np.zeros((0, 3)), *(obs.b for obs in sets)]),
        r=np.concatenate([np.zeros((0, 3)), *(obs.r for obs in sets)]),
        weights=np.concatenate([np.zeros(0), *(obs.weights for obs in sets)]),
        counts=[len(obs) for obs in sets],
    )
