import json
from dataclasses import asdict

import numpy as np

from attsim.attitude import _components, _gibbs, _unit
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


def write_config(cfg, path) -> None:
    """Write ``cfg`` as the JSON config file ``SimConfig.from_json`` reads."""
    d = asdict(cfg)
    d["axis"] = list(cfg.axis)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(d, f, indent=2)
        f.write("\n")


def pack_sets(sets) -> ObservationSet:
    """One-epoch sets packed into one set of those epochs, in order, with ``counts``."""
    return ObservationSet(
        b=np.concatenate([np.zeros((0, 3)), *(obs.b for obs in sets)]),
        r=np.concatenate([np.zeros((0, 3)), *(obs.r for obs in sets)]),
        weights=np.concatenate([np.zeros(0), *(obs.weights for obs in sets)]),
        counts=[len(obs) for obs in sets],
    )


# Array forms of the float expressions the filter updates take from
# ``attsim.attitude``, for the tests that check those expressions and for
# oracles that normalize, conjugate or take a Gibbs vector.


def quat_normalize(q) -> np.ndarray:
    """Unit quaternion with the same direction (``attsim.attitude._unit``). Never flips sign."""
    return np.array(_unit(*_components(q)))


def quat_conjugate(q) -> np.ndarray:
    """Conjugate (inverse, for unit quaternions)."""
    x, y, z, w = _components(q)
    return np.array([-x, -y, -z, w])


def quat_to_gibbs(q) -> np.ndarray:
    """Gibbs vector g = q_vec / q_scalar (``attsim.attitude._gibbs``); undefined at 180 degrees."""
    return np.array(_gibbs(*_components(q)))
