"""Per-star reference implementations of the star-tracker epoch path.

``attsim.startracker.observe`` and the q-method in ``attsim.wahba`` work on
whole ``(m, 3)`` arrays. These are the loops they replaced, one star at a
time, kept as the references the array path is bounded against. They
normalize with 1-D ``v @ v`` dot products and rotate with matrix-vector
products, as the loops did, so they round differently from the array path
in the last bits.
"""

import math

import numpy as np

from attsim.attitude import quat_to_matrix
from attsim.errors import InvalidInput, NumericalFailure, UnderdeterminedAttitude
from attsim.numerics import jacobi_eigen_sym


def observe_per_star(q_true, catalog, cams, sigma_star, rng):
    """Matched ``(b, r)`` pairs of one epoch, visiting every catalog star of every head.

    Noise is drawn with one ``rng.gaussian`` call per component, three per
    visible star, head by head and star by star in catalog order.
    """
    a_ib = quat_to_matrix(q_true)
    out = []
    for cam in cams:
        a_bc = quat_to_matrix(cam.mount)
        a_ic = a_bc @ a_ib
        cam_vecs = catalog.stars @ a_ic.T
        cos_fov = math.cos(cam.fov_half_angle)
        f = cam.focal_length
        for idx in range(catalog.stars.shape[0]):
            v = cam_vecs[idx]
            if not (v[2] > 0.0 and v[2] > cos_fov):
                continue
            x, y, z = float(v[0]), float(v[1]), float(v[2])
            point = np.array([f * x / z, f * y / z, f])
            recovered = point / math.sqrt(float(point @ point))
            b = a_bc.T @ recovered
            if sigma_star > 0.0:
                b = b + np.array([rng.gaussian(sigma_star) for _ in range(3)])
                b = b / math.sqrt(float(b @ b))
            out.append((b, catalog.stars[idx].copy()))
    return out


def davenport_per_star(b_rows, r_rows, weights):
    """q-method over matched pairs, accumulated one pair at a time.

    Returns ``(q, lambda_max, loss)`` and raises what
    ``attsim.wahba.davenport_solve`` raises.
    """
    pairs = list(zip(b_rows, r_rows, weights))
    if len(pairs) < 2:
        raise UnderdeterminedAttitude("at least two observations are required")
    prof = np.zeros((3, 3))
    total = 0.0
    for b, r, w in pairs:
        if w <= 0.0:
            raise InvalidInput("observation weights must be positive")
        prof += w * np.outer(b, r)
        total += w
    z_skew = np.array([prof[1, 2] - prof[2, 1], prof[2, 0] - prof[0, 2], prof[0, 1] - prof[1, 0]])
    z_cross = np.zeros(3)
    for b, r, w in pairs:
        z_cross += w * np.cross(b, r)
    if float(np.max(np.abs(z_skew - z_cross))) > 1e-12 * max(1.0, total):
        raise NumericalFailure("z-vector formulas disagree")
    tr = float(np.trace(prof))
    k = np.empty((4, 4))
    k[:3, :3] = prof + prof.T - tr * np.eye(3)
    k[:3, 3] = z_skew
    k[3, :3] = z_skew
    k[3, 3] = tr
    evals, evecs = jacobi_eigen_sym(k)
    if evals[0] - evals[1] < 1e-9 * total:
        raise UnderdeterminedAttitude("degenerate eigenvalue gap")
    q = evecs[0].copy()
    if q[3] < 0.0:
        q = -q
    a = quat_to_matrix(q)
    loss = 0.0
    for b, r, w in pairs:
        d = b - a @ r
        loss += w * float(d @ d)
    return q, float(evals[0]), loss
