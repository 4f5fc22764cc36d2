"""Scalar reference implementations of vectorized paths of the package.

``attsim.startracker.observe`` and the q-method in ``attsim.wahba`` work on
whole ``(m, 3)`` arrays. The per-star functions here are the loops they
replaced, one star at a time, kept as the references the array path is
bounded against. They normalize with 1-D ``v @ v`` dot products and rotate
with matrix-vector products, as the loops did, so they round differently
from the array path in the last bits.

``attsim.numerics.jacobi_eigen_sym`` runs its cyclic Jacobi sweep on a
stack of matrices. :func:`jacobi_eigen_one` is the same sweep written for
one matrix with scalar arithmetic, the reference each member of a stack
must equal bit for bit.
"""

import math

import numpy as np

import attsim.numerics as numerics
from attsim.attitude import quat_to_matrix
from attsim.errors import InvalidInput, NumericalFailure, UnderdeterminedAttitude
from attsim.numerics import check_symmetric, jacobi_eigen_sym


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


def jacobi_eigen_one(m):
    """Cyclic Jacobi eigensolver for one symmetric matrix, one rotation at a time.

    Returns what ``jacobi_eigen_sym`` returns for one matrix: eigenvalues in
    descending order and the eigenvectors as rows. Reads the sweep limit
    from ``attsim.numerics`` at call time.
    """
    a = check_symmetric(m)
    n = a.shape[0]
    v = np.eye(n)
    scale = math.sqrt(float((a * a).sum()))
    if scale == 0.0:
        return np.zeros(n), v.copy()
    tol = numerics._JACOBI_REL_TOL * scale

    def off_norm():
        return math.sqrt(2.0 * sum(a[p, q] * a[p, q] for p in range(n - 1) for q in range(p + 1, n)))

    converged = False
    for _ in range(numerics._JACOBI_MAX_SWEEPS):
        if off_norm() <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * colq
                a[:, q] = s * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - s * rowq
                a[q, :] = s * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if not converged and off_norm() > tol:
        raise NumericalFailure(f"Jacobi sweep limit reached (off-diagonal {off_norm():.3e})")
    evals = np.diag(a).copy()
    order = np.argsort(-evals, kind="stable")
    return evals[order], v[:, order].T.copy()
