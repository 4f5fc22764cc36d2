"""Single-frame attitude solutions.

Two solvers for the orthogonal-matrix least-squares problem
``min sum_i a_i ||b_i - A r_i||^2`` over matched unit-vector pairs:

* :func:`triad` builds the attitude deterministically from exactly two
  pairs, honoring the first (most trusted) pair exactly.
* :func:`davenport_solve` is the q-method: the optimal quaternion is the
  eigenvector belonging to the largest eigenvalue of the 4x4 Davenport
  matrix assembled from the attitude profile matrix ``B``.

The Davenport matrix here is laid out vector-first to match the package
quaternion convention: ``K = [[S - tr(B) I, z], [z^T, tr(B)]]`` with
``S = B + B^T`` and ``z = sum a_i (b_i x r_i)``, which the solver reads off
the skew part of ``B`` (``z_x = B_yz - B_zy`` and cyclically). Directions
are used as given; the tracker and ``attsim solve-wahba`` pass unit rows.

The q-method functions take one :class:`attsim.startracker.ObservationSet`
(``b`` and ``r`` as ``(m, 3)`` arrays, ``weights`` as ``(m,)``) and form
every sum over the stars with array operations: the products of each star
side by side, then a sum over the star axis, which numpy adds star by star
in order. No BLAS product enters ``B`` or the loss, so their rounding
does not depend on the CPU kernel a BLAS library picks.

:func:`davenport_solve` solves every epoch of a set at once. A set's
``counts`` splits its packed rows into epochs (a run hands it one chunk's
tracker epochs); a set without ``counts`` is one epoch. The rows are laid
out as zero-padded ``(E, L, 3)`` stacks (``L`` the largest epoch, padding
rows of weight -0.0, which add -0.0 to every sum and so change none), and
every B, total weight, K, eigenvalue gap and quaternion is formed for all
epochs at once; the 4x4 eigenproblems are one stacked Jacobi call, which
gives each member bit for bit what it gives that matrix alone. So each
epoch's outcome equals the solve of that epoch's rows alone bit for bit.
An epoch that fails (too few stars, a non-positive weight, a degenerate
eigenvalue gap, the sweep limit) yields its exception as its outcome, so
that the caller can act on it at that epoch's turn.

The total weight is a sum over the star axis, like every other sum over
the stars: numpy adds a 1-D array of 8 or more terms pairwise, which would
make an epoch's total depend on how far it is padded. The solver does not
form the loss; :func:`wahba_loss` gives it for one set and attitude.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AttsimError,
    DegenerateGeometry,
    InvalidInput,
    UnderdeterminedAttitude,
)
from .numerics import jacobi_eigen_sym, padded_rows
from .startracker import ObservationSet, row_norms, scaled_norms

_COLLINEAR_EPS = 1e-8
_EIG_GAP_REL = 1e-9


@dataclass(frozen=True)
class WahbaSolution:
    q: np.ndarray
    lambda_max: float


def _unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InvalidInput(f"{name} must be a 3-vector")
    if not np.isfinite(v).all():
        raise InvalidInput(f"{name} must have finite components")
    v, n = scaled_norms(v)
    if not 0.0 < n < math.inf:
        raise InvalidInput(f"{name} must be a nonzero vector")
    return v / n


def triad(r1, r2, b1, b2) -> np.ndarray:
    """Attitude matrix from two matched pairs, exact on the first pair.

    Builds orthonormal triads ``v`` from the reference pair and ``w`` from
    the body pair (first vector, normalized cross product, completing
    cross product) and returns ``A = W V^T`` so that ``A @ r1 == b1``.
    Raises DegenerateGeometry when either pair is collinear.
    """
    r1 = _unit(r1, "r1")
    r2 = _unit(r2, "r2")
    b1 = _unit(b1, "b1")
    b2 = _unit(b2, "b2")
    rc = np.cross(r1, r2)
    bc = np.cross(b1, b2)
    rn = row_norms(rc)
    bn = row_norms(bc)
    if rn <= _COLLINEAR_EPS or bn <= _COLLINEAR_EPS:
        raise DegenerateGeometry("vector pair is collinear")
    v2 = rc / rn
    w2 = bc / bn
    v = np.column_stack([r1, v2, np.cross(r1, v2)])
    w = np.column_stack([b1, w2, np.cross(b1, w2)])
    return w @ v.T


def davenport_matrices(prof):
    """The K of each profile matrix of a stack.

    ``prof`` is ``(E, 3, 3)``; returns ``(E, 4, 4)``. ``z`` is the skew
    part of B, which equals ``sum a_i (b_i x r_i)``.
    """
    k = np.empty((prof.shape[0], 4, 4))
    tr = np.trace(prof, axis1=1, axis2=2)
    k[:, :3, :3] = prof + prof.transpose(0, 2, 1) - tr[:, None, None] * np.eye(3)
    z = k[:, :3, 3]
    z[:, 0] = prof[:, 1, 2] - prof[:, 2, 1]
    z[:, 1] = prof[:, 2, 0] - prof[:, 0, 2]
    z[:, 2] = prof[:, 0, 1] - prof[:, 1, 0]
    k[:, 3, :3] = z
    k[:, 3, 3] = tr
    return k


def wahba_loss(a, obs) -> float:
    """Weighted squared-residual cost sum a_i ||b_i - A r_i||^2.

    ``A r_i`` is formed with elementwise products, and the squares of each
    axis are summed over the stars before the three axes are added.
    """
    a = np.asarray(a, dtype=float)
    d = obs.b - (obs.r[:, None, :] * a[None, :, :]).sum(axis=2)
    s = (obs.weights[:, None] * (d * d)).sum(axis=0)
    return float(s[0] + s[1] + s[2])


def _star_sums(b, r, w):
    """B and the total weight of each set of a stack.

    ``b`` and ``r`` are ``(E, L, 3)`` and ``w`` is ``(E, L)``; rows past a
    set's end hold zero directions and weight -0.0, so every product they
    add is -0.0, which leaves any sum as it is. One sum over the star axis
    adds the rows one after the other, as for that set alone. Returns
    ``(E, 3, 3)`` and ``(E,)``.
    """
    n, length = w.shape
    terms = np.empty((n, length, 10))
    # b r^T is written into terms and weighted there: no (E, L, 3, 3) or (E, L, 10) temporary
    np.multiply(b[..., :, None], r[..., None, :], out=terms[..., :9].reshape(n, length, 3, 3))
    terms[..., 9] = 1.0
    terms *= w[..., None]
    sums = terms.sum(axis=1)
    return sums[:, :9].reshape(n, 3, 3), sums[:, 9]


def davenport_solve(obs: ObservationSet):
    """Optimal quaternion of each epoch of a weighted observation set (q-method).

    The eigenvector of K with the largest eigenvalue is the attitude
    estimate; its scalar part is forced nonnegative. For a set without
    ``counts`` (one epoch), returns a :class:`WahbaSolution` and raises
    UnderdeterminedAttitude for fewer than two observations or when the
    top eigenvalue is nearly degenerate (collinear geometry), and
    InvalidInput for a weight that is not positive.

    For a set with ``counts``, returns a list with one outcome per epoch,
    in order: the WahbaSolution, or the exception that epoch's rows alone
    would raise (not raised). The epochs are solved together, as one
    zero-padded stack, and each outcome equals the solve of that epoch
    alone bit for bit.
    """
    counts = (len(obs),) if obs.counts is None else obs.counts
    b, r, w = _padded(obs, counts)
    positive = (np.count_nonzero(w > 0.0, axis=1) == counts).tolist()
    outcomes = [
        UnderdeterminedAttitude("at least two observations are required") if m < 2
        else None if ok else InvalidInput("observation weights must be positive")
        for m, ok in zip(counts, positive)
    ]
    members = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if len(members) < len(counts):
        b, r, w = b[members], r[members], w[members]
    prof, total = _star_sums(b, r, w)
    evals, evecs, failures = _eigen_stack(davenport_matrices(prof))
    gap = evals[:, 0] - evals[:, 1]
    underdetermined = (gap < _EIG_GAP_REL * total).tolist()
    q = evecs[:, 0]
    q = np.where(q[:, 3:] < 0.0, -q, q)
    lambda_max = evals[:, 0].tolist()
    for j, i in enumerate(members):
        if j in failures:
            outcomes[i] = failures[j]
        elif underdetermined[j]:
            outcomes[i] = UnderdeterminedAttitude(
                f"degenerate eigenvalue gap {gap[j]:.3e}: geometry underdetermined"
            )
        else:
            outcomes[i] = WahbaSolution(q=q[j], lambda_max=lambda_max[j])
    if obs.counts is None and isinstance(outcomes[0], AttsimError):
        raise outcomes[0]
    return outcomes if obs.counts is not None else outcomes[0]


def _padded(obs: ObservationSet, counts):
    """Each epoch's rows of ``obs`` as zero-padded ``(E, L, 3)`` stacks ``b`` and ``r``, weights ``(E, L)``.

    ``counts`` gives the rows of each epoch and ``L`` is the largest; rows
    past an epoch's end hold zero directions and weight -0.0. The row index
    lives only here, so it is freed before the solve.
    """
    rows = padded_rows(counts)
    pad = np.zeros((1, 3))
    return (np.concatenate((obs.b, pad))[rows], np.concatenate((obs.r, pad))[rows],
            np.append(obs.weights, -0.0)[rows])


def _eigen_stack(ks):
    """``jacobi_eigen_sym`` of a stack of 4x4 K, and the failure of each K that fails.

    If the stacked call fails, each K is solved alone, so that a failure
    (the sweep limit) is the outcome of the matrix that caused it only;
    ``failures`` maps its index to the exception, and its eigenvalues and
    vectors are placeholders (zeros and the identity).
    """
    try:
        evals, evecs = jacobi_eigen_sym(ks)
        return evals, evecs, {}
    except AttsimError:
        evals = np.zeros((ks.shape[0], 4))
        evecs = np.broadcast_to(np.eye(4), ks.shape).copy()
        failures = {}
        for i, k in enumerate(ks):
            try:
                evals[i], evecs[i] = jacobi_eigen_sym(k)
            except AttsimError as exc:
                failures[i] = exc
        return evals, evecs, failures
