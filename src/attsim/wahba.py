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
``S = B + B^T`` and ``z = sum a_i (b_i x r_i)``.

The q-method functions take one :class:`attsim.startracker.ObservationSet`
(``b`` and ``r`` as ``(m, 3)`` arrays, ``weights`` as ``(m,)``) and form
every sum over the stars with array operations: the products of each star
side by side, then a sum over the star axis, which numpy adds star by star
in order. No BLAS product enters ``B``, ``z`` or the loss, so their
rounding does not depend on the CPU kernel a BLAS library picks.

:func:`davenport_solve` also takes a sequence of sets, one per tracker
epoch of a chunk of a run, and solves them together: the sets are laid
out as zero-padded ``(E, L, 3)`` stacks (``L`` the largest set, padding
rows of weight -0.0, which add -0.0 to every sum and so change none), and
every B, z, total weight, K, z cross-check, eigenvalue gap and quaternion
is formed for all sets at once; the 4x4 eigenproblems are one stacked
Jacobi call, which gives each member bit for bit what it gives that matrix
alone. So each set's outcome equals a one-set call bit for bit. A set that
fails (too few stars, a non-positive weight, the z cross-check, a
degenerate eigenvalue gap, the sweep limit) yields its exception as its
outcome, so that the caller can act on it at that epoch's turn.

The total weight is a sum over the star axis, like every other sum over
the stars: numpy adds a 1-D array of 8 or more terms pairwise, which would
make a set's total depend on how far it is padded. The solver does not
form the loss; :func:`wahba_loss` gives it for one set and attitude.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AttsimError,
    DegenerateGeometry,
    InvalidInput,
    NumericalFailure,
    UnderdeterminedAttitude,
)
from .numerics import jacobi_eigen_sym, padded_rows
from .startracker import ObservationSet, row_norms

_COLLINEAR_EPS = 1e-8
_EIG_GAP_REL = 1e-9
_Z_DISAGREE = "z-vector formulas disagree; profile does not match observations"


@dataclass(frozen=True)
class AttitudeProfileMatrix:
    """B = sum a_i b_i r_i^T plus the total weight that built it."""

    b: np.ndarray
    total_weight: float


@dataclass(frozen=True)
class DavenportMatrix:
    """Symmetric 4x4 K whose top eigenvector is the optimal quaternion."""

    k: np.ndarray


@dataclass(frozen=True)
class WahbaSolution:
    q: np.ndarray
    lambda_max: float


def _unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InvalidInput(f"{name} must be a 3-vector")
    n = row_norms(v)
    if n < 1e-12:
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


def build_profile(obs) -> AttitudeProfileMatrix:
    """Accumulate the attitude profile matrix from a weighted observation set."""
    if len(obs) == 0:
        raise InvalidInput("observation set is empty")
    w = obs.weights
    if not np.all(w > 0.0):
        raise InvalidInput("observation weights must be positive")
    prof, _, total = _star_sums(obs.b[None], obs.r[None], w[None])
    return AttitudeProfileMatrix(b=prof[0], total_weight=float(total[0]))


def davenport_matrix(profile: AttitudeProfileMatrix, obs) -> DavenportMatrix:
    """Assemble K from the profile matrix, cross-checking the z vector.

    ``z`` is computed both from the skew part of B and as the weighted sum
    of cross products; the two must agree to 1e-12 (relative to the total
    weight) or the profile does not belong to these observations.
    """
    _, z_cross, _ = _star_sums(obs.b[None], obs.r[None], obs.weights[None])
    k, z_failed = davenport_matrices(profile.b[None], z_cross, np.array([profile.total_weight]))
    if z_failed[0]:
        raise NumericalFailure(_Z_DISAGREE)
    return DavenportMatrix(k=k[0])


def davenport_matrices(prof, z_cross, total):
    """The K of each profile matrix of a stack, and which fail the z cross-check.

    ``prof`` is ``(E, 3, 3)``, ``z_cross`` the ``(E, 3)`` weighted sums of
    cross products and ``total`` the ``(E,)`` total weights. Returns K as
    ``(E, 4, 4)`` and a boolean ``(E,)`` that is True where the skew part
    of B and ``z_cross`` differ by more than 1e-12 * max(1, total).
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
    z_failed = np.abs(z - z_cross).max(axis=1) > 1e-12 * np.maximum(1.0, total)
    return k, z_failed


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
    """B, the weighted sum of cross products and the total weight of each set of a stack.

    ``b`` and ``r`` are ``(E, L, 3)`` and ``w`` is ``(E, L)``; rows past a
    set's end hold zero directions and weight -0.0, so every product they
    add is -0.0, which leaves any sum as it is. One sum over the star axis
    adds the rows one after the other, as for that set alone. Returns
    ``(E, 3, 3)``, ``(E, 3)`` and ``(E,)``.
    """
    n, length = w.shape
    terms = np.empty((n, length, 13))
    terms[..., :9] = (b[..., :, None] * r[..., None, :]).reshape(n, length, 9)
    terms[..., 9:12] = np.cross(b, r)
    terms[..., 12] = 1.0
    sums = (w[..., None] * terms).sum(axis=1)
    return sums[:, :9].reshape(n, 3, 3), sums[:, 9:12], sums[:, 12]


def davenport_solve(obs):
    """Optimal quaternion for a weighted observation set (q-method), or for many.

    The eigenvector of K with the largest eigenvalue is the attitude
    estimate; its scalar part is forced nonnegative. For one
    :class:`~attsim.startracker.ObservationSet`, returns a
    :class:`WahbaSolution` and raises UnderdeterminedAttitude for fewer
    than two observations or when the top eigenvalue is nearly degenerate
    (collinear geometry).

    For a sequence of sets, returns a list with one outcome per set, in
    order: the WahbaSolution, or the exception a one-set call would raise
    for that set (not raised). The sets are solved together, as one
    zero-padded stack, and each outcome equals the one-set call bit for
    bit.
    """
    if isinstance(obs, ObservationSet):
        outcome = _solve_sets([obs])[0]
        if isinstance(outcome, AttsimError):
            raise outcome
        return outcome
    return _solve_sets(list(obs))


def _solve_sets(sets) -> list:
    """One outcome per observation set: a WahbaSolution or the AttsimError of that set."""
    outcomes = [None] * len(sets)
    if not sets:
        return outcomes
    counts = [len(obs) for obs in sets]
    b, r, w, valid = _padded_stack(sets, counts)
    positive = np.all((w > 0.0) | ~valid, axis=1).tolist()
    for i, (m, ok) in enumerate(zip(counts, positive)):
        if m < 2:
            outcomes[i] = UnderdeterminedAttitude("at least two observations are required")
        elif not ok:
            outcomes[i] = InvalidInput("observation weights must be positive")
    members = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if not members:
        return outcomes
    if len(members) < len(sets):
        b, r, w = b[members], r[members], w[members]
    prof, z_cross, total = _star_sums(b, r, w)
    k, z_failed = davenport_matrices(prof, z_cross, total)
    for i, failed in zip(members, z_failed.tolist()):
        if failed:
            outcomes[i] = NumericalFailure(_Z_DISAGREE)
    keep = np.flatnonzero(~z_failed)
    evals, evecs, failures = _eigen_stack(k[keep])
    gap = evals[:, 0] - evals[:, 1]
    underdetermined = (gap < _EIG_GAP_REL * total[keep]).tolist()
    q = evecs[:, 0]
    q = np.where(q[:, 3:] < 0.0, -q, q)
    lambda_max = evals[:, 0].tolist()
    for j, i in enumerate(members[m] for m in keep.tolist()):
        if j in failures:
            outcomes[i] = failures[j]
        elif underdetermined[j]:
            outcomes[i] = UnderdeterminedAttitude(
                f"degenerate eigenvalue gap {gap[j]:.3e}: geometry underdetermined"
            )
        else:
            outcomes[i] = WahbaSolution(q=q[j], lambda_max=lambda_max[j])
    return outcomes


def _padded_stack(sets, counts):
    """The sets' rows as zero-padded ``(E, L, 3)`` stacks ``b`` and ``r``, weights ``(E, L)``.

    ``L`` is the largest set; rows past a set's end hold zero directions
    and weight -0.0. Also returns the ``(E, L)`` mask of the real rows.
    """
    rows = padded_rows(counts)
    valid = rows < sum(counts)
    pad = np.zeros((1, 3))
    b = np.concatenate([*(obs.b for obs in sets), pad])[rows]
    r = np.concatenate([*(obs.r for obs in sets), pad])[rows]
    w = np.concatenate([*(obs.weights for obs in sets), [-0.0]])[rows]
    return b, r, w, valid


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
