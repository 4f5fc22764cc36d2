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
in order. No BLAS dot product enters ``B`` or ``z``, so their rounding
does not depend on the CPU kernel a BLAS library picks.

:func:`davenport_solve` also takes a sequence of sets, one per tracker
epoch of a chunk of a run. It builds each set's K as for one set and
eigendecomposes them all in one stacked Jacobi call; the stacked sweep
gives each member bit for bit what it gives that matrix alone. A set that
fails (too few stars, a degenerate eigenvalue gap, the z cross-check, the
sweep limit) yields its exception as its outcome, so that the caller can
act on it at that epoch's turn.
"""

from dataclasses import dataclass

import numpy as np

from .attitude import quat_to_matrix
from .errors import (
    AttsimError,
    DegenerateGeometry,
    InvalidInput,
    NumericalFailure,
    UnderdeterminedAttitude,
)
from .numerics import jacobi_eigen_sym
from .startracker import ObservationSet, row_norms

_COLLINEAR_EPS = 1e-8
_EIG_GAP_REL = 1e-9


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
    loss: float


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
    outer = obs.b[:, :, None] * obs.r[:, None, :]
    b = (w[:, None, None] * outer).sum(axis=0)
    return AttitudeProfileMatrix(b=b, total_weight=float(w.sum()))


def davenport_matrix(profile: AttitudeProfileMatrix, obs) -> DavenportMatrix:
    """Assemble K from the profile matrix, cross-checking the z vector.

    ``z`` is computed both from the skew part of B and as the weighted sum
    of cross products; the two must agree to 1e-12 (relative to the total
    weight) or the profile does not belong to these observations.
    """
    b = profile.b
    z_skew = np.array([b[1, 2] - b[2, 1], b[2, 0] - b[0, 2], b[0, 1] - b[1, 0]])
    z_cross = (obs.weights[:, None] * np.cross(obs.b, obs.r)).sum(axis=0)
    scale = max(1.0, profile.total_weight)
    if float(np.max(np.abs(z_skew - z_cross))) > 1e-12 * scale:
        raise NumericalFailure("z-vector formulas disagree; profile does not match observations")
    tr = float(np.trace(b))
    s = b + b.T
    k = np.empty((4, 4))
    k[:3, :3] = s - tr * np.eye(3)
    k[:3, 3] = z_skew
    k[3, :3] = z_skew
    k[3, 3] = tr
    return DavenportMatrix(k=k)


def wahba_loss(a, obs) -> float:
    """Weighted squared-residual cost sum a_i ||b_i - A r_i||^2."""
    a = np.asarray(a, dtype=float)
    d = obs.b - obs.r @ a.T
    return float((obs.weights * (d * d).sum(axis=1)).sum())


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
    for that set (not raised). The Davenport matrices of the sets are
    eigendecomposed in one stacked call, and each outcome equals the
    one-set call bit for bit.
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
    members, profiles, ks = [], [], []
    for i, obs in enumerate(sets):
        try:
            if len(obs) < 2:
                raise UnderdeterminedAttitude("at least two observations are required")
            profile = build_profile(obs)
            ks.append(davenport_matrix(profile, obs).k)
        except AttsimError as exc:
            outcomes[i] = exc
        else:
            members.append(i)
            profiles.append(profile)
    for i, profile, eigen in zip(members, profiles, _eigen_each(ks)):
        if isinstance(eigen, AttsimError):
            outcomes[i] = eigen
            continue
        try:
            outcomes[i] = _top_eigenvector_solution(sets[i], profile, *eigen)
        except AttsimError as exc:
            outcomes[i] = exc
    return outcomes


def _eigen_each(ks) -> list:
    """``jacobi_eigen_sym`` of each 4x4 K, from one stacked call.

    If the stacked call fails, each K is solved alone, so that a failure
    (the sweep limit) is the outcome of the matrix that caused it only.
    """
    if not ks:
        return []
    try:
        evals, evecs = jacobi_eigen_sym(np.array(ks))
    except AttsimError:
        out = []
        for k in ks:
            try:
                out.append(jacobi_eigen_sym(k))
            except AttsimError as exc:
                out.append(exc)
        return out
    return list(zip(evals, evecs))


def _top_eigenvector_solution(obs, profile, evals, evecs) -> WahbaSolution:
    if evals[0] - evals[1] < _EIG_GAP_REL * profile.total_weight:
        raise UnderdeterminedAttitude(
            f"degenerate eigenvalue gap {evals[0] - evals[1]:.3e}: geometry underdetermined"
        )
    q = evecs[0].copy()
    if q[3] < 0.0:
        q = -q
    loss = wahba_loss(quat_to_matrix(q), obs)
    return WahbaSolution(q=q, lambda_max=float(evals[0]), loss=loss)
