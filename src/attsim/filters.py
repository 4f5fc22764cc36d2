"""The two recursive attitude estimators under comparison.

Additive EKF (AEKF)
    The state is the raw 4-component quaternion with a 4x4 covariance.
    Prediction propagates the quaternion through the exact kinematic steps,
    renormalizing once per block, and the covariance through the
    first-order transitions ``F = I + 0.5 * Omega(omega) * dt``. The update
    treats the measured quaternion as a direct observation (H = I), adds the
    Kalman correction componentwise, and renormalizes the result by brute
    force.

Multiplicative EKF (MEKF)
    The reference quaternion is propagated exactly and is always unit; the
    filter estimates a 3-component attitude error with a 3x3 covariance
    (Markley 2003, "Attitude error representations for Kalman filtering").
    The error coordinate is twice the Gibbs vector of the error quaternion,
    ``a = 2 * q_vec / q_scalar``, so the reset quaternion
    ``(a; 2) / sqrt(4 + |a|^2)`` inverts it exactly and a near-perfect
    measurement pulls the reference all the way onto the measured attitude.
    The error is folded into the reference at every update, so the state
    holds no error estimate between updates. The truth gyro has no bias and
    the filter estimates none.

Block predict
    Each filter has one predict, and it crosses a whole block of gyro
    steps: ``predict(state, omegas, dt, noise)`` with ``omegas`` of shape
    ``(n, 3)``, one rate per step; a ``(3,)`` rate is a block of one step.
    Between two measurements the covariance recursion
    ``P <- Phi P Phi^T + Q`` is linear, and its per-step pairs compose
    associatively (:func:`compose_transitions`), so the n transitions are
    built in one vectorized step (Phi is linear in the rate), reduced by a
    tree of batched matrix products, and applied to P once. The attitude
    advances by a tree product of the exact per-step increments
    (:func:`attsim.attitude.integrate_quat`). The result equals n one-step
    predicts up to rounding; the caller decides where a block ends (the
    harness ends one at every tracker epoch and every record instant).

The AEKF update sign-aligns the measured quaternion against the current
estimate before forming a residual, and the MEKF's Gibbs innovation does
not depend on the sign, which makes both filters insensitive to the q/-q
double cover. Covariances are re-symmetrized after every
predict and update.
"""

from dataclasses import dataclass

import numpy as np

from .attitude import (
    cross_matrix,
    integrate_quat,
    integrate_quat_path,
    omega_matrix,
    quat_conjugate,
    quat_mul,
    quat_normalize,
    quat_to_gibbs,
)
from .errors import InvalidInput
from .numerics import solve, symmetrize

_I3 = np.eye(3)
_I3_FLAT = _I3.ravel()
_I4 = np.eye(4)
_I4_FLAT = _I4.ravel()


@dataclass(frozen=True)
class NoiseParams:
    """Process noise configuration.

    Args:
        sigma_v: gyro rate white-noise density [rad/s/sqrt(Hz)]; the
            MEKF attitude-error covariance grows by sigma_v^2 * dt per step.
        aekf_q_flat: when True the AEKF process noise is the flat diagonal
            sigma_v^2 * dt * I4 (tuning-parity fallback); when False it is
            mapped through the kinematics operator,
            sigma_v^2 * dt * 0.25 * Xi(q) Xi(q)^T.
    """

    sigma_v: float = 0.0
    aekf_q_flat: bool = False

    def __post_init__(self):
        if self.sigma_v < 0.0:
            raise InvalidInput("noise density must be nonnegative")


@dataclass
class AekfState:
    """Quaternion state and 4x4 covariance."""

    q: np.ndarray
    p: np.ndarray


@dataclass
class MekfState:
    """Unit reference quaternion and 3x3 covariance of the attitude error."""

    q_ref: np.ndarray
    p: np.ndarray


def aekf_init(q0, p0) -> AekfState:
    return AekfState(q=np.asarray(q0, dtype=float).copy(), p=np.asarray(p0, dtype=float).copy())


def mekf_init(q0, p0) -> MekfState:
    return MekfState(q_ref=np.asarray(q0, dtype=float).copy(), p=np.asarray(p0, dtype=float).copy())


# F = I + 0.5 * dt * Omega(omega) is linear in omega: row j of the table is
# Omega(e_j) flattened, so the stack of n transitions is one matrix product
_AEKF_OMEGA_TABLE = np.array([omega_matrix(e).ravel() for e in _I3])


def _rate_block(omegas, dt: float) -> np.ndarray:
    """Gyro rates as an (n, 3) block; a single (3,) rate is a block of one step."""
    if dt <= 0.0:
        raise InvalidInput("dt must be positive")
    w = np.asarray(omegas, dtype=float)
    if w.shape == (3,):
        w = w[None, :]
    if w.ndim != 2 or w.shape[0] == 0 or w.shape[1] != 3:
        raise InvalidInput("gyro rates must be a (3,) rate or a nonempty (n, 3) block")
    return w


def compose_transitions(phi: np.ndarray, q: np.ndarray):
    """Compose per-step pairs (Phi_k, Q_k), stacked in time order, into one pair.

    The covariance recursion P <- Phi P Phi^T + Q composes associatively,
    ``(Phi2, Q2) o (Phi1, Q1) = (Phi2 Phi1, Phi2 Q1 Phi2^T + Q2)``, so a
    block of n steps reduces by a tree of ceil(log2 n) batched levels:
    each level composes neighbours pairwise, and an odd last element passes
    to the next level unchanged. Applying the result to P once equals n
    sequential steps up to rounding. A single step is returned as it is.
    """
    while phi.shape[0] > 1:
        even = phi.shape[0] // 2 * 2
        later = phi[1:even:2]
        q_new = later @ q[0:even:2] @ later.transpose(0, 2, 1) + q[1:even:2]
        phi_new = later @ phi[0:even:2]
        if even < phi.shape[0]:
            q_new = np.concatenate((q_new, q[even:]))
            phi_new = np.concatenate((phi_new, phi[even:]))
        phi, q = phi_new, q_new
    return phi[0], q[0]


def aekf_predict(s: AekfState, omegas, dt: float, noise: NoiseParams) -> AekfState:
    """Propagate the AEKF across a block of gyro intervals.

    ``omegas`` holds one gyro rate per step, shape ``(n, 3)``; a single
    ``(3,)`` rate is one step. The quaternion advances by the exact
    kinematic steps (:func:`integrate_quat`) and is renormalized once per
    block, since the exact steps preserve the norm to about 1e-16. The
    covariance advances through the first-order transitions
    ``F_k = I + 0.5 * Omega(omega_k) * dt`` of the kinematic equation plus
    gyro process noise ``Q_k``, composed over the block by
    :func:`compose_transitions` and applied to P once. The non-flat
    ``Q_k = 0.25 * sigma_v^2 * dt * Xi(q) Xi(q)^T = 0.25 * sigma_v^2 * dt *
    (|q|^2 I - q q^T)`` is taken at the attitude q before step k, which a
    prefix product over the block supplies.
    """
    w = _rate_block(omegas, dt)
    f = (_I4_FLAT + (0.5 * dt) * w @ _AEKF_OMEGA_TABLE).reshape(-1, 4, 4)
    path = integrate_quat_path(s.q, w, dt)
    if noise.aekf_q_flat:
        qmat = ((noise.sigma_v * noise.sigma_v * dt) * _I4)[None].repeat(w.shape[0], axis=0)
    else:
        prior = np.concatenate((s.q[None, :], path[:-1]))
        qmat = (0.25 * noise.sigma_v * noise.sigma_v * dt) * (
            (prior * prior).sum(axis=1)[:, None, None] * _I4
            - prior[:, :, None] * prior[:, None, :]
        )
    phi, qsum = compose_transitions(f, qmat)
    return AekfState(q=quat_normalize(path[-1]), p=symmetrize(phi @ s.p @ phi.T + qsum))


def aekf_update(s: AekfState, q_meas, r4) -> AekfState:
    """Fuse a measured quaternion with H = I and renormalize the result.

    The measurement is sign-aligned to the current estimate first, so q
    and -q measurements produce identical updates. Raises NumericalFailure
    (from the innovation solve) when S = P + R is singular.
    """
    q_meas = np.asarray(q_meas, dtype=float)
    if float(np.dot(q_meas, s.q)) < 0.0:
        q_meas = -q_meas
    y = q_meas - s.q
    innov = s.p + np.asarray(r4, dtype=float)
    # K = P S^-1; with S symmetric this is solve(S, P)^T
    k = solve(innov, s.p).T
    q_new = quat_normalize(s.q + k @ y)
    p_new = symmetrize((_I4 - k) @ s.p)
    return AekfState(q=q_new, p=p_new)


# Phi = I - [omega x] dt is linear in omega: row j of the table is
# -[e_j x] flattened, so the stack of n transitions is one matrix product
_MEKF_OMEGA_TABLE = np.array([-cross_matrix(e).ravel() for e in _I3])


def mekf_predict(s: MekfState, omegas, dt: float, noise: NoiseParams) -> MekfState:
    """Propagate the MEKF reference and error covariance across a block of gyro intervals.

    ``omegas`` holds one gyro rate per step, shape ``(n, 3)``; a single
    ``(3,)`` rate is one step. The reference advances by the exact kinematic
    steps (:func:`integrate_quat`). The covariance transition of each step
    is the first-order discretization ``Phi_k = I - [omega_k x] dt`` of the
    attitude-error dynamics, and the process noise ``Q_k = sigma_v^2 * dt *
    I`` is the same every step. The pairs are composed over the block by
    :func:`compose_transitions` and applied to P once.
    """
    w = _rate_block(omegas, dt)
    phi = (_I3_FLAT + dt * w @ _MEKF_OMEGA_TABLE).reshape(-1, 3, 3)
    qmat = ((noise.sigma_v * noise.sigma_v * dt) * _I3)[None].repeat(w.shape[0], axis=0)
    phi, qsum = compose_transitions(phi, qmat)
    return MekfState(q_ref=integrate_quat(s.q_ref, w, dt), p=symmetrize(phi @ s.p @ phi.T + qsum))


def mekf_update(s: MekfState, q_meas, r3) -> MekfState:
    """Fuse a measured quaternion multiplicatively, then reset.

    The innovation is twice the Gibbs vector of the error quaternion
    ``q_meas * q_ref^-1`` (:func:`attsim.attitude.quat_to_gibbs`), and
    H = I, so the gain is ``K = P (P + R)^-1``. The a-posteriori attitude
    error ``a`` folds into the reference via ``normalize((a; 2)) * q_ref``.
    Raises GibbsSingularity for a 180-degree innovation and
    NumericalFailure when the innovation covariance is singular.
    """
    q_err = quat_mul(np.asarray(q_meas, dtype=float), quat_conjugate(s.q_ref))
    a_g = 2.0 * quat_to_gibbs(q_err)
    # K = P S^-1; with S symmetric this is solve(S, P)^T
    k = solve(s.p + np.asarray(r3, dtype=float), s.p).T
    a = k @ a_g
    dq = quat_normalize(np.array([a[0], a[1], a[2], 2.0]))
    q_ref = quat_normalize(quat_mul(dq, s.q_ref))
    return MekfState(q_ref=q_ref, p=symmetrize(s.p - k @ s.p))
