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
    filter estimates a 6-component error state (Rodrigues-parameter
    attitude error stacked with gyro bias error) with a 6x6 covariance.
    The attitude error coordinate is ``a = 2 * q_vec / q_scalar`` of the
    error quaternion, so the reset quaternion ``(a; 2) / sqrt(4 + |a|^2)``
    inverts it exactly and a near-perfect measurement pulls the reference
    all the way onto the measured attitude. Bias states are carried so the
    covariance has the standard 6x6 shape, but the bias estimate is frozen
    at zero and never fed back.

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

Both updates sign-align the measured quaternion against the current
estimate before forming a residual, which makes the filters insensitive
to the q/-q double cover. Covariances are re-symmetrized after every
predict and update.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .attitude import (
    cross_matrix,
    integrate_quat,
    integrate_quat_path,
    omega_matrix,
    quat_conjugate,
    quat_mul,
    quat_normalize,
)
from .errors import GibbsSingularity, InvalidInput
from .numerics import solve, symmetrize

_I3 = np.eye(3)
_I4 = np.eye(4)
_I4_FLAT = _I4.ravel()


@dataclass(frozen=True)
class NoiseParams:
    """Process noise configuration.

    Args:
        sigma_v: gyro rate white-noise density [rad/s/sqrt(Hz)]; the
            attitude covariance grows by sigma_v^2 * dt per step.
        sigma_u: gyro bias random-walk density [rad/s^(3/2)]; zero freezes
            the bias blocks entirely.
        aekf_q_flat: when True the AEKF process noise is the flat diagonal
            sigma_v^2 * dt * I4 (tuning-parity fallback); when False it is
            mapped through the kinematics operator,
            sigma_v^2 * dt * 0.25 * Xi(q) Xi(q)^T.
    """

    sigma_v: float = 0.0
    sigma_u: float = 0.0
    aekf_q_flat: bool = False

    def __post_init__(self):
        if self.sigma_v < 0.0 or self.sigma_u < 0.0:
            raise InvalidInput("noise densities must be nonnegative")


@dataclass
class AekfState:
    """Quaternion state and 4x4 covariance."""

    q: np.ndarray
    p: np.ndarray


@dataclass
class MekfState:
    """Unit reference quaternion, 6-vector error state (zero after resets), 6x6 covariance."""

    q_ref: np.ndarray
    dx: np.ndarray = field(default_factory=lambda: np.zeros(6))
    p: np.ndarray = field(default_factory=lambda: np.zeros((6, 6)))


def aekf_init(q0, p0) -> AekfState:
    return AekfState(q=np.asarray(q0, dtype=float).copy(), p=np.asarray(p0, dtype=float).copy())


def mekf_init(q0, p0) -> MekfState:
    return MekfState(
        q_ref=np.asarray(q0, dtype=float).copy(),
        dx=np.zeros(6),
        p=np.asarray(p0, dtype=float).copy(),
    )


@lru_cache(maxsize=64)
def _aekf_flat_q(sigma_v: float, dt: float) -> np.ndarray:
    q = (sigma_v * sigma_v * dt) * np.eye(4)
    q.setflags(write=False)
    return q


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
        qmat = _aekf_flat_q(noise.sigma_v, dt)[None].repeat(w.shape[0], axis=0)
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


@lru_cache(maxsize=64)
def _mekf_gqg(sigma_v: float, sigma_u: float, dt: float) -> np.ndarray:
    """G Q G^T for one step; constant given the noise densities and dt."""
    sv2 = sigma_v * sigma_v
    su2 = sigma_u * sigma_u
    out = np.zeros((6, 6))
    out[:3, :3] = (sv2 * dt + su2 * dt**3 / 3.0) * _I3
    out[:3, 3:] = (0.5 * su2 * dt * dt) * _I3
    out[3:, :3] = (0.5 * su2 * dt * dt) * _I3
    out[3:, 3:] = (su2 * dt) * _I3
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _mekf_phi_const(dt: float) -> np.ndarray:
    """The rate-independent part of Phi, flattened: I plus the -I dt bias coupling."""
    out = np.eye(6)
    out[:3, 3:] = -dt * _I3
    out.setflags(write=False)
    return out.ravel()


def _mekf_omega_table() -> np.ndarray:
    """The rate-dependent part of Phi is -[omega x] dt in the attitude block,
    linear in omega: row j is that 6x6 matrix for omega = e_j, flattened."""
    table = np.zeros((3, 6, 6))
    for j in range(3):
        table[j, :3, :3] = -cross_matrix(_I3[j])
    return table.reshape(3, 36)


_MEKF_OMEGA_TABLE = _mekf_omega_table()


def mekf_predict(s: MekfState, omegas, dt: float, noise: NoiseParams) -> MekfState:
    """Propagate the MEKF reference and error covariance across a block of gyro intervals.

    ``omegas`` holds one gyro rate per step, shape ``(n, 3)``; a single
    ``(3,)`` rate is one step. The reference advances by the exact kinematic
    steps (:func:`integrate_quat`). The covariance transition of each step
    is the first-order discretization ``Phi_k = I + F_k dt`` of the
    continuous error dynamics, with F_k coupling the attitude error to
    itself through -[omega_k x] and to the bias error through -I; the
    process noise G Q G^T carries the standard white-noise/random-walk
    discretization and is the same every step. The pairs are composed over
    the block by :func:`compose_transitions` and applied to P once.
    """
    w = _rate_block(omegas, dt)
    phi = (_mekf_phi_const(dt) + dt * w @ _MEKF_OMEGA_TABLE).reshape(-1, 6, 6)
    gqg = _mekf_gqg(noise.sigma_v, noise.sigma_u, dt)[None].repeat(w.shape[0], axis=0)
    phi, qsum = compose_transitions(phi, gqg)
    return MekfState(
        q_ref=integrate_quat(s.q_ref, w, dt),
        dx=s.dx.copy(),
        p=symmetrize(phi @ s.p @ phi.T + qsum),
    )


def mekf_update(s: MekfState, q_meas, r3) -> MekfState:
    """Fuse a measured quaternion multiplicatively, then reset.

    The innovation is the Rodrigues-parameter coordinate of the error
    quaternion ``q_meas * q_ref^-1`` (sign-aligned so the scalar part is
    positive). The a-posteriori error state folds into the reference via
    ``normalize((dx_att; 2)) * q_ref`` and the error state resets to zero.
    Raises GibbsSingularity for a 180-degree innovation and
    NumericalFailure when the innovation covariance is singular.
    """
    q_meas = np.asarray(q_meas, dtype=float)
    q_err = quat_mul(q_meas, quat_conjugate(s.q_ref))
    if q_err[3] < 0.0:
        q_err = -q_err
    if q_err[3] <= 1e-9:
        raise GibbsSingularity("innovation rotation is at 180 degrees")
    a_g = 2.0 * q_err[:3] / q_err[3]
    innov = s.p[:3, :3] + np.asarray(r3, dtype=float)
    # K = P H^T S^-1 is 6x3; H = [I 0] picks the attitude columns of P
    k = solve(innov, s.p[:3, :]).T
    dx = k @ a_g
    dq = quat_normalize(np.array([dx[0], dx[1], dx[2], 2.0]))
    q_ref = quat_normalize(quat_mul(dq, s.q_ref))
    p_new = symmetrize(s.p - k @ s.p[:3, :])
    return MekfState(q_ref=q_ref, dx=np.zeros(6), p=p_new)
