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

Segment predict
    Each filter has one predict, and it crosses an update segment: the k
    consecutive blocks of gyro steps between two measurements,
    ``predict(state, m, transition)``. ``m`` lists the product of each
    block's exact quaternion step increments
    (:func:`attsim.attitude.block_increments`), the same for both filters
    since both read the same gyro rates. ``transition`` gives the filter's
    composed covariance transition of each block: between two measurements
    the recursion ``P <- Phi P Phi^T + Q`` is linear, and its per-step
    pairs compose associatively (:func:`compose_transitions`).
    :func:`aekf_transitions` and :func:`mekf_transitions` build the pairs
    of every block of a zero-padded ``(B, L, 3)`` stack of gyro rates in
    one vectorized step (Phi is linear in the rate) and reduce them by one
    batched tree, so a caller can build a whole chunk of blocks before it
    runs the filter. The predict advances the quaternion block by block on
    Python floats, then composes every prefix of the segment's block pairs
    by log-depth doubling (:func:`compose_prefixes`) and applies them all
    to the covariance at the segment start at once; it returns the state
    after every block, so a caller can snapshot the filter inside the
    segment. The result equals n one-step predicts up to rounding, and a
    segment of one block is exactly that block's ``symmetrize(Phi P Phi^T +
    Q)``; the caller decides where blocks and segments end (the harness
    ends a block at every tracker epoch and record instant, and a segment
    at every update or after a fixed number of blocks). The one exception
    is the AEKF's kinematic process noise, which is taken at the filter's
    own attitude and so is built for each segment from the attitudes at
    its block starts, which the predict hands to ``transition``.

The AEKF update sign-aligns the measured quaternion against the current
estimate before forming a residual, and the MEKF's Gibbs innovation does
not depend on the sign, which makes both filters insensitive to the q/-q
double cover. Covariances are re-symmetrized after every
predict (each block's) and update.
"""

from dataclasses import dataclass

import numpy as np

from .attitude import (
    cross_matrix,
    integrate_quat_path,
    omega_matrix,
    quat_conjugate,
    quat_mul,
    quat_normalize,
    quat_path,
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

    q: np.ndarray
    p: np.ndarray


def aekf_init(q0, p0) -> AekfState:
    return AekfState(q=np.asarray(q0, dtype=float).copy(), p=np.asarray(p0, dtype=float).copy())


def mekf_init(q0, p0) -> MekfState:
    return MekfState(q=np.asarray(q0, dtype=float).copy(), p=np.asarray(p0, dtype=float).copy())


# F = I + 0.5 * dt * Omega(omega) is linear in omega: row j of the table is
# Omega(e_j) flattened, so the stack of n transitions is one matrix product
_AEKF_OMEGA_TABLE = np.array([omega_matrix(e).ravel() for e in _I3])


def _rate_blocks(omegas, steps, dt: float):
    """Validated ``(B, L, 3)`` stack of gyro rates and its ``(B, L)`` mask of real steps.

    Block b holds ``steps[b]`` rates followed by zero rows up to ``L``.
    """
    if dt <= 0.0:
        raise InvalidInput("dt must be positive")
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 3 or 0 in w.shape or w.shape[2] != 3:
        raise InvalidInput("gyro rates must be a nonempty (blocks, steps, 3) stack")
    steps = np.asarray(steps)
    if steps.shape != w.shape[:1] or steps.min() < 1 or steps.max() > w.shape[1]:
        raise InvalidInput("each block must hold between 1 and L steps")
    return w, np.arange(w.shape[1]) < steps[:, None]


def _compose(phi2, q2, phi1, q1):
    """``(Phi2, Q2) o (Phi1, Q1) = (Phi2 Phi1, Phi2 Q1 Phi2^T + Q2)``, pair by pair over stacks."""
    return phi2 @ phi1, phi2 @ q1 @ phi2.swapaxes(-1, -2) + q2


def compose_transitions(phi: np.ndarray, q: np.ndarray):
    """Compose per-step pairs (Phi_k, Q_k) into one pair per block.

    ``phi`` and ``q`` have shape ``(B, L, n, n)``: B blocks, each with its
    L pairs stacked in time order; one block is a stack of one. Returns two
    ``(B, n, n)`` stacks. The covariance recursion P <- Phi P Phi^T + Q
    composes associatively (:func:`_compose`), so each
    block reduces by a tree of ceil(log2 L) batched levels: each level
    composes neighbours pairwise, and an odd last element passes to the
    next level unchanged. Applying a block's result to P once equals its L
    sequential steps up to rounding. A pair at level l joins the elements
    with the same ``i // 2**l`` whatever ``L`` is, so a block padded with
    (I, 0) pairs composes bit for bit as it does alone.
    """
    while phi.shape[1] > 1:
        even = phi.shape[1] // 2 * 2
        phi_new, q_new = _compose(phi[:, 1:even:2], q[:, 1:even:2], phi[:, 0:even:2], q[:, 0:even:2])
        if even < phi.shape[1]:
            q_new = np.concatenate((q_new, q[:, even:]), axis=1)
            phi_new = np.concatenate((phi_new, phi[:, even:]), axis=1)
        phi, q = phi_new, q_new
    return phi[:, 0], q[:, 0]


def compose_prefixes(phi: np.ndarray, q: np.ndarray):
    """Every prefix composition of a sequence of pairs (Phi_j, Q_j).

    ``phi`` and ``q`` have shape ``(k, n, n)``, the pairs in time order.
    Returns two ``(k, n, n)`` stacks whose row j is pair j composed after
    pairs j - 1, ..., 0 by the rule of :func:`compose_transitions`, so that
    applying row j to P equals the first j + 1 pairs applied one after the
    other, up to rounding. A Hillis-Steele scan: ceil(log2 k) levels, each
    composing every row with the row ``2**l`` before it in one batched
    step. One pair is its own prefix.
    """
    shift = 1
    while shift < phi.shape[0]:
        phi_new, q_new = _compose(phi[shift:], q[shift:], phi[:-shift], q[:-shift])
        phi = np.concatenate((phi[:shift], phi_new))
        q = np.concatenate((q[:shift], q_new))
        shift *= 2
    return phi, q


def _predict_covariances(p: np.ndarray, phi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The covariance after each of k block pairs ``(k, n, n)`` applied to ``p`` in turn.

    Every prefix of the pairs (:func:`compose_prefixes`) is applied to ``p``
    in one batched ``Phi P Phi^T + Q`` and symmetrized once. One pair gives
    ``symmetrize(Phi P Phi^T + Q)``, as applying it alone does.
    """
    phi, q = compose_prefixes(phi, q)
    return symmetrize(phi @ p @ phi.swapaxes(-1, -2) + q)


def aekf_transitions(omegas, steps, dt: float, noise: NoiseParams, q0=None):
    """Composed AEKF covariance transition of each block of a stack of gyro rates.

    ``omegas`` is a ``(B, L, 3)`` stack of blocks, block b holding
    ``steps[b]`` rates followed by zero rows. Each step's transition is the
    first-order ``F_k = I + 0.5 * Omega(omega_k) * dt`` of the kinematic
    equation (the identity on a zero row) and its process noise ``Q_k`` is
    zero on the padding rows. The flat ``Q_k = sigma_v^2 * dt * I`` depends
    on the rates alone. The kinematic ``Q_k = 0.25 * sigma_v^2 * dt *
    Xi(q) Xi(q)^T = 0.25 * sigma_v^2 * dt * (|q|^2 I - q q^T)`` is taken at
    the attitude q before step k, which a prefix product from ``q0``, shape
    ``(B, 4)``, the filter's attitude at each block start, supplies; the
    flat Q ignores ``q0``. The pairs are composed by
    :func:`compose_transitions`; returns two ``(B, 4, 4)`` stacks.
    """
    w, live = _rate_blocks(omegas, steps, dt)
    f = (_I4_FLAT + (0.5 * dt) * w @ _AEKF_OMEGA_TABLE).reshape(w.shape[:2] + (4, 4))
    scale = noise.sigma_v * noise.sigma_v * dt * live
    if noise.aekf_q_flat:
        qmat = scale[:, :, None, None] * _I4
    else:
        if q0 is None or np.shape(q0) != (w.shape[0], 4):
            raise InvalidInput("the kinematic Q needs the attitude at each block start, (B, 4)")
        q0 = np.asarray(q0, dtype=float)
        prior = q0[:, None, :]
        if w.shape[1] > 1:
            prior = np.concatenate((prior, integrate_quat_path(q0, w[:, :-1], dt)), axis=1)
        qmat = (0.25 * scale)[:, :, None, None] * (
            (prior * prior).sum(axis=2)[:, :, None, None] * _I4
            - prior[:, :, :, None] * prior[:, :, None, :]
        )
    return compose_transitions(f, qmat)


def aekf_predict(s: AekfState, m, transition):
    """Propagate the AEKF across one update segment of k blocks of gyro intervals.

    ``m`` lists the product of each block's quaternion step increments
    (:func:`attsim.attitude.block_increments`). The quaternion advances by
    each in turn and is renormalized once per block, since the exact steps
    preserve the norm to about 1e-16. ``transition(q0, path)`` gives the
    blocks' composed covariance transitions (:func:`aekf_transitions`) as
    two ``(k, 4, 4)`` stacks, from the attitude at the segment start and
    the ``(k, 4)`` attitudes after each block; only the kinematic Q reads
    them. Returns the attitude ``(k, 4)`` and the covariance ``(k, 4, 4)``
    after each block (see :func:`_predict_covariances`).
    """
    path = quat_path(s.q, m, normalize=True)
    return path, _predict_covariances(s.p, *transition(s.q, path))


def aekf_update(s: AekfState, q_meas, r4) -> AekfState:
    """Fuse a measured quaternion with H = I and renormalize the result.

    The measurement is sign-aligned to the current estimate first, so q
    and -q measurements produce identical updates. It is negated when its
    dot product with the estimate, summed as ``x*x' + y*y' + z*z' + w*w'``
    (not by BLAS, whose rounding depends on the CPU), is negative; when the
    product is zero, when its first nonzero component in the order w, z,
    y, x is negative. Raises NumericalFailure (from the innovation solve)
    when S = P + R is singular.
    """
    q_meas = np.asarray(q_meas, dtype=float)
    mx, my, mz, mw = q_meas.tolist()
    ex, ey, ez, ew = s.q.tolist()
    dot = mx * ex + my * ey + mz * ez + mw * ew
    if dot < 0.0 or (dot == 0.0 and (mw, mz, my, mx) < (0.0, 0.0, 0.0, 0.0)):
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


def mekf_transitions(omegas, steps, dt: float, noise: NoiseParams):
    """Composed MEKF covariance transition of each block of a stack of gyro rates.

    ``omegas`` and ``steps`` are as for :func:`aekf_transitions`. The
    transition of each step is the first-order discretization
    ``Phi_k = I - [omega_k x] dt`` of the attitude-error dynamics, and the
    process noise ``Q_k = sigma_v^2 * dt * I`` is the same every real step
    and zero on the padding rows. The pairs are composed by
    :func:`compose_transitions`; returns two ``(B, 3, 3)`` stacks.
    """
    w, live = _rate_blocks(omegas, steps, dt)
    phi = (_I3_FLAT + dt * w @ _MEKF_OMEGA_TABLE).reshape(w.shape[:2] + (3, 3))
    qmat = (noise.sigma_v * noise.sigma_v * dt * live)[:, :, None, None] * _I3
    return compose_transitions(phi, qmat)


def mekf_predict(s: MekfState, m, transition):
    """Propagate the MEKF reference and error covariance across one update segment of k blocks.

    ``m`` lists the product of each block's quaternion step increments
    (:func:`attsim.attitude.block_increments`), which carry the reference
    exactly, and ``transition(q0, path)`` gives the blocks' composed
    covariance transitions (:func:`mekf_transitions`) as two ``(k, 3, 3)``
    stacks; it is called as for :func:`aekf_predict` and the MEKF's do not
    read the attitudes. Returns the reference ``(k, 4)`` and the covariance
    ``(k, 3, 3)`` after each block.
    """
    path = quat_path(s.q, m)
    return path, _predict_covariances(s.p, *transition(s.q, path))


def mekf_update(s: MekfState, q_meas, r3) -> MekfState:
    """Fuse a measured quaternion multiplicatively, then reset.

    The innovation is twice the Gibbs vector of the error quaternion
    ``q_meas * q^-1`` (:func:`attsim.attitude.quat_to_gibbs`), and
    H = I, so the gain is ``K = P (P + R)^-1``. The a-posteriori attitude
    error ``a`` folds into the reference via ``normalize((a; 2)) * q``.
    Raises GibbsSingularity for a 180-degree innovation and
    NumericalFailure when the innovation covariance is singular.
    """
    q_err = quat_mul(np.asarray(q_meas, dtype=float), quat_conjugate(s.q))
    a_g = 2.0 * quat_to_gibbs(q_err)
    # K = P S^-1; with S symmetric this is solve(S, P)^T
    k = solve(s.p + np.asarray(r3, dtype=float), s.p).T
    a = k @ a_g
    dq = quat_normalize([*a.tolist(), 2.0])
    q = quat_normalize(quat_mul(dq, s.q))
    return MekfState(q=q, p=symmetrize(s.p - k @ s.p))
