"""The two recursive attitude estimators under comparison.

Additive EKF (AEKF)
    A :class:`FilterState` holds the raw quaternion and a 4x4 covariance.
    Prediction propagates the quaternion through the exact kinematic steps,
    renormalizing once per block. The map ``q <- M q`` of a block's
    increment M is linear in q, and its matrix, the left Hamilton-product
    matrix L(M), is the covariance transition (:func:`aekf_transitions`).
    The update treats the measured quaternion as a direct observation
    (H = I), adds the Kalman correction componentwise, and renormalizes the
    result by brute force.

Multiplicative EKF (MEKF)
    The reference quaternion is propagated exactly and is always unit; the
    filter estimates a 3-component attitude error with a 3x3 covariance
    (Markley 2003, "Attitude error representations for Kalman filtering").
    The error coordinate is twice the Gibbs vector of the error quaternion
    ``q_err = q_true * q^-1``, ``a = 2 * q_vec / q_scalar``, so the reset
    quaternion ``(a; 2) / sqrt(4 + |a|^2)`` inverts it exactly and a
    near-perfect measurement pulls the reference all the way onto the
    measured attitude. Truth and reference cross the same increments on the
    left, so the error conjugates as ``M q_err M^-1``: its vector part, and
    with it ``a``, rotates by ``A(M)^T`` (``A`` is
    :func:`attsim.attitude.quat_to_matrix`), which is the covariance
    transition (:func:`mekf_transitions`; Lefferts, Markley & Shuster 1982).
    To first order it is ``I + [omega x] dt``. The error is folded into the
    reference at every update, so the state holds no error estimate between
    updates. The truth gyro has no bias and the filter estimates none.

Segment predict
    Each filter has one predict, and it crosses blocks of gyro steps of an
    update segment, the blocks between two measurements: ``predict(state,
    m, phi, n, dt, noise)``. ``m`` lists the product of each block's exact
    quaternion step increments (:func:`attsim.attitude.block_increments`),
    the same for both filters since both read the same gyro rates. Both
    transitions are exact and orthogonal, so the segment has a closed form.
    With ``R_j = M_j ... M_1`` the rotation from the segment start to the
    end of block j, the covariance after block j is ``Phi(R_j) P
    Phi(R_j)^T + Q_j``, with P the covariance at the segment start; ``phi``
    holds the ``Phi(R_j)`` (:func:`aekf_transitions`,
    :func:`mekf_transitions` of the ``R_j``) and ``n`` the gyro steps
    ``N_j`` from the segment start to the end of each block. The per-step
    process noise ``sigma_v^2 dt I`` is isotropic, so an orthogonal
    transition leaves it as it is and ``Q_j = N_j sigma_v^2 dt I``. The
    AEKF's kinematic noise ``0.25 sigma_v^2 dt (I - q q^T)`` is taken at
    the attitude after each step, and ``L`` carries ``I - q q^T`` at one
    attitude to ``I - q' q'^T`` at the next, so ``Q_j = 0.25 N_j sigma_v^2
    dt (I - q_j q_j^T)`` at the filter's attitude after block j. Each
    equals the per-step recursion up to rounding. The first-order
    transitions ``I - [omega x] dt`` and ``I + 0.5 Omega(omega) dt`` this
    replaces are not orthogonal: they inflated the covariance by up to 2.5 %
    per tracker epoch, process noise that no tuning chose. The caller plans
    the segments and their rotations (the harness once for both filters);
    a segment may be crossed in parts, each predict starting from the
    attitude the part before left and the covariance at the segment start.
    The predict returns the state after every block, so a caller can
    snapshot the filter inside the segment.

Float path
    The filter state moves between the kernels on Python floats: the
    quaternion as 4 floats and the covariance as n rows of n floats, as
    the updates return them (a ``FilterState`` may also hold arrays, which
    every kernel reads). A predict of one block whose transition comes as
    rows of floats, a list of one n-by-n list, takes ``Phi P Phi^T + Q``
    from the written-out kernel of its size
    (:func:`attsim.numerics.covariance_step4` for the AEKF,
    :func:`attsim.numerics.covariance_step3` for the MEKF), which mirrors
    the upper triangle and makes no BLAS call, and returns a list of one
    quaternion and a list of one covariance. The harness hands every
    one-block segment that ends in an update this way, so the filter
    crosses it, predict and update, without numpy. Any other call takes
    the stack: ``phi`` as a ``(k, n, n)`` array, and the covariances as one
    batched ``Phi P Phi^T + Q`` through BLAS, averaged with its transpose,
    returned as ``(k, 4)`` and ``(k, n, n)`` arrays.

The AEKF update sign-aligns the measured quaternion against the current
estimate before forming a residual, and the MEKF's Gibbs innovation does
not depend on the sign, which makes both filters insensitive to the q/-q
double cover. Each update takes its gain product K y and its covariance
(I - K) P from the written-out Cholesky kernel of its size, on Python
floats (:func:`attsim.numerics.kalman_update4` for the AEKF,
:func:`attsim.numerics.kalman_update3` for the MEKF), so each filter pays
for its own dimension, and returns the quaternion as 4 floats and the
covariance as rows of floats. The kernel builds the covariance on the
upper triangle and mirrors it, so it is exactly symmetric, and no step of
an update goes through BLAS.
"""

from dataclasses import dataclass

import numpy as np

from .attitude import _components, _gibbs, _hamilton, _unit, quat_left_matrix, quat_path, quat_to_matrix
from .errors import InvalidInput
from .numerics import covariance_step3, covariance_step4, kalman_update3, kalman_update4

_I3 = np.eye(3)
_I4 = np.eye(4)


@dataclass(frozen=True)
class NoiseParams:
    """Process noise configuration.

    Args:
        sigma_v: gyro rate white-noise density [rad/s/sqrt(Hz)]; the
            MEKF attitude-error covariance grows by sigma_v^2 * dt per step.
        aekf_q_flat: when True the AEKF process noise per step is the
            flat diagonal sigma_v^2 * dt * I4 (tuning-parity fallback); when
            False it is mapped through the kinematics operator at the
            filter's unit attitude q,
            sigma_v^2 * dt * 0.25 * Xi(q) Xi(q)^T = sigma_v^2 * dt * 0.25 * (I4 - q q^T).
    """

    sigma_v: float = 0.0
    aekf_q_flat: bool = False

    def __post_init__(self):
        if self.sigma_v < 0.0:
            raise InvalidInput("noise density must be nonnegative")


@dataclass
class FilterState:
    """The AEKF's quaternion and 4x4 covariance, or the MEKF's unit reference and 3x3 error covariance.

    Each is Python floats (4 floats; n rows of n floats) or an array.
    """

    q: object
    p: object


def _rotations(m) -> np.ndarray:
    """``m`` as a validated nonempty ``(k, 4)`` stack of quaternions."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] != 4:
        raise InvalidInput("rotations must be a nonempty (k, 4) stack of quaternions")
    return m


def aekf_transitions(m) -> np.ndarray:
    """Exact AEKF covariance transition of each rotation of a ``(k, 4)`` stack.

    Row i is L(m[i]), the matrix with ``L(m[i]) @ q == quat_mul(m[i], q)``
    (:func:`attsim.attitude.quat_left_matrix`): a block with increment M
    maps the quaternion by ``q <- M q``, which is linear in q. Returns
    ``(k, 4, 4)``; each row is what the rotation alone gives, bit for bit.
    """
    return quat_left_matrix(_rotations(m))


def mekf_transitions(m) -> np.ndarray:
    """Exact MEKF covariance transition of each rotation of a ``(k, 4)`` stack.

    Row i is ``A(m[i])^T`` (:func:`attsim.attitude.quat_to_matrix`), the
    rotation of the attitude error when truth and reference both cross
    ``m[i]`` on the left. Returns ``(k, 3, 3)``; each row is what the
    rotation alone gives, bit for bit.
    """
    return quat_to_matrix(_rotations(m)).swapaxes(-1, -2)


def _segment(m, phi, n, dt: float, noise: NoiseParams) -> float:
    """Check the increments, transitions and step counts of k blocks; the process noise sigma_v^2 dt of a step."""
    k = len(m)
    if dt <= 0.0:
        raise InvalidInput("dt must be positive")
    if k == 0 or len(phi) != k or len(n) != k:
        raise InvalidInput("one transition and one step count per block are needed")
    if n[0] < 1 or (k > 1 and not all(a < b for a, b in zip(n, n[1:]))):
        raise InvalidInput("each block must cross at least one gyro step")
    return noise.sigma_v * noise.sigma_v * dt


def _propagate(p, phi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``Phi P Phi^T + Q`` of each block of a stack, averaged with its transpose, ``(k, n, n)``.

    The products go through BLAS, so their rounding depends on the kernel
    (ROADMAP item 6); the average makes each block's covariance exactly
    symmetric.
    """
    x = phi @ p @ phi.swapaxes(-1, -2) + q
    return 0.5 * (x + x.swapaxes(-1, -2))


def aekf_predict(s: FilterState, m, phi, n, dt: float, noise: NoiseParams):
    """Propagate the AEKF across k blocks of gyro steps of one update segment.

    ``s.q`` is the attitude before the blocks and ``s.p`` the covariance at
    the segment start. ``m``, ``phi`` (here :func:`aekf_transitions` of the
    ``R_j``, ``(k, 4, 4)``) and ``n`` (the ``N_j``, strictly increasing from
    1 or more) are as in the module docstring. The quaternion advances by
    each increment in turn and is renormalized once per block, since the
    exact steps preserve the norm to about 1e-16. The covariance after
    block j is ``L(R_j) P L(R_j)^T + Q_j``, with ``Q_j = sigma_v^2 dt N_j
    I`` (flat), or ``0.25 sigma_v^2 dt N_j (I - q_j q_j^T)`` at the
    attitude ``q_j`` after the block (kinematic). Returns the attitude
    ``(k, 4)`` and the covariance ``(k, 4, 4)`` after each block; with one
    block whose transition comes as rows of floats, a list of one
    quaternion and a list of one covariance, on Python floats (see the
    module docstring).
    """
    per_step = _segment(m, phi, n, dt, noise)
    if type(phi) is list and len(m) == 1:
        q = _unit(*_hamilton(*m[0], *_components(s.q)))
        var = n[0] * per_step
        if noise.aekf_q_flat:
            qn = [[var, 0.0, 0.0, 0.0], [0.0, var, 0.0, 0.0], [0.0, 0.0, var, 0.0], [0.0, 0.0, 0.0, var]]
        else:
            c = 0.25 * var
            x, y, z, w = q
            xy, xz, xw = c * -(x * y), c * -(x * z), c * -(x * w)
            yz, yw, zw = c * -(y * z), c * -(y * w), c * -(z * w)
            qn = [
                [c * (1.0 - x * x), xy, xz, xw],
                [xy, c * (1.0 - y * y), yz, yw],
                [xz, yz, c * (1.0 - z * z), zw],
                [xw, yw, zw, c * (1.0 - w * w)],
            ]
        return [q], [covariance_step4(phi[0], _components(s.p), qn)]
    path = quat_path(s.q, m, normalize=True)
    var = per_step * np.asarray(n)[:, None, None]
    if noise.aekf_q_flat:
        q = var * _I4
    else:
        q = 0.25 * var * (_I4 - path[:, :, None] * path[:, None, :])
    return path, _propagate(s.p, phi, q)


def aekf_update(s: FilterState, q_meas, r4) -> FilterState:
    """Fuse a measured quaternion with H = I and renormalize the result.

    The measurement is sign-aligned to the current estimate first, so q
    and -q measurements produce identical updates. It is negated when its
    dot product with the estimate, summed as ``x*x' + y*y' + z*z' + w*w'``,
    is negative; when the product is zero, when its first nonzero component
    in the order w, z, y, x is negative. The gain product and the
    covariance come from :func:`attsim.numerics.kalman_update4`, and the
    quaternion work is on Python floats, so no step of the update depends
    on the BLAS kernel. Raises InvalidInput when ``s.p`` or ``r4`` is not a
    finite 4x4 matrix or the residual is not finite, NumericalFailure when
    S = P + R is not positive definite, and DegenerateQuaternion, a
    NumericalFailure, when the updated quaternion is too short to
    renormalize.
    """
    mx, my, mz, mw = _components(q_meas)
    ex, ey, ez, ew = _components(s.q)
    dot = mx * ex + my * ey + mz * ez + mw * ew
    if dot < 0.0 or (dot == 0.0 and (mw, mz, my, mx) < (0.0, 0.0, 0.0, 0.0)):
        mx, my, mz, mw = -mx, -my, -mz, -mw
    (kx, ky, kz, kw), p = kalman_update4(s.p, r4, (mx - ex, my - ey, mz - ez, mw - ew))
    return FilterState(q=_unit(ex + kx, ey + ky, ez + kz, ew + kw), p=p)


def mekf_predict(s: FilterState, m, phi, n, dt: float, noise: NoiseParams):
    """Propagate the MEKF reference and error covariance across k blocks of one update segment.

    ``s``, ``m``, ``phi`` and ``n`` are as for :func:`aekf_predict`, with
    ``phi`` from :func:`mekf_transitions`, ``(k, 3, 3)``. The increments
    carry the reference exactly, and the covariance after block j is
    ``A(R_j)^T P A(R_j) + sigma_v^2 dt N_j I``. Returns the reference
    ``(k, 4)`` and the covariance ``(k, 3, 3)`` after each block, or on
    floats as :func:`aekf_predict` does.
    """
    per_step = _segment(m, phi, n, dt, noise)
    if type(phi) is list and len(m) == 1:
        q = _hamilton(*m[0], *_components(s.q))
        v = n[0] * per_step
        qn = [[v, 0.0, 0.0], [0.0, v, 0.0], [0.0, 0.0, v]]
        return [q], [covariance_step3(phi[0], _components(s.p), qn)]
    return quat_path(s.q, m), _propagate(s.p, phi, per_step * np.asarray(n)[:, None, None] * _I3)


def mekf_update(s: FilterState, q_meas, r3) -> FilterState:
    """Fuse a measured quaternion multiplicatively, then reset.

    The innovation is twice the Gibbs vector of the error quaternion
    ``q_meas * q^-1``, ``2 q_vec / q_scalar``, and H = I, so the gain is
    ``K = P (P + R)^-1``; the gain product and the covariance come from
    :func:`attsim.numerics.kalman_update3`. The a-posteriori attitude error
    ``a`` folds into the reference via ``normalize((a; 2)) * q``. All of it
    runs on Python floats. Raises GibbsSingularity, a NumericalFailure, for
    a 180-degree innovation, InvalidInput when ``s.p`` or ``r3`` is not a
    finite 3x3 matrix or the innovation is not finite, and NumericalFailure
    when the innovation covariance is not positive definite.
    """
    rx, ry, rz, rw = _components(s.q)
    gx, gy, gz = _gibbs(*_hamilton(*_components(q_meas), -rx, -ry, -rz, rw))
    (ax, ay, az), p = kalman_update3(s.p, r3, (2.0 * gx, 2.0 * gy, 2.0 * gz))
    dq = _unit(ax, ay, az, 2.0)
    return FilterState(q=_unit(*_hamilton(*dq, rx, ry, rz, rw)), p=p)
