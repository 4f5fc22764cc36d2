"""The two recursive attitude estimators under comparison.

Additive EKF (AEKF)
    A :class:`FilterState` holds the raw quaternion and a 4x4 covariance.
    Prediction propagates the quaternion through the exact kinematic steps
    and renormalizes it. The map ``q <- M q`` of a block's increment M is
    linear in q, and its matrix, the left Hamilton-product matrix L(M), is
    the covariance transition (:func:`aekf_transitions`).
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
    Each filter has one predict, ``predict(state, r, phi, n, dt, noise)``,
    and it takes k blocks of gyro steps, each from the start of its update
    segment, the blocks between two measurements. Both filters read the
    same gyro rates, so both take the same product M of each block's exact
    quaternion step increments (:func:`attsim.attitude.block_increments`).
    Both transitions are exact and orthogonal, so a segment has a closed
    form. With ``R_j = M_j ... M_1`` the rotation from the segment start to
    the end of block j (``r``), the attitude after block j is ``R_j q0``
    and the covariance ``Phi(R_j) P Phi(R_j)^T + Q_j``, with q0 and P the
    state at the segment start; ``phi`` holds the ``Phi(R_j)``
    (:func:`aekf_transitions`, :func:`mekf_transitions` of the ``R_j``) and
    ``n`` the gyro steps ``N_j`` from the segment start to the end of each
    block. The per-step process noise ``sigma_v^2 dt I`` is isotropic, so
    an orthogonal transition leaves it as it is and ``Q_j = N_j sigma_v^2
    dt I``. The AEKF's kinematic noise ``0.25 sigma_v^2 dt (I - q q^T)`` is
    taken at the attitude after each step, and ``L`` carries ``I - q q^T``
    at one attitude to ``I - q' q'^T`` at the next, so ``Q_j = 0.25 N_j
    sigma_v^2 dt (I - q_j q_j^T)`` at the filter's attitude after block j.
    Each equals the per-step recursion up to rounding. The first-order
    transitions ``I - [omega x] dt`` and ``I + 0.5 Omega(omega) dt`` this
    replaces are not orthogonal: they inflated the covariance by up to 2.5 %
    per tracker epoch, process noise that no tuning chose. The caller plans
    the segments and their rotations (the harness once for both filters).
    No block of a segment depends on another, so a caller asks for the
    blocks it needs: the one before each update, and those it records.

    Each covariance step is the written-out kernel of the filter's size,
    :func:`attsim.numerics.covariance_step4` for the AEKF and
    :func:`attsim.numerics.covariance_step3` for the MEKF, which mirrors
    the upper triangle and makes no BLAS call. It has two carriers, picked
    by the number of blocks. One block runs it on Python floats and
    returns a list of one quaternion (4 floats) and a list of one
    covariance (n rows of n floats), as the updates take and return them,
    so a filter crosses a segment's last block, predict and update, without
    numpy (a ``FilterState`` may also hold arrays, which every kernel
    reads). A call of k > 1 blocks runs the same expressions elementwise on
    ``(k,)`` arrays, ``phi`` taken component-major as a ``(n, n, k)`` view,
    and returns ``(k, 4)`` and ``(k, n, n)`` arrays. Its blocks share one
    segment-start state or each bring their own, a stack of k, so one call
    takes recorded blocks of several segments. Every step of the kernel and
    of ``R_j q0`` is one rounded +, - or x, and the AEKF's renormalization
    one correctly rounded square root and division, so each block gets the
    bits of the float call on that block alone, and the carrier changes the
    cost, not the result.

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

from .attitude import _components, _gibbs, _hamilton, _unit, quat_left_matrix, quat_to_matrix
from .errors import InvalidInput
from .numerics import covariance_step3, covariance_step4, kalman_update3, kalman_update4

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

    Each is Python floats (4 floats; n rows of n floats) or an array. A
    predict also takes a stack of k states, one per block: ``q`` ``(k, 4)``
    and ``p`` ``(k, n, n)``.
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


def _segment(s: FilterState, r, phi, n, dt: float, noise: NoiseParams):
    """Check the inputs of a predict of k blocks; its operands in the kernel's carrier.

    ``s`` holds one segment-start state, which every block starts from, or
    one per block, ``q`` a ``(k, 4)`` and ``p`` a ``(k, n, n)`` stack. The
    blocks may come from several segments, so each step count is checked
    on its own. Returns the transitions, each block's process noise ``N_j
    sigma_v^2 dt``, the segment-start covariance and the components of
    ``R_j q0``: for one block, rows of Python floats, one float, rows of
    floats and four floats; for more, the transitions and covariances
    component-major, ``(n, n, k)`` views of the ``(k, n, n)`` stacks, and
    ``(k,)`` arrays (a shared state's floats broadcast), so each
    expression runs elementwise over the blocks.
    """
    k = len(r)
    if dt <= 0.0:
        raise InvalidInput("dt must be positive")
    if k == 0 or len(phi) != k or len(n) != k:
        raise InvalidInput("one rotation, one transition and one step count per block are needed")
    per_step = noise.sigma_v * noise.sigma_v * dt
    q, p = s.q, s.p
    stacked = isinstance(q, np.ndarray) and q.ndim == 2
    if stacked and (len(q) != k or len(p) != k):
        raise InvalidInput("one segment-start state per block is needed")
    if k == 1:
        if n[0] < 1:
            raise InvalidInput("each block must cross at least one gyro step")
        if stacked:
            q, p = q[0], p[0]
        return phi[0].tolist(), n[0] * per_step, _components(p), _hamilton(*r[0], *_components(q))
    n = np.asarray(n)
    if n.min() < 1:
        raise InvalidInput("each block must cross at least one gyro step")
    q, p = (q.T, p.transpose(1, 2, 0)) if stacked else (_components(q), _components(p))
    return phi.transpose(1, 2, 0), per_step * n, p, _hamilton(*_rotations(r).T, *q)


def _blocks(q, cov, k: int):
    """A predict's attitudes and covariances as it returns them: lists of one for one block, else ``(k, 4)`` and ``(k, n, n)``."""
    if k == 1:
        return [q], [cov]
    return np.array(q).T, np.array(cov).transpose(2, 0, 1)


def aekf_predict(s: FilterState, r, phi, n, dt: float, noise: NoiseParams):
    """The AEKF after each of k blocks, each from the start of its update segment.

    ``s`` is the state at the segment start, one shared by the blocks or
    one per block (see :func:`_segment`). ``r`` holds each block's rotation
    ``R_j`` from its segment start, ``phi`` their :func:`aekf_transitions`
    ``(k, 4, 4)`` and ``n`` the gyro steps ``N_j`` from the segment start,
    each at least 1. The attitude after block j is ``R_j q0``, renormalized
    once. The covariance is ``L(R_j) P L(R_j)^T + Q_j``, with ``Q_j =
    sigma_v^2 dt N_j I`` (flat), or ``0.25 sigma_v^2 dt N_j (I - q_j
    q_j^T)`` at the attitude ``q_j`` after the block (kinematic), from
    :func:`attsim.numerics.covariance_step4`. Returns the attitude and the
    covariance after each block: for one block, a list of one quaternion
    and a list of one covariance, on Python floats; for more, ``(k, 4)``
    and ``(k, 4, 4)`` arrays (see the module docstring).
    """
    f, var, p0, q = _segment(s, r, phi, n, dt, noise)
    x, y, z, w = q = _unit(*q)
    if noise.aekf_q_flat:
        qn = [[var, 0.0, 0.0, 0.0], [0.0, var, 0.0, 0.0], [0.0, 0.0, var, 0.0], [0.0, 0.0, 0.0, var]]
    else:
        c = 0.25 * var
        xy, xz, xw = c * -(x * y), c * -(x * z), c * -(x * w)
        yz, yw, zw = c * -(y * z), c * -(y * w), c * -(z * w)
        qn = [
            [c * (1.0 - x * x), xy, xz, xw],
            [xy, c * (1.0 - y * y), yz, yw],
            [xz, yz, c * (1.0 - z * z), zw],
            [xw, yw, zw, c * (1.0 - w * w)],
        ]
    return _blocks(q, covariance_step4(f, p0, qn), len(r))


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


def mekf_predict(s: FilterState, r, phi, n, dt: float, noise: NoiseParams):
    """The MEKF reference and error covariance after each of k blocks, each from the start of its update segment.

    ``s``, ``r``, ``phi`` and ``n`` are as for :func:`aekf_predict`, with
    ``phi`` from :func:`mekf_transitions`, ``(k, 3, 3)``. The reference
    after block j is ``R_j q0``, and the covariance ``A(R_j)^T P A(R_j) +
    sigma_v^2 dt N_j I``, from :func:`attsim.numerics.covariance_step3`.
    Returns the reference and the covariance after each block, on floats
    for one block and as ``(k, 4)`` and ``(k, 3, 3)`` arrays for more, as
    :func:`aekf_predict` does.
    """
    f, v, p0, q = _segment(s, r, phi, n, dt, noise)
    qn = [[v, 0.0, 0.0], [0.0, v, 0.0], [0.0, 0.0, v]]
    return _blocks(q, covariance_step3(f, p0, qn), len(r))


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
