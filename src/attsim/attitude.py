"""Quaternion and rotation utilities.

Conventions used everywhere in this package:

* Quaternions are length-4 float arrays stored vector-first, scalar-last:
  ``q = [qx, qy, qz, qw]``. The identity is ``[0, 0, 0, 1]``.
* ``quat_mul`` is the Hamilton product (i*j = k).
* ``quat_to_matrix`` returns the frame-transformation ("passive") matrix
  A(q) mapping inertial/reference coordinates into body coordinates, so
  observation models read ``b = A(q) @ r``. Numerically
  ``A(q) @ v == vec(conj(q) * (v; 0) * q)``.
* The kinematic rate is ``q_dot = 0.5 * (omega; 0) * q`` and the exact
  one-step integrator composes the axis-angle increment on the left.
  ``integrate_quat`` also takes a block of rates, shape ``(n, 3)``: the n
  increments are built in one vectorized step and multiplied by a tree (a
  Hillis-Steele prefix scan) instead of n sequential products, which is how
  the filters cross a block of gyro steps. A single ``(3,)`` rate, or a
  block of one, takes the scalar one-step path, so step-by-step propagation
  (the truth, and the filters on one-step blocks) is unchanged bit for bit.

File formats that print quaternions for humans emit the scalar first;
only the in-memory layout is vector-first.
"""

import math

import numpy as np

from .errors import DegenerateQuaternion, GibbsSingularity, InvalidInput

_NORM_EPS = 1e-12
_GIBBS_EPS = 1e-9
_UNIT_TOL = 1e-6
_TINY = np.finfo(float).tiny


def identity_quat() -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, 1.0])


def axis_angle_quat(axis, angle: float) -> np.ndarray:
    """Unit quaternion for a rotation of ``angle`` radians about ``axis``."""
    x, y, z = np.asarray(axis, dtype=float).tolist()
    n = math.sqrt(x * x + y * y + z * z)
    if n < _NORM_EPS:
        raise InvalidInput("rotation axis must be nonzero")
    half = 0.5 * angle
    s = math.sin(half) / n
    return np.array([x * s, y * s, z * s, math.cos(half)])


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a * b (works on non-unit quaternions)."""
    ax, ay, az, aw = a
    bx, by, bz, bw = b
    return np.array(
        [
            aw * bx + bw * ax + ay * bz - az * by,
            aw * by + bw * ay + az * bx - ax * bz,
            aw * bz + bw * az + ax * by - ay * bx,
            aw * bw - ax * bx - ay * by - az * bz,
        ]
    )


# the matrix L(a) with L(a) @ b == quat_mul(a, b) is linear in a: row i of
# the table is L(e_i) flattened, so L(a) = (a @ table).reshape(4, 4)
_QUAT_LEFT_TABLE = np.array(
    [np.array([quat_mul(e, f) for f in np.eye(4)]).T.ravel() for e in np.eye(4)]
)


def quat_norm(q) -> float:
    x, y, z, w = q
    return math.sqrt(x * x + y * y + z * z + w * w)


def quat_normalize(q) -> np.ndarray:
    """Unit quaternion with the same direction. Never flips sign."""
    q = np.asarray(q, dtype=float)
    n = quat_norm(q)
    if n <= _NORM_EPS:
        raise DegenerateQuaternion(f"cannot normalize quaternion with norm {n:.3e}")
    return q / n


def quat_conjugate(q) -> np.ndarray:
    """Conjugate (inverse, for unit quaternions)."""
    return np.array([-q[0], -q[1], -q[2], q[3]])


def quat_to_gibbs(q) -> np.ndarray:
    """Gibbs vector g = q_vec / q_scalar; undefined at 180 degrees."""
    q = np.asarray(q, dtype=float)
    w = float(q[3])
    if abs(w) <= _GIBBS_EPS:
        raise GibbsSingularity("scalar part is zero: rotation is at 180 degrees")
    return q[:3] / w


def integrate_quat(q, omega, dt: float) -> np.ndarray:
    """Exact attitude propagation for piecewise-constant rates over steps of ``dt``.

    ``omega`` is one rate (shape ``(3,)``, one step) or a block of rates
    (shape ``(n, 3)``, n steps, row k held over step k). Each step composes
    the axis-angle increment exp(0.5 * (omega*dt; 0)) on the left, which is
    the closed-form solution of the kinematic equation; a block composes its
    n increments by a tree product (a prefix scan) and returns the attitude
    after the last step. The map is linear in ``q`` and preserves unit norm
    to machine precision, so no renormalization is applied.
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim == 2:
        if w.shape[0] > 1:
            return integrate_quat_path(q, w, dt)[-1]
        w = w[0]
    wx, wy, wz = float(w[0]), float(w[1]), float(w[2])
    wnorm = math.sqrt(wx * wx + wy * wy + wz * wz)
    if wnorm == 0.0:
        return np.asarray(q, dtype=float).copy()
    half = 0.5 * wnorm * dt
    s = math.sin(half) / wnorm
    dq = np.array([wx * s, wy * s, wz * s, math.cos(half)])
    return quat_mul(dq, q)


def integrate_quat_path(q, omegas, dt: float) -> np.ndarray:
    """Attitudes after each step of a block of rates ``omegas`` (shape ``(n, 3)``).

    Row k is :func:`integrate_quat` of ``q`` over the first k + 1 rows, taken
    from one prefix product of the step increments instead of k + 1 calls.
    A block of one step takes the scalar one-step path.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.shape[0] == 1:
        return integrate_quat(q, omegas[0], dt)[None, :]
    prefix = _quat_prefix_products(_quat_increments(omegas, dt))
    return _quat_mul_rows(prefix, np.asarray(q, dtype=float))


def _quat_increments(omegas: np.ndarray, dt: float) -> np.ndarray:
    """Step increments exp(0.5 * (omega*dt; 0)), one row per row of ``omegas``.

    ``np.sin`` and ``np.cos`` matched ``math.sin`` and ``math.cos`` bit for
    bit on 1e6 inputs (numpy 2.4, an AVX-512 x86-64 host), but numpy does
    not promise it; ``np.log`` did not match ``math.log`` there, which is
    why ``numerics.RngStream.gaussian_vec`` takes ``math.log``.
    """
    wnorm = np.sqrt((omegas * omegas).sum(axis=1))
    half = (0.5 * dt) * wnorm
    # a zero rate gives sin(0) / tiny = 0, the identity increment
    s = np.sin(half) / np.maximum(wnorm, _TINY)
    dq = np.empty((omegas.shape[0], 4))
    dq[:, :3] = omegas * s[:, None]
    dq[:, 3] = np.cos(half)
    return dq


def _quat_prefix_products(dq: np.ndarray) -> np.ndarray:
    """Inclusive prefix products ``dq[k] * ... * dq[1] * dq[0]`` of a stack of quaternions.

    A Hillis-Steele scan: ceil(log2 n) levels, each one batched product, in
    place of n - 1 sequential products.
    """
    out = dq
    span = 1
    while span < out.shape[0]:
        out = np.concatenate((out[:span], _quat_mul_rows(out[span:], out[:-span])))
        span *= 2
    return out


def _quat_mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton products ``a[k] * b[k]`` of an (n, 4) stack ``a`` and
    an (n, 4) stack or a single quaternion ``b``."""
    left = (a @ _QUAT_LEFT_TABLE).reshape(-1, 4, 4)
    return (left @ b[..., None])[:, :, 0]


def quat_to_matrix(q) -> np.ndarray:
    """Passive rotation matrix A(q): inertial coordinates -> body coordinates."""
    q = np.asarray(q, dtype=float)
    if abs(quat_norm(q) - 1.0) > _UNIT_TOL:
        raise InvalidInput("quaternion must be unit norm")
    x, y, z, w = q
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2.0 * (x * y + w * z), 2.0 * (x * z - w * y)],
            [2.0 * (x * y - w * z), w * w - x * x + y * y - z * z, 2.0 * (y * z + w * x)],
            [2.0 * (x * z + w * y), 2.0 * (y * z - w * x), w * w - x * x - y * y + z * z],
        ]
    )


def error_angle(a, b) -> float:
    """Rotation angle in [0, pi] between two unit quaternions, sign-insensitive.

    Equals 2*acos(|<a, b>|) but is computed through the relative quaternion
    with atan2, which stays accurate near zero where acos loses half the
    significant digits.
    """
    qe = quat_mul(a, quat_conjugate(b))
    vec = math.sqrt(float(qe[0] * qe[0] + qe[1] * qe[1] + qe[2] * qe[2]))
    return 2.0 * math.atan2(vec, abs(float(qe[3])))


def omega_matrix(omega) -> np.ndarray:
    """4x4 matrix Omega with Omega @ q == (omega; 0) * q."""
    wx, wy, wz = omega
    return np.array(
        [
            [0.0, -wz, wy, wx],
            [wz, 0.0, -wx, wy],
            [-wy, wx, 0.0, wz],
            [-wx, -wy, -wz, 0.0],
        ]
    )


def cross_matrix(v) -> np.ndarray:
    """Skew-symmetric matrix [v x] with [v x] @ u == v x u."""
    vx, vy, vz = v
    return np.array(
        [
            [0.0, -vz, vy],
            [vz, 0.0, -vx],
            [-vy, vx, 0.0],
        ]
    )
