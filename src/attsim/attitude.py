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
  step integrator composes the axis-angle increment on the left.
  ``integrate_quat`` takes a stack of consecutive blocks of rates, shape
  ``(B, L, 3)``: the increments are built in one vectorized step and each
  block's product is reduced by a pairwise tree (:func:`block_increments`)
  instead of L sequential products. A stack's short blocks are padded with
  zero rates, whose increment is the identity, and the attitude then
  crosses the blocks one product each. The tree multiplies with the
  expressions of ``quat_mul``, elementwise, so its rounding does not depend
  on the BLAS kernel. The filters take the same block products of the gyro
  rates (see :mod:`attsim.filters`), and their covariance transitions are
  the matrices of those rotations: :func:`quat_left_matrix` for the AEKF
  and the transpose of :func:`quat_to_matrix` for the MEKF, of a block's
  product or of the product of a run of blocks, which :func:`quat_path`
  from the identity gives.

The kernels the sequential estimate loop calls per block or per update
(``quat_path``, ``quat_mul`` and the block-by-block crossing of
``integrate_quat``, which is a ``quat_path``)
read an ``ndarray`` operand as Python floats (``tolist()``) and return
arrays; the filter updates call the float expressions behind them
(``_hamilton``, ``_unit``, ``_gibbs``) directly on their components.
Indexing an array yields numpy float64
scalars, whose arithmetic costs about ten times as much per operation;
both are IEEE double operations, correctly rounded, so the same expressions
in the same order give the same bits. ``error_angle`` takes ``(k, 4)``
stacks, a pair as a stack of one: the relative quaternions and norms are
the same expressions elementwise, and ``math.atan2`` is taken row by row
(numpy does not promise that ``np.arctan2`` matches it), so each row equals
the pair alone.

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


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a * b (works on non-unit quaternions)."""
    return np.array(_hamilton(*_components(a), *_components(b)))


def _components(q):
    """The four components of ``q``, as Python floats if ``q`` is an ``ndarray``.

    Unpacking an array gives numpy float64 scalars, whose arithmetic rounds
    the same but costs about ten times as much.
    """
    return q.tolist() if isinstance(q, np.ndarray) else q


def _hamilton(ax, ay, az, aw, bx, by, bz, bw):
    """Components of the Hamilton product of (ax, ay, az, aw) and (bx, by, bz, bw).

    The same expressions on floats or elementwise on arrays, so a stack of
    products rounds as the products one at a time do.
    """
    return (
        aw * bx + bw * ax + ay * bz - az * by,
        aw * by + bw * ay + az * bx - ax * bz,
        aw * bz + bw * az + ax * by - ay * bx,
        aw * bw - ax * bx - ay * by - az * bz,
    )


# the matrix L(a) with L(a) @ b == quat_mul(a, b) is linear in a: row i of
# the table is L(e_i) flattened, so L(a) = (a @ table).reshape(4, 4)
_QUAT_LEFT_TABLE = np.array(
    [np.array([quat_mul(e, f) for f in np.eye(4)]).T.ravel() for e in np.eye(4)]
)


def quat_left_matrix(a) -> np.ndarray:
    """The matrix L(a) with ``L(a) @ b == quat_mul(a, b)``.

    ``a`` is one quaternion ``(4,)`` (returns ``(4, 4)``) or a stack
    ``(..., 4)`` (returns ``(..., 4, 4)``). Each entry is one component of
    ``a`` or its negative: each output of the table product sums one term
    with a +-1 coefficient and zeros, so it is exact whatever the BLAS kernel.
    """
    a = np.asarray(a, dtype=float)
    return (a @ _QUAT_LEFT_TABLE).reshape(a.shape[:-1] + (4, 4))


def _unit(x, y, z, w):
    """Components of the unit quaternion along (x, y, z, w), on floats; never flips sign."""
    n = math.sqrt(x * x + y * y + z * z + w * w)
    if n <= _NORM_EPS:
        raise DegenerateQuaternion(f"cannot normalize quaternion with norm {n:.3e}")
    return x / n, y / n, z / n, w / n


def quat_path(q, increments, normalize: bool = False) -> np.ndarray:
    """Attitudes after each of a sequence of left products ``q <- m * q``.

    ``increments`` is a sequence of k >= 1 quaternions (4-float sequences
    or arrays), applied in order; with ``normalize`` each product is
    renormalized. Returns ``(k, 4)``. The recursion runs on Python floats
    with the expressions of :func:`quat_mul` and of the normalization
    :func:`_unit`, so row i is bit for bit what i + 1 calls of those give.
    """
    out = []
    q = _components(q)
    for m in increments:
        q = _hamilton(*m, *q)
        if normalize:
            q = _unit(*q)
        out.append(q)
    return np.array(out)


def _gibbs(x, y, z, w):
    """Components of the Gibbs vector q_vec / q_scalar of (x, y, z, w), on floats; undefined at 180 degrees."""
    if abs(w) <= _GIBBS_EPS:
        raise GibbsSingularity("scalar part is zero: rotation is at 180 degrees")
    return x / w, y / w, z / w


def integrate_quat(q, omegas, dt: float) -> np.ndarray:
    """Exact attitude propagation across a stack of blocks of piecewise-constant rates.

    ``omegas`` has shape ``(B, L, 3)``: B consecutive blocks of L steps of
    ``dt``, row k of a block held over its step k, a short block padded with
    zero rates. Each step composes the axis-angle increment
    exp(0.5 * (omega*dt; 0)) on the left, which is the closed-form solution
    of the kinematic equation. Returns the attitude after each block,
    ``(B, 4)``: each block's increments are reduced by
    :func:`block_increments` and applied by one product. The map is linear
    in ``q`` and preserves unit norm to machine precision, so no
    renormalization is applied.
    """
    return quat_path(q, block_increments(omegas, dt).tolist())


def block_increments(omegas, dt: float) -> np.ndarray:
    """Product of each block's step increments, for a stack of blocks of rates.

    ``omegas`` has shape ``(B, L, 3)``, one block per row; a block shorter
    than ``L`` is padded with zero rates. Returns ``(B, 4)``: row b is
    ``dq[L-1] * ... * dq[1] * dq[0]`` of block b, so that
    ``quat_mul(row, q)`` carries ``q`` across the block. The product is a
    pairwise tree of ceil(log2 L) batched levels: each level multiplies
    neighbours, the later on the left, with the :func:`quat_mul`
    expressions on ``(B, n)`` component arrays, and an odd last element
    passes to the next level unchanged. The increment of a zero rate is
    exactly the identity, and a pair at level l joins the elements with the
    same ``i // 2**l`` whatever ``L`` is, so a block's product does not
    depend on how far it is padded.
    """
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 3 or 0 in w.shape or w.shape[2] != 3:
        raise InvalidInput("gyro rates must be a nonempty (blocks, steps, 3) stack")
    dq = _quat_increments(w, dt)
    while (n := dq[0].shape[1]) > 1:
        even = n // 2 * 2
        prod = _hamilton(*(c[:, 1:even:2] for c in dq), *(c[:, 0:even:2] for c in dq))
        if even < n:
            prod = [np.concatenate((p, c[:, even:]), axis=1) for p, c in zip(prod, dq)]
        dq = prod
    return np.stack([c[:, 0] for c in dq], axis=-1)


def _quat_increments(omegas: np.ndarray, dt: float):
    """Components (x, y, z, w) of the step increments exp(0.5 * (omega*dt; 0)) of ``omegas`` (..., 3).

    Each component has the shape of ``omegas`` without its last axis.
    """
    wnorm = np.sqrt((omegas * omegas).sum(axis=-1))
    half = (0.5 * dt) * wnorm
    # a zero rate gives sin(0) / tiny = 0, the identity increment
    s = np.sin(half) / np.maximum(wnorm, _TINY)
    return omegas[..., 0] * s, omegas[..., 1] * s, omegas[..., 2] * s, np.cos(half)


def quat_to_matrix(q) -> np.ndarray:
    """Passive rotation matrix A(q): inertial coordinates -> body coordinates.

    ``q`` is one quaternion ``(4,)`` (returns ``(3, 3)``) or a stack
    ``(k, 4)`` (returns a C-contiguous ``(k, 3, 3)``); every entry is the
    same elementwise expression either way.
    """
    q = np.asarray(q, dtype=float)
    x, y, z, w = q.T
    # each product is taken once; the sums are those of startracker.row_norms
    # and of the entries written out, in the same order
    xx, yy, zz, ww = x * x, y * y, z * z, w * w
    if np.any(np.abs(np.sqrt(xx + yy + zz + ww) - 1.0) > _UNIT_TOL):
        raise InvalidInput("quaternion must be unit norm")
    xy, xz, yz, wx, wy, wz = x * y, x * z, y * z, w * x, w * y, w * z
    a = np.array(
        [
            ww + xx - yy - zz, 2.0 * (xy + wz), 2.0 * (xz - wy),
            2.0 * (xy - wz), ww - xx + yy - zz, 2.0 * (yz + wx),
            2.0 * (xz + wy), 2.0 * (yz - wx), ww - xx - yy + zz,
        ]
    )
    return a.T.reshape(q.shape[:-1] + (3, 3))


def error_angle(a, b):
    """Rotation angle in [0, pi] between two unit quaternions, sign-insensitive.

    Equals 2*acos(|<a, b>|) but is computed through the relative quaternion
    with atan2, which stays accurate near zero where acos loses half the
    significant digits.

    ``a`` and ``b`` are two quaternions (returns a float) or two ``(k, 4)``
    stacks (returns the ``(k,)`` angles of their rows). A pair is a stack
    of one. The relative quaternions and their vector norms are taken
    elementwise and ``math.atan2`` row by row, so each angle is bit for bit
    the one its pair alone gives.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    bx, by, bz, bw = b.reshape(-1, 4).T
    ex, ey, ez, ew = _hamilton(*a.reshape(-1, 4).T, -bx, -by, -bz, bw)
    vec = np.sqrt(ex * ex + ey * ey + ez * ez)
    angles = 2.0 * np.fromiter(map(math.atan2, vec.tolist(), np.abs(ew).tolist()), float, vec.size)
    return float(angles[0]) if a.ndim == 1 and b.ndim == 1 else angles
