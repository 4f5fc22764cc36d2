"""Scalar reference implementations of vectorized paths of the package.

``attsim.startracker.observe`` and the q-method in ``attsim.wahba`` work on
whole ``(m, 3)`` arrays. The per-star functions here are the loops they
replaced, one star at a time, kept as the references the array path is
bounded against. They normalize with 1-D ``v @ v`` dot products and rotate
with matrix-vector products, as the loops did, so they round differently
from the array path in the last bits.

``observe`` takes a whole stack of epochs in one pass.
:func:`observe_one_epoch` is the one-epoch array pass it replaced, the
reference each epoch of a stack must equal bit for bit.

:func:`profile_and_k` is not a reference: it takes one set's attitude
profile matrix B, total weight and Davenport matrix K from the solver's
own stacked route, for the tests that check B and K themselves.

``attsim.numerics.jacobi_eigen_sym`` runs its cyclic Jacobi sweep on a
stack of matrices. :func:`jacobi_eigen_one` is the same sweep written for
one matrix with scalar arithmetic, the reference each member of a stack
must equal bit for bit.

``attsim.numerics.RngStream.gaussian_vec`` draws its deviates in blocks,
mixing a whole pass of counters at once, testing every candidate against
Leva's bounds as array operations and taking the logarithm on the
candidates between the bounds only, and
``attsim.startracker.generate_catalog`` draws all its triples at once.
:func:`gaussian_vec_per_draw` is SplitMix64 and Leva's ratio of uniforms
written out on Python ints and floats, one candidate at a time: candidate
k takes outputs 2k - 1 and 2k, and the logarithm is taken only between
the two bounds, as the scalar definition takes it.
:func:`generate_catalog_per_star` draws one triple per star. Each is the
reference its block counterpart must equal bit for bit, in values and in
the counter it leaves.

``attsim.filters`` propagates each filter's covariance across a block, or
an update segment of blocks, in closed form: the exact transition of the
rotation from the segment start, built from the block increments, and the
process noise of all the steps crossed. :func:`predict_per_step` is the
recursion that closed form sums, one gyro step at a time: the exact
one-step transition built from the rate by Rodrigues' formula
(:func:`step_transitions`), with :func:`omega_matrix` and
:func:`cross_matrix`, and the one-step process noise, the AEKF's kinematic
noise taken at the attitude after the step. :func:`estimate_per_step` runs
``attsim.harness._estimate``'s pass with it, step by step, on the segment
plan of ``attsim.harness._segments``; they are the references the block
and segment forms are bounded against.

``attsim.harness._plan_chunks`` finds the first step reaching the next
tracker epoch once per epoch and builds each chunk's block facts and its
windows as lists. :func:`plan_chunks_per_block` is the per-block planning
loop it replaced, with that step found anew for every block by a linear
scan and the windows cut after the chunk is planned, the reference the
planner must equal block for block, chunk for chunk and window for window.

``attsim.attitude`` reads its operands as Python floats.
:func:`quat_mul_numpy` and :func:`error_angle_numpy` are the forms it
replaced, on numpy scalars; the float kernels must equal them bit for bit.

``attsim.numerics.kalman_update4`` and ``kalman_update3`` take each filter
update's gain product and covariance from the Cholesky factor of the
innovation covariance. :func:`kalman_update_by_solve` is the route they
replaced, K from :func:`solve`, a Gauss-Jordan elimination with partial
pivoting on Python floats, then ``K y`` and ``symmetrize((I - K) P)``
(:func:`symmetrize`); the kernels are bounded against it.
:func:`solve_numpy_rows` is the same elimination on numpy rows, which
:func:`solve` must equal bit for bit. ``covariance_step4`` and
``covariance_step3`` write out ``Phi P Phi^T + Q`` on Python floats, or
elementwise over blocks; :func:`covariance_step_by_blas` is the BLAS route
they replaced, the products through ``@`` and the sum averaged with its
transpose, which they are bounded against.

:func:`quat_kinematics` is the right-hand side of the kinematic equation,
which the RK4 reference for ``attsim.attitude.integrate_quat`` integrates,
and :func:`gibbs_to_quat` is the inverse ``attsim.attitude._gibbs``
must round-trip through. :func:`axis_angle_quat` builds the rotations the
tests feed to the package.
"""

import math

import numpy as np

import attsim.harness as harness
import attsim.numerics as numerics
import attsim.wahba as wahba
from attsim.attitude import integrate_quat, quat_mul, quat_to_matrix
from attsim.errors import InvalidInput, NumericalFailure, UnderdeterminedAttitude
from attsim.filters import FilterState
from attsim.numerics import jacobi_eigen_sym
from attsim.startracker import ObservationSet, StarCatalog, is_visible, row_norms

from conftest import quat_normalize


def observe_per_star(q_true, catalog, cams, sigma_star, rng):
    """Matched ``(b, r)`` pairs of one epoch, visiting every catalog star of every head.

    A star is visible to a head when ``b = A(q) r`` has a dot product with
    the boresight above the cosine of the half angle. Noise is drawn with
    one ``rng.gaussian`` call per component, three per visible star, head
    by head and star by star in catalog order.
    """
    a_ib = quat_to_matrix(q_true)
    out = []
    for cam in cams:
        cos_fov = math.cos(cam.fov_half_angle)
        for r in catalog.stars:
            b = a_ib @ r
            if not float(b @ cam.boresight) > cos_fov:
                continue
            if sigma_star > 0.0:
                b = b + np.array([rng.gaussian(sigma_star) for _ in range(3)])
                b = b / math.sqrt(float(b @ b))
            out.append((b, r.copy()))
    return out


def observe_one_epoch(q_true, catalog, cams, sigma_star, rng):
    """One epoch's ``ObservationSet`` from one cone test per head and one noise draw for the epoch.

    The array path ``attsim.startracker.observe`` had for one attitude
    before it took a stack of epochs; the stacked path must equal it bit
    for bit, epoch after epoch, in rows, order and the counter it leaves.
    """
    body = catalog.stars @ quat_to_matrix(q_true).T
    bs, rs = [], []
    for cam in cams:
        visible = is_visible(body, cam)
        bs.append(body[visible])
        rs.append(catalog.stars[visible])
    b = np.concatenate(bs)
    if sigma_star > 0.0:
        b += rng.gaussian_vec(sigma_star, b.size).reshape(b.shape)
        b /= row_norms(b)[:, None]
    return ObservationSet(b=b, r=np.concatenate(rs))


def davenport_per_star(b_rows, r_rows, weights):
    """q-method over matched pairs, accumulated one pair at a time.

    Returns ``(q, lambda_max, loss)`` and raises what
    ``attsim.wahba.davenport_solve`` raises.
    """
    pairs = list(zip(b_rows, r_rows, weights))
    if len(pairs) < 2:
        raise UnderdeterminedAttitude("at least two observations are required")
    prof = np.zeros((3, 3))
    total = 0.0
    for b, r, w in pairs:
        if w <= 0.0:
            raise InvalidInput("observation weights must be positive")
        prof += w * np.outer(b, r)
        total += w
    z_skew = np.array([prof[1, 2] - prof[2, 1], prof[2, 0] - prof[0, 2], prof[0, 1] - prof[1, 0]])
    tr = float(np.trace(prof))
    k = np.empty((4, 4))
    k[:3, :3] = prof + prof.T - tr * np.eye(3)
    k[:3, 3] = z_skew
    k[3, :3] = z_skew
    k[3, 3] = tr
    evals, evecs = jacobi_eigen_sym(k)
    if evals[0] - evals[1] < 1e-9 * total:
        raise UnderdeterminedAttitude("degenerate eigenvalue gap")
    q = evecs[0].copy()
    if q[3] < 0.0:
        q = -q
    a = quat_to_matrix(q)
    loss = 0.0
    for b, r, w in pairs:
        d = b - a @ r
        loss += w * float(d @ d)
    return q, float(evals[0]), loss


def profile_and_k(obs):
    """``(B, total weight, K)`` of one ``ObservationSet``, as ``attsim.wahba.davenport_solve`` forms them."""
    prof, total = wahba._star_sums(obs.b[None], obs.r[None], obs.weights[None])
    return prof[0], float(total[0]), wahba.davenport_matrices(prof)[0]


def jacobi_eigen_one(m):
    """Cyclic Jacobi eigensolver for one symmetric matrix, one rotation at a time.

    Returns what ``jacobi_eigen_sym`` returns for one matrix: eigenvalues in
    descending order and the eigenvectors as rows. It does not scale the
    matrix by a power of two first, as ``jacobi_eigen_sym`` does, which
    changes no bit of the result unless a sum of squares would underflow
    or overflow. Reads the sweep limit from ``attsim.numerics`` at call
    time.
    """
    a = numerics._symmetric_stack(np.asarray(m)[None])[0][0]
    n = a.shape[0]
    v = np.eye(n)
    scale = math.sqrt(float((a * a).sum()))
    if scale == 0.0:
        return np.zeros(n), v.copy()
    tol = numerics._JACOBI_REL_TOL * scale

    def off_norm():
        return math.sqrt(2.0 * sum(a[p, q] * a[p, q] for p in range(n - 1) for q in range(p + 1, n)))

    converged = False
    for _ in range(numerics._JACOBI_MAX_SWEEPS):
        if off_norm() <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * colq
                a[:, q] = s * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - s * rowq
                a[q, :] = s * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if not converged and off_norm() > tol:
        raise NumericalFailure(f"Jacobi sweep limit reached (off-diagonal {off_norm():.3e})")
    evals = np.diag(a).copy()
    order = np.argsort(-evals, kind="stable")
    return evals[order], v[:, order].T.copy()


_U64 = (1 << 64) - 1


def gaussian_vec_per_draw(rng, sigma, n):
    """``n`` samples from N(0, sigma^2) off ``rng``, one SplitMix64 output and one Leva candidate at a time.

    Output k after counter x is mix(x + k gamma), mod 2^64; a candidate
    takes two outputs as ``u = 1 - U1`` and ``v = 1.7156 (U2 - 0.5)`` and
    is kept by Leva's quadratic bounds and, between them, the exact test
    ``v^2 <= -4 u^2 log u``; its deviate is ``sigma (v / u)``. Gamma, the
    mix's multipliers and Leva's constants are written here, not read from
    the package. Reads and leaves ``rng._state`` as ``n`` calls of
    ``rng.gaussian(sigma)`` would.
    """
    if sigma < 0.0:
        raise InvalidInput("sigma must be nonnegative")
    if sigma == 0.0 or n <= 0:
        return np.zeros(max(n, 0))
    out = [0.0] * n
    x = rng._state
    gamma, mult_a, mult_b = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    u53 = 1.0 / (1 << 53)
    s, t, a, b, r1, r2 = 0.449871, -0.386595, 0.19600, 0.25472, 0.27597, 0.27846
    log = math.log
    for i in range(n):
        while True:
            x = (x + gamma) & _U64
            z = ((x ^ (x >> 30)) * mult_a) & _U64
            z = ((z ^ (z >> 27)) * mult_b) & _U64
            u = 1.0 - ((z ^ (z >> 31)) >> 11) * u53
            x = (x + gamma) & _U64
            z = ((x ^ (x >> 30)) * mult_a) & _U64
            z = ((z ^ (z >> 27)) * mult_b) & _U64
            v = 1.7156 * (((z ^ (z >> 31)) >> 11) * u53 - 0.5)
            dx = u - s
            dy = abs(v) - t
            q = dx * dx + dy * (a * dy - b * dx)
            if q < r1 or (q <= r2 and v * v <= -4.0 * u * u * log(u)):
                break
        out[i] = sigma * (v / u)
    rng._state = x
    return np.array(out)


def generate_catalog_per_star(n, rng):
    """``n`` unit directions, one ``rng.gaussian_vec(1.0, 3)`` triple per star.

    A triple whose norm is at most 1e-12 is drawn again.
    """
    stars = np.empty((n, 3))
    for i in range(n):
        while True:
            v = rng.gaussian_vec(1.0, 3)
            x, y, z = v.tolist()
            norm = math.sqrt(x * x + y * y + z * z)
            if norm > 1e-12:
                break
        stars[i] = v / norm
    return StarCatalog(stars=stars)


def quat_kinematics(q, omega):
    """Quaternion rate 0.5 * (omega; 0) * q for body rate ``omega`` [rad/s]."""
    wx, wy, wz = omega
    return 0.5 * quat_mul(np.array([wx, wy, wz, 0.0]), q)


def axis_angle_quat(axis, angle: float) -> np.ndarray:
    """Unit quaternion for a rotation of ``angle`` radians about ``axis``."""
    x, y, z = np.asarray(axis, dtype=float).tolist()
    n = math.sqrt(x * x + y * y + z * z)
    if n < 1e-12:
        raise InvalidInput("rotation axis must be nonzero")
    half = 0.5 * angle
    s = math.sin(half) / n
    return np.array([x * s, y * s, z * s, math.cos(half)])


def gibbs_to_quat(g):
    """Unit quaternion (g; 1) / sqrt(1 + |g|^2), scalar part positive."""
    x, y, z = np.asarray(g, dtype=float).tolist()
    s = 1.0 / math.sqrt(1.0 + (x * x + y * y + z * z))
    return np.array([x * s, y * s, z * s, s])


def quat_mul_numpy(a, b):
    """Hamilton product a * b on the numpy scalars of ``a`` and ``b``."""
    ax, ay, az, aw = np.asarray(a, dtype=float)
    bx, by, bz, bw = np.asarray(b, dtype=float)
    return np.array(
        [
            aw * bx + bw * ax + ay * bz - az * by,
            aw * by + bw * ay + az * bx - ax * bz,
            aw * bz + bw * az + ax * by - ay * bx,
            aw * bw - ax * bx - ay * by - az * bz,
        ]
    )


def block_product_tree(increments):
    """Product of one block's step increments ``(L, 4)`` by a pairwise tree of :func:`quat_mul` calls.

    Each level multiplies neighbours, the later on the left, and an odd
    last element passes to the next level unchanged.
    """
    level = list(increments)
    while len(level) > 1:
        pairs = [quat_mul(level[i + 1], level[i]) for i in range(0, len(level) - 1, 2)]
        level = pairs + level[2 * len(pairs):]
    return level[0]


def error_angle_numpy(a, b):
    """Rotation angle between two quaternions, through the relative quaternion on numpy scalars."""
    b = np.asarray(b, dtype=float)
    qe = quat_mul_numpy(a, np.array([-b[0], -b[1], -b[2], b[3]]))
    vec = math.sqrt(float(qe[0] * qe[0] + qe[1] * qe[1] + qe[2] * qe[2]))
    return 2.0 * math.atan2(vec, abs(float(qe[3])))


def symmetrize(m) -> np.ndarray:
    """Average a matrix, or each matrix of a stack, with its transpose."""
    a = np.asarray(m, dtype=float)
    return 0.5 * (a + a.swapaxes(-1, -2))


def covariance_step_by_blas(phi, p, q) -> np.ndarray:
    """``symmetrize(Phi P Phi^T + Q)`` with the products through BLAS."""
    phi = np.asarray(phi, dtype=float)
    return symmetrize(phi @ np.asarray(p, dtype=float) @ phi.T + np.asarray(q, dtype=float))


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by Gauss-Jordan elimination with partial pivoting.

    ``b`` may be a vector or a matrix of right-hand sides. Raises
    NumericalFailure when a pivot collapses to zero.

    The elimination runs on lists of Python floats, one list per row of
    ``[a | b]``. The pivot is the first largest magnitude of its column (a
    NaN counts as largest, as ``np.argmax`` has it); its row is divided by
    it, and every other row with a nonzero entry in the column takes
    ``x - f * y`` elementwise. Each of these is one correctly rounded IEEE
    operation, so the result is bit for bit that of
    :func:`solve_numpy_rows`.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(b, dtype=float)
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs.reshape(-1, 1)
    n = a.shape[0]
    rows = [ra + rb for ra, rb in zip(a.tolist(), rhs.tolist())]
    for col in range(n):
        piv, big = col, abs(rows[col][col])
        for i in range(col + 1, n):
            mag = abs(rows[i][col])
            if mag > big or (mag != mag and big == big):
                piv, big = i, mag
        if big < 1e-300:
            raise NumericalFailure("matrix is singular to working precision")
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        prow = rows[col] = [v / p for v in rows[col]]
        for i in range(n):
            f = rows[i][col]
            if i != col and f != 0.0:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
    if vector:
        return np.array([row[n] for row in rows])
    return np.array([row[n:] for row in rows])


def kalman_update_by_solve(p, r, y):
    """``(K y, P+)`` of an H = I update through :func:`solve`: K = solve(P + R, P)^T, P+ = symmetrize((I - K) P)."""
    p = np.asarray(p, dtype=float)
    k = solve(p + np.asarray(r, dtype=float), p).T
    return k @ np.asarray(y, dtype=float), symmetrize((np.eye(len(p)) - k) @ p)


def solve_numpy_rows(a, b):
    """Gauss-Jordan elimination with partial pivoting on the numpy rows of ``[a | b]``."""
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(b, dtype=float)
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs.reshape(-1, 1)
    n = a.shape[0]
    aug = np.hstack([a.copy(), rhs.copy()])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < 1e-300:
            raise NumericalFailure("matrix is singular to working precision")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    x = aug[:, n:]
    return x[:, 0].copy() if vector else x.copy()


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


def step_transitions(rates, dt: float, aekf: bool) -> np.ndarray:
    """Exact covariance transition of each gyro step of ``rates`` ``(n, 3)``, from the rates alone.

    The AEKF's is the matrix of the step's quaternion map, ``exp(0.5 *
    Omega(omega) * dt) = cos(h) I + sin(h) / |omega| * Omega(omega)`` with
    ``h = 0.5 * |omega| * dt``. The MEKF's is the rotation of the attitude
    error about ``omega`` by ``theta = |omega| * dt``, Rodrigues' ``I +
    sin(theta) K + (1 - cos(theta)) K^2`` with ``K = [omega x] / |omega|``,
    which is ``I + [omega x] dt`` to first order. A zero rate gives I.
    Returns ``(n, 4, 4)`` or ``(n, 3, 3)``.
    """
    w = np.asarray(rates, dtype=float).reshape(-1, 3)
    wnorm = np.sqrt((w * w).sum(axis=1))
    safe = np.where(wnorm > 0.0, wnorm, 1.0)[:, None, None]
    if aekf:
        half = (0.5 * dt * wnorm)[:, None, None]
        omega = np.array([omega_matrix(row) for row in w])
        return np.cos(half) * np.eye(4) + np.sin(half) / safe * omega
    theta = (dt * wnorm)[:, None, None]
    k = np.array([cross_matrix(row) for row in w]) / safe
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def predict_per_step(state, rates, dt: float, noise):
    """Propagate a filter state across ``rates`` ``(n, 3)``, one exact gyro step per row.

    Each step advances the quaternion by the exact one-step integrator
    (renormalized for the AEKF) and the covariance by ``symmetrize(Phi P
    Phi^T + Q)``, with Phi from :func:`step_transitions` and the one-step
    noise ``sigma_v^2 dt I``, or for the AEKF with ``aekf_q_flat`` false
    ``0.25 sigma_v^2 dt (I - q q^T)`` at the attitude q after the step.
    """
    aekf = len(state.p) == 4
    kinematic = aekf and not noise.aekf_q_flat
    rates = np.asarray(rates, dtype=float).reshape(-1, 3)
    per_step = noise.sigma_v * noise.sigma_v * dt
    q, p = np.asarray(state.q, dtype=float), np.asarray(state.p, dtype=float)
    qn = per_step * np.eye(p.shape[0])
    for w, phi in zip(rates, step_transitions(rates, dt, aekf)):
        q = integrate_quat(q, w[None, None], dt)[0]
        if aekf:
            q = quat_normalize(q)
        if kinematic:
            qn = 0.25 * per_step * (np.eye(4) - np.outer(q, q))
        p = symmetrize(phi @ p @ phi.T + qn)
    return FilterState(q, p)


def estimate_per_step(rates, state, predict, update, r, dt, noise, phi, plan, measured, keep):
    """``attsim.harness._estimate`` with one predict per gyro step, written out.

    ``rates`` is the chunk's zero-padded ``(blocks, longest block, 3)``
    stack of gyro rates; the other arguments are those of ``_estimate``, and
    the return is what it returns, except that the state returned is the
    one after the last block. No segment may be open when the chunk starts,
    so the gyro steps of each block are the differences of the plan's
    counts within its segment. Block ``i`` crosses its steps' rates by
    :func:`predict_per_step`; then the block's update and snapshot follow.
    ``predict``, ``phi`` and the plan's rotations are not used.
    """
    steps = [int(x) for lo, hi, _ in plan.segments for x in np.diff(plan.counts[lo:hi], prepend=0)]
    q_kept = np.empty((sum(keep), 4))
    p_kept = np.empty(q_kept.shape[:1] + np.shape(state.p))
    j = 0
    for i, q_meas in enumerate(measured):
        state = predict_per_step(state, rates[i, :steps[i]], dt, noise)
        if q_meas is not None:
            try:
                state = update(state, q_meas, r)
            except NumericalFailure as exc:
                return state, q_kept, p_kept, (i, exc)
        if keep[i]:
            q_kept[j] = state.q
            p_kept[j] = state.p
            j += 1
    return state, q_kept, p_kept, None


def plan_chunks_per_block(cfg, n_stars):
    """The blocks, chunks and windows of a run of ``cfg``, planned one block at a time.

    Returns one ``(blocks, windows)`` per chunk: the list of its blocks
    ``(first step, last step, epoch, recorded)``, and the index of each
    window's first block followed by the block count. A block ends at the
    first of: the first step ``j`` from its start on whose end time ``j *
    dt`` reaches the next tracker epoch's time (less 1e-9), found by
    stepping ``j`` up from the block start; the next multiple of the record
    stride; the block's ``min(stride, _MAX_BLOCK_STEPS)``-th step; the last
    step. A chunk ends after ``_CHUNK_BLOCKS`` blocks or after ``max(1,
    _STAR_ROWS // n_stars)`` epochs, counted as a loop over the epoch
    budget. The windows split the chunk's blocks afterwards: a window takes
    blocks while their steps sum to at most ``_WINDOW_STEPS``, and at least
    one. Reads ``_MAX_BLOCK_STEPS``, ``_CHUNK_BLOCKS``, ``_STAR_ROWS`` and
    ``_WINDOW_STEPS`` from ``attsim.harness`` at call time.
    """
    dt = 1.0 / cfg.gyro_rate_hz
    n_steps = int(math.floor(cfg.duration_s * cfg.gyro_rate_hz + 1e-9))
    tracker_dt = 1.0 / cfg.tracker_rate_hz
    next_tracker = tracker_dt
    stride = cfg.effective_stride()
    cap = min(stride, harness._MAX_BLOCK_STEPS)
    budget = 1
    while (budget + 1) * n_stars <= harness._STAR_ROWS:
        budget += 1
    chunks = []
    k = 1
    while k <= n_steps:
        blocks = []
        n_epochs = 0
        while k <= n_steps and n_epochs < budget and len(blocks) < harness._CHUNK_BLOCKS:
            epoch_step = k
            while epoch_step <= n_steps and epoch_step * dt < next_tracker - 1e-9:
                epoch_step += 1
            due_step = -(-k // stride) * stride
            last = min(epoch_step, due_step, k + cap - 1, n_steps)
            epoch = last == epoch_step
            if epoch:
                next_tracker += tracker_dt
                n_epochs += 1
            blocks.append((k, last, epoch, last == due_step or last == n_steps))
            k = last + 1
        windows = [0]
        held = 0
        for i, (first, last, _, _) in enumerate(blocks):
            if i > windows[-1] and held + last - first + 1 > harness._WINDOW_STEPS:
                windows.append(i)
                held = 0
            held += last - first + 1
        windows.append(len(blocks))
        chunks.append((blocks, windows))
    return chunks
