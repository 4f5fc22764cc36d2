"""Small fixed-size numeric kernels.

This module owns the linear algebra the estimators depend on: a cyclic
Jacobi eigensolver for symmetric matrices up to 6x6, a dense solver for
the innovation systems, and a seeded noise stream. Matrices and vectors
are plain float64 numpy arrays; nothing here calls into ``numpy.linalg``,
so seeded artifacts reproduce bit for bit across runs.

The eigensolver also takes a stack of matrices, shape ``(k, n, n)``, and
runs the same cyclic sweep on all of them at once, vectorized over ``k``:
the same elementwise IEEE operations in the same order as the one-matrix
path, with a mask that leaves each matrix alone once it has converged.
Each matrix of a stack therefore gets bit for bit the result the
one-matrix path gives it. The one-matrix path stays, because on a lone
small matrix its scalar loop is about twice as fast as the vectorized
sweep; the harness stacks the covariance snapshots of many records into
one call, while the Davenport solve makes one call per tracker epoch.

The random stream is xorshift64* seeded through one round of splitmix64,
with Gaussian deviates drawn by the polar (Marsaglia) method. The
algorithm is part of the on-disk contract: changing it would invalidate
golden outputs keyed by seed.
"""

import math

import numpy as np

from .errors import InvalidInput, NumericalFailure

MAX_DIM = 6

_JACOBI_MAX_SWEEPS = 100
_JACOBI_REL_TOL = 1e-12
_SYM_REL_TOL = 1e-9
_U64 = (1 << 64) - 1


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise InvalidInput(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix entries must be finite")
    return a


def is_symmetric(m) -> bool:
    """True if max|M - M^T| <= 1e-9 * max|M| (exact zero for the zero matrix)."""
    a = _as_square(m)
    scale = float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - a.T))) <= _SYM_REL_TOL * scale


def check_symmetric(m) -> np.ndarray:
    """Return a float copy of ``m`` or raise InvalidInput if it is not symmetric."""
    a = _as_square(m)
    if not is_symmetric(a):
        raise InvalidInput("matrix is not symmetric within tolerance")
    return a.copy()


def symmetrize(m) -> np.ndarray:
    """Average a matrix with its transpose; used after covariance updates."""
    a = np.asarray(m, dtype=float)
    return 0.5 * (a + a.T)


def jacobi_eigen_sym(m):
    """Eigendecompose a symmetric matrix, or a stack of them, with cyclic Jacobi rotations.

    For one ``(n, n)`` matrix, returns ``(eigenvalues, eigenvectors)`` with
    eigenvalues sorted in descending order and ``eigenvectors[i]`` the unit
    eigenvector (a row) paired with ``eigenvalues[i]``.

    For a stack ``(k, n, n)``, returns eigenvalues ``(k, n)`` and
    eigenvector rows ``(k, n, n)``, each matrix's entry equal bit for bit
    to what the one-matrix call returns for it (``k`` may be 0). The path
    is chosen by the rank of the input; see the module docstring for why
    both are kept.

    Raises InvalidInput for non-symmetric input (any matrix of a stack)
    and NumericalFailure if the off-diagonal norm has not dropped below
    1e-12 * ||m||_F after 100 sweeps.
    """
    if np.ndim(m) == 3:
        return _jacobi_eigen_stack(m)
    a = check_symmetric(m)
    n = a.shape[0]
    v = np.eye(n)
    scale = math.sqrt(float((a * a).sum()))
    if scale == 0.0:
        return np.zeros(n), v.copy()
    tol = _JACOBI_REL_TOL * scale

    converged = False
    for _ in range(_JACOBI_MAX_SWEEPS):
        # squares by multiplication, as in the stacked path: ``x ** 2`` on a
        # scalar calls libm pow, which is not correctly rounded everywhere
        off = math.sqrt(2.0 * sum(a[p, q] * a[p, q] for p in range(n - 1) for q in range(p + 1, n)))
        if off <= tol:
            converged = True
            break
        for p in range(n - 1):  # one cyclic sweep over the strict upper triangle
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
    if not converged:
        # the final sweep may still have finished the job
        off = math.sqrt(2.0 * sum(a[p, q] * a[p, q] for p in range(n - 1) for q in range(p + 1, n)))
        if off > tol:
            raise NumericalFailure(f"Jacobi sweep limit reached (off-diagonal {off:.3e})")

    evals = np.diag(a).copy()
    order = np.argsort(-evals, kind="stable")
    return evals[order], v[:, order].T.copy()


def _off_norms(a: np.ndarray, pairs) -> np.ndarray:
    """Off-diagonal Frobenius norm of each matrix of a stack, summed in sweep order."""
    acc = np.zeros(a.shape[0])
    for p, q in pairs:
        apq = a[:, p, q]
        acc = acc + apq * apq
    return np.sqrt(2.0 * acc)


def _jacobi_eigen_stack(m):
    """The cyclic Jacobi sweep of :func:`jacobi_eigen_sym`, vectorized over a stack.

    A rotation touches only the matrices still active (not yet converged)
    whose pivot is nonzero; the others are left exactly as they are, as
    the one-matrix path leaves them.
    """
    a = np.array(m, dtype=float)
    if a.shape[1] != a.shape[2]:
        raise InvalidInput(f"expected a stack of square matrices, got shape {a.shape}")
    k, n = a.shape[:2]
    if n > MAX_DIM:
        raise InvalidInput(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix entries must be finite")
    peak = np.abs(a).max(axis=(1, 2))
    asym = np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2)) > _SYM_REL_TOL * peak
    if asym.any():
        raise InvalidInput(f"matrix {int(np.argmax(asym))} of the stack is not symmetric within tolerance")

    v = np.broadcast_to(np.eye(n), a.shape).copy()
    scale = np.sqrt((a * a).reshape(k, n * n).sum(axis=1))
    tol = _JACOBI_REL_TOL * scale
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    # a zero matrix has off = tol = 0 and so converges before the first sweep
    active = np.ones(k, dtype=bool)
    for _ in range(_JACOBI_MAX_SWEEPS):
        active &= _off_norms(a, pairs) > tol
        if not active.any():
            break
        for p, q in pairs:  # one cyclic sweep over the strict upper triangle
            idx = np.flatnonzero(active & (a[:, p, q] != 0.0))
            if idx.size == 0:
                continue
            ai = a[idx]
            vi = v[idx]
            theta = (ai[:, q, q] - ai[:, p, p]) / (2.0 * ai[:, p, q])
            t = np.where(
                theta == 0.0,
                1.0,
                np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)),
            )
            c = (1.0 / np.sqrt(t * t + 1.0))[:, None]
            s = t[:, None] * c
            colp, colq = ai[:, :, p], ai[:, :, q]
            ai[:, :, p], ai[:, :, q] = c * colp - s * colq, s * colp + c * colq
            rowp, rowq = ai[:, p, :], ai[:, q, :]
            ai[:, p, :], ai[:, q, :] = c * rowp - s * rowq, s * rowp + c * rowq
            ai[:, p, q] = 0.0
            ai[:, q, p] = 0.0
            vp, vq = vi[:, :, p], vi[:, :, q]
            vi[:, :, p], vi[:, :, q] = c * vp - s * vq, s * vp + c * vq
            a[idx] = ai
            v[idx] = vi
    else:
        # the final sweep may still have finished the job
        off = _off_norms(a[active], pairs)
        failed = off > tol[active]
        if failed.any():
            raise NumericalFailure(
                f"Jacobi sweep limit reached in {int(failed.sum())} matrices "
                f"(largest off-diagonal {float(off.max()):.3e})"
            )

    evals = np.diagonal(a, axis1=1, axis2=2).copy()
    evals[scale == 0.0] = 0.0
    order = np.argsort(-evals, axis=1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=1)
    vecs = np.take_along_axis(v, order[:, None, :], axis=2).transpose(0, 2, 1).copy()
    return evals, vecs


def condition_number(m) -> float:
    """|lambda|_max / |lambda|_min of a symmetric matrix, +inf when rank deficient."""
    evals, _ = jacobi_eigen_sym(_as_square(m))
    mags = np.abs(evals)
    lo = float(mags.min())
    if lo < 1e-300:
        return math.inf
    return float(mags.max()) / lo


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by Gauss-Jordan elimination with partial pivoting.

    ``b`` may be a vector or a matrix of right-hand sides. Raises
    NumericalFailure when a pivot collapses to zero.
    """
    a = _as_square(a)
    rhs = np.asarray(b, dtype=float)
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs.reshape(-1, 1)
    n = a.shape[0]
    if rhs.shape[0] != n:
        raise InvalidInput("right-hand side has incompatible shape")
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


def inv(a) -> np.ndarray:
    """Matrix inverse via :func:`solve` against the identity."""
    a = _as_square(a)
    return solve(a, np.eye(a.shape[0]))


class RngStream:
    """Deterministic scalar random stream (xorshift64* core).

    Two streams built from the same seed produce bit-identical samples.
    Gaussian sampling uses the polar method and keeps the spare deviate,
    so draws come in the same order regardless of sigma. ``sigma == 0``
    returns exactly 0.0 without consuming state.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0 or seed > _U64:
            raise InvalidInput("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        # splitmix64 round decorrelates small consecutive seeds
        z = (seed + 0x9E3779B97F4A7C15) & _U64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        z ^= z >> 31
        self._state = z if z != 0 else 0x9E3779B97F4A7C15
        self._spare = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _U64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _U64

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def gaussian(self, sigma: float) -> float:
        """One sample from N(0, sigma^2)."""
        if sigma < 0.0:
            raise InvalidInput("sigma must be nonnegative")
        if sigma == 0.0:
            return 0.0
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z * sigma
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                break
        f = math.sqrt(-2.0 * math.log(s) / s)
        self._spare = v * f
        return u * f * sigma

    def gaussian_vec(self, sigma: float, n: int = 3) -> np.ndarray:
        return np.array([self.gaussian(sigma) for _ in range(n)])


def gaussian(rng: RngStream, sigma: float) -> float:
    """Module-level alias for :meth:`RngStream.gaussian`."""
    return rng.gaussian(sigma)
