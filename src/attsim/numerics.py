"""Small fixed-size numeric kernels.

This module owns the linear algebra the estimators depend on: a cyclic
Jacobi eigensolver for symmetric matrices up to 6x6, a dense solver for
the innovation systems, a seeded noise stream, and the row layout that
pads runs of rows into one stack (:func:`padded_rows`: the harness's gyro
blocks, the Davenport solve's epochs). Matrices and vectors
are plain float64 numpy arrays at the interface; nothing here calls into
``numpy.linalg``, so seeded artifacts reproduce bit for bit across runs.
Inside, :func:`solve` eliminates on lists of Python floats: its 3x3 and
4x4 systems are too small to pay numpy's per-call cost, and a Python float
rounds each operation as a numpy element does.

The eigensolver is one cyclic Jacobi sweep, vectorized over a stack of
matrices, shape ``(k, n, n)``: each rotation is the same elementwise IEEE
operations for every member. Each sweep first sets aside the members that
have converged, and a rotation leaves alone every member whose pivot is
zero, so a member's result does not depend on the stack around it. A
lone ``(n, n)`` matrix is checked and solved as a stack of one. Each
member is scaled by the power of two that brings its largest entry into
[0.5, 1), so that no sum of its squares underflows or overflows, and its
eigenvalues scaled back; both are exact for entries within a factor 2^1021
of the largest. The Davenport solve stacks the matrices of many tracker
epochs and reads the eigenvectors; the harness stacks the covariance
snapshots of many records and asks for the eigenvalues alone
(``vectors=False``), which gives the same eigenvalue bits. A member whose
eigenvectors are wanted carries their columns below its matrix, so that
one column rotation turns both; without them, the rotations touch the
matrix alone.

The random stream is xorshift64* seeded through one round of splitmix64,
with Gaussian deviates drawn by the polar (Marsaglia) method. The
algorithm is part of the on-disk contract: changing it would invalidate
golden outputs keyed by seed. ``RngStream.gaussian`` is its scalar
definition. ``RngStream.gaussian_vec(sigma, n)`` draws the same deviates
in blocks, and returns, and leaves the stream in, exactly what ``n`` calls
of ``gaussian(sigma)`` would:

- The xorshift step T is linear over GF(2), so a ``(64, 256)`` table of
  T^1 ... T^256 applied to each basis bit (128 KiB, built on first use)
  gives the next 256 states as the XOR of the rows of the current state's
  set bits (Haramoto et al. 2008 jump-ahead). Chaining from the last state
  of each block gives any number of states.
- The ``*`` scramble wraps in ``uint64``; the uniforms, ``s = u*u + v*v``
  and the acceptance test ``0 < s < 1`` are array operations. ``np.sqrt``,
  ``*`` and ``/`` are correctly rounded, so they match ``math``.
- ``np.log`` is not: it differed from ``math.log`` on about 0.35 % of
  inputs on an AVX-512 host. So ``math.log`` is taken on the accepted
  ``s`` values only.
- The state left is the state at the last pair consumed, whatever the
  pass drew beyond it, and when ``n`` leaves half a pair, that pair's
  ``v*f`` becomes the spare deviate the next draw returns first.
"""

import functools
import math
from itertools import accumulate

import numpy as np

from .errors import InvalidInput, NumericalFailure

MAX_DIM = 6

_JACOBI_MAX_SWEEPS = 100
_JACOBI_REL_TOL = 1e-12
_SYM_REL_TOL = 1e-9
_U64 = (1 << 64) - 1
_XS_MULT = 0x2545F4914F6CDD1D
_U53 = 1.0 / (1 << 53)
_XS_MULT_NP = np.uint64(_XS_MULT)
_ONE = np.uint64(1)
_BIT_SHIFTS = np.arange(64, dtype=np.uint64)
# states per application of the jump table (a 128 KiB table), and the most
# candidate pairs one pass of gaussian_vec draws, which bounds its
# temporaries to a few MB for any n
_JUMP_LEN = 256
_PASS_PAIRS = 1 << 14


def padded_rows(counts) -> np.ndarray:
    """Row indices that lay runs of consecutive rows out as a ``(runs, longest run)`` stack.

    Run i is the ``counts[i]`` rows that follow run i - 1, from row 0 on.
    Entry ``[i, j]`` indexes row j of run i; the entries past a run's end
    index the row after the last run, where the caller appends its fill.
    """
    counts = np.asarray(counts, dtype=int)
    bounds = [0, *accumulate(counts.tolist())]
    cols = np.arange(counts.max(initial=0))
    return np.where(cols < counts[:, None], np.array(bounds[:-1], dtype=int)[:, None] + cols, bounds[-1])


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise InvalidInput("expected a nonempty matrix, got shape (0, 0)")
    if a.shape[0] > MAX_DIM:
        raise InvalidInput(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix entries must be finite")
    return a


def symmetrize(m) -> np.ndarray:
    """Average a matrix, or each matrix of a stack, with its transpose; used after covariance updates."""
    a = np.asarray(m, dtype=float)
    return 0.5 * (a + a.swapaxes(-1, -2))


def jacobi_eigen_sym(m, vectors: bool = True):
    """Eigendecompose a symmetric matrix, or a stack of them, with cyclic Jacobi rotations.

    For one ``(n, n)`` matrix, returns ``(eigenvalues, eigenvectors)`` with
    eigenvalues sorted in descending order and ``eigenvectors[i]`` the unit
    eigenvector (a row) paired with ``eigenvalues[i]``.

    For a stack ``(k, n, n)``, returns eigenvalues ``(k, n)`` and
    eigenvector rows ``(k, n, n)`` (``k`` may be 0). One matrix is solved
    as a stack of one, so each member of a stack gets bit for bit what the
    one-matrix call returns for it.

    With ``vectors=False`` only the eigenvalues are returned, ``(n,)`` or
    ``(k, n)``, and no eigenvector is rotated. The eigenvalues come from
    the same operations either way, so they are bit for bit those of the
    full call.

    Raises InvalidInput for input that is neither ``(n, n)`` nor
    ``(k, n, n)``, or that is non-symmetric or empty (``n == 0``) in any
    matrix of a stack, and NumericalFailure if the off-diagonal norm has
    not dropped below 1e-12 * ||m||_F after 100 sweeps.
    """
    lone = np.ndim(m) != 3
    a, peak = _symmetric_stack(np.asarray(m)[None] if lone else m)
    evals, vecs, failed = _jacobi_sweep(a, vectors, peak)
    if lone:
        if failed.size:
            raise NumericalFailure(
                f"Jacobi sweep limit reached (off-diagonal {float(failed[0]):.3e})"
            )
        return (evals[0], vecs[0]) if vectors else evals[0]
    if failed.size:
        raise NumericalFailure(
            f"Jacobi sweep limit reached in {failed.size} matrices "
            f"(largest off-diagonal {float(failed.max()):.3e})"
        )
    return (evals, vecs) if vectors else evals


def _symmetric_stack(m):
    """A float copy of a stack ``(k, n, n)`` and each member's max|M|, or InvalidInput naming the first bad member.

    A member is symmetric when max|M - M^T| <= 1e-9 * max|M| (exactly, for
    the zero matrix).
    """
    a = np.array(m, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidInput(f"expected a stack of square matrices, got shape {a.shape}")
    n = a.shape[1]
    if n == 0:
        raise InvalidInput(f"expected a stack of nonempty matrices, got shape {a.shape}")
    if n > MAX_DIM:
        raise InvalidInput(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix entries must be finite")
    peak = np.abs(a).max(axis=(1, 2))
    asym = np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2)) > _SYM_REL_TOL * peak
    if asym.any():
        raise InvalidInput(f"matrix {int(np.argmax(asym))} of the stack is not symmetric within tolerance")
    return a, peak


def _off_norms(a: np.ndarray, pairs) -> np.ndarray:
    """Off-diagonal Frobenius norm of each matrix of a stack, summed in sweep order."""
    acc = np.zeros(a.shape[0])
    for p, q in pairs:
        apq = a[:, p, q]
        acc = acc + apq * apq
    return np.sqrt(2.0 * acc)


def _jacobi_sweep(a: np.ndarray, vectors: bool, peak: np.ndarray):
    """The cyclic Jacobi sweep, vectorized over a checked stack ``a`` whose members' max|M| is ``peak``.

    With ``vectors``, each member works on its matrix with the eigenvector
    columns stacked below it, ``(2n, n)``, so that the rotation of the
    matrix's columns rotates the eigenvector columns in the same step;
    otherwise on the matrix alone (``a`` itself, updated in place). ``a``
    is first scaled in place by ``peak``, as the module says. Each sweep
    starts by setting aside the members that have converged and works on
    the others; a rotation touches only the members whose pivot is nonzero
    and leaves the others exactly as they are. Each step is an elementwise
    IEEE operation, so a member's result does not depend on the stack
    around it. Returns the sorted eigenvalues, the eigenvector rows (None
    unless ``vectors``) and the off-diagonal norms of the members that had
    not converged after the last sweep (empty when all did), all in the
    caller's units.
    """
    k, n = a.shape[:2]
    exps = np.frexp(peak)[1]
    np.ldexp(a, -exps[:, None, None], out=a)
    scale = np.sqrt((a * a).reshape(k, n * n).sum(axis=1))
    tol = _JACOBI_REL_TOL * scale
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    w = np.concatenate((a, np.broadcast_to(np.eye(n), a.shape)), axis=1) if vectors else a
    # the members still active, in stack order, and their working stack;
    # a zero matrix has off = tol = 0 and so converges before the first sweep
    idx = np.arange(k)
    wi = w
    failed = np.zeros(0)
    for _ in range(_JACOBI_MAX_SWEEPS):
        active = _off_norms(wi, pairs) > tol[idx]
        if not active.all():
            if wi is not w:  # the converged members keep their values
                w[idx[~active]] = wi[~active]
            idx, wi = idx[active], wi[active]
        if idx.size == 0:
            break
        for p, q in pairs:  # one cyclic sweep over the strict upper triangle
            live = wi[:, p, q] != 0.0
            if live.all():
                _rotate(wi, p, q)
            elif live.any():
                sub = np.flatnonzero(live)
                ws = wi[sub]
                _rotate(ws, p, q)
                wi[sub] = ws
    else:
        # the final sweep may still have finished the job
        off = _off_norms(wi, pairs)
        failed = np.ldexp(off, exps[idx])[off > tol[idx]]
    if wi is not w:
        w[idx] = wi

    evals = np.ldexp(np.diagonal(w[:, :n], axis1=1, axis2=2), exps[:, None])
    evals[scale == 0.0] = 0.0
    order = np.argsort(-evals, axis=1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=1)
    if not vectors:
        return evals, None, failed
    vecs = np.take_along_axis(w[:, n:], order[:, None, :], axis=2).transpose(0, 2, 1).copy()
    return evals, vecs, failed


def _rotate(w: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation in the ``(p, q)`` plane of every member of ``w``, in place.

    A member is an ``(n, n)`` matrix, possibly with rows below it that
    take the column rotation only (the eigenvector columns). Every member's
    pivot ``w[:, p, q]`` must be nonzero.
    """
    theta = (w[:, q, q] - w[:, p, p]) / (2.0 * w[:, p, q])
    t = np.where(
        theta == 0.0,
        1.0,
        np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)),
    )
    c = (1.0 / np.sqrt(t * t + 1.0))[:, None]
    s = t[:, None] * c
    colp, colq = w[:, :, p], w[:, :, q]
    w[:, :, p], w[:, :, q] = c * colp - s * colq, s * colp + c * colq
    rowp, rowq = w[:, p, :], w[:, q, :]
    w[:, p, :], w[:, q, :] = c * rowp - s * rowq, s * rowp + c * rowq
    w[:, p, q] = 0.0
    w[:, q, p] = 0.0


def norms_and_conditions(evals):
    """Spectral norms ``|lambda|_max`` and condition numbers ``|lambda|_max / |lambda|_min``.

    ``evals`` is a ``(k, n)`` stack, one row of eigenvalues per symmetric
    matrix. A condition number is +inf where ``|lambda|_min`` < 1e-300.
    """
    mags = np.abs(evals)
    hi = mags.max(axis=1)
    lo = mags.min(axis=1)
    singular = lo < 1e-300
    return hi, np.where(singular, math.inf, hi / np.where(singular, 1.0, lo))


def condition_number(m) -> float:
    """|lambda|_max / |lambda|_min of one symmetric matrix, +inf when rank deficient."""
    evals = jacobi_eigen_sym(_as_square(m), vectors=False)
    return float(norms_and_conditions(evals[None])[1][0])


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by Gauss-Jordan elimination with partial pivoting.

    ``b`` may be a vector or a matrix of right-hand sides. Raises
    NumericalFailure when a pivot collapses to zero.

    The elimination runs on lists of Python floats, one list per row of
    ``[a | b]``. The pivot is the first largest magnitude of its column (a
    NaN counts as largest, as ``np.argmax`` has it); its row is divided by
    it, and every other row with a nonzero entry in the column takes
    ``x - f * y`` elementwise. Each of these is one correctly rounded IEEE
    operation, so the result is bit for bit that of the same steps on
    numpy rows.
    """
    a = _as_square(a)
    rhs = np.asarray(b, dtype=float)
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs.reshape(-1, 1)
    n = a.shape[0]
    if rhs.ndim != 2 or rhs.shape[0] != n:
        raise InvalidInput("right-hand side has incompatible shape")
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
        return (x * _XS_MULT) & _U64

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _U53

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
        """``n`` samples from N(0, sigma^2).

        Returns the values, and leaves the state and the spare deviate, that
        ``n`` calls of :meth:`gaussian` would, bit for bit. The draw runs in
        passes of at most ``_PASS_PAIRS`` candidate pairs, each sized from
        the deviates still needed: the pass's states come from the jump
        table, the scramble, the uniforms and the acceptance test are array
        operations, and ``math.log`` is taken on the accepted ``s`` only.
        A pass that accepts too few pairs is followed by another.
        """
        if sigma < 0.0:
            raise InvalidInput("sigma must be nonnegative")
        if sigma == 0.0 or n <= 0:
            return np.zeros(max(n, 0))
        out = np.empty(n)
        i = 0
        if self._spare is not None:
            out[0] = self._spare * sigma
            self._spare = None
            i = 1
        while i < n:
            need = (n - i + 1) // 2
            # pi/4 of the candidate pairs are accepted on average
            pairs = min(_PASS_PAIRS, need * 4 // 3 + 32)
            x = _xorshift_states(self._state, -(-2 * pairs // _JUMP_LEN))
            w = 2.0 * (((x * _XS_MULT_NP) >> np.uint64(11)).astype(float) * _U53) - 1.0
            u, v = w[0::2], w[1::2]
            s = u * u + v * v
            idx = np.flatnonzero((0.0 < s) & (s < 1.0))[:need]
            # the stream stops at the last pair consumed: the pass's last
            # pair when it fell short, else the last accepted pair used
            self._state = int(x[-1] if idx.size < need else x[2 * idx[-1] + 1])
            s = s[idx]
            log_s = np.fromiter(map(math.log, s.tolist()), float, s.size)
            f = np.sqrt(-2.0 * log_s / s)
            pair_out = np.empty((idx.size, 2))
            pair_out[:, 0] = u[idx] * f
            pair_out[:, 1] = v[idx] * f
            m = min(2 * idx.size, n - i)
            if m < 2 * idx.size:
                self._spare = float(pair_out[-1, 1])
            out[i:i + m] = pair_out.ravel()[:m] * sigma
            i += m
        return out


@functools.cache
def _jump_table() -> np.ndarray:
    """``(64, _JUMP_LEN)`` table whose column ``k`` is T^(k+1) applied to each basis bit.

    T is the xorshift step, linear over GF(2), so T^k x is the XOR of
    column ``k - 1`` over the set bits of ``x``. The columns are built in
    groups of 32 that step together: group ``g`` starts from T^(32 g) of
    each basis bit, T^32 applied to the start of group ``g - 1``, and T^32
    comes from squaring T five times. Built once, read-only.
    """
    steps = 32
    groups = _JUMP_LEN // steps
    basis = _ONE << _BIT_SHIFTS
    jump = basis.copy()
    _xorshift_step(jump)
    for _ in range(5):
        jump = _apply_gf2(jump, jump)
    x = np.empty((64, groups), dtype=np.uint64)
    x[:, 0] = basis
    for g in range(1, groups):
        x[:, g] = _apply_gf2(jump, x[:, g - 1])
    table = np.empty((64, groups, steps), dtype=np.uint64)
    for k in range(steps):
        _xorshift_step(x)
        table[:, :, k] = x
    table = table.reshape(64, _JUMP_LEN)
    table.setflags(write=False)
    return table


def _xorshift_step(x: np.ndarray) -> None:
    """One xorshift step of every state in the ``uint64`` array ``x``, in place."""
    x ^= x >> np.uint64(12)
    x ^= x << np.uint64(25)
    x ^= x >> np.uint64(27)


def _apply_gf2(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A GF(2)-linear map applied to each state of ``x``, given its images ``m`` of the 64 basis bits."""
    bits = ((x[:, None] >> _BIT_SHIFTS) & _ONE) != 0
    return np.bitwise_xor.reduce(np.where(bits, m, np.uint64(0)), axis=1)


def _xorshift_states(x: int, n_blocks: int) -> np.ndarray:
    """The ``n_blocks * _JUMP_LEN`` xorshift states that follow state ``x``, in order.

    Each block is one masked XOR-reduce of the jump table from the last
    state of the block before it.
    """
    table = _jump_table()
    states = np.empty((n_blocks + 1, _JUMP_LEN), dtype=np.uint64)
    states[0, -1] = x
    for b in range(n_blocks):
        bits = ((states[b, -1] >> _BIT_SHIFTS) & _ONE) != 0
        np.bitwise_xor.reduce(table[bits], axis=0, out=states[b + 1])
    return states[1:].ravel()
