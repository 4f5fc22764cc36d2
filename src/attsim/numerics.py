"""Small fixed-size numeric kernels.

This module owns the linear algebra the estimators depend on: a cyclic
Jacobi eigensolver for symmetric matrices up to 6x6, the Kalman update
with H = I and one block's covariance step of each filter's size, a
seeded noise stream, and the row layout that pads runs of rows into one
stack (:func:`padded_rows`: the harness's gyro blocks, the Davenport
solve's epochs). Matrices and vectors are plain float64 numpy arrays at
the interface, except for the filter kernels, which take and return
Python floats; nothing here calls into ``numpy.linalg``, so seeded
artifacts reproduce bit for bit across runs.

The updates (:func:`kalman_update4`, :func:`kalman_update3`) factor the
innovation covariance S = P + R = L L^T and take the gain product and the
posterior covariance from L by forward substitution; the covariance steps
(:func:`covariance_step4`, :func:`covariance_step3`) form ``Phi P Phi^T +
Q`` of one block. Each is written out for its size on Python floats: the
3x3 and 4x4 systems are too small to pay numpy's per-call cost, a loop
over the indices measured about six times the written-out 4x4 form, a
Python float rounds each operation as a numpy element does, and no
product goes through BLAS, whose rounding depends on the CPU kernel it
picks. A matrix moves between them as n rows of n floats; the updates
also read arrays, and reject a non-finite entry of P or R, which a
covariance step carries through unchecked.

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

The random stream is SplitMix64 (Steele, Lea & Flood 2014), with
Gaussian deviates drawn by Leva's ratio of uniforms (Kinderman & Monahan
1977, with Leva's quadratic bounds, 1992). Its state is a counter and
nothing else: output k of ``RngStream(seed)`` is mix(seed + k gamma), mod
2^64, so any output is computed without those before it. Candidate k of a
stream takes outputs 2k - 1 and 2k as ``u = 1 - U1`` in (0, 1] and
``v = 1.7156 (U2 - 0.5)``; it is accepted inside Leva's inner bound on his
quadratic Q, rejected outside the outer one, and between them (about 1 %
of candidates) by the exact test ``v^2 <= -4 u^2 log u``. Each deviate is
``sigma (v / u)`` of the first accepted candidate after the last one
consumed. The algorithm is part of the on-disk contract: changing it would
invalidate golden outputs keyed by seed. ``RngStream.gaussian`` is its
scalar definition. ``RngStream.gaussian_vec(sigma, n)`` draws the same
deviates in blocks, and returns, and leaves the counter at, exactly what
``n`` calls of ``gaussian(sigma)`` would:

- A pass's counters are one ``arange`` times gamma plus the state, and
  the mix, the uniforms, ``u``, ``v``, Q and both bounds are array
  operations; ``uint64`` arrays wrap as the scalar's ``mod 2^64`` does.
  ``+``, ``-``, ``*``, ``/`` and ``abs`` are correctly rounded or exact,
  so they match the scalar's Python floats.
- ``np.log`` is not: it differed from ``math.log`` on about 0.35 % of
  inputs on an AVX-512 host. So ``math.log`` is taken on the candidates
  between the bounds only, one Python call each, about 0.012 per deviate.
- The counter left is the one of the last candidate consumed, whatever the
  pass drew beyond it.
"""

import math
from itertools import accumulate, chain

import numpy as np

from .errors import InvalidInput, NumericalFailure

MAX_DIM = 6

_JACOBI_MAX_SWEEPS = 100
_JACOBI_REL_TOL = 1e-12
_SYM_REL_TOL = 1e-9
_U64 = (1 << 64) - 1
_U53 = 1.0 / (1 << 53)
# SplitMix64: the counter's increment gamma (2^64 over the golden ratio)
# and the multipliers of its mix, with their numpy forms and shifts for
# the array mix
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_GAMMA_NP, _MIX_A_NP, _MIX_B_NP = np.uint64(_GAMMA), np.uint64(_MIX_A), np.uint64(_MIX_B)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)
# Leva's ratio of uniforms (ACM TOMS 18(4), 1992): the width of the v
# interval (1.7156 > sqrt(8/e)), the centre (s, t) and coefficients (a, b)
# of the quadratic Q, and its inner and outer bounds r1 and r2
_LEVA_V = 1.7156
_LEVA_S, _LEVA_T = 0.449871, -0.386595
_LEVA_A, _LEVA_B = 0.19600, 0.25472
_LEVA_R1, _LEVA_R2 = 0.27597, 0.27846
# the most candidates one pass of gaussian_vec draws: its temporaries stay
# in cache (about 0.5 MB) for any n; 2,048 and 8,192 measured slower
_PASS_CANDIDATES = 1 << 12


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
    lone = np.ndim(m) == 2
    a, peak = _symmetric_stack(m)
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
    """A float copy of ``m`` as a stack ``(k, n, n)`` and each member's max|M|, or InvalidInput naming the first bad member.

    ``m`` is one ``(n, n)`` matrix, which becomes a stack of one, or a
    stack; a message names the shape ``m`` came in. A member is symmetric
    when max|M - M^T| <= 1e-9 * max|M| (exactly, for the zero matrix). The
    largest |M_pq - M_qp| is taken over the strict upper triangle, where
    |M_qp - M_pq| takes the same value, and max|M| is NaN or inf when an
    entry is.
    """
    a = np.array(m, dtype=float)
    shape = a.shape
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidInput(f"expected a square matrix or a stack of them, got shape {shape}")
    k, n = a.shape[:2]
    if n == 0:
        raise InvalidInput(f"expected nonempty matrices, got shape {shape}")
    if n > MAX_DIM:
        raise InvalidInput(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    flat = a.reshape(k, n * n)
    peak = np.abs(flat).max(axis=1)
    if not np.isfinite(peak).all():
        raise InvalidInput("matrix entries must be finite")
    upper = [p * n + q for p in range(n) for q in range(p + 1, n)]
    lower = [q * n + p for p in range(n) for q in range(p + 1, n)]
    asym = np.abs(flat[:, upper] - flat[:, lower]).max(axis=1, initial=0.0) > _SYM_REL_TOL * peak
    if asym.any():
        which = "the matrix" if len(shape) == 2 else f"matrix {int(np.argmax(asym))} of the stack"
        raise InvalidInput(f"{which} is not symmetric within tolerance")
    return a, peak


def _off_norms(a: np.ndarray, pairs) -> np.ndarray:
    """Off-diagonal Frobenius norm of each matrix of a stack, summed in sweep order."""
    acc = np.zeros(a.shape[0])
    for p, q in pairs:
        apq = a[:, p, q]
        acc = acc + apq * apq
    return np.sqrt(2.0 * acc)


# at a tiny pivot theta = (a_qq - a_pp) / (2 a_pq) and its square may
# overflow to inf; t is then 0, the right limit, so the warning is noise
@np.errstate(over="ignore")
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
    """|lambda|_max / |lambda|_min of one symmetric matrix, +inf when rank deficient.

    The matrix is checked as :func:`jacobi_eigen_sym` checks a lone
    ``(n, n)`` matrix; a stack or a non-square array is InvalidInput.
    """
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {shape}")
    evals = jacobi_eigen_sym(m, vectors=False)
    return float(norms_and_conditions(evals[None])[1][0])


def kalman_update4(p, r, y):
    """Kalman measurement update with H = I of a 4-state filter, on Python floats.

    ``p`` is the prior covariance P and ``r`` the measurement covariance R,
    both 4x4, as 4 rows of 4 floats or as arrays, and ``y`` the innovation,
    4 floats. Returns ``(K y,
    P+)`` for the gain K = P S^-1 of S = P + R: K y as a tuple of 4 floats
    and P+ = (I - K) P as a list of 4 rows of floats.

    S is factored as L L^T (Cholesky, from its lower triangle), and
    Y = L^-1 P and z = L^-1 y come by forward substitution. Since P is
    symmetric, K = Y^T L^-1, so K y = Y^T z and K P = Y^T Y. P+ = P - Y^T Y
    is formed on the upper triangle from P's upper triangle and mirrored,
    so it is exactly symmetric. Every step is one expression on Python
    floats, written out for this size, so the rounding does not depend on
    any BLAS kernel and no numpy call is made past reading ``p`` and ``r``.

    Raises InvalidInput when ``p`` or ``r`` is not ``(4, 4)`` or ``y`` not
    4 entries long, or an entry of any is not finite, and NumericalFailure
    when S is not positive definite to working precision: a pivot of the
    factorization that is not a positive finite number (zero for a singular
    S, NaN when the factorization overflows).
    """
    (p00, p01, p02, p03,
     p10, p11, p12, p13,
     p20, p21, p22, p23,
     p30, p31, p32, p33) = _entries(p, 4, "P")
    (r00, _, _, _,
     r10, r11, _, _,
     r20, r21, r22, _,
     r30, r31, r32, r33) = _entries(r, 4, "R")
    y0, y1, y2, y3 = _innovation(y, 4)
    # S = L L^T
    l00 = _pivot(p00 + r00)
    l10 = (p10 + r10) / l00
    l20 = (p20 + r20) / l00
    l30 = (p30 + r30) / l00
    l11 = _pivot(p11 + r11 - l10 * l10)
    l21 = (p21 + r21 - l20 * l10) / l11
    l31 = (p31 + r31 - l30 * l10) / l11
    l22 = _pivot(p22 + r22 - l20 * l20 - l21 * l21)
    l32 = (p32 + r32 - l30 * l20 - l31 * l21) / l22
    l33 = _pivot(p33 + r33 - l30 * l30 - l31 * l31 - l32 * l32)
    # Y = L^-1 P, column j of Y from column j of P; yij is Y[i][j]
    y00 = p00 / l00
    y10 = (p10 - l10 * y00) / l11
    y20 = (p20 - l20 * y00 - l21 * y10) / l22
    y30 = (p30 - l30 * y00 - l31 * y10 - l32 * y20) / l33
    y01 = p01 / l00
    y11 = (p11 - l10 * y01) / l11
    y21 = (p21 - l20 * y01 - l21 * y11) / l22
    y31 = (p31 - l30 * y01 - l31 * y11 - l32 * y21) / l33
    y02 = p02 / l00
    y12 = (p12 - l10 * y02) / l11
    y22 = (p22 - l20 * y02 - l21 * y12) / l22
    y32 = (p32 - l30 * y02 - l31 * y12 - l32 * y22) / l33
    y03 = p03 / l00
    y13 = (p13 - l10 * y03) / l11
    y23 = (p23 - l20 * y03 - l21 * y13) / l22
    y33 = (p33 - l30 * y03 - l31 * y13 - l32 * y23) / l33
    # z = L^-1 y
    z0 = y0 / l00
    z1 = (y1 - l10 * z0) / l11
    z2 = (y2 - l20 * z0 - l21 * z1) / l22
    z3 = (y3 - l30 * z0 - l31 * z1 - l32 * z2) / l33
    ky = (
        y00 * z0 + y10 * z1 + y20 * z2 + y30 * z3,
        y01 * z0 + y11 * z1 + y21 * z2 + y31 * z3,
        y02 * z0 + y12 * z1 + y22 * z2 + y32 * z3,
        y03 * z0 + y13 * z1 + y23 * z2 + y33 * z3,
    )
    # P+ = P - Y^T Y, entry (i, j) from columns i and j of Y
    a00 = p00 - (y00 * y00 + y10 * y10 + y20 * y20 + y30 * y30)
    a01 = p01 - (y00 * y01 + y10 * y11 + y20 * y21 + y30 * y31)
    a02 = p02 - (y00 * y02 + y10 * y12 + y20 * y22 + y30 * y32)
    a03 = p03 - (y00 * y03 + y10 * y13 + y20 * y23 + y30 * y33)
    a11 = p11 - (y01 * y01 + y11 * y11 + y21 * y21 + y31 * y31)
    a12 = p12 - (y01 * y02 + y11 * y12 + y21 * y22 + y31 * y32)
    a13 = p13 - (y01 * y03 + y11 * y13 + y21 * y23 + y31 * y33)
    a22 = p22 - (y02 * y02 + y12 * y12 + y22 * y22 + y32 * y32)
    a23 = p23 - (y02 * y03 + y12 * y13 + y22 * y23 + y32 * y33)
    a33 = p33 - (y03 * y03 + y13 * y13 + y23 * y23 + y33 * y33)
    return ky, [
        [a00, a01, a02, a03],
        [a01, a11, a12, a13],
        [a02, a12, a22, a23],
        [a03, a13, a23, a33],
    ]


def kalman_update3(p, r, y):
    """Kalman measurement update with H = I of a 3-state filter, on Python floats.

    :func:`kalman_update4` written out for ``(3, 3)`` covariances and a
    3-entry innovation: the same steps, checks and exceptions.
    """
    (p00, p01, p02,
     p10, p11, p12,
     p20, p21, p22) = _entries(p, 3, "P")
    (r00, _, _,
     r10, r11, _,
     r20, r21, r22) = _entries(r, 3, "R")
    y0, y1, y2 = _innovation(y, 3)
    l00 = _pivot(p00 + r00)
    l10 = (p10 + r10) / l00
    l20 = (p20 + r20) / l00
    l11 = _pivot(p11 + r11 - l10 * l10)
    l21 = (p21 + r21 - l20 * l10) / l11
    l22 = _pivot(p22 + r22 - l20 * l20 - l21 * l21)
    y00 = p00 / l00
    y10 = (p10 - l10 * y00) / l11
    y20 = (p20 - l20 * y00 - l21 * y10) / l22
    y01 = p01 / l00
    y11 = (p11 - l10 * y01) / l11
    y21 = (p21 - l20 * y01 - l21 * y11) / l22
    y02 = p02 / l00
    y12 = (p12 - l10 * y02) / l11
    y22 = (p22 - l20 * y02 - l21 * y12) / l22
    z0 = y0 / l00
    z1 = (y1 - l10 * z0) / l11
    z2 = (y2 - l20 * z0 - l21 * z1) / l22
    ky = (
        y00 * z0 + y10 * z1 + y20 * z2,
        y01 * z0 + y11 * z1 + y21 * z2,
        y02 * z0 + y12 * z1 + y22 * z2,
    )
    a00 = p00 - (y00 * y00 + y10 * y10 + y20 * y20)
    a01 = p01 - (y00 * y01 + y10 * y11 + y20 * y21)
    a02 = p02 - (y00 * y02 + y10 * y12 + y20 * y22)
    a11 = p11 - (y01 * y01 + y11 * y11 + y21 * y21)
    a12 = p12 - (y01 * y02 + y11 * y12 + y21 * y22)
    a22 = p22 - (y02 * y02 + y12 * y12 + y22 * y22)
    return ky, [
        [a00, a01, a02],
        [a01, a11, a12],
        [a02, a12, a22],
    ]


def covariance_step4(phi, p, q):
    """``Phi P Phi^T + Q`` of 4x4 matrices, on Python floats.

    ``phi``, ``p`` and ``q`` are each 4 rows of 4 floats; ``q`` is taken as
    symmetric and only its upper triangle is read. Phi P is formed in full,
    then the upper triangle of its product with Phi^T, to which Q is added,
    and the triangle is mirrored, so the result, 4 rows of 4 floats, is
    exactly symmetric. Every entry is one expression written out for this
    size, so no BLAS call is made and the rounding does not depend on the
    CPU kernel. Nothing is checked: a non-finite entry propagates to the
    update, which rejects it.
    """
    ((f00, f01, f02, f03),
     (f10, f11, f12, f13),
     (f20, f21, f22, f23),
     (f30, f31, f32, f33)) = phi
    ((p00, p01, p02, p03),
     (p10, p11, p12, p13),
     (p20, p21, p22, p23),
     (p30, p31, p32, p33)) = p
    ((q00, q01, q02, q03),
     (_, q11, q12, q13),
     (_, _, q22, q23),
     (_, _, _, q33)) = q
    # T = Phi P; tij is T[i][j]
    t00 = f00 * p00 + f01 * p10 + f02 * p20 + f03 * p30
    t01 = f00 * p01 + f01 * p11 + f02 * p21 + f03 * p31
    t02 = f00 * p02 + f01 * p12 + f02 * p22 + f03 * p32
    t03 = f00 * p03 + f01 * p13 + f02 * p23 + f03 * p33
    t10 = f10 * p00 + f11 * p10 + f12 * p20 + f13 * p30
    t11 = f10 * p01 + f11 * p11 + f12 * p21 + f13 * p31
    t12 = f10 * p02 + f11 * p12 + f12 * p22 + f13 * p32
    t13 = f10 * p03 + f11 * p13 + f12 * p23 + f13 * p33
    t20 = f20 * p00 + f21 * p10 + f22 * p20 + f23 * p30
    t21 = f20 * p01 + f21 * p11 + f22 * p21 + f23 * p31
    t22 = f20 * p02 + f21 * p12 + f22 * p22 + f23 * p32
    t23 = f20 * p03 + f21 * p13 + f22 * p23 + f23 * p33
    t30 = f30 * p00 + f31 * p10 + f32 * p20 + f33 * p30
    t31 = f30 * p01 + f31 * p11 + f32 * p21 + f33 * p31
    t32 = f30 * p02 + f31 * p12 + f32 * p22 + f33 * p32
    t33 = f30 * p03 + f31 * p13 + f32 * p23 + f33 * p33
    # Phi P Phi^T + Q on the upper triangle, entry (i, j) from row i of T and row j of Phi
    a00 = t00 * f00 + t01 * f01 + t02 * f02 + t03 * f03 + q00
    a01 = t00 * f10 + t01 * f11 + t02 * f12 + t03 * f13 + q01
    a02 = t00 * f20 + t01 * f21 + t02 * f22 + t03 * f23 + q02
    a03 = t00 * f30 + t01 * f31 + t02 * f32 + t03 * f33 + q03
    a11 = t10 * f10 + t11 * f11 + t12 * f12 + t13 * f13 + q11
    a12 = t10 * f20 + t11 * f21 + t12 * f22 + t13 * f23 + q12
    a13 = t10 * f30 + t11 * f31 + t12 * f32 + t13 * f33 + q13
    a22 = t20 * f20 + t21 * f21 + t22 * f22 + t23 * f23 + q22
    a23 = t20 * f30 + t21 * f31 + t22 * f32 + t23 * f33 + q23
    a33 = t30 * f30 + t31 * f31 + t32 * f32 + t33 * f33 + q33
    return [
        [a00, a01, a02, a03],
        [a01, a11, a12, a13],
        [a02, a12, a22, a23],
        [a03, a13, a23, a33],
    ]


def covariance_step3(phi, p, q):
    """:func:`covariance_step4` written out for 3x3 matrices."""
    ((f00, f01, f02),
     (f10, f11, f12),
     (f20, f21, f22)) = phi
    ((p00, p01, p02),
     (p10, p11, p12),
     (p20, p21, p22)) = p
    ((q00, q01, q02),
     (_, q11, q12),
     (_, _, q22)) = q
    t00 = f00 * p00 + f01 * p10 + f02 * p20
    t01 = f00 * p01 + f01 * p11 + f02 * p21
    t02 = f00 * p02 + f01 * p12 + f02 * p22
    t10 = f10 * p00 + f11 * p10 + f12 * p20
    t11 = f10 * p01 + f11 * p11 + f12 * p21
    t12 = f10 * p02 + f11 * p12 + f12 * p22
    t20 = f20 * p00 + f21 * p10 + f22 * p20
    t21 = f20 * p01 + f21 * p11 + f22 * p21
    t22 = f20 * p02 + f21 * p12 + f22 * p22
    a00 = t00 * f00 + t01 * f01 + t02 * f02 + q00
    a01 = t00 * f10 + t01 * f11 + t02 * f12 + q01
    a02 = t00 * f20 + t01 * f21 + t02 * f22 + q02
    a11 = t10 * f10 + t11 * f11 + t12 * f12 + q11
    a12 = t10 * f20 + t11 * f21 + t12 * f22 + q12
    a22 = t20 * f20 + t21 * f21 + t22 * f22 + q22
    return [
        [a00, a01, a02],
        [a01, a11, a12],
        [a02, a12, a22],
    ]


def _entries(m, n: int, name: str) -> list:
    """The entries of an ``(n, n)`` matrix, row by row, as Python floats; InvalidInput unless all are finite.

    ``m`` is n lists of n floats, as the kernels here return a matrix, or
    anything ``numpy.asarray`` reads as an ``(n, n)`` array.
    """
    try:
        rows = type(m) is list and [*map(len, m)] == [n] * n
    except TypeError:  # an item of the list that is not a row
        rows = False
    if rows:
        flat = [*chain.from_iterable(m)]
    else:
        try:
            m = np.asarray(m, dtype=float)
        except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
            raise InvalidInput(f"{name} must be a {n}x{n} matrix of numbers") from None
        if m.shape != (n, n):
            raise InvalidInput(f"{name} must be {n}x{n}, got shape {m.shape}")
        flat = m.ravel().tolist()
    # a finite sum has no infinite or NaN term; one that overflows is checked term by term
    if not (math.isfinite(sum(flat)) or all(map(math.isfinite, flat))):
        raise InvalidInput(f"{name} entries must be finite")
    return flat


def _innovation(y, n: int):
    """``y`` as n finite numbers, or InvalidInput."""
    if len(y) != n or not all(map(math.isfinite, y)):
        raise InvalidInput(f"the innovation must be {n} finite numbers")
    return y


def _pivot(d: float) -> float:
    """The square root of a Cholesky pivot; NumericalFailure unless it is positive and finite."""
    if 0.0 < d < math.inf:
        return math.sqrt(d)
    raise NumericalFailure(f"innovation covariance P + R is not positive definite (pivot {d:.3e})")


class RngStream:
    """Deterministic scalar random stream (SplitMix64, a counter-based generator).

    The state is a counter, and nothing else: output k (k = 1, 2, ...) of
    ``RngStream(seed)`` is mix(seed + k gamma), mod 2^64. Two streams built
    from the same seed produce bit-identical samples. Gaussian sampling is
    Leva's ratio of uniforms: candidate k takes outputs 2k - 1 and 2k, and
    each deviate is the first accepted candidate after the one before, so
    draws come in the same order regardless of sigma. ``sigma == 0``
    returns exactly 0.0 without consuming state.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0 or seed > _U64:
            raise InvalidInput("seed must fit in an unsigned 64-bit integer")
        self._state = seed

    def next_u64(self) -> int:
        z = self._state = (self._state + _GAMMA) & _U64
        z = ((z ^ (z >> 30)) * _MIX_A) & _U64
        z = ((z ^ (z >> 27)) * _MIX_B) & _U64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _U53

    def gaussian(self, sigma: float) -> float:
        """One sample from N(0, sigma^2), by Leva's ratio of uniforms."""
        if sigma < 0.0:
            raise InvalidInput("sigma must be nonnegative")
        if sigma == 0.0:
            return 0.0
        while True:
            u = 1.0 - self.uniform()
            v = _LEVA_V * (self.uniform() - 0.5)
            x = u - _LEVA_S
            y = abs(v) - _LEVA_T
            q = x * x + y * (_LEVA_A * y - _LEVA_B * x)
            if q < _LEVA_R1 or (q <= _LEVA_R2 and v * v <= -4.0 * u * u * math.log(u)):
                return sigma * (v / u)

    def gaussian_vec(self, sigma: float, n: int) -> np.ndarray:
        """``n`` samples from N(0, sigma^2).

        Returns the values, and leaves the counter, that ``n`` calls of
        :meth:`gaussian` would, bit for bit. The draw runs in passes of at
        most ``_PASS_CANDIDATES`` candidates, each sized from the deviates
        still needed. A pass mixes the counters of its candidates' first
        outputs (state + (2k - 1) gamma) and second outputs (one gamma on)
        as the two rows of one ``uint64`` array; the uniforms, ``u``, ``v``,
        Leva's ``Q`` and both bounds are array operations, and ``math.log``
        is taken on the candidates between the bounds only. The counter then
        advances by 2 gamma per candidate consumed. A pass that accepts too
        few candidates is followed by another.
        """
        if sigma < 0.0:
            raise InvalidInput("sigma must be nonnegative")
        if sigma == 0.0 or n <= 0:
            return np.zeros(max(n, 0))
        out = np.empty(n)
        i = 0
        while i < n:
            need = n - i
            # about 73 % of the candidates are accepted
            cands = min(_PASS_CANDIDATES, need * 11 // 8 + 32)
            z = np.empty((2, cands), dtype=np.uint64)
            np.multiply(np.arange(1, 2 * cands, 2, dtype=np.uint64), _GAMMA_NP, out=z[0])
            z[0] += np.uint64(self._state)
            np.add(z[0], _GAMMA_NP, out=z[1])
            z ^= z >> _SHIFT_30
            z *= _MIX_A_NP
            z ^= z >> _SHIFT_27
            z *= _MIX_B_NP
            z ^= z >> _SHIFT_31
            w = (z >> _SHIFT_11).astype(float)
            w *= _U53
            u = 1.0 - w[0]
            v = _LEVA_V * (w[1] - 0.5)
            x = u - _LEVA_S
            y = np.abs(v) - _LEVA_T
            q = x * x + y * (_LEVA_A * y - _LEVA_B * x)
            ok = q < _LEVA_R1
            band = np.flatnonzero(~ok & (q <= _LEVA_R2))
            if band.size:
                ub, vb = u[band], v[band]
                log_u = np.fromiter(map(math.log, ub.tolist()), float, band.size)
                ok[band] = vb * vb <= -4.0 * ub * ub * log_u
            idx = np.flatnonzero(ok)[:need]
            # the stream stops at the last candidate consumed: the pass's
            # last when it fell short, else the last accepted one used
            used = cands if idx.size < need else int(idx[-1]) + 1
            self._state = (self._state + 2 * used * _GAMMA) & _U64
            out[i:i + idx.size] = sigma * (v[idx] / u[idx])
            i += idx.size
        return out
