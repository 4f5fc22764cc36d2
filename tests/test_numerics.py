import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import attsim.numerics as numerics
from attsim.errors import InvalidInput, NumericalFailure
from attsim.numerics import (
    RngStream,
    condition_number,
    jacobi_eigen_sym,
    kalman_update3,
    kalman_update4,
)

from conftest import random_symmetric
from oracles import (
    gaussian_vec_per_draw,
    jacobi_eigen_one,
    kalman_update_by_solve,
    solve,
    solve_numpy_rows,
    symmetrize,
)


def _char_poly_roots_bisect(m: np.ndarray) -> np.ndarray:
    """Independent eigenvalue oracle: bisect sign changes of det(M - x I).

    Uses a cofactor determinant so it shares nothing with the Jacobi path.
    """

    def det(a):
        n = a.shape[0]
        if n == 1:
            return a[0, 0]
        total = 0.0
        for j in range(n):
            minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
            total += ((-1.0) ** j) * a[0, j] * det(minor)
        return total

    def p(x):
        return det(m - x * np.eye(m.shape[0]))

    n = m.shape[0]
    radius = float(np.max(np.sum(np.abs(m), axis=1))) + 1.0  # Gershgorin bound
    xs = np.linspace(-radius, radius, 4000)
    vals = [p(x) for x in xs]
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0.0:
            lo, hi = xs[i], xs[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if p(lo) * p(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    assert len(roots) == n, "oracle expects distinct eigenvalues"
    return np.sort(np.array(roots))[::-1]


class TestJacobi:
    def test_diagonal(self):
        evals, evecs = jacobi_eigen_sym(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(evals, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(evecs), np.eye(3))

    def test_embedded_2x2(self):
        m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        evals, _ = jacobi_eigen_sym(m)
        assert np.allclose(evals, [5.0, 3.0, 1.0], atol=1e-12)

    def test_residual_random_4x4(self):
        rng = RngStream(99)
        m = random_symmetric(rng, 4)
        evals, evecs = jacobi_eigen_sym(m)
        scale = max(1.0, float(np.max(np.abs(m))))
        for lam, v in zip(evals, evecs):
            assert np.linalg.norm(m @ v - lam * v) <= 1e-10 * scale

    def test_eigenvalues_match_char_poly_bisection(self):
        rng = RngStream(7)
        m = random_symmetric(rng, 4)
        evals, _ = jacobi_eigen_sym(m)
        oracle = _char_poly_roots_bisect(m)
        assert np.allclose(evals, oracle, atol=1e-8)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_orthonormal_and_sorted(self, n):
        rng = RngStream(n)
        for _ in range(20):
            m = random_symmetric(rng, n)
            evals, evecs = jacobi_eigen_sym(m)
            assert np.all(np.diff(evals) <= 1e-12)
            gram = evecs @ evecs.T
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-9

    def test_trace_identity(self):
        rng = RngStream(5)
        for _ in range(20):
            m = random_symmetric(rng, 4)
            evals, _ = jacobi_eigen_sym(m)
            scale = max(1.0, float(np.sqrt((m * m).sum())))
            assert abs(np.trace(m) - evals.sum()) <= 1e-9 * scale

    def test_det_sign_consistent_3x3(self):
        # cofactor determinant oracle against the eigenvalue product
        rng = RngStream(13)
        for _ in range(20):
            m = random_symmetric(rng, 3)
            a, b, c = m[0], m[1], m[2]
            det = (
                a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])
            )
            evals, _ = jacobi_eigen_sym(m)
            assert math.copysign(1.0, det) == math.copysign(1.0, float(np.prod(evals)))

    def test_rejects_non_symmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            jacobi_eigen_sym(m)

    def test_zero_matrix(self):
        evals, evecs = jacobi_eigen_sym(np.zeros((4, 4)))
        assert np.all(evals == 0.0)
        assert np.allclose(evecs @ evecs.T, np.eye(4))


def _per_matrix(stack):
    """Reference: the scalar one-matrix sweep applied to each member of a stack."""
    n = stack.shape[1]
    evals = np.zeros((len(stack), n))
    evecs = np.zeros((len(stack), n, n))
    for i, m in enumerate(stack):
        evals[i], evecs[i] = jacobi_eigen_one(m)
    return evals, evecs


class TestJacobiStack:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_per_matrix_bitwise(self, n):
        rng = RngStream(100 + n)
        stack = np.array([random_symmetric(rng, n) for _ in range(40)])
        evals, evecs = jacobi_eigen_sym(stack)
        ref_evals, ref_evecs = _per_matrix(stack)
        assert evals.shape == (40, n) and evecs.shape == (40, n, n)
        assert np.array_equal(evals, ref_evals)
        assert np.array_equal(evecs, ref_evecs)

    def test_mixed_stack_equals_per_matrix_bitwise(self):
        # members that converge before the first sweep sit beside ones that
        # need several, so the per-matrix mask decides every rotation
        rng = RngStream(31)
        stack = np.array(
            [
                random_symmetric(rng, 4),
                2.5 * np.eye(4),
                np.diag([3.0, -1.0, 0.5, 2.0]),
                np.zeros((4, 4)),
                random_symmetric(rng, 4) * 1e-8,
                -np.eye(4),
                random_symmetric(rng, 4) * 1e6,
                np.diag([1.0, 1.0, 0.0, 0.0]),
            ]
        )
        evals, evecs = jacobi_eigen_sym(stack)
        ref_evals, ref_evecs = _per_matrix(stack)
        assert np.array_equal(evals, ref_evals)
        assert np.array_equal(evecs, ref_evecs)
        # the zero member returns +0.0 eigenvalues, as the one-matrix path does
        assert not np.signbit(evals[3]).any()

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_one_matrix_is_a_stack_of_one(self, n):
        # a lone matrix goes through the stacked sweep and still equals the
        # scalar sweep bit for bit, zero and diagonal matrices included
        rng = RngStream(200 + n)
        mats = [random_symmetric(rng, n) for _ in range(10)]
        for m in mats + [np.zeros((n, n)), np.diag(np.arange(n, 0.0, -1.0))]:
            evals, evecs = jacobi_eigen_sym(m)
            ref_evals, ref_evecs = jacobi_eigen_one(m)
            assert evals.shape == (n,) and evecs.shape == (n, n)
            assert np.array_equal(evals, ref_evals) and np.array_equal(evecs, ref_evecs)
            assert not np.any(np.signbit(evals) != np.signbit(ref_evals))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_empty_stack(self, n):
        evals, evecs = jacobi_eigen_sym(np.zeros((0, n, n)))
        assert evals.shape == (0, n)
        assert evecs.shape == (0, n, n)

    def test_rejects_one_non_symmetric_member(self):
        rng = RngStream(41)
        stack = np.array([random_symmetric(rng, 3) for _ in range(5)])
        stack[3, 0, 2] += 1e-3
        with pytest.raises(InvalidInput, match="matrix 3"):
            jacobi_eigen_sym(stack)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_one_non_finite_member(self, bad):
        rng = RngStream(42)
        stack = np.array([random_symmetric(rng, 3) for _ in range(5)])
        stack[2, 1, 1] = bad
        with pytest.raises(InvalidInput):
            jacobi_eigen_sym(stack)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 0, 0), (3, 0, 0)])
    def test_rejects_empty_matrices(self, shape):
        with pytest.raises(InvalidInput, match="nonempty"):
            jacobi_eigen_sym(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 7, 7)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(InvalidInput):
            jacobi_eigen_sym(np.zeros(shape))

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((2, 3), "expected a square matrix or a stack of them, got shape (2, 3)"),
            ((3,), "expected a square matrix or a stack of them, got shape (3,)"),
            ((2, 3, 4), "expected a square matrix or a stack of them, got shape (2, 3, 4)"),
            ((0, 0), "expected nonempty matrices, got shape (0, 0)"),
            ((3, 0, 0), "expected nonempty matrices, got shape (3, 0, 0)"),
        ],
        ids=["not-square", "one-dim", "not-square-stack", "empty", "empty-stack"],
    )
    def test_messages_name_the_callers_shape(self, shape, message):
        # a lone matrix is checked as a stack of one, but named as given
        with pytest.raises(InvalidInput) as exc:
            jacobi_eigen_sym(np.ones(shape))
        assert str(exc.value) == message

    def test_non_symmetric_messages(self):
        m = np.array([[1.0, 3.0], [0.0, 1.0]])
        with pytest.raises(InvalidInput) as lone:
            jacobi_eigen_sym(m)
        assert str(lone.value) == "the matrix is not symmetric within tolerance"
        with pytest.raises(InvalidInput) as stack:
            jacobi_eigen_sym(np.array([np.eye(2), m]))
        assert str(stack.value) == "matrix 1 of the stack is not symmetric within tolerance"

    def test_sweep_limit_raises(self, monkeypatch):
        rng = RngStream(43)
        stack = np.array([np.eye(4), random_symmetric(rng, 4)])
        monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericalFailure) as alone:
            jacobi_eigen_sym(stack[1])
        with pytest.raises(NumericalFailure) as oracle:
            jacobi_eigen_one(stack[1])
        assert str(alone.value) == str(oracle.value)
        with pytest.raises(NumericalFailure, match="in 1 matrices"):
            jacobi_eigen_sym(stack)


def _pivot_stack(rng, n):
    """Members of every kind the stacked sweep treats apart, ``(k, n, n)``.

    Random SPD and random symmetric members (several sweeps), diagonal and
    zero members (none), and members whose pivots are exactly zero in some
    planes but not in others, so that within one rotation some active
    members rotate and some are left alone.
    """
    mats = []
    for _ in range(6):
        b = random_symmetric(rng, n)
        mats.append(b @ b.T + 1e-3 * np.eye(n))
        mats.append(random_symmetric(rng, n))
    mats += [np.diag(np.arange(n, 0.0, -1.0)), np.zeros((n, n)), -2.5 * np.eye(n)]
    if n >= 2:
        # a 2x2 block in the last plane beside a diagonal: the earlier
        # pivots are 0 while other members rotate in their planes
        m = np.diag(np.arange(1.0, n + 1.0))
        m[n - 2, n - 1] = m[n - 1, n - 2] = 0.75
        mats.append(m)
        # a negative zero pivot counts as zero
        m = np.diag(np.arange(1.0, n + 1.0))
        m[0, 1] = m[1, 0] = 0.5
        m[0, n - 1] = m[n - 1, 0] = -0.0
        mats.append(m)
    if n >= 3:
        # a zero pivot between equal diagonal entries, which a rotation
        # would divide 0 by 0 for
        m = np.eye(n)
        m[0, n - 1] = m[n - 1, 0] = 0.3
        mats.append(m)
    mats.append(random_symmetric(rng, n) * 1e-9)
    mats.append(random_symmetric(rng, n) * 1e7)
    return np.array(mats)


def _symmetry_over_whole_members(stack):
    """Reference check: each member's max|M| and whether max|M - M^T| over the whole member is within 1e-9 of it."""
    peak = np.abs(stack).max(axis=(1, 2))
    return peak, np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) <= 1e-9 * peak


class TestSymmetryCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_same_peak_bits_and_decisions_as_the_whole_member_check(self, n):
        # symmetric members at scales far apart, each also skewed in every
        # off-diagonal entry, upper and lower, by the tolerance itself, by
        # one step either side of it and by four times it
        rng = RngStream(500 + n)
        mats = [np.zeros((n, n))]
        for scale in (1e-300, 1e-9, 1.0, 1e6, 1e300):
            base = random_symmetric(rng, n) * scale
            mats.append(base)
            edge = 1e-9 * np.abs(base).max()
            for p in range(n):
                for q in range(n):
                    if p == q:
                        continue
                    for d in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf), -edge, 4.0 * edge):
                        m = base.copy()
                        m[p, q] += d
                        mats.append(m)
        stack = np.array(mats)
        peak, ok = _symmetry_over_whole_members(stack)
        if n > 1:
            assert 0 < ok.sum() < len(ok)
        for i, m in enumerate(stack):
            if ok[i]:
                a, got = numerics._symmetric_stack(m)
                assert got.tobytes() == peak[i:i + 1].tobytes()
                assert a.tobytes() == m.tobytes()
            else:
                with pytest.raises(InvalidInput, match="not symmetric"):
                    numerics._symmetric_stack(m)
        _, got = numerics._symmetric_stack(stack[ok])
        assert got.tobytes() == peak[ok].tobytes()
        if n > 1:
            with pytest.raises(InvalidInput, match=f"matrix {int(np.argmin(ok))} of the stack"):
                numerics._symmetric_stack(stack)


class TestJacobiValuesOnly:
    """``vectors=False`` returns the full call's eigenvalues, byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_stack_equals_full_call_and_oracle(self, n):
        stack = _pivot_stack(RngStream(300 + n), n)
        evals, evecs = jacobi_eigen_sym(stack)
        ref_evals, ref_evecs = _per_matrix(stack)
        assert evals.tobytes() == ref_evals.tobytes()
        assert evecs.tobytes() == ref_evecs.tobytes()
        values = jacobi_eigen_sym(stack, vectors=False)
        assert values.shape == (len(stack), n)
        assert values.tobytes() == evals.tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    def test_stack_equals_its_parts(self, n):
        # the record stacks: one large stack gives each member what smaller
        # stacks of it give
        rng = RngStream(400 + n)
        stack = np.concatenate([_pivot_stack(rng, n) for _ in range(5)])
        parts = [jacobi_eigen_sym(stack[lo:lo + 7], vectors=False) for lo in range(0, len(stack), 7)]
        assert jacobi_eigen_sym(stack, vectors=False).tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 4, 6])
    def test_lone_matrix(self, n):
        for m in _pivot_stack(RngStream(500 + n), n):
            values = jacobi_eigen_sym(m, vectors=False)
            assert values.shape == (n,)
            assert values.tobytes() == jacobi_eigen_sym(m)[0].tobytes()
            assert values.tobytes() == jacobi_eigen_one(m)[0].tobytes()

    @pytest.mark.parametrize("n", [1, 4])
    def test_empty_stack(self, n):
        assert jacobi_eigen_sym(np.zeros((0, n, n)), vectors=False).shape == (0, n)

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[1.0, 2.0], [0.0, 1.0]]),
            np.zeros((0, 0)),
            np.zeros((3, 0, 0)),
            np.zeros((2, 3, 4)),
            np.zeros((7, 7)),
            np.array([[1.0, math.nan], [math.nan, 1.0]]),
            np.array([np.eye(3), np.eye(3) + np.triu(np.ones((3, 3)), 1)]),
            np.zeros(3),
            np.zeros((1, 1, 3, 3)),
        ],
        ids=["asymmetric", "empty", "empty-stack", "not-square", "too-large", "nan", "asymmetric-member",
             "one-dim", "four-dim"],
    )
    def test_same_invalid_input(self, m):
        with pytest.raises(InvalidInput) as full:
            jacobi_eigen_sym(m)
        with pytest.raises(InvalidInput) as values:
            jacobi_eigen_sym(m, vectors=False)
        assert str(values.value) == str(full.value)

    def test_same_sweep_limit(self, monkeypatch):
        rng = RngStream(43)
        stack = np.array([np.eye(4), random_symmetric(rng, 4), random_symmetric(rng, 4)])
        monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
        for m in (stack, stack[1]):
            with pytest.raises(NumericalFailure) as full:
                jacobi_eigen_sym(m)
            with pytest.raises(NumericalFailure) as values:
                jacobi_eigen_sym(m, vectors=False)
            assert str(values.value) == str(full.value)


class TestJacobiScaling:
    """Each member is solved scaled by a power of two, so its magnitude changes no bit of the result."""

    @pytest.mark.parametrize("e", [-600, 600])
    def test_scaled_stack_bitwise(self, e):
        # at 2^-600 the squares of the 1e-9 members underflowed, at 2^600
        # those of the 1e7 members overflowed
        stack = _pivot_stack(RngStream(600), 4)
        evals, evecs = jacobi_eigen_sym(stack)
        scaled = np.ldexp(stack, e)
        got_evals, got_evecs = jacobi_eigen_sym(scaled)
        assert got_evals.tobytes() == np.ldexp(evals, e).tobytes()
        assert got_evecs.tobytes() == evecs.tobytes()
        assert jacobi_eigen_sym(scaled, vectors=False).tobytes() == got_evals.tobytes()

    @pytest.mark.parametrize("factor", [1e-200, 1e-310, 1e200])
    def test_tiny_and_huge_2x2(self, factor):
        # 1e-200 used to give (0, 0) and the identity, 1e200 a RuntimeWarning
        evals, evecs = jacobi_eigen_sym(factor * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert evals.tolist() == pytest.approx([3.0 * factor, factor], rel=1e-15 if factor > 1e-300 else 1e-8)
        assert np.allclose(np.abs(evecs), math.sqrt(0.5), rtol=0.0, atol=1e-15)

    def test_sweep_limit_in_callers_units(self, monkeypatch):
        m = random_symmetric(RngStream(43), 4)
        monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericalFailure) as unit:
            jacobi_eigen_sym(m)
        with pytest.raises(NumericalFailure) as scaled:
            jacobi_eigen_sym(np.ldexp(m, 600))
        unit_off, scaled_off = (float(re.search(r"off-diagonal (\S+)\)", str(exc.value)).group(1))
                                for exc in (unit, scaled))
        assert scaled_off == pytest.approx(unit_off * 2.0 ** 600, rel=1e-3)


class TestConditionNumber:
    def test_identity_is_exactly_one(self):
        assert condition_number(np.eye(4)) == 1.0

    def test_diag_ratio(self):
        assert condition_number(np.diag([10.0, 1.0, 1.0, 1.0])) == pytest.approx(10.0)

    def test_rank_deficient_is_infinite(self):
        assert condition_number(np.diag([1.0, 1.0, 1.0, 0.0])) == math.inf

    def test_rejects_non_symmetric(self):
        with pytest.raises(InvalidInput):
            condition_number(np.array([[1.0, 3.0], [0.0, 1.0]]))

    def test_rejects_a_stack(self):
        with pytest.raises(InvalidInput):
            condition_number(np.array([np.eye(3), 2.0 * np.eye(3)]))

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(InvalidInput):
            condition_number(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((2, 3), "expected a square matrix, got shape (2, 3)"),
            ((2, 3, 3), "expected a square matrix, got shape (2, 3, 3)"),
            ((0, 0), "expected nonempty matrices, got shape (0, 0)"),
        ],
        ids=["not-square", "stack", "empty"],
    )
    def test_messages_name_the_callers_shape(self, shape, message):
        with pytest.raises(InvalidInput) as exc:
            condition_number(np.ones(shape))
        assert str(exc.value) == message


_KALMAN = {3: kalman_update3, 4: kalman_update4}


def _spd(rng, n: int, scale: float) -> np.ndarray:
    """A random SPD matrix ``scale * A A^T / 2n``, with ``A`` of shape ``(n, 2n)``.

    The products are taken elementwise and summed in one order, so the
    matrix is exactly symmetric and does not depend on the BLAS kernel.
    """
    a = rng.standard_normal((n, 2 * n))
    return scale * (a[:, None, :] * a[None, :, :]).sum(axis=-1) / (2 * n)


class TestKalmanUpdate:
    """The written-out Cholesky updates against the Gauss-Jordan route they replaced."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p_scale, r_scale", [(1.0, 1e-8), (1e-8, 1.0), (1.0, 1.0)],
                             ids=["p-much-larger", "p-much-smaller", "comparable"])
    def test_matches_the_solve_oracle(self, n, p_scale, r_scale):
        # the bounds are about 60 times the largest deviation over 2000
        # draws of each case: 1.7e-14 max|y| in K y (P >> R, where S
        # inherits P's condition number) and 7.5e-16 max|P| in P+
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            p, r = _spd(rng, n, p_scale), _spd(rng, n, r_scale)
            y = rng.standard_normal(n)
            ky, post = _KALMAN[n](p, r, y.tolist())
            want_ky, want_post = kalman_update_by_solve(p, r, y)
            assert np.max(np.abs(np.array(ky) - want_ky)) <= 1e-12 * np.max(np.abs(y))
            assert np.max(np.abs(np.array(post) - want_post)) <= 5e-14 * np.max(np.abs(p))

    @pytest.mark.parametrize("n", [3, 4])
    def test_posterior_is_exactly_symmetric(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(100):
            # R's upper triangle differs from its lower, which is the one read
            r = _spd(rng, n, 0.5) + np.triu(rng.standard_normal((n, n)), 1)
            _, post = _KALMAN[n](_spd(rng, n, 1.0), r, rng.standard_normal(n).tolist())
            post = np.array(post)
            assert post.tobytes() == post.T.copy().tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("case", ["zero", "rank-deficient", "indefinite", "nan-pivot"])
    def test_not_positive_definite_raises(self, n, case):
        p, r = np.zeros((n, n)), np.zeros((n, n))
        if case == "rank-deficient":
            p = np.ones((n, n))  # the second pivot is 1 - 1 * 1 = 0 exactly
        elif case == "indefinite":
            p, r = np.eye(n), -2.0 * np.eye(n)
        elif case == "nan-pivot":
            # finite entries whose sums overflow: S[1][0] = S[1][1] = inf,
            # so the second pivot is inf - inf * inf = NaN
            p = np.eye(n)
            p[0, 1] = p[1, 0] = p[1, 1] = 1e308
            r = p.copy()
        with pytest.raises(NumericalFailure, match="not positive definite"):
            _KALMAN[n](p, r, [1.0] * n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_rejects_bad_input(self, n):
        ok, y = np.eye(n), [1.0] * n
        for bad in (np.eye(n + 1), np.eye(n - 1), np.ones(n), np.ones((n, n, 1)), np.ones((1, n, n)), 1.0):
            for args in ((bad, ok, y), (ok, bad, y)):
                with pytest.raises(InvalidInput):
                    _KALMAN[n](*args)
        for value in (math.nan, math.inf, -math.inf):
            # any entry, the upper triangle of R included, which the
            # factorization does not read
            for i, j in ((0, 0), (0, n - 1), (n - 1, 0)):
                bad = np.eye(n)
                bad[i, j] = value
                for args in ((bad, ok, y), (ok, bad, y)):
                    with pytest.raises(InvalidInput):
                        _KALMAN[n](*args)
            with pytest.raises(InvalidInput):
                _KALMAN[n](ok, ok, [value] + y[1:])
        for bad_y in (y[1:], y + [1.0]):
            with pytest.raises(InvalidInput):
                _KALMAN[n](ok, ok, bad_y)

    def test_lists_and_arrays_give_the_same_bits(self):
        rng = np.random.default_rng(7)
        p, r, y = _spd(rng, 4, 1.0), _spd(rng, 4, 1.0), rng.standard_normal(4)
        assert kalman_update4(p, r, y.tolist()) == kalman_update4(p.tolist(), r.tolist(), tuple(y.tolist()))


class TestSolve:
    """The Gauss-Jordan reference the filter updates are bounded against (tests/oracles.py)."""

    def test_roundtrip(self):
        rng = RngStream(21)
        a = random_symmetric(rng, 4) + 5.0 * np.eye(4)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.allclose(solve(a, a @ x), x, atol=1e-12)

    def test_inverse(self):
        # a matrix of right-hand sides, as the filter gains use
        rng = RngStream(22)
        a = random_symmetric(rng, 3) + 4.0 * np.eye(3)
        assert np.allclose(a @ solve(a, np.eye(3)), np.eye(3), atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(NumericalFailure):
            solve(np.zeros((3, 3)), np.ones(3))

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros((4, 4)),
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]],  # an exact multiple of a row
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        ],
    )
    def test_singular_raises_as_the_numpy_row_form_does(self, a):
        for fn in (solve, solve_numpy_rows):
            with pytest.raises(NumericalFailure):
                fn(a, np.ones(len(a)))


def _same_bits(x, y) -> bool:
    """Equal shapes and bits; NaNs of any payload count as equal."""
    x, y = np.asarray(x), np.asarray(y)
    return (
        x.shape == y.shape
        and np.array_equal(np.isnan(x), np.isnan(y))
        and np.where(np.isnan(x), 0.0, x).tobytes() == np.where(np.isnan(y), 0.0, y).tobytes()
    )


def _outcome(fn, a, b):
    try:
        return fn(a, b)
    except NumericalFailure:
        return "singular"


def _assert_solve_matches_numpy_rows(a, b):
    with np.errstate(all="ignore"):  # near-singular systems may overflow
        got, want = _outcome(solve, a, b), _outcome(solve_numpy_rows, a, b)
    if isinstance(want, str):
        assert got == want
    else:
        assert _same_bits(got, want)


_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_BITWISE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def _systems(draw, near_singular=False):
    """A 3x3 or 4x4 matrix and a vector or matrix of right-hand sides."""
    n = draw(st.sampled_from([3, 4]))
    a = draw(arrays(float, (n, n), elements=_ENTRIES))
    if near_singular:
        # a rank-one matrix plus a small perturbation
        u = draw(arrays(float, n, elements=_ENTRIES))
        v = draw(arrays(float, n, elements=_ENTRIES))
        scale = draw(st.sampled_from([1e-6, 1e-10, 1e-14, 1e-17, 0.0]))
        a = np.outer(u, v) + scale * a
    cols = draw(st.sampled_from([None, 1, n, 2 * n]))
    shape = (n,) if cols is None else (n, cols)
    return a, draw(arrays(float, shape, elements=_ENTRIES))


class TestSolveBitwise:
    """The reference's float-row elimination equals Gauss-Jordan on numpy rows bit for bit."""

    @_BITWISE
    @given(_systems())
    def test_random_systems(self, system):
        _assert_solve_matches_numpy_rows(*system)

    @_BITWISE
    @given(_systems(near_singular=True))
    def test_near_singular_systems(self, system):
        _assert_solve_matches_numpy_rows(*system)

    @pytest.mark.parametrize(
        "a",
        [
            # zero diagonal: every column needs a row swap
            [[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [4.0, 1.0, 0.0]],
            [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 2.0, 0.0], [0.0, 3.0, 0.0, 0.0], [4.0, 0.0, 0.0, 0.0]],
            # equal magnitudes: the first is the pivot, as np.argmax picks it
            [[1.0, 2.0, 3.0], [-1.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
            [[-2.0, 1.0, 0.0, 1.0], [2.0, 3.0, 1.0, 0.0], [2.0, 0.0, 5.0, 1.0], [-2.0, 1.0, 1.0, 7.0]],
            # an innovation covariance of the filters' size
            1e-6 * np.eye(4) + 1e-7 * np.ones((4, 4)),
        ],
    )
    def test_row_swaps_and_ties(self, a):
        a = np.asarray(a)
        n = a.shape[0]
        rhs = np.arange(1.0, n * n + 1.0).reshape(n, n) / 7.0
        _assert_solve_matches_numpy_rows(a, rhs)
        _assert_solve_matches_numpy_rows(a, rhs[:, 0])

    def test_overflow_takes_a_nan_pivot_as_np_argmax_does(self):
        # the elimination overflows: the third column's candidates are inf,
        # then NaN; np.argmax takes the NaN, and taking the inf instead
        # leaves one entry of the solution at 0
        a = np.array(
            [
                [-1e308, -1e300, 1e308, 1.0],
                [1e308, 0.0, 1e308, -1e308],
                [-1e300, 1.0, 1e-300, -1.0],
                [1e308, 1e-300, 1e308, -1.0],
            ]
        )
        assert np.isnan(solve(a, np.ones(4))).all()
        _assert_solve_matches_numpy_rows(a, np.ones(4))


class TestSymmetrize:
    """The reference symmetrize of tests/oracles.py, which the per-step predict oracle uses."""

    def test_result_is_symmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        s = symmetrize(m)
        assert np.array_equal(s, s.T)

    def test_stack_is_each_matrix_alone(self):
        # a (k, n, n) stack transposes each matrix, not the whole array
        m = np.random.default_rng(3).standard_normal((5, 4, 4))
        s = symmetrize(m)
        assert s.shape == m.shape
        for a, b in zip(s, m):
            assert a.tobytes() == symmetrize(b).tobytes()
            assert np.array_equal(a, a.T)


class TestRngStream:
    def test_sigma_zero_is_exact_zero(self):
        rng = RngStream(1)
        assert rng.gaussian(0.0) == 0.0

    def test_negative_sigma_rejected(self):
        rng = RngStream(1)
        with pytest.raises(InvalidInput):
            rng.gaussian(-1.0)
        with pytest.raises(InvalidInput):
            rng.gaussian_vec(-1.0, 3)

    def test_moments(self):
        # law-of-large-numbers bound: 3 sigma / sqrt(N) < 0.01
        rng = RngStream(42)
        n = 100_000
        xs = np.array([rng.gaussian(1.0) for _ in range(n)])
        assert abs(xs.mean()) < 0.02
        assert abs(xs.std() - 1.0) < 0.02

    def test_same_seed_same_sequence(self):
        a = RngStream(123)
        b = RngStream(123)
        for _ in range(1000):
            assert a.gaussian(1.0) == b.gaussian(1.0)
        for _ in range(1000):
            assert a.uniform() == b.uniform()

    def test_different_seeds_differ(self):
        a = RngStream(1)
        b = RngStream(2)
        assert any(a.uniform() != b.uniform() for _ in range(10))

    def test_uniform_range(self):
        rng = RngStream(77)
        xs = [rng.uniform() for _ in range(10_000)]
        assert min(xs) >= 0.0 and max(xs) < 1.0

    def test_next_u64_is_splitmix64(self):
        # the published first outputs of SplitMix64 from seed 0
        rng = RngStream(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_validation(self):
        with pytest.raises(InvalidInput):
            RngStream(-1)

    def test_gaussian_first_deviates_are_pinned(self):
        # outputs 1 and 2 of seed 0 give u = 1 - U1 = 0.11669 and
        # v = 1.7156 (U2 - 0.5) = -0.11747, inside Leva's inner bound, so
        # the first deviate is v / u; five deviates take six candidates
        rng = RngStream(0)
        assert [rng.gaussian(1.0) for _ in range(5)] == [
            -1.0066962198062825,
            -0.33149311496077105,
            0.5639113319125546,
            1.028095575317619,
            0.7420163896206612,
        ]
        assert rng._state == 12 * 0x9E3779B97F4A7C15 % 2**64

    def test_gaussian_vec_is_the_per_draw_stream(self):
        # interleaved with single draws, so each call starts mid-stream,
        # with each sigma; the per-draw oracle is checked against gaussian()
        # here and the block generator against both
        a, b, c = RngStream(2024), RngStream(2024), RngStream(2024)
        sizes = (1, 2, 3, 7, 533, 1, 1, 3, 2, 7, 533, 0, 2, 3)
        for i, n in enumerate(sizes * 3):
            sigma = (1.0, 1e-3, 0.0, 2.5)[i % 4]
            got = a.gaussian_vec(sigma, n)
            oracle = gaussian_vec_per_draw(c, sigma, n)
            want = np.array([b.gaussian(sigma) for _ in range(n)])
            assert got.shape == (n,)
            assert got.tobytes() == want.tobytes() == oracle.tobytes()
            assert a._state == b._state == c._state
            if i % 3 == 0:
                assert a.gaussian(1.0) == b.gaussian(1.0) == c.gaussian(1.0)

        # over 1e7 draws against the oracle: small sizes, sizes around what
        # 256 counters yield (about 200), where a pass first reaches the cap
        # of 4,096 candidates (2,956) and what that capped pass yields
        # (about 2,990), one and two capped passes' worth, the 12,288
        # deviates of a gyro window, older pass boundaries, odd sizes, and
        # draws that take many passes
        a, b = RngStream(7), RngStream(7)
        sizes = (0, 1, 2, 3, 7, 11, 12, 13, 14, 199, 200, 201, 255, 256, 257, 511, 540,
                 2_955, 2_956, 2_957, 2_990, 2_993, 2_996, 3_036, 3_037, 3_070, 3_217,
                 4_095, 4_096, 4_097, 5_985, 5_986, 5_987, 12_288, 24_526, 24_527, 24_528,
                 25_735, 25_736, 25_737, 32_767, 32_768, 32_769, 65_537, 1_000_001, 2_000_003)
        drawn = 0
        for i, n in enumerate(sizes * 5):
            sigma = (1.0, 1e-3, 0.0)[i % 3]
            got = a.gaussian_vec(sigma, n)
            want = gaussian_vec_per_draw(b, sigma, n)
            assert got.tobytes() == want.tobytes(), (i, n, sigma)
            assert a._state == b._state, (i, n, sigma)
            if i % 4 == 0:
                assert a.gaussian(1.0) == b.gaussian(1.0)
            drawn += n if sigma else 0
        assert drawn >= 10_000_000

    def test_leva_bounds_squeeze_the_exact_test(self):
        # on 1e6 candidates spread over the whole (u, v) rectangle: every
        # candidate inside the inner bound passes the exact test and none
        # outside the outer bound does, so the log is needed only between
        # them, where about 1 % of the candidates fall
        w = np.random.default_rng(27).random((2, 1_000_000))
        u = 1.0 - w[0]
        v = numerics._LEVA_V * (w[1] - 0.5)
        x = u - numerics._LEVA_S
        y = np.abs(v) - numerics._LEVA_T
        q = x * x + y * (numerics._LEVA_A * y - numerics._LEVA_B * x)
        log_u = np.fromiter(map(math.log, u.tolist()), float, u.size)
        exact = v * v <= -4.0 * u * u * log_u
        inner, outer = q < numerics._LEVA_R1, q > numerics._LEVA_R2
        assert exact[inner].all()
        assert not exact[outer].any()
        band = ~inner & ~outer
        assert 0.005 < band.mean() < 0.015, band.mean()
        assert exact[band].any() and not exact[band].all()
        assert 0.72 < exact.mean() < 0.74  # sqrt(pi / 2) / 1.7156 = 0.7306

    def test_gaussian_vec_is_normal(self):
        # 1e6 draws: the Kolmogorov-Smirnov distance to Phi is below its
        # 0.1 % critical value 1.95 / sqrt(n), and the counts beyond 3 and 4
        # sigma (2,700 and 63 expected) are within 5 binomial standard
        # deviations (260 and 40)
        n = 1_000_000
        xs = np.sort(RngStream(2027).gaussian_vec(1.0, n))
        phi = 0.5 * (1.0 + np.fromiter(map(math.erf, (xs / math.sqrt(2.0)).tolist()), float, n))
        ks = max((np.arange(1, n + 1) / n - phi).max(), (phi - np.arange(n) / n).max())
        assert ks < 1.95 / math.sqrt(n), ks
        tails = np.abs(xs)
        assert abs(int((tails > 3.0).sum()) - 2_700) <= 260
        assert abs(int((tails > 4.0).sum()) - 63) <= 40

    def test_gaussian_vec_temporaries_stay_a_few_mb(self):
        # passes of at most 4,096 candidates bound what a draw holds
        # besides the array it returns, however many deviates it draws
        rng = RngStream(11)
        tracemalloc.start()
        try:
            out = rng.gaussian_vec(1.0, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2**20, peak - out.nbytes
