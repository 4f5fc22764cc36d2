import math

import numpy as np
import pytest

import attsim.numerics as numerics
from attsim.errors import InvalidInput, NumericalFailure
from attsim.numerics import (
    RngStream,
    condition_number,
    gaussian,
    inv,
    jacobi_eigen_sym,
    solve,
    symmetrize,
)

from conftest import random_symmetric


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
    """Reference: the one-matrix path applied to each member of a stack."""
    n = stack.shape[1]
    evals = np.zeros((len(stack), n))
    evecs = np.zeros((len(stack), n, n))
    for i, m in enumerate(stack):
        evals[i], evecs[i] = jacobi_eigen_sym(m)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_one_non_finite_member(self, bad):
        rng = RngStream(42)
        stack = np.array([random_symmetric(rng, 3) for _ in range(5)])
        stack[2, 1, 1] = bad
        with pytest.raises(InvalidInput):
            jacobi_eigen_sym(stack)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 7, 7)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(InvalidInput):
            jacobi_eigen_sym(np.zeros(shape))

    def test_sweep_limit_raises(self, monkeypatch):
        rng = RngStream(43)
        stack = np.array([np.eye(4), random_symmetric(rng, 4)])
        monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericalFailure):
            jacobi_eigen_sym(stack[1])
        with pytest.raises(NumericalFailure, match="in 1 matrices"):
            jacobi_eigen_sym(stack)


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


class TestSolve:
    def test_roundtrip(self):
        rng = RngStream(21)
        a = random_symmetric(rng, 4) + 5.0 * np.eye(4)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.allclose(solve(a, a @ x), x, atol=1e-12)

    def test_inverse(self):
        rng = RngStream(22)
        a = random_symmetric(rng, 3) + 4.0 * np.eye(3)
        assert np.allclose(a @ inv(a), np.eye(3), atol=1e-12)

    def test_singular_raises(self):
        from attsim.errors import NumericalFailure

        with pytest.raises(NumericalFailure):
            solve(np.zeros((3, 3)), np.ones(3))


class TestSymmetrize:
    def test_result_is_symmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        s = symmetrize(m)
        assert np.array_equal(s, s.T)


class TestRngStream:
    def test_sigma_zero_is_exact_zero(self):
        rng = RngStream(1)
        assert rng.gaussian(0.0) == 0.0

    def test_negative_sigma_rejected(self):
        rng = RngStream(1)
        with pytest.raises(InvalidInput):
            rng.gaussian(-1.0)

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

    def test_module_level_alias(self):
        a = RngStream(9)
        b = RngStream(9)
        assert gaussian(a, 2.0) == b.gaussian(2.0)

    def test_uniform_range(self):
        rng = RngStream(77)
        xs = [rng.uniform() for _ in range(10_000)]
        assert min(xs) >= 0.0 and max(xs) < 1.0

    def test_seed_validation(self):
        with pytest.raises(InvalidInput):
            RngStream(-1)
