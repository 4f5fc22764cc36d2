import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attsim.attitude import (
    block_increments,
    error_angle,
    identity_quat,
    integrate_quat,
    quat_left_matrix,
    quat_mul,
    quat_to_matrix,
)
from attsim.errors import DegenerateQuaternion, GibbsSingularity, InvalidInput
from attsim.numerics import RngStream

from conftest import quat_conjugate, quat_normalize, quat_to_gibbs, random_unit_quat, random_unit_vec
from oracles import (
    axis_angle_quat,
    block_product_tree,
    cross_matrix,
    error_angle_numpy,
    gibbs_to_quat,
    omega_matrix,
    quat_kinematics,
    quat_mul_numpy,
)

HALF_SQRT2 = math.sqrt(0.5)

# derandomized: the bit-equality checks below must see the same cases every run
BITWISE = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def quats(min_norm=1e-3):
    return (
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4)
        .map(np.array)
        .filter(lambda q: np.linalg.norm(q) > min_norm)
    )


def unit_quats():
    return quats().map(lambda q: q / np.linalg.norm(q))


class TestQuatMul:
    def test_identity_left(self):
        rng = RngStream(0)
        q = random_unit_quat(rng)
        assert np.allclose(quat_mul(identity_quat(), q), q)

    def test_hamilton_ij_equals_k(self):
        i = np.array([1.0, 0.0, 0.0, 0.0])
        j = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.allclose(quat_mul(i, j), [0.0, 0.0, 1.0, 0.0])

    @settings(max_examples=100)
    @given(unit_quats(), unit_quats())
    def test_norm_multiplicative(self, a, b):
        assert abs(np.linalg.norm(quat_mul(a, b)) - 1.0) <= 1e-12


class TestFloatKernels:
    """The kernels read ndarray operands as Python floats and round as numpy scalars do."""

    @BITWISE
    @given(quats(0.0), quats(0.0))
    def test_quat_mul_same_bits_on_every_operand_type(self, a, b):
        want = bits(quat_mul_numpy(a, b))
        la, lb = a.tolist(), b.tolist()
        for x, y in ((a, b), (la, lb), (tuple(la), tuple(lb)), (a, tuple(lb)), (la, b)):
            assert bits(quat_mul(x, y)) == want

    @BITWISE
    @given(quats())
    def test_normalize_conjugate_gibbs_match_numpy_scalars(self, q):
        x, y, z, w = q  # numpy scalars
        assert bits(quat_normalize(q)) == bits(q / math.sqrt(float(x * x + y * y + z * z + w * w)))
        assert bits(quat_conjugate(q)) == bits([-x, -y, -z, w])
        if abs(w) > 1e-9:
            assert bits(quat_to_gibbs(q)) == bits(q[:3] / float(w))

    def test_integrate_stack_matches_one_product_per_block(self):
        rng = RngStream(15)
        rates = np.array([[random_unit_vec(rng) * (k + 1) for k in range(5)] for _ in range(6)])
        rates[2, 3:] = 0.0  # a padded block
        q = random_unit_quat(rng)
        out = integrate_quat(q, rates, 0.01)
        for b in range(rates.shape[0]):
            q = quat_mul_numpy(block_increments(rates[b:b + 1], 0.01)[0], q)
            assert bits(out[b]) == bits(q)

    @pytest.mark.parametrize("seed", range(8))
    def test_block_increments_is_a_tree_of_quat_mul(self, seed):
        # each block's product is the pure-Python tree of quat_mul over its
        # step increments, bit for bit; a stack of one-step blocks gives
        # those increments, and some blocks are zero-padded short ones
        rng = np.random.default_rng(seed)
        blocks, length = int(rng.integers(1, 12)), int(rng.integers(2, 70))
        rates = rng.standard_normal((blocks, length, 3))
        for b, n in enumerate(rng.integers(1, length + 1, blocks)):
            rates[b, n:] = 0.0
        steps = block_increments(rates.reshape(-1, 1, 3), 0.01).reshape(blocks, length, 4)
        out = block_increments(rates, 0.01)
        for b in range(blocks):
            assert bits(out[b]) == bits(block_product_tree(steps[b]))


class TestNormalizeConjugate:
    def test_scaled_identity(self):
        assert np.allclose(quat_normalize([0.0, 0.0, 0.0, 2.0]), [0, 0, 0, 1])

    def test_unit_unchanged(self):
        rng = RngStream(1)
        q = random_unit_quat(rng)
        assert np.max(np.abs(quat_normalize(q) - q)) <= 1e-15

    def test_zero_raises(self):
        with pytest.raises(DegenerateQuaternion):
            quat_normalize([0.0, 0.0, 0.0, 0.0])

    def test_never_flips_sign(self):
        q = np.array([0.0, 0.0, 0.0, -3.0])
        assert quat_normalize(q)[3] == -1.0

    def test_conjugate_identity(self):
        assert np.allclose(quat_conjugate(identity_quat()), identity_quat())

    def test_conjugate_negates_vector(self):
        q = np.array([0.0, 0.0, 0.6, 0.8])
        assert np.allclose(quat_conjugate(q), [0.0, 0.0, -0.6, 0.8])

    @settings(max_examples=100)
    @given(unit_quats())
    def test_conjugate_is_inverse(self, q):
        assert np.max(np.abs(quat_mul(q, quat_conjugate(q)) - identity_quat())) <= 1e-12


class TestGibbs:
    def test_identity_maps_to_zero(self):
        assert np.allclose(quat_to_gibbs(identity_quat()), [0, 0, 0])

    def test_90_about_z(self):
        q = np.array([0.0, 0.0, HALF_SQRT2, HALF_SQRT2])
        assert np.allclose(quat_to_gibbs(q), [0.0, 0.0, 1.0], atol=1e-15)

    def test_singularity(self):
        with pytest.raises(GibbsSingularity):
            quat_to_gibbs(np.array([1.0, 0.0, 0.0, 0.0]))

    def test_sign_invariant(self):
        rng = RngStream(3)
        q = random_unit_quat(rng)
        if abs(q[3]) < 1e-3:
            q = quat_normalize(q + identity_quat())
        assert np.allclose(quat_to_gibbs(q), quat_to_gibbs(-q))

    def test_gibbs_to_quat_values(self):
        assert np.allclose(gibbs_to_quat([0.0, 0.0, 0.0]), identity_quat())
        assert np.allclose(gibbs_to_quat([0.0, 0.0, 1.0]), [0, 0, HALF_SQRT2, HALF_SQRT2])

    @settings(max_examples=100)
    @given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=3, max_size=3))
    def test_round_trip(self, g):
        g = np.array(g)
        assert np.max(np.abs(quat_to_gibbs(gibbs_to_quat(g)) - g)) <= 1e-12 * max(1.0, np.max(np.abs(g)))

    def test_round_trip_up_to_170_degrees(self):
        rng = RngStream(4)
        for _ in range(200):
            axis = random_unit_vec(rng)
            angle = rng.uniform() * math.radians(170.0)
            q = axis_angle_quat(axis, angle)
            g = quat_to_gibbs(q)
            err = error_angle(gibbs_to_quat(g), q)
            assert err <= 1e-9


class TestKinematics:
    """The kinematic equation the RK4 reference integrates, and Omega(omega)."""

    def test_zero_rate(self):
        rng = RngStream(5)
        q = random_unit_quat(rng)
        assert np.allclose(quat_kinematics(q, np.zeros(3)), np.zeros(4))

    def test_identity_unit_rate(self):
        qdot = quat_kinematics(identity_quat(), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(qdot, [0.0, 0.0, 0.5, 0.0])

    @settings(max_examples=100)
    @given(unit_quats(), st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=3, max_size=3))
    def test_tangent(self, q, w):
        qdot = quat_kinematics(q, np.array(w))
        assert abs(float(np.dot(qdot, q))) <= 1e-12

    def test_operator_matrices_agree(self):
        rng = RngStream(6)
        q = random_unit_quat(rng)
        w = 2.0 * random_unit_vec(rng)
        direct = quat_mul(np.append(w, 0.0), q)
        assert np.allclose(omega_matrix(w) @ q, direct, atol=1e-14)

    def test_left_matrix_is_the_hamilton_product(self):
        # each entry of L(a) is a component of a or its negative, exactly,
        # and a stack gives each row's matrix
        rng = RngStream(7)
        a = np.array([random_unit_quat(rng) for _ in range(5)])
        b = random_unit_quat(rng)
        left = quat_left_matrix(a)
        assert left.shape == (5, 4, 4)
        for row, mat in zip(a, left):
            assert mat.tobytes() == quat_left_matrix(row).tobytes()
            assert set(np.abs(mat).ravel().tolist()) <= set(np.abs(row).tolist())
            assert np.allclose(mat @ b, quat_mul(row, b), atol=1e-15)
        assert np.array_equal(quat_left_matrix(identity_quat()), np.eye(4))


def _rk4_kinematics(q, omega, dt, n_sub):
    """Reference integrator for the kinematic equation, fixed-step RK4."""
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = quat_kinematics(q, omega)
        k2 = quat_kinematics(q + 0.5 * h * k1, omega)
        k3 = quat_kinematics(q + 0.5 * h * k2, omega)
        k4 = quat_kinematics(q + h * k3, omega)
        q = q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        q = q / np.linalg.norm(q)
    return q


class TestIntegrate:
    def test_zero_rate_unchanged(self):
        rng = RngStream(7)
        q = random_unit_quat(rng)
        assert np.array_equal(integrate_quat(q, np.zeros((1, 1, 3)), 0.1)[0], q)

    def test_quarter_turn_matches_closed_form_and_rk4(self):
        q = integrate_quat(identity_quat(), np.array([[[0.0, 0.0, math.pi / 2]]]), 1.0)[0]
        expect = np.array([0.0, 0.0, math.sin(math.pi / 4), math.cos(math.pi / 4)])
        assert np.allclose(q, expect, atol=1e-14)
        rk4 = _rk4_kinematics(identity_quat(), np.array([0.0, 0.0, math.pi / 2]), 1.0, 100_000)
        assert np.max(np.abs(q - rk4)) <= 1e-10

    def test_rk4_cross_check_random(self):
        rng = RngStream(8)
        for _ in range(5):
            q = random_unit_quat(rng)
            w = 2.0 * random_unit_vec(rng)
            closed = integrate_quat(q, w[None, None], 0.37)[0]
            rk4 = _rk4_kinematics(q, w, 0.37, 20_000)
            assert error_angle(quat_normalize(closed), rk4) <= 1e-9

    def test_norm_drift_1000_steps(self):
        rng = RngStream(9)
        # 1000 one-step blocks, crossed one product each
        w = np.array([[[rng.gaussian(1.0) for _ in range(3)]] for _ in range(1000)])
        q = integrate_quat(identity_quat(), w, 0.01)[-1]
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (1, 1, 1, 3)])
    def test_rejects_anything_but_a_stack_of_blocks(self, shape):
        with pytest.raises(InvalidInput):
            integrate_quat(identity_quat(), np.zeros(shape), 0.01)

    def test_second_order_convergence_on_varying_rate(self):
        # piecewise-constant steps with midpoint-sampled magnitude against
        # the analytic solution of a single-axis cosine rate profile
        axis = np.array([0.0, 0.0, 1.0])
        period = 100.0

        def omega(t):
            return -math.cos(2 * math.pi * t / period) * 0.5 * math.pi

        def angle_exact(t):
            return -0.5 * math.pi * period / (2 * math.pi) * math.sin(2 * math.pi * t / period)

        duration = 10.0
        errors = []
        for n in (100, 200, 400, 800):
            dt = duration / n
            rates = np.array([[omega((k + 0.5) * dt) * axis] for k in range(n)])
            q = integrate_quat(identity_quat(), rates, dt)[-1]
            q_exact = axis_angle_quat(axis, angle_exact(duration))
            errors.append(error_angle(q, q_exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert min(orders) >= 1.9


class TestMatrix:
    def test_identity(self):
        assert np.allclose(quat_to_matrix(identity_quat()), np.eye(3))

    def test_90_about_z_rows(self):
        q = np.array([0.0, 0.0, HALF_SQRT2, HALF_SQRT2])
        a = quat_to_matrix(q)
        assert np.allclose(a, [[0, 1, 0], [-1, 0, 0], [0, 0, 1]], atol=1e-15)
        assert np.allclose(a @ np.array([1.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-15)

    def test_frame_transform_oracle(self):
        # A(q) @ v must equal the conjugation conj(q) * (v; 0) * q
        rng = RngStream(10)
        for _ in range(50):
            q = random_unit_quat(rng)
            v = 3.0 * random_unit_vec(rng)
            rotated = quat_mul(quat_mul(quat_conjugate(q), np.append(v, 0.0)), q)
            assert np.allclose(quat_to_matrix(q) @ v, rotated[:3], atol=1e-12)

    @settings(max_examples=100)
    @given(unit_quats())
    def test_proper_orthogonal(self, q):
        a = quat_to_matrix(q)
        assert np.max(np.abs(a.T @ a - np.eye(3))) <= 1e-12
        det = float(np.linalg.det(a))
        assert abs(det - 1.0) <= 1e-12

    @settings(max_examples=100)
    @given(unit_quats())
    def test_double_cover(self, q):
        assert np.max(np.abs(quat_to_matrix(q) - quat_to_matrix(-q))) <= 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInput):
            quat_to_matrix(np.array([0.0, 0.0, 0.0, 2.0]))


class TestErrorAngle:
    def test_equal_is_zero(self):
        rng = RngStream(11)
        q = random_unit_quat(rng)
        assert error_angle(q, q) == 0.0

    def test_double_cover_is_zero(self):
        rng = RngStream(12)
        q = random_unit_quat(rng)
        assert error_angle(q, -q) == 0.0

    def test_right_angle(self):
        q = np.array([0.0, 0.0, HALF_SQRT2, HALF_SQRT2])
        assert abs(error_angle(identity_quat(), q) - math.pi / 2) <= 1e-12


class TestErrorAngleStack:
    """A ``(k, 4)`` stack gives each row bit for bit the angle of the pair alone."""

    @staticmethod
    def check(a, b):
        got = error_angle(a, b)
        assert got.shape == (a.shape[0],)
        for i in range(a.shape[0]):
            one = error_angle(a[i], b[i])
            assert isinstance(one, float)
            assert bits(got[i]) == bits(one) == bits(error_angle_numpy(a[i], b[i]))
        return got

    @staticmethod
    def random_stack(seed, k):
        rng = RngStream(seed)
        return np.array([random_unit_quat(rng) for _ in range(k)])

    def test_random_rows(self):
        a = self.random_stack(20, 300)
        b = self.random_stack(21, 300)
        self.check(a, b)
        # near pairs, where atan2 of a small vector part matters
        rng = RngStream(22)
        near = np.array([quat_mul(axis_angle_quat(random_unit_vec(rng), 1e-7 * (i + 1)), q)
                         for i, q in enumerate(a)])
        self.check(a, near)

    def test_identical_rows_and_double_cover_are_zero(self):
        a = self.random_stack(23, 50)
        assert not self.check(a, a.copy()).any()
        assert not self.check(a, -a).any()

    def test_half_turn_rows(self):
        a = self.random_stack(24, 40)
        axes = np.eye(4)[[0, 1, 2, 0] * 10]
        got = self.check(a, np.array([quat_mul(q, e) for q, e in zip(a, axes)]))
        assert np.all(np.abs(got - math.pi) <= 1e-12)
        assert self.check(np.array([identity_quat()]), np.array([[1.0, 0.0, 0.0, 0.0]]))[0] == math.pi

    def test_non_unit_rows(self):
        a = self.random_stack(25, 60) * np.repeat([1e-3, 0.5, 2.5, 1e3], 15)[:, None]
        b = self.random_stack(26, 60) * np.tile([3.0, 1e-2, 7e2], 20)[:, None]
        self.check(a, b)

    @BITWISE
    @given(st.lists(st.tuples(quats(), quats()), min_size=1, max_size=12))
    def test_random_pairs(self, pairs):
        self.check(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))

    def test_empty_stack(self):
        assert error_angle(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0,)


class TestUnitNormClosure:
    @settings(max_examples=100)
    @given(unit_quats(), st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3))
    def test_integrate_returns_unit(self, q, w):
        out = integrate_quat(q, np.array([[w]]), 0.05)[0]
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    @settings(max_examples=100)
    @given(quats())
    def test_normalize_returns_unit(self, q):
        assert abs(np.linalg.norm(quat_normalize(q)) - 1.0) <= 1e-9


class TestHelpers:
    def test_cross_matrix(self):
        rng = RngStream(14)
        a = random_unit_vec(rng)
        b = random_unit_vec(rng)
        assert np.allclose(cross_matrix(a) @ b, np.cross(a, b))

    def test_axis_angle_zero_axis_rejected(self):
        with pytest.raises(InvalidInput):
            axis_angle_quat([0.0, 0.0, 0.0], 1.0)
