import math

import numpy as np
import pytest

from attsim.attitude import (
    block_increments,
    error_angle,
    identity_quat,
    integrate_quat,
    quat_mul,
    quat_path,
)
from attsim.errors import GibbsSingularity, InvalidInput, NumericalFailure
from attsim.filters import (
    FilterState,
    NoiseParams,
    aekf_predict,
    aekf_transitions,
    aekf_update,
    mekf_predict,
    mekf_transitions,
    mekf_update,
)
from attsim.harness import ORBIT_PERIOD_S, trajectory_omega
from attsim.numerics import RngStream, covariance_step3, covariance_step4

from conftest import quat_conjugate, quat_normalize, quat_to_gibbs, random_unit_quat, random_unit_vec
from oracles import (
    axis_angle_quat,
    covariance_step_by_blas,
    cross_matrix,
    gibbs_to_quat,
    kalman_update_by_solve,
    predict_per_step,
)

DT = 0.01


def _quiet():
    return NoiseParams(sigma_v=0.0)


def _psd(rng, n, scale=1.0):
    m = np.array([[rng.gaussian(1.0) for _ in range(n)] for _ in range(n)])
    return scale * (m @ m.T) / n + 1e-9 * np.eye(n)


def _is_mekf(s):
    """Whether ``s`` is an MEKF state: its covariance is 3x3, an AEKF's 4x4."""
    return len(s.p) == 3


def _predict_fn(s):
    return mekf_predict if _is_mekf(s) else aekf_predict


def _transitions_fn(s):
    return mekf_transitions if _is_mekf(s) else aekf_transitions


def rotations_from_start(m):
    """Each block's rotation from the segment start, as the harness plans it: R_1 = M_1, R_j = M_j R_(j-1)."""
    r = [np.asarray(m[0], dtype=float)]
    for x in m[1:]:
        r.append(quat_mul(x, r[-1]))
    return np.array(r)


def predict_from_start(s, m, steps, dt, noise):
    """One predict across blocks of increments ``m`` and gyro steps ``steps``, a whole segment.

    It takes the rotations from the segment start and their transitions,
    and the steps summed from the segment start, as the harness plans them.
    """
    r = rotations_from_start(m)
    return _predict_fn(s)(s, r, _transitions_fn(s)(r), np.cumsum(steps).tolist(), dt, noise)


def predict_segment(s, w, steps, dt, noise):
    """One predict across a segment of blocks of rates ``(k, L, 3)``; the state after its last block, as arrays."""
    quats, covs = predict_from_start(s, block_increments(w, dt).tolist(), steps, dt, noise)
    return FilterState(np.asarray(quats[-1]), np.asarray(covs[-1]))


def predict_rates(s, omegas, dt, noise):
    """One predict across ``omegas``, a rate ``(3,)`` or a block of rates ``(n, 3)``, as one block."""
    w = np.asarray(omegas, dtype=float).reshape(1, -1, 3)
    return predict_segment(s, w, [w.shape[1]], dt, noise)


def predict_blocks_prebuilt(s, w, steps, dt, noise):
    """One predict per block of ``w`` ``(k, L, 3)``, each a segment of one, as the harness runs it.

    The transitions of all the blocks' rotations, each its own increment,
    are built in one call, and each predict takes its block's row of the
    stack.
    """
    increments = block_increments(w, dt).tolist()
    phi = _transitions_fn(s)(increments)
    predict = _predict_fn(s)
    for b, m in enumerate(increments):
        quats, covs = predict(s, [m], phi[b:b + 1], [steps[b]], dt, noise)
        s = FilterState(np.asarray(quats[-1]), np.asarray(covs[-1]))
    return s


def predict_one_step_blocks(s, rates, dt, noise):
    """One predict across a segment of one-step blocks, one per row of ``rates``, as the harness runs it."""
    return predict_segment(s, rates[:, None, :], np.ones(len(rates), dtype=int), dt, noise)


def mekf_build_matrices(noise: NoiseParams, omega, dt: float):
    """Continuous-time MEKF attitude-error matrices (F, Q, H) for one step.

    The error is ``q_err = q_true * q^-1``, and truth and reference both
    cross each step's increment on the left, so the error's vector part
    turns with the body rate: F = +[omega x]. The gyro white noise gives
    Q = sigma_v^2 dt I, and H = I observes the whole error. The exact
    transition of a step is exp(F dt).
    """
    f = cross_matrix(omega)
    q = (noise.sigma_v * noise.sigma_v * dt) * np.eye(3)
    return f, q, np.eye(3)


def _identity_starts():
    """An AEKF and an MEKF at the identity attitude with covariance 1e-4 I."""
    return FilterState(identity_quat(), 1e-4 * np.eye(4)), FilterState(identity_quat(), 1e-4 * np.eye(3))


def _expm(a, terms=25):
    """exp(a) by its power series, for matrices of small norm."""
    out = np.zeros_like(a)
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        out += term
        term = term @ a / k
    return out


class TestAekfPredict:
    def test_quiet_is_noop(self):
        rng = RngStream(50)
        s = FilterState(random_unit_quat(rng), _psd(rng, 4))
        s2 = predict_rates(s, np.zeros(3), DT, _quiet())
        assert np.allclose(s2.q, s.q)
        assert np.allclose(s2.p, s.p)

    @pytest.mark.parametrize("flat", [False, True])
    def test_process_noise_grows_trace(self, flat):
        rng = RngStream(51)
        s = FilterState(random_unit_quat(rng), _psd(rng, 4))
        noise = NoiseParams(sigma_v=1e-3, aekf_q_flat=flat)
        s2 = predict_rates(s, np.zeros(3), DT, noise)
        assert np.trace(s2.p) > np.trace(s.p)

    def test_transition_matches_numerical_jacobian(self):
        # integrate_quat is linear in q, so central differences recover its
        # matrix up to rounding; the block's transition L(M) is that matrix
        rng = RngStream(52)
        q = random_unit_quat(rng)
        w = 1.5 * random_unit_vec(rng)
        step = w.reshape(1, 1, 3)
        dt = 1e-3
        jac = np.zeros((4, 4))
        eps = 1e-6
        for j in range(4):
            dq = np.zeros(4)
            dq[j] = eps
            jac[:, j] = (integrate_quat(q + dq, step, dt) - integrate_quat(q - dq, step, dt))[0] / (2 * eps)
        phi = aekf_transitions(block_increments(step, dt))[0]
        assert np.max(np.abs(phi - jac)) <= 1e-9
        # the first-order F = I + 0.5*Omega*dt is within O(dt^2) of it
        h = 0.5 * dt
        f = np.eye(4)
        f[0, 1], f[0, 2], f[0, 3] = -h * w[2], h * w[1], h * w[0]
        f[1, 0], f[1, 2], f[1, 3] = h * w[2], -h * w[0], h * w[1]
        f[2, 0], f[2, 1], f[2, 3] = -h * w[1], h * w[0], h * w[2]
        f[3, 0], f[3, 1], f[3, 2] = -h * w[0], -h * w[1], -h * w[2]
        assert np.max(np.abs(f - phi)) <= 1e-6

    def test_kinematic_q_is_tangent_projector(self):
        # from P = 0, one block leaves the noise of its steps, taken at the
        # attitude after the block and zero along it
        rng = RngStream(53)
        q = random_unit_quat(rng)
        s = FilterState(q, np.zeros((4, 4)))
        noise = NoiseParams(sigma_v=2e-2, aekf_q_flat=False)
        rates = 0.8 * np.array([random_unit_vec(rng) for _ in range(7)])
        s2 = predict_rates(s, rates, DT, noise)
        expect = (0.25 * noise.sigma_v**2 * DT * 7) * (np.eye(4) - np.outer(s2.q, s2.q))
        assert np.allclose(s2.p, expect, rtol=0.0, atol=1e-19)
        assert np.max(np.abs(s2.p @ s2.q)) <= 1e-19

    def test_rejects_bad_dt(self):
        s = FilterState(identity_quat(), np.eye(4))
        for dt in (0.0, -1.0):
            with pytest.raises(InvalidInput):
                aekf_predict(s, [identity_quat()], aekf_transitions([identity_quat()]), [1], dt, _quiet())


class TestAekfUpdate:
    def test_zero_residual_keeps_state_shrinks_p(self):
        rng = RngStream(55)
        q = random_unit_quat(rng)
        s = FilterState(q=q, p=_psd(rng, 4))
        s2 = aekf_update(s, q.copy(), 1e-4 * np.eye(4))
        assert error_angle(s2.q, q) <= 1e-12
        assert np.trace(s2.p) < np.trace(s.p)

    def test_double_cover(self):
        rng = RngStream(56)
        q = random_unit_quat(rng)
        meas = quat_mul(axis_angle_quat([1.0, 0, 0], 0.02), q)
        p0 = _psd(rng, 4)
        r4 = 1e-4 * np.eye(4)
        plus = aekf_update(FilterState(q=q.copy(), p=p0.copy()), meas, r4)
        minus = aekf_update(FilterState(q=q.copy(), p=p0.copy()), -meas, r4)
        assert np.array_equal(plus.q, minus.q)
        assert np.array_equal(plus.p, minus.p)

    def test_double_cover_exactly_orthogonal(self):
        # (-y, x, -w, z) is exactly orthogonal to (x, y, z, w): its dot
        # product sums to 0.0, so the sign test alone cannot tell q from -q
        rng = RngStream(60)
        r4 = 1e-4 * np.eye(4)
        for k in range(20):
            q = identity_quat() if k == 0 else random_unit_quat(rng)
            x, y, z, w = q.tolist()
            meas = np.array([-y, x, -w, z])
            assert -y * x + x * y + -w * z + z * w == 0.0
            p0 = _psd(rng, 4)
            plus = aekf_update(FilterState(q=q.copy(), p=p0.copy()), meas, r4)
            minus = aekf_update(FilterState(q=q.copy(), p=p0.copy()), -meas, r4)
            assert np.asarray(plus.q).tobytes() == np.asarray(minus.q).tobytes()
            assert np.asarray(plus.p).tobytes() == np.asarray(minus.p).tobytes()

    def test_no_trust_limit(self):
        rng = RngStream(57)
        q = random_unit_quat(rng)
        meas = quat_mul(axis_angle_quat([0.0, 1.0, 0], 0.3), q)
        s2 = aekf_update(FilterState(q=q.copy(), p=np.eye(4)), meas, 1e12 * np.eye(4))
        assert error_angle(s2.q, q) <= 1e-9

    def test_norm_restored(self):
        rng = RngStream(58)
        for _ in range(50):
            q = random_unit_quat(rng)
            meas = random_unit_quat(rng)
            s2 = aekf_update(FilterState(q=q, p=_psd(rng, 4)), meas, 1e-2 * np.eye(4))
            assert abs(np.linalg.norm(s2.q) - 1.0) <= 1e-12

    def test_singular_innovation(self):
        rng = RngStream(59)
        s = FilterState(q=random_unit_quat(rng), p=np.zeros((4, 4)))
        with pytest.raises(NumericalFailure):
            aekf_update(s, s.q.copy(), np.zeros((4, 4)))

    def test_matches_the_solve_route(self):
        # the Gauss-Jordan gain the Cholesky kernel replaced: K y and
        # (I - K) P from the oracle, then the same renormalization
        rng = RngStream(68)
        for _ in range(50):
            q = random_unit_quat(rng)
            meas = quat_mul(axis_angle_quat(random_unit_vec(rng), 0.01), q)
            p, r4 = _psd(rng, 4, 1e-6), 4e-6 * np.eye(4)
            ky, p_want = kalman_update_by_solve(p, r4, meas - q)
            s2 = aekf_update(FilterState(q=q, p=p), meas, r4)
            assert np.max(np.abs(s2.q - quat_normalize(q + ky))) <= 1e-15
            p2 = np.asarray(s2.p)
            assert np.max(np.abs(p2 - p_want)) <= 1e-13 * np.max(np.abs(p))
            assert p2.tobytes() == p2.T.copy().tobytes()

    def test_rejects_bad_covariances_and_measurements(self):
        rng = RngStream(69)
        q = random_unit_quat(rng)
        s, r4 = FilterState(q=q, p=_psd(rng, 4)), 1e-4 * np.eye(4)
        nan_r = r4.copy()
        nan_r[0, 3] = math.nan
        for p, r in ((np.eye(3), r4), (s.p, np.eye(3)), (s.p, 1e-4), (s.p, nan_r), (np.full((4, 4), math.inf), r4)):
            with pytest.raises(InvalidInput):
                aekf_update(FilterState(q=q, p=p), q, r)
        for meas in (np.array([math.nan, 0.0, 0.0, 1.0]), np.array([0.0, math.inf, 0.0, 1.0])):
            with pytest.raises(InvalidInput):
                aekf_update(s, meas, r4)


class TestMekfMatrices:
    def test_q_with_zero_bias_walk(self):
        # the gyro has no bias, so Q is the white-noise term alone, and a
        # predict from P = 0 leaves it
        noise = NoiseParams(sigma_v=2e-3)
        _, q, _ = mekf_build_matrices(noise, np.zeros(3), DT)
        assert np.allclose(q, (noise.sigma_v**2 * DT) * np.eye(3))
        s = predict_rates(FilterState(identity_quat(), np.zeros((3, 3))), np.array([0.3, -0.2, 0.9]), DT, noise)
        assert np.allclose(s.p, q, rtol=1e-14, atol=0.0)

    def test_q_vanishes_with_dt(self):
        noise = NoiseParams(sigma_v=1e-3)
        _, q, _ = mekf_build_matrices(noise, np.zeros(3), 1e-12)
        assert np.max(np.abs(q)) <= 1e-14

    def test_f_cross_block(self):
        # F is the derivative at dt = 0 of the package's exact transition
        w = np.array([0.0, 0.0, 1.0])
        f, _, h = mekf_build_matrices(_quiet(), w, DT)
        assert np.allclose(f, [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.allclose(h, np.eye(3))
        eps = 1e-6
        ahead, back = (mekf_transitions(block_increments(w.reshape(1, 1, 3), d))[0] for d in (eps, -eps))
        assert np.max(np.abs((ahead - back) / (2 * eps) - f)) <= 1e-9


class TestMekfPredict:
    def test_quiet_zero_bias_cov_is_noop(self):
        rng = RngStream(60)
        s = FilterState(random_unit_quat(rng), _psd(rng, 3))
        s2 = predict_rates(s, np.zeros(3), DT, _quiet())
        assert np.allclose(s2.q, s.q)
        assert np.allclose(s2.p, s.p)

    def test_process_noise_grows_attitude_trace(self):
        rng = RngStream(61)
        s = FilterState(random_unit_quat(rng), np.zeros((3, 3)))
        s2 = predict_rates(s, random_unit_vec(rng), DT, NoiseParams(sigma_v=1e-3))
        assert np.trace(s2.p) > 0.0

    def test_phi_matches_matrix_exponential(self):
        # series oracle: the exact transition of a step is exp(F dt)
        w = np.array([0.7, -1.1, 0.4])
        for dt in (1e-3, 0.5):
            f, _, _ = mekf_build_matrices(_quiet(), w, dt)
            phi = mekf_transitions(block_increments(w.reshape(1, 1, 3), dt))[0]
            assert np.max(np.abs(phi - _expm(f * dt))) <= 1e-15

    def test_predict_equals_explicit_matrix_route(self):
        rng = RngStream(62)
        noise = NoiseParams(sigma_v=2e-4)
        s = FilterState(random_unit_quat(rng), _psd(rng, 3, 1e-4))
        w = 1.3 * random_unit_vec(rng)
        f, q, _ = mekf_build_matrices(noise, w, DT)
        phi = _expm(f * DT)
        p_explicit = phi @ s.p @ phi.T + q
        p_explicit = 0.5 * (p_explicit + p_explicit.T)
        # a single rate and a block of one step are the same predict
        for rates in (w, w[None, :]):
            s2 = predict_rates(s, rates, DT, noise)
            assert np.max(np.abs(s2.p - p_explicit)) <= 1e-18

    def test_gibbs_error_follows_the_transition(self):
        # truth and reference cross the same increments; the attitude error
        # a = 2 g(q_true * q^-1) after them is Phi a. With P = a a^T, a
        # rank-one covariance that points along the error, the predicted P
        # must be a' a'^T; the first-order I - [omega x] dt misses it by
        # tens of percent at this step size
        w = np.array([0.3, -0.5, 1.2])
        dt = 0.5
        a = np.array([1.0, -2.0, 3.0]) * 1e-4
        q_ref = quat_normalize(np.array([0.2, -0.4, 0.1, 0.9]))
        q_true = quat_mul(gibbs_to_quat(0.5 * a), q_ref)
        for rates in (w[None, :], np.array([w, -0.5 * w, [0.4, 0.0, -0.2]])):
            m = block_increments(rates[None], dt).tolist()
            moved = quat_mul(m[0], q_true)
            s = predict_rates(FilterState(q_ref, np.outer(a, a)), rates, dt, _quiet())
            a_after = 2.0 * quat_to_gibbs(quat_mul(moved, quat_conjugate(s.q)))
            assert np.max(np.abs(s.p - np.outer(a_after, a_after))) <= 1e-12 * float(a @ a)
            assert np.max(np.abs(mekf_transitions(m)[0] @ a - a_after)) <= 1e-14

    def test_rejects_bad_dt(self):
        s = FilterState(identity_quat(), np.eye(3))
        for dt in (0.0, -1.0):
            with pytest.raises(InvalidInput):
                mekf_predict(s, [identity_quat()], mekf_transitions([identity_quat()]), [1], dt, _quiet())


class TestMekfUpdate:
    def test_zero_innovation(self):
        rng = RngStream(63)
        q = random_unit_quat(rng)
        s = FilterState(q=q, p=_psd(rng, 3))
        s2 = mekf_update(s, q.copy(), 1e-4 * np.eye(3))
        assert error_angle(s2.q, q) <= 1e-12
        assert np.trace(s2.p) < np.trace(s.p)

    def test_double_cover(self):
        rng = RngStream(64)
        q = random_unit_quat(rng)
        meas = quat_mul(axis_angle_quat([0.0, 0, 1.0], 0.05), q)
        p0 = _psd(rng, 3, 1e-2)
        plus = mekf_update(FilterState(q=q.copy(), p=p0.copy()), meas, 1e-6 * np.eye(3))
        minus = mekf_update(FilterState(q=q.copy(), p=p0.copy()), -meas, 1e-6 * np.eye(3))
        assert np.array_equal(plus.q, minus.q)
        assert np.array_equal(plus.p, minus.p)

    def test_near_exact_measurement_limit(self):
        rng = RngStream(65)
        q = random_unit_quat(rng)
        meas = quat_mul(axis_angle_quat([1.0, 0.0, 0.0], 0.01), q)
        s = FilterState(q=q, p=np.eye(3))
        s2 = mekf_update(s, meas, 1e-12 * np.eye(3))
        assert error_angle(s2.q, meas) <= 1e-4

    def test_reference_stays_unit(self):
        rng = RngStream(66)
        for _ in range(50):
            q = random_unit_quat(rng)
            meas = random_unit_quat(rng)
            if error_angle(q, meas) > math.radians(170.0):
                continue
            s = FilterState(q=q, p=np.eye(3) * 1e-2)
            s2 = mekf_update(s, meas, 1e-4 * np.eye(3))
            assert abs(np.linalg.norm(s2.q) - 1.0) <= 1e-12

    def test_180_degree_innovation(self):
        q = identity_quat()
        meas = np.array([1.0, 0.0, 0.0, 0.0])
        s = FilterState(q=q, p=np.eye(3))
        with pytest.raises(GibbsSingularity):
            mekf_update(s, meas, 1e-4 * np.eye(3))

    def test_singular_innovation(self):
        rng = RngStream(70)
        s = FilterState(q=random_unit_quat(rng), p=np.zeros((3, 3)))
        with pytest.raises(NumericalFailure):
            mekf_update(s, s.q.copy(), np.zeros((3, 3)))

    def test_matches_the_solve_route(self):
        rng = RngStream(71)
        for _ in range(50):
            q = random_unit_quat(rng)
            meas = quat_mul(axis_angle_quat(random_unit_vec(rng), 0.01), q)
            p, r3 = _psd(rng, 3, 1e-6), 1e-6 * np.eye(3)
            a, p_want = kalman_update_by_solve(p, r3, 2.0 * quat_to_gibbs(quat_mul(meas, quat_conjugate(q))))
            s2 = mekf_update(FilterState(q=q, p=p), meas, r3)
            q_want = quat_normalize(quat_mul(quat_normalize([*a, 2.0]), q))
            assert np.max(np.abs(s2.q - q_want)) <= 1e-15
            p2 = np.asarray(s2.p)
            assert np.max(np.abs(p2 - p_want)) <= 1e-13 * np.max(np.abs(p))
            assert p2.tobytes() == p2.T.copy().tobytes()

    def test_rejects_bad_covariances_and_measurements(self):
        rng = RngStream(72)
        q = random_unit_quat(rng)
        s, r3 = FilterState(q=q, p=_psd(rng, 3)), 1e-4 * np.eye(3)
        nan_r = r3.copy()
        nan_r[0, 2] = math.nan
        for p, r in ((np.eye(4), r3), (s.p, np.eye(4)), (s.p, 1e-4), (s.p, nan_r), (np.full((3, 3), -math.inf), r3)):
            with pytest.raises(InvalidInput):
                mekf_update(FilterState(q=q, p=p), q, r)
        for meas in (np.array([math.nan, 0.0, 0.0, 1.0]), np.array([0.0, math.inf, 0.0, 1.0])):
            with pytest.raises(InvalidInput):
                mekf_update(s, meas, r3)

    def test_reset_mapping_first_order_agreement(self):
        # the exact reset normalize((a; 2) * q) agrees with its first-order
        # expansion q + 0.5 * Xi(q) a, Xi(q) a = (a; 0) * q, to O(|a|^2):
        # halving a quarters the gap
        rng = RngStream(67)
        q = random_unit_quat(rng)
        direction = random_unit_vec(rng)
        gaps = []
        scales = [1e-1, 5e-2, 2.5e-2, 1.25e-2]
        for scale in scales:
            a = scale * direction
            dq = quat_normalize(np.array([a[0], a[1], a[2], 2.0]))
            exact = quat_normalize(quat_mul(dq, q))
            linear = q + 0.5 * quat_mul(np.append(a, 0.0), q)
            gaps.append(float(np.max(np.abs(exact - linear))))
        orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(len(gaps) - 1)]
        assert min(orders) >= 1.9


ORBIT_BLOCKS = 5280
BLOCK_STEPS = 100


def _orbit_rates(seed):
    """True and measured gyro rates of one full orbit at 100 Hz, shaped (blocks, steps, 3).

    The true rate is the harness trajectory about z; the measured rate adds
    seeded white noise of 1e-3 rad/s per axis.
    """
    t = (np.arange(ORBIT_BLOCKS * BLOCK_STEPS) + 0.5) * DT
    true = np.zeros((t.size, 3))
    true[:, 2] = -np.cos(2.0 * math.pi * t / ORBIT_PERIOD_S) * (0.5 * math.pi)
    meas = true + 1e-3 * np.random.default_rng(seed).standard_normal(true.shape)
    shape = (ORBIT_BLOCKS, BLOCK_STEPS, 3)
    return true.reshape(shape), meas.reshape(shape)


class TestBlockPredict:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 100])
    def test_block_equals_sequential_steps(self, n):
        rng = np.random.default_rng(n)
        rates = rng.standard_normal((n, 3))
        starts = [FilterState(quat_normalize(rng.standard_normal(4)), 1e-4 * np.eye(4)) for _ in range(2)]
        starts.append(FilterState(quat_normalize(rng.standard_normal(4)), 1e-4 * np.eye(3)))
        noises = [NoiseParams(sigma_v=1e-3, aekf_q_flat=flat) for flat in (True, False, True)]
        for start, noise in zip(starts, noises):
            a = predict_rates(start, rates, DT, noise)
            b = start
            for w in rates:
                b = predict_rates(b, w, DT, noise)
            assert error_angle(a.q, b.q) <= 1e-14
            assert np.max(np.abs(a.p - b.p)) <= 1e-14 * np.max(np.abs(b.p))
            # a stack of one-step blocks, each taking its row of one build,
            # is one-step predicts, bit for bit
            c = predict_blocks_prebuilt(start, rates[:, None, :], [1] * n, DT, noise)
            assert np.array_equal(c.q, b.q) and np.array_equal(c.p, b.p)
            # and the exact recursion step by step agrees with both
            d = predict_per_step(start, rates, DT, noise)
            assert error_angle(d.q, b.q) <= 1e-14
            assert np.max(np.abs(d.p - b.p)) <= 1e-14 * np.max(np.abs(b.p))

    @pytest.mark.parametrize("sizes", [[1], [4], [1] * 9, [3, 1, 7, 2, 5], [1, 1, 20, 1, 1, 1]])
    def test_segment_equals_one_predict_per_block(self, sizes):
        # one predict across a segment of blocks gives every block's state:
        # that of one predict per block up to rounding, each block's
        # attitude R_j q0 against the product of the blocks' own steps; a
        # segment of one block is that block's predict, bit for bit
        rng = np.random.default_rng(len(sizes) * 100 + sum(sizes))
        w = np.zeros((len(sizes), max(sizes), 3))
        for b, n in enumerate(sizes):
            w[b, :n] = rng.standard_normal((n, 3))
        q0 = quat_normalize(rng.standard_normal(4))
        cases = [
            (FilterState(q0, 1e-4 * np.eye(4)), NoiseParams(sigma_v=1e-3, aekf_q_flat=True)),
            (FilterState(q0, 1e-4 * np.eye(4)), NoiseParams(sigma_v=1e-3, aekf_q_flat=False)),
            (FilterState(q0, 1e-4 * np.eye(3)), NoiseParams(sigma_v=1e-3)),
        ]
        for start, noise in cases:
            quats, covs = map(np.asarray, predict_from_start(start, block_increments(w, DT).tolist(), sizes, DT, noise))
            assert quats.shape == (len(sizes), 4) and covs.shape == (len(sizes),) + start.p.shape
            s = start
            for b, n in enumerate(sizes):
                s = predict_blocks_prebuilt(s, w[b:b + 1, :n], [n], DT, noise)
                assert error_angle(quats[b], s.q) <= 1e-15 * (b + 1)
                assert np.array_equal(covs[b], covs[b].T)
                assert np.max(np.abs(covs[b] - s.p)) <= 1e-12 * np.max(np.abs(s.p))
                if len(sizes) == 1:
                    assert quats[b].tobytes() == s.q.tobytes() and covs[b].tobytes() == s.p.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 33])
    def test_prefixes_are_the_sequential_compositions(self, k):
        # the transition from the segment start to each block end, built
        # from the product of the increments, is the blocks' transitions
        # composed one after the other, and the covariance after each block
        # is the blocks' pairs (Phi, n_j sigma_v^2 dt I) applied in turn
        rng = np.random.default_rng(k)
        m = [quat_normalize(rng.standard_normal(4)).tolist() for _ in range(k)]
        steps = rng.integers(1, 50, size=k).tolist()
        noise = NoiseParams(sigma_v=1e-3, aekf_q_flat=True)
        for start in _identity_starts():
            transitions = _transitions_fn(start)
            block = transitions(m)
            r = rotations_from_start(m)
            prefix = transitions(r)
            assert prefix[0].tobytes() == block[0].tobytes()
            _, covs = _predict_fn(start)(start, r, prefix, np.cumsum(steps).tolist(), DT, noise)
            want_phi, want_p = np.eye(len(start.p)), start.p
            for j in range(k):
                want_phi = block[j] @ want_phi
                noise_j = (steps[j] * noise.sigma_v**2 * DT) * np.eye(len(start.p))
                want_p = block[j] @ want_p @ block[j].T + noise_j
                assert np.max(np.abs(prefix[j] - want_phi)) <= 1e-15 * (j + 1)
                assert np.max(np.abs(covs[j] - want_p)) <= 1e-15 * (j + 1) * np.max(np.abs(want_p))

    @pytest.mark.parametrize("shape", [(0, 1, 3), (1, 0, 3), (2, 3), (2, 3, 1)])
    def test_rejects_malformed_rate_blocks(self, shape):
        with pytest.raises(InvalidInput):
            block_increments(np.zeros(shape), DT)

    @pytest.mark.parametrize("steps", [[0, 2], [2, 0], [3, -1], [2]])
    def test_rejects_step_counts_outside_the_stack(self, steps):
        # two blocks: one count of the steps from its segment's start per
        # block, each at least one
        m = [identity_quat().tolist()] * 2
        for start in (FilterState(identity_quat(), np.eye(4)), FilterState(identity_quat(), np.eye(3))):
            phi = _transitions_fn(start)(m)
            with pytest.raises(InvalidInput):
                _predict_fn(start)(start, m, phi, steps, DT, _quiet())

    @pytest.mark.parametrize("lengths", [(2, 1, 2), (1, 2, 2), (2, 2, 1), (2, 2, 3), (0, 0, 0)])
    def test_rejects_inputs_of_other_lengths(self, lengths):
        # one rotation, one transition and one step count per block, and
        # at least one block
        k_m, k_phi, k_n = lengths
        for start in _identity_starts():
            m = [identity_quat().tolist()] * k_m
            phi = _transitions_fn(start)([identity_quat()] * max(k_phi, 1))[:k_phi]
            with pytest.raises(InvalidInput):
                _predict_fn(start)(start, m, phi, list(range(1, k_n + 1)), DT, _quiet())

    def test_kinematic_q_is_taken_at_each_block_end(self):
        # from P = 0 and across a segment, the kinematic Q after block j is
        # the noise of the steps up to there at the attitude after block j
        rng = np.random.default_rng(5)
        w = rng.standard_normal((3, 4, 3))
        steps = [4, 2, 3]
        for b, n in enumerate(steps):
            w[b, n:] = 0.0
        noise = NoiseParams(sigma_v=1e-2, aekf_q_flat=False)
        start = FilterState(quat_normalize(rng.standard_normal(4)), np.zeros((4, 4)))
        quats, covs = predict_from_start(start, block_increments(w, DT).tolist(), steps, DT, noise)
        for j, n in enumerate(np.cumsum(steps)):
            expect = (0.25 * noise.sigma_v**2 * DT * n) * (np.eye(4) - np.outer(quats[j], quats[j]))
            assert np.max(np.abs(covs[j] - expect)) <= 1e-15 * np.max(np.abs(expect))

    def test_one_block_is_a_stack_of_one(self):
        # each row of a build over a stack of rotations is that rotation's
        # own, and a one-block predict that takes the row gets what it gets
        # from a build of its rotation alone, bit for bit
        rng = np.random.default_rng(11)
        m = [quat_normalize(rng.standard_normal(4)).tolist() for _ in range(5)]
        noise = NoiseParams(sigma_v=1e-3, aekf_q_flat=True)
        for start in _identity_starts():
            stack = _transitions_fn(start)(m)
            assert stack.shape == (5,) + start.p.shape
            for b in range(5):
                alone = _transitions_fn(start)(m[b:b + 1])
                assert stack[b].tobytes() == alone[0].tobytes()
                taken = _predict_fn(start)(start, m[b:b + 1], stack[b:b + 1], [3], DT, noise)
                built = _predict_fn(start)(start, m[b:b + 1], alone, [3], DT, noise)
                assert all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(built, taken))
            for shape in ((0, 4), (4,), (2, 3), (2, 4, 1)):
                with pytest.raises(InvalidInput):
                    _transitions_fn(start)(np.zeros(shape))
            with pytest.raises(InvalidInput):
                _predict_fn(start)(start, m[:2], stack[:1], [3, 6], DT, noise)

    def test_integrate_block_equals_steps(self):
        rng = np.random.default_rng(7)
        q = quat_normalize(rng.standard_normal(4))
        rates = rng.standard_normal((37, 3))
        rates[4] = 0.0
        # the attitude after each of 37 one-step blocks, against one block
        # of the first k + 1 steps
        steps = integrate_quat(q, rates[:, None], DT)
        for k, step in enumerate(steps):
            assert np.max(np.abs(integrate_quat(q, rates[None, :k + 1], DT)[0] - step)) <= 1e-14

    @pytest.mark.parametrize(
        "name, noise",
        [
            ("aekf", NoiseParams(sigma_v=1e-3 * math.sqrt(DT), aekf_q_flat=True)),
            ("aekf", NoiseParams(sigma_v=1e-3 * math.sqrt(DT), aekf_q_flat=False)),
            ("mekf", NoiseParams(sigma_v=1e-3 * math.sqrt(DT))),
        ],
        ids=["aekf-flat-q", "aekf-kinematic-q", "mekf"],
    )
    def test_block_predict_tracks_step_predict_over_an_orbit(self, name, noise):
        # path A predicts once per 100-step block, path B runs the exact
        # recursion once per step, and path C predicts once per segment of
        # 100 one-step blocks, as the harness runs a record at every step,
        # with the same update after every block; rounding may differ,
        # nothing else
        q_true = identity_quat()
        if name == "aekf":
            update, r = aekf_update, 1e-6 * np.eye(4)
            a = b = c = FilterState(q_true, 1e-6 * np.eye(4))
        else:
            update, r = mekf_update, 1e-6 * np.eye(3)
            a = b = c = FilterState(q_true, 1e-6 * np.eye(3))
        true, meas = _orbit_rates(3)
        rng = np.random.default_rng(4)
        q_gap = p_gap = 0.0
        for k in range(ORBIT_BLOCKS):
            a = predict_rates(a, meas[k], DT, noise)
            b = predict_per_step(b, meas[k], DT, noise)
            c = predict_one_step_blocks(c, meas[k], DT, noise)
            q_true = integrate_quat(q_true, true[k:k + 1], DT)[0]
            tilt = 5e-4 * rng.standard_normal(3)
            z = quat_normalize(quat_mul(np.append(tilt, 1.0), q_true))
            a, b, c = update(a, z, r), update(b, z, r), update(c, z, r)
            for x in (a, c):
                q_gap = max(q_gap, error_angle(x.q, b.q))
                p_gap = max(p_gap, float(np.max(np.abs(np.subtract(x.p, b.p))) / np.max(np.abs(b.p))))
        assert q_gap <= 1e-12, f"quaternion gap {q_gap:.3e} rad"
        assert p_gap <= 1e-10, f"relative covariance gap {p_gap:.3e}"


def _spd_elementwise(rng, n, scale):
    """A random SPD matrix built with elementwise products and one sum, so exactly symmetric."""
    a = rng.standard_normal((n, 2 * n))
    return scale * (a[:, None, :] * a[None, :, :]).sum(axis=-1) / (2 * n)


class TestCovarianceStep:
    """The written-out ``Phi P Phi^T + Q`` that every predict takes: on floats
    for one block, elementwise over component-major arrays for more."""

    _STEPS = {4: (covariance_step4, aekf_transitions), 3: (covariance_step3, mekf_transitions)}

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_the_blas_route(self, n):
        # the largest deviation over 2000 draws of each size, P and Q of
        # scale 1 and 1e-6 under the exact transitions of random rotations,
        # was 4.3e-16 (4x4) and 4.0e-16 (3x3) of max|Phi P Phi^T + Q|; the
        # bound is about 12 times that
        step, build = self._STEPS[n]
        rng = np.random.default_rng(300 + n)
        for _ in range(200):
            phi = build(quat_normalize(rng.standard_normal(4))[None])[0]
            for scale in (1.0, 1e-6):
                p, q = _spd_elementwise(rng, n, scale), _spd_elementwise(rng, n, scale * rng.uniform())
                want = covariance_step_by_blas(phi, p, q)
                got = np.array(step(phi.tolist(), p.tolist(), q.tolist()))
                assert np.max(np.abs(got - want)) <= 5e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [3, 4])
    def test_output_is_exactly_symmetric(self, n):
        # a Phi that is not orthogonal and a Q whose lower triangle differs
        # from its upper, which is the one read
        step, _ = self._STEPS[n]
        rng = np.random.default_rng(310 + n)
        for _ in range(100):
            phi = rng.standard_normal((n, n))
            q = _spd_elementwise(rng, n, 1.0) + np.tril(rng.standard_normal((n, n)), -1)
            got = np.array(step(phi.tolist(), _spd_elementwise(rng, n, 1.0).tolist(), q.tolist()))
            assert got.tobytes() == got.T.copy().tobytes()

    @staticmethod
    def _rotations(rng, k):
        r = rng.standard_normal((k, 4))
        return r / np.sqrt((r * r).sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("k", [1, 2, 10, 100, 1800])
    @pytest.mark.parametrize("n", [3, 4])
    def test_component_major_blocks_get_the_scalar_bits(self, n, k):
        # the kernel on (n, n, k) transitions and per-block Q arrays gives
        # each block the bytes of the scalar call on that block's entries
        step, build = self._STEPS[n]
        rng = np.random.default_rng(320 + n + k)
        phi = build(self._rotations(rng, k))
        p = _spd_elementwise(rng, n, 1e-6).tolist()
        q = np.array([_spd_elementwise(rng, n, 1e-9) for _ in range(k)])
        got = np.array(step(phi.transpose(1, 2, 0), p, q.transpose(1, 2, 0))).transpose(2, 0, 1)
        assert got.shape == (k, n, n)
        for j in range(k):
            assert got[j].tobytes() == np.array(step(phi[j].tolist(), p, q[j].tolist())).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 10, 100, 1800])
    @pytest.mark.parametrize("name", ["aekf-flat-q", "aekf-kinematic-q", "mekf"])
    def test_every_block_of_a_predict_is_the_scalar_kernel(self, name, k):
        # block j of a k-block predict is the scalar kernel on Phi(R_j), the
        # segment-start P and Q_j, byte for byte, with Q_j = N_j sigma_v^2
        # dt I, or 0.25 N_j sigma_v^2 dt (I - q_j q_j^T) at the attitude
        # after block j
        n = 3 if name == "mekf" else 4
        step, build = self._STEPS[n]
        predict = mekf_predict if name == "mekf" else aekf_predict
        noise = NoiseParams(sigma_v=1e-3, aekf_q_flat=name == "aekf-flat-q")
        rng = np.random.default_rng(330 + n + k)
        r = quat_path(identity_quat(), self._rotations(rng, k).tolist())
        counts = np.cumsum(rng.integers(1, 100, size=k)).tolist()
        phi = build(r)
        p = _spd_elementwise(rng, n, 1e-6)
        quats, covs = predict(FilterState(self._rotations(rng, 1)[0], p), r, phi, counts, DT, noise)
        assert np.shape(covs) == (k, n, n)
        per_step = noise.sigma_v * noise.sigma_v * DT
        for j in range(k):
            var = counts[j] * per_step
            if name == "aekf-kinematic-q":
                q_j = (0.25 * var) * (np.eye(4) - np.outer(quats[j], quats[j]))
            else:
                q_j = var * np.eye(n)
            want = np.array(step(phi[j].tolist(), p.tolist(), q_j.tolist()))
            assert np.asarray(covs[j]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["aekf", "mekf"])
    def test_non_finite_covariance_is_rejected_by_the_update(self, name):
        # the kernel checks nothing; a NaN or inf it carries from P reaches
        # the update as rows of floats, which rejects it
        n, predict, update = (4, aekf_predict, aekf_update) if name == "aekf" else (3, mekf_predict, mekf_update)
        m = [axis_angle_quat([0.0, 0.0, 1.0], 0.01).tolist()]
        phi = _transitions_fn(FilterState(identity_quat(), np.eye(n)))(m)
        for value in (math.nan, math.inf, -math.inf):
            p = (1e-6 * np.eye(n)).tolist()
            p[0][n - 1] = p[n - 1][0] = value
            quats, covs = predict(FilterState(identity_quat(), p), m, phi, [100], DT, NoiseParams(sigma_v=1e-4))
            assert isinstance(covs[0], list) and not np.all(np.isfinite(covs[0]))
            with pytest.raises(InvalidInput):
                update(FilterState(quats[0], covs[0]), quats[0], (1e-6 * np.eye(n)).tolist())
            with pytest.raises(InvalidInput):
                update(FilterState(quats[0], p), quats[0], (1e-6 * np.eye(n)).tolist())


class TestBatchedPredict:
    """A predict takes blocks from several segments at once, each from its own
    segment-start state, and gives each block the bits of the float predict
    of that block alone."""

    _CASES = {
        "aekf-flat-q": (aekf_predict, aekf_transitions, 4, NoiseParams(sigma_v=1e-3, aekf_q_flat=True)),
        "aekf-kinematic-q": (aekf_predict, aekf_transitions, 4, NoiseParams(sigma_v=1e-3, aekf_q_flat=False)),
        "mekf": (mekf_predict, mekf_transitions, 3, NoiseParams(sigma_v=1e-3)),
    }

    @staticmethod
    def _segments(rng, n, sizes):
        """Per block of segments of ``sizes`` blocks: its segment-start attitude and covariance, R_j and N_j."""
        q0, p0, r, counts = [], [], [], []
        for size in sizes:
            q, p = quat_normalize(rng.standard_normal(4)), _spd_elementwise(rng, n, 1e-6)
            m = [quat_normalize(rng.standard_normal(4)) for _ in range(size)]
            q0 += [q] * size
            p0 += [p] * size
            r.extend(rotations_from_start(m))
            counts.extend(np.cumsum(rng.integers(1, 100, size=size)).tolist())
        return np.array(q0), np.array(p0), np.array(r), counts

    @pytest.mark.parametrize("sizes", [[1, 1], [3], [2, 5, 1, 4], [100, 7, 1]])
    @pytest.mark.parametrize("name", ["aekf-flat-q", "aekf-kinematic-q", "mekf"])
    def test_each_block_is_its_float_predict_alone(self, name, sizes):
        predict, build, n, noise = self._CASES[name]
        rng = np.random.default_rng(400 + n + len(sizes) + sum(sizes))
        q0, p0, r, counts = self._segments(rng, n, sizes)
        phi = build(r)
        quats, covs = predict(FilterState(q0, p0), r, phi, counts, DT, noise)
        k = len(r)
        assert np.shape(quats) == (k, 4) and np.shape(covs) == (k, n, n)
        for i in range(k):
            alone = FilterState(q0[i].tolist(), p0[i].tolist())
            (q,), (p,) = predict(alone, [r[i].tolist()], phi[i:i + 1], [counts[i]], DT, noise)
            assert isinstance(q, tuple) and isinstance(p, list)
            assert np.asarray(quats[i]).tobytes() == np.array(q).tobytes()
            assert np.asarray(covs[i]).tobytes() == np.array(p).tobytes()

    @pytest.mark.parametrize("name", ["aekf-flat-q", "aekf-kinematic-q", "mekf"])
    def test_a_shared_start_and_any_cut_give_the_same_bits(self, name):
        # one segment of 9 blocks: its blocks from one shared start state,
        # from a stack of that state, and in calls cut after any block
        predict, build, n, noise = self._CASES[name]
        rng = np.random.default_rng(420 + n)
        q0, p0, r, counts = self._segments(rng, n, [9])
        phi = build(r)
        whole = predict(FilterState(q0, p0), r, phi, counts, DT, noise)
        shared = predict(FilterState(q0[0], p0[0]), r, phi, counts, DT, noise)
        for a, b in zip(whole, shared):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        for cut in range(1, 9):
            parts = [predict(FilterState(q0[s], p0[s]), r[s], phi[s], counts[s], DT, noise)
                     for s in (slice(0, cut), slice(cut, 9))]
            for got, want in zip(zip(*parts), whole):
                assert np.concatenate([np.asarray(g) for g in got]).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("name", ["aekf-flat-q", "aekf-kinematic-q", "mekf"])
    def test_counts_from_several_segments_are_accepted(self, name):
        # per-block counts need not increase: [2, 2] and [3, 1] are blocks of
        # two segments, each block the float predict of its own
        predict, build, n, noise = self._CASES[name]
        rng = np.random.default_rng(430 + n)
        q0, p0, r, _ = self._segments(rng, n, [1, 1])
        phi = build(r)
        for counts in ([2, 2], [3, 1]):
            quats, covs = predict(FilterState(q0, p0), r, phi, counts, DT, noise)
            for i in range(2):
                (q,), (p,) = predict(FilterState(q0[i], p0[i]), r[i:i + 1], phi[i:i + 1], counts[i:i + 1], DT, noise)
                assert quats[i].tobytes() == np.array(q).tobytes() and covs[i].tobytes() == np.array(p).tobytes()

    def test_rejects_a_stack_of_other_length(self):
        rng = np.random.default_rng(440)
        for name in ("aekf-flat-q", "mekf"):
            predict, build, n, noise = self._CASES[name]
            q0, p0, r, counts = self._segments(rng, n, [2, 1])
            with pytest.raises(InvalidInput):
                predict(FilterState(q0[:2], p0[:2]), r, build(r), counts, DT, noise)


class TestFilterInvariants:
    def test_covariance_health_long_randomized_run(self):
        # symmetric within 1e-10 and min eigenvalue >= -1e-9 after 1e5
        # randomized predict/update cycles, both filters
        rng = RngStream(68)
        noise = NoiseParams(sigma_v=1e-3)
        r4 = 1e-5 * np.eye(4)
        r3 = 1e-5 * np.eye(3)
        q = identity_quat()
        aekf = FilterState(q, 1e-4 * np.eye(4))
        mekf = FilterState(q, 1e-4 * np.eye(3))
        n_cycles = 100_000
        update_every = 20
        for k in range(n_cycles):
            w = np.array([rng.gaussian(0.5) for _ in range(3)])
            aekf = predict_rates(aekf, w, DT, noise)
            mekf = predict_rates(mekf, w, DT, noise)
            if k % update_every == 0:
                meas = random_unit_quat(rng)
                aekf = aekf_update(aekf, meas, r4)
                if error_angle(meas, mekf.q) < math.radians(170.0):
                    mekf = mekf_update(mekf, meas, r3)
        for p in (aekf.p, mekf.p):
            assert np.max(np.abs(p - p.T)) <= 1e-10
            assert float(np.linalg.eigvalsh(p).min()) >= -1e-9
        assert abs(np.linalg.norm(aekf.q) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(mekf.q) - 1.0) <= 1e-12

    def test_double_cover_insensitive_trajectories(self):
        # flipping the sign of every measurement leaves both filters'
        # attitude trajectories identical
        rng = RngStream(69)
        noise = NoiseParams(sigma_v=1e-4)
        r4 = 1e-6 * np.eye(4)
        r3 = 1e-6 * np.eye(3)
        q_true = identity_quat()
        sa1 = FilterState(q_true, 1e-4 * np.eye(4))
        sa2 = FilterState(q_true, 1e-4 * np.eye(4))
        sm1 = FilterState(q_true, 1e-4 * np.eye(3))
        sm2 = FilterState(q_true, 1e-4 * np.eye(3))
        for k in range(200):
            w = trajectory_omega(k * DT, (0.0, 0.0, 1.0))
            q_true = integrate_quat(q_true, w[None, None], DT)[0]
            sa1 = predict_rates(sa1, w, DT, noise)
            sa2 = predict_rates(sa2, w, DT, noise)
            sm1 = predict_rates(sm1, w, DT, noise)
            sm2 = predict_rates(sm2, w, DT, noise)
            if k % 10 == 0:
                meas = quat_mul(axis_angle_quat(random_unit_vec(rng), 1e-3), q_true)
                sa1 = aekf_update(sa1, meas, r4)
                sa2 = aekf_update(sa2, -meas, r4)
                sm1 = mekf_update(sm1, meas, r3)
                sm2 = mekf_update(sm2, -meas, r3)
                assert error_angle(sa1.q, sa2.q) <= 1e-12
                assert error_angle(sm1.q, sm2.q) <= 1e-12

    def test_noise_free_convergence_moving_truth(self):
        # exact measurements at every step with R = 1e-12 I: both filters
        # reach steady-state error below 1e-6 from a deliberately wrong start
        q_true = identity_quat()
        start = quat_mul(axis_angle_quat([0.0, 1.0, 0.0], 0.1), q_true)
        noise = _quiet()
        r4 = 1e-12 * np.eye(4)
        r3 = 1e-12 * np.eye(3)
        aekf = FilterState(start, 1e-2 * np.eye(4))
        mekf = FilterState(start, 1e-2 * np.eye(3))
        for k in range(300):
            w = trajectory_omega(k * DT, (0.0, 0.0, 1.0))
            q_true = integrate_quat(q_true, w[None, None], DT)[0]
            aekf = predict_rates(aekf, w, DT, noise)
            mekf = predict_rates(mekf, w, DT, noise)
            aekf = aekf_update(aekf, q_true, r4)
            mekf = mekf_update(mekf, q_true, r3)
        assert error_angle(aekf.q, q_true) <= 1e-6
        assert error_angle(mekf.q, q_true) <= 1e-6

    def test_noise_params_validation(self):
        with pytest.raises(InvalidInput):
            NoiseParams(sigma_v=-1.0)
