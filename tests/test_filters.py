import math

import numpy as np
import pytest

from attsim.attitude import (
    axis_angle_quat,
    cross_matrix,
    error_angle,
    identity_quat,
    integrate_quat,
    integrate_quat_path,
    quat_mul,
    quat_normalize,
    xi_matrix,
)
from attsim.errors import GibbsSingularity, InvalidInput, NumericalFailure
from attsim.filters import (
    AekfState,
    MekfState,
    NoiseParams,
    aekf_init,
    aekf_predict,
    aekf_update,
    mekf_init,
    mekf_predict,
    mekf_update,
)
from attsim.harness import ORBIT_PERIOD_S, trajectory_omega
from attsim.numerics import RngStream

from conftest import random_unit_quat, random_unit_vec

DT = 0.01


def _quiet():
    return NoiseParams(sigma_v=0.0, sigma_u=0.0)


def _psd(rng, n, scale=1.0):
    m = np.array([[rng.gaussian(1.0) for _ in range(n)] for _ in range(n)])
    return scale * (m @ m.T) / n + 1e-9 * np.eye(n)


def mekf_build_matrices(noise: NoiseParams, omega, dt: float):
    """Continuous-time MEKF error-state matrices (F, G, Q, H) for one step.

    The textbook oracle of ``mekf_predict``: F couples the attitude error to
    itself through the angular-rate cross matrix and to the bias error
    through -I; the bias error is a random walk. Q carries the standard
    white-noise/random-walk discretization; H observes the attitude error
    only. ``mekf_predict`` must equal ``Phi = I + F dt`` and ``G Q G^T``.
    """
    sv2 = noise.sigma_v * noise.sigma_v
    su2 = noise.sigma_u * noise.sigma_u
    f = np.zeros((6, 6))
    f[:3, :3] = -cross_matrix(omega)
    f[:3, 3:] = -np.eye(3)
    g = np.zeros((6, 6))
    g[:3, :3] = -np.eye(3)
    g[3:, 3:] = np.eye(3)
    q = np.zeros((6, 6))
    q[:3, :3] = (sv2 * dt + su2 * dt**3 / 3.0) * np.eye(3)
    q[:3, 3:] = -(0.5 * su2 * dt * dt) * np.eye(3)
    q[3:, :3] = -(0.5 * su2 * dt * dt) * np.eye(3)
    q[3:, 3:] = (su2 * dt) * np.eye(3)
    h = np.zeros((3, 6))
    h[:, :3] = np.eye(3)
    return f, g, q, h


class TestAekfPredict:
    def test_quiet_is_noop(self):
        rng = RngStream(50)
        s = aekf_init(random_unit_quat(rng), _psd(rng, 4))
        s2 = aekf_predict(s, np.zeros(3), DT, _quiet())
        assert np.allclose(s2.q, s.q)
        assert np.allclose(s2.p, s.p)

    @pytest.mark.parametrize("flat", [False, True])
    def test_process_noise_grows_trace(self, flat):
        rng = RngStream(51)
        s = aekf_init(random_unit_quat(rng), _psd(rng, 4))
        noise = NoiseParams(sigma_v=1e-3, aekf_q_flat=flat)
        s2 = aekf_predict(s, np.zeros(3), DT, noise)
        assert np.trace(s2.p) > np.trace(s.p)

    def test_transition_matches_numerical_jacobian(self):
        # integrate_quat is linear in q, so central differences recover its
        # matrix exactly; F = I + 0.5*Omega*dt matches to O(dt^2)
        rng = RngStream(52)
        q = random_unit_quat(rng)
        w = 1.5 * random_unit_vec(rng)
        dt = 1e-3
        jac = np.zeros((4, 4))
        eps = 1e-6
        for j in range(4):
            dq = np.zeros(4)
            dq[j] = eps
            jac[:, j] = (integrate_quat(q + dq, w, dt) - integrate_quat(q - dq, w, dt)) / (2 * eps)
        h = 0.5 * dt
        f = np.eye(4)
        f[0, 1], f[0, 2], f[0, 3] = -h * w[2], h * w[1], h * w[0]
        f[1, 0], f[1, 2], f[1, 3] = h * w[2], -h * w[0], h * w[1]
        f[2, 0], f[2, 1], f[2, 3] = -h * w[1], h * w[0], h * w[2]
        f[3, 0], f[3, 1], f[3, 2] = -h * w[0], -h * w[1], -h * w[2]
        assert np.max(np.abs(f - jac)) <= 1e-4

    def test_kinematic_q_is_tangent_projector(self):
        rng = RngStream(53)
        q = random_unit_quat(rng)
        s = aekf_init(q, np.zeros((4, 4)))
        noise = NoiseParams(sigma_v=2e-2, aekf_q_flat=False)
        s2 = aekf_predict(s, np.zeros(3), DT, noise)
        expect = (0.25 * noise.sigma_v**2 * DT) * (np.eye(4) - np.outer(q, q))
        assert np.allclose(s2.p, expect, atol=1e-18)

    def test_rejects_bad_dt(self):
        rng = RngStream(54)
        s = aekf_init(random_unit_quat(rng), np.eye(4))
        with pytest.raises(InvalidInput):
            aekf_predict(s, np.zeros(3), 0.0, _quiet())


class TestAekfUpdate:
    def test_zero_residual_keeps_state_shrinks_p(self):
        rng = RngStream(55)
        q = random_unit_quat(rng)
        s = AekfState(q=q, p=_psd(rng, 4))
        s2 = aekf_update(s, q.copy(), 1e-4 * np.eye(4))
        assert error_angle(s2.q, q) <= 1e-12
        assert np.trace(s2.p) < np.trace(s.p)

    def test_double_cover(self):
        rng = RngStream(56)
        q = random_unit_quat(rng)
        meas = quat_mul(axis_angle_quat([1.0, 0, 0], 0.02), q)
        p0 = _psd(rng, 4)
        r4 = 1e-4 * np.eye(4)
        plus = aekf_update(AekfState(q=q.copy(), p=p0.copy()), meas, r4)
        minus = aekf_update(AekfState(q=q.copy(), p=p0.copy()), -meas, r4)
        assert np.array_equal(plus.q, minus.q)
        assert np.array_equal(plus.p, minus.p)

    def test_no_trust_limit(self):
        rng = RngStream(57)
        q = random_unit_quat(rng)
        meas = quat_mul(axis_angle_quat([0.0, 1.0, 0], 0.3), q)
        s2 = aekf_update(AekfState(q=q.copy(), p=np.eye(4)), meas, 1e12 * np.eye(4))
        assert error_angle(s2.q, q) <= 1e-9

    def test_norm_restored(self):
        rng = RngStream(58)
        for _ in range(50):
            q = random_unit_quat(rng)
            meas = random_unit_quat(rng)
            s2 = aekf_update(AekfState(q=q, p=_psd(rng, 4)), meas, 1e-2 * np.eye(4))
            assert abs(np.linalg.norm(s2.q) - 1.0) <= 1e-12

    def test_singular_innovation(self):
        rng = RngStream(59)
        s = AekfState(q=random_unit_quat(rng), p=np.zeros((4, 4)))
        with pytest.raises(NumericalFailure):
            aekf_update(s, s.q.copy(), np.zeros((4, 4)))


class TestMekfMatrices:
    def test_q_with_zero_bias_walk(self):
        noise = NoiseParams(sigma_v=2e-3, sigma_u=0.0)
        _, _, q, _ = mekf_build_matrices(noise, np.zeros(3), DT)
        expect = np.zeros((6, 6))
        expect[:3, :3] = (noise.sigma_v**2 * DT) * np.eye(3)
        assert np.allclose(q, expect)

    def test_q_vanishes_with_dt(self):
        noise = NoiseParams(sigma_v=1e-3, sigma_u=1e-4)
        _, _, q, _ = mekf_build_matrices(noise, np.zeros(3), 1e-12)
        assert np.max(np.abs(q)) <= 1e-14

    def test_q_blocks_full_form(self):
        sv, su, dt = 3e-4, 2e-5, 0.5
        _, _, q, _ = mekf_build_matrices(NoiseParams(sigma_v=sv, sigma_u=su), np.zeros(3), dt)
        assert np.allclose(q[:3, :3], (sv**2 * dt + su**2 * dt**3 / 3.0) * np.eye(3))
        assert np.allclose(q[:3, 3:], -(0.5 * su**2 * dt**2) * np.eye(3))
        assert np.allclose(q[3:, 3:], (su**2 * dt) * np.eye(3))
        evals = np.linalg.eigvalsh(q)
        assert evals.min() >= -1e-18

    def test_f_cross_block(self):
        f, g, _, h = mekf_build_matrices(_quiet(), np.array([0.0, 0.0, 1.0]), DT)
        assert np.allclose(f[:3, :3], [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.allclose(f[:3, 3:], -np.eye(3))
        assert np.allclose(f[3:, :], 0.0)
        assert np.allclose(g, np.block([[-np.eye(3), np.zeros((3, 3))], [np.zeros((3, 3)), np.eye(3)]]))
        assert np.allclose(h, np.hstack([np.eye(3), np.zeros((3, 3))]))


class TestMekfPredict:
    def test_quiet_zero_bias_cov_is_noop(self):
        rng = RngStream(60)
        p0 = np.zeros((6, 6))
        p0[:3, :3] = _psd(rng, 3)
        s = mekf_init(random_unit_quat(rng), p0)
        s2 = mekf_predict(s, np.zeros(3), DT, _quiet())
        assert np.allclose(s2.q_ref, s.q_ref)
        assert np.allclose(s2.p, s.p)
        assert np.all(s2.dx == 0.0)

    def test_bias_cov_couples_into_attitude(self):
        p0 = np.zeros((6, 6))
        p0[3:, 3:] = 1e-6 * np.eye(3)
        s = mekf_init(identity_quat(), p0)
        s2 = mekf_predict(s, np.zeros(3), DT, _quiet())
        assert np.trace(s2.p[:3, :3]) > 0.0

    def test_process_noise_grows_attitude_trace(self):
        rng = RngStream(61)
        s = mekf_init(random_unit_quat(rng), np.zeros((6, 6)))
        s2 = mekf_predict(s, random_unit_vec(rng), DT, NoiseParams(sigma_v=1e-3))
        assert np.trace(s2.p[:3, :3]) > 0.0

    def test_phi_matches_matrix_exponential(self):
        # series oracle: sum F^k dt^k / k!
        noise = _quiet()
        w = np.array([0.7, -1.1, 0.4])
        dt = 1e-3
        f, _, _, _ = mekf_build_matrices(noise, w, dt)
        expm = np.zeros((6, 6))
        term = np.eye(6)
        for k in range(1, 20):
            expm += term
            term = term @ (f * dt) / k
        phi = np.eye(6) + dt * f
        assert np.max(np.abs(phi - expm)) <= 1e-5

    def test_predict_equals_explicit_matrix_route(self):
        rng = RngStream(62)
        noise = NoiseParams(sigma_v=2e-4, sigma_u=1e-5)
        s = mekf_init(random_unit_quat(rng), _psd(rng, 6, 1e-4))
        w = 1.3 * random_unit_vec(rng)
        f, g, q, _ = mekf_build_matrices(noise, w, DT)
        phi = np.eye(6) + DT * f
        p_explicit = phi @ s.p @ phi.T + g @ q @ g.T
        p_explicit = 0.5 * (p_explicit + p_explicit.T)
        # a single rate and a block of one step are the same predict
        for rates in (w, w[None, :]):
            s2 = mekf_predict(s, rates, DT, noise)
            assert np.max(np.abs(s2.p - p_explicit)) <= 1e-18

    def test_rejects_bad_dt(self):
        s = mekf_init(identity_quat(), np.zeros((6, 6)))
        with pytest.raises(InvalidInput):
            mekf_predict(s, np.zeros(3), -1.0, _quiet())


class TestMekfUpdate:
    def test_zero_innovation(self):
        rng = RngStream(63)
        q = random_unit_quat(rng)
        p0 = np.zeros((6, 6))
        p0[:3, :3] = _psd(rng, 3)
        s = MekfState(q_ref=q, dx=np.zeros(6), p=p0)
        s2 = mekf_update(s, q.copy(), 1e-4 * np.eye(3))
        assert error_angle(s2.q_ref, q) <= 1e-12
        assert np.trace(s2.p[:3, :3]) < np.trace(s.p[:3, :3])
        assert np.all(s2.dx == 0.0)

    def test_double_cover(self):
        rng = RngStream(64)
        q = random_unit_quat(rng)
        meas = quat_mul(axis_angle_quat([0.0, 0, 1.0], 0.05), q)
        p0 = _psd(rng, 6, 1e-2)
        plus = mekf_update(MekfState(q_ref=q.copy(), dx=np.zeros(6), p=p0.copy()), meas, 1e-6 * np.eye(3))
        minus = mekf_update(MekfState(q_ref=q.copy(), dx=np.zeros(6), p=p0.copy()), -meas, 1e-6 * np.eye(3))
        assert np.array_equal(plus.q_ref, minus.q_ref)
        assert np.array_equal(plus.p, minus.p)

    def test_near_exact_measurement_limit(self):
        rng = RngStream(65)
        q = random_unit_quat(rng)
        meas = quat_mul(axis_angle_quat([1.0, 0.0, 0.0], 0.01), q)
        s = MekfState(q_ref=q, dx=np.zeros(6), p=np.eye(6))
        s2 = mekf_update(s, meas, 1e-12 * np.eye(3))
        assert error_angle(s2.q_ref, meas) <= 1e-4

    def test_reference_stays_unit(self):
        rng = RngStream(66)
        for _ in range(50):
            q = random_unit_quat(rng)
            meas = random_unit_quat(rng)
            if error_angle(q, meas) > math.radians(170.0):
                continue
            s = MekfState(q_ref=q, dx=np.zeros(6), p=np.eye(6) * 1e-2)
            s2 = mekf_update(s, meas, 1e-4 * np.eye(3))
            assert abs(np.linalg.norm(s2.q_ref) - 1.0) <= 1e-12

    def test_180_degree_innovation(self):
        q = identity_quat()
        meas = np.array([1.0, 0.0, 0.0, 0.0])
        s = MekfState(q_ref=q, dx=np.zeros(6), p=np.eye(6))
        with pytest.raises(GibbsSingularity):
            mekf_update(s, meas, 1e-4 * np.eye(3))

    def test_reset_mapping_first_order_agreement(self):
        # the exact reset normalize((a; 2) * q) agrees with its first-order
        # expansion q + 0.5 * Xi(q) a to O(|a|^2): halving a quarters the gap
        rng = RngStream(67)
        q = random_unit_quat(rng)
        direction = random_unit_vec(rng)
        gaps = []
        scales = [1e-1, 5e-2, 2.5e-2, 1.25e-2]
        for scale in scales:
            a = scale * direction
            dq = quat_normalize(np.array([a[0], a[1], a[2], 2.0]))
            exact = quat_normalize(quat_mul(dq, q))
            linear = q + 0.5 * (xi_matrix(q) @ a)
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
        for flat in (True, False):
            noise = NoiseParams(sigma_v=1e-3, aekf_q_flat=flat)
            a = b = aekf_init(quat_normalize(rng.standard_normal(4)), 1e-4 * np.eye(4))
            a = aekf_predict(a, rates, DT, noise)
            for w in rates:
                b = aekf_predict(b, w, DT, noise)
            assert error_angle(a.q, b.q) <= 1e-14
            assert np.max(np.abs(a.p - b.p)) <= 1e-14 * np.max(np.abs(b.p))
        noise = NoiseParams(sigma_v=1e-3, sigma_u=1e-4)
        a = b = mekf_init(quat_normalize(rng.standard_normal(4)), 1e-4 * np.eye(6))
        a = mekf_predict(a, rates, DT, noise)
        for w in rates:
            b = mekf_predict(b, w, DT, noise)
        assert error_angle(a.q_ref, b.q_ref) <= 1e-14
        assert np.max(np.abs(a.p - b.p)) <= 1e-14 * np.max(np.abs(b.p))

    @pytest.mark.parametrize("shape", [(0, 3), (4,), (2, 4), (2, 3, 1)])
    def test_rejects_malformed_rate_blocks(self, shape):
        with pytest.raises(InvalidInput):
            aekf_predict(aekf_init(identity_quat(), np.eye(4)), np.zeros(shape), DT, _quiet())
        with pytest.raises(InvalidInput):
            mekf_predict(mekf_init(identity_quat(), np.eye(6)), np.zeros(shape), DT, _quiet())

    def test_integrate_block_equals_steps(self):
        rng = np.random.default_rng(7)
        q = quat_normalize(rng.standard_normal(4))
        rates = rng.standard_normal((37, 3))
        rates[4] = 0.0
        path = integrate_quat_path(q, rates, DT)
        step = q
        for k, w in enumerate(rates):
            step = integrate_quat(step, w, DT)
            assert np.max(np.abs(path[k] - step)) <= 1e-14
        assert np.max(np.abs(integrate_quat(q, rates, DT) - step)) <= 1e-14

    @pytest.mark.parametrize(
        "name, noise",
        [
            ("aekf", NoiseParams(sigma_v=1e-3 * math.sqrt(DT), aekf_q_flat=True)),
            ("aekf", NoiseParams(sigma_v=1e-3 * math.sqrt(DT), aekf_q_flat=False)),
            ("mekf", NoiseParams(sigma_v=1e-3 * math.sqrt(DT), sigma_u=1e-5)),
        ],
        ids=["aekf-flat-q", "aekf-kinematic-q", "mekf-bias-walk"],
    )
    def test_block_predict_tracks_step_predict_over_an_orbit(self, name, noise):
        # path A predicts once per 100-step block, path B once per step, with
        # the same update after every block; rounding may differ, nothing else
        q_true = identity_quat()
        if name == "aekf":
            predict, update, r = aekf_predict, aekf_update, 1e-6 * np.eye(4)
            a = b = aekf_init(q_true, 1e-6 * np.eye(4))
        else:
            predict, update, r = mekf_predict, mekf_update, 1e-6 * np.eye(3)
            a = b = mekf_init(q_true, np.diag([1e-6, 1e-6, 1e-6, 1e-8, 1e-8, 1e-8]))
        true, meas = _orbit_rates(3)
        rng = np.random.default_rng(4)
        q_gap = p_gap = 0.0
        for k in range(ORBIT_BLOCKS):
            a = predict(a, meas[k], DT, noise)
            for w in meas[k]:
                b = predict(b, w, DT, noise)
            q_true = integrate_quat(q_true, true[k], DT)
            tilt = 5e-4 * rng.standard_normal(3)
            z = quat_normalize(quat_mul(np.append(tilt, 1.0), q_true))
            a = update(a, z, r)
            b = update(b, z, r)
            qa, qb = (a.q, b.q) if name == "aekf" else (a.q_ref, b.q_ref)
            q_gap = max(q_gap, error_angle(qa, qb))
            p_gap = max(p_gap, float(np.max(np.abs(a.p - b.p)) / np.max(np.abs(b.p))))
        assert q_gap <= 1e-12, f"quaternion gap {q_gap:.3e} rad"
        assert p_gap <= 1e-10, f"relative covariance gap {p_gap:.3e}"


class TestFilterInvariants:
    def test_covariance_health_long_randomized_run(self):
        # symmetric within 1e-10 and min eigenvalue >= -1e-9 after 1e5
        # randomized predict/update cycles, both filters
        rng = RngStream(68)
        noise = NoiseParams(sigma_v=1e-3, sigma_u=1e-5)
        r4 = 1e-5 * np.eye(4)
        r3 = 1e-5 * np.eye(3)
        q = identity_quat()
        aekf = aekf_init(q, 1e-4 * np.eye(4))
        mekf = mekf_init(q, 1e-4 * np.eye(6))
        n_cycles = 100_000
        update_every = 20
        for k in range(n_cycles):
            w = np.array([rng.gaussian(0.5) for _ in range(3)])
            aekf = aekf_predict(aekf, w, DT, noise)
            mekf = mekf_predict(mekf, w, DT, noise)
            if k % update_every == 0:
                meas = random_unit_quat(rng)
                aekf = aekf_update(aekf, meas, r4)
                if error_angle(meas, mekf.q_ref) < math.radians(170.0):
                    mekf = mekf_update(mekf, meas, r3)
        for p in (aekf.p, mekf.p):
            assert np.max(np.abs(p - p.T)) <= 1e-10
            assert float(np.linalg.eigvalsh(p).min()) >= -1e-9
        assert abs(np.linalg.norm(aekf.q) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(mekf.q_ref) - 1.0) <= 1e-12

    def test_double_cover_insensitive_trajectories(self):
        # flipping the sign of every measurement leaves both filters'
        # attitude trajectories identical
        rng = RngStream(69)
        noise = NoiseParams(sigma_v=1e-4)
        r4 = 1e-6 * np.eye(4)
        r3 = 1e-6 * np.eye(3)
        q_true = identity_quat()
        sa1 = aekf_init(q_true, 1e-4 * np.eye(4))
        sa2 = aekf_init(q_true, 1e-4 * np.eye(4))
        sm1 = mekf_init(q_true, 1e-4 * np.eye(6))
        sm2 = mekf_init(q_true, 1e-4 * np.eye(6))
        for k in range(200):
            w = trajectory_omega(k * DT, (0.0, 0.0, 1.0))
            q_true = integrate_quat(q_true, w, DT)
            sa1 = aekf_predict(sa1, w, DT, noise)
            sa2 = aekf_predict(sa2, w, DT, noise)
            sm1 = mekf_predict(sm1, w, DT, noise)
            sm2 = mekf_predict(sm2, w, DT, noise)
            if k % 10 == 0:
                meas = quat_mul(axis_angle_quat(random_unit_vec(rng), 1e-3), q_true)
                sa1 = aekf_update(sa1, meas, r4)
                sa2 = aekf_update(sa2, -meas, r4)
                sm1 = mekf_update(sm1, meas, r3)
                sm2 = mekf_update(sm2, -meas, r3)
                assert error_angle(sa1.q, sa2.q) <= 1e-12
                assert error_angle(sm1.q_ref, sm2.q_ref) <= 1e-12

    def test_noise_free_convergence_moving_truth(self):
        # exact measurements at every step with R = 1e-12 I: both filters
        # reach steady-state error below 1e-6 from a deliberately wrong start
        q_true = identity_quat()
        start = quat_mul(axis_angle_quat([0.0, 1.0, 0.0], 0.1), q_true)
        noise = _quiet()
        r4 = 1e-12 * np.eye(4)
        r3 = 1e-12 * np.eye(3)
        aekf = aekf_init(start, 1e-2 * np.eye(4))
        mekf = mekf_init(start, 1e-2 * np.eye(6))
        for k in range(300):
            w = trajectory_omega(k * DT, (0.0, 0.0, 1.0))
            q_true = integrate_quat(q_true, w, DT)
            aekf = aekf_predict(aekf, w, DT, noise)
            mekf = mekf_predict(mekf, w, DT, noise)
            aekf = aekf_update(aekf, q_true, r4)
            mekf = mekf_update(mekf, q_true, r3)
        assert error_angle(aekf.q, q_true) <= 1e-6
        assert error_angle(mekf.q_ref, q_true) <= 1e-6

    def test_noise_params_validation(self):
        with pytest.raises(InvalidInput):
            NoiseParams(sigma_v=-1.0)
