import math

import numpy as np
import pytest

from attsim.attitude import error_angle, quat_to_matrix
from attsim.errors import (
    AttsimError,
    DegenerateGeometry,
    InvalidInput,
    NumericalFailure,
    UnderdeterminedAttitude,
)
from attsim.numerics import RngStream
from attsim.startracker import ObservationSet, default_camera_rig, generate_catalog, observe
from attsim.wahba import (
    WahbaSolution,
    build_profile,
    davenport_matrix,
    davenport_solve,
    triad,
    wahba_loss,
)

from conftest import random_unit_quat, random_unit_vec
from oracles import davenport_per_star, observe_per_star


def _obs_from_attitude(q_true, rng, n, weights=None):
    a = quat_to_matrix(q_true)
    r = np.array([random_unit_vec(rng) for _ in range(n)])
    return ObservationSet(b=r @ a.T, r=r, weights=weights)


def _random_pairs(rng, n, weighted=True):
    """``n`` unrelated unit-vector pairs, weights in [0.1, 1.1) or all 1."""
    rows = [
        (random_unit_vec(rng), random_unit_vec(rng), rng.uniform() + 0.1 if weighted else 1.0)
        for _ in range(n)
    ]
    b, r, w = zip(*rows)
    return ObservationSet(b=np.array(b), r=np.array(r), weights=np.array(w))


def _matrix_angle(a, b):
    """Rotation angle between two attitude matrices."""
    rel = a @ b.T
    c = 0.5 * (np.trace(rel) - 1.0)
    return math.acos(max(-1.0, min(1.0, float(c))))


class TestTriad:
    def test_same_frames_identity(self):
        r1 = np.array([1.0, 0.0, 0.0])
        r2 = np.array([0.0, 1.0, 0.0])
        assert np.allclose(triad(r1, r2, r1, r2), np.eye(3), atol=1e-15)

    def test_forced_90_degree(self):
        r1 = np.array([1.0, 0.0, 0.0])
        r2 = np.array([0.0, 1.0, 0.0])
        b1 = np.array([0.0, 1.0, 0.0])
        b2 = np.array([-1.0, 0.0, 0.0])
        a = triad(r1, r2, b1, b2)
        assert np.allclose(a, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)
        assert np.allclose(a @ r1, b1)

    def test_collinear_rejected(self):
        r1 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometry):
            triad(r1, r1, np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))

    def test_exact_on_first_pair_and_proper(self):
        rng = RngStream(31)
        for _ in range(50):
            q = random_unit_quat(rng)
            a_true = quat_to_matrix(q)
            r1, r2 = random_unit_vec(rng), random_unit_vec(rng)
            if np.linalg.norm(np.cross(r1, r2)) < 1e-3:
                continue
            a = triad(r1, r2, a_true @ r1, a_true @ r2)
            assert np.max(np.abs(a @ r1 - a_true @ r1)) <= 1e-12
            assert np.max(np.abs(a @ a.T - np.eye(3))) <= 1e-12
            assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-12)


class TestBuildProfile:
    def test_single_pair_outer_product(self):
        z = np.array([[0.0, 0.0, 1.0]])
        prof = build_profile(ObservationSet(b=z, r=z))
        assert np.allclose(prof.b, np.diag([0.0, 0.0, 1.0]))
        assert prof.total_weight == 1.0

    def test_linear_in_weights(self):
        rng = RngStream(32)
        obs = _obs_from_attitude(random_unit_quat(rng), rng, 4)
        doubled = ObservationSet(b=obs.b, r=obs.r, weights=2.0 * obs.weights)
        assert np.allclose(build_profile(doubled).b, 2.0 * build_profile(obs).b)

    def test_matches_bruteforce_accumulation(self):
        rng = RngStream(33)
        obs = _random_pairs(rng, 6)
        expect = np.zeros((3, 3))
        for b, r, w in zip(obs.b, obs.r, obs.weights):
            for i in range(3):
                for j in range(3):
                    expect[i, j] += w * b[i] * r[j]
        assert np.allclose(build_profile(obs).b, expect, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            build_profile(ObservationSet(b=[], r=[]))

    def test_nonpositive_weight_rejected(self):
        z = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidInput):
                build_profile(ObservationSet(b=z, r=z, weights=[1.0, bad]))


class TestDavenportMatrix:
    def test_aligned_pairs_give_identity_top_eigenvector(self):
        rng = RngStream(34)
        v = np.array([random_unit_vec(rng) for _ in range(5)])
        obs = ObservationSet(b=v, r=v)
        k = davenport_matrix(build_profile(obs), obs)
        z = k.k[:3, 3]
        assert np.allclose(z, 0.0, atol=1e-12)
        sol = davenport_solve(obs)
        assert error_angle(sol.q, np.array([0.0, 0.0, 0.0, 1.0])) <= 1e-9

    def test_single_pair_block_values(self):
        z = np.array([[0.0, 0.0, 1.0]])
        obs = ObservationSet(b=z, r=z)
        k = davenport_matrix(build_profile(obs), obs).k
        assert np.allclose(k, np.diag([-1.0, -1.0, 1.0, 1.0]))

    def test_z_formulas_agree(self):
        rng = RngStream(35)
        obs = _random_pairs(rng, 8)
        prof = build_profile(obs)
        k = davenport_matrix(prof, obs).k
        z_cross = sum(w * np.cross(b, r) for b, r, w in zip(obs.b, obs.r, obs.weights))
        assert np.max(np.abs(k[:3, 3] - z_cross)) <= 1e-12

    def test_profile_of_other_observations_rejected(self):
        rng = RngStream(46)
        obs = _random_pairs(rng, 5)
        other = _random_pairs(rng, 5)
        with pytest.raises(NumericalFailure):
            davenport_matrix(build_profile(other), obs)

    def test_symmetric_and_traceless(self):
        rng = RngStream(36)
        obs = _random_pairs(rng, 5, weighted=False)
        k = davenport_matrix(build_profile(obs), obs).k
        assert np.max(np.abs(k - k.T)) <= 1e-12
        assert abs(np.trace(k)) <= 1e-9


class TestDavenportSolve:
    def test_recovers_truth_noiseless(self):
        rng = RngStream(37)
        for _ in range(50):
            q_true = random_unit_quat(rng)
            sol = davenport_solve(_obs_from_attitude(q_true, rng, 5))
            assert error_angle(sol.q, q_true) <= 1e-6

    def test_scalar_part_nonnegative(self):
        rng = RngStream(38)
        for _ in range(50):
            sol = davenport_solve(_obs_from_attitude(random_unit_quat(rng), rng, 3))
            assert sol.q[3] >= 0.0

    def test_agrees_with_triad_on_two_pairs(self):
        rng = RngStream(39)
        for _ in range(20):
            q_true = random_unit_quat(rng)
            a_true = quat_to_matrix(q_true)
            r1, r2 = random_unit_vec(rng), random_unit_vec(rng)
            if np.linalg.norm(np.cross(r1, r2)) < 1e-2:
                continue
            obs = ObservationSet(
                b=np.array([a_true @ r1, a_true @ r2]), r=np.array([r1, r2]), weights=[1.0, 1e-4]
            )
            a_triad = triad(r1, r2, a_true @ r1, a_true @ r2)
            sol = davenport_solve(obs)
            assert _matrix_angle(quat_to_matrix(sol.q), a_triad) <= 1e-6

    def test_too_few_observations(self):
        rng = RngStream(40)
        with pytest.raises(UnderdeterminedAttitude):
            davenport_solve(_obs_from_attitude(random_unit_quat(rng), rng, 1))

    def test_collinear_set_underdetermined(self):
        z = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        obs = ObservationSet(b=z, r=z)
        with pytest.raises(UnderdeterminedAttitude):
            davenport_solve(obs)

    def test_lambda_max_loss_identity(self):
        rng = RngStream(41)
        for _ in range(20):
            obs = _random_pairs(rng, 6)
            sol = davenport_solve(obs)
            total = float(obs.weights.sum())
            loss = wahba_loss(quat_to_matrix(sol.q), obs)
            assert loss == pytest.approx(2.0 * total - 2.0 * sol.lambda_max, abs=1e-9)

    def test_optimality_against_sampling(self):
        # brute force: the solved attitude beats 1000 random rotations and
        # the TRIAD answer built from the first two pairs
        rng = RngStream(42)
        q_true = random_unit_quat(rng)
        a_true = quat_to_matrix(q_true)
        bs, rs = [], []
        for _ in range(6):
            r = random_unit_vec(rng)
            b = a_true @ r + rng.gaussian_vec(5e-3, 3)
            bs.append(b / np.linalg.norm(b))
            rs.append(r)
        obs = ObservationSet(b=np.array(bs), r=np.array(rs))
        sol = davenport_solve(obs)
        best = wahba_loss(quat_to_matrix(sol.q), obs)
        for _ in range(1000):
            a_rand = quat_to_matrix(random_unit_quat(rng))
            assert best <= wahba_loss(a_rand, obs) + 1e-12
        a_triad = triad(obs.r[0], obs.r[1], obs.b[0], obs.b[1])
        assert best <= wahba_loss(a_triad, obs) + 1e-12


class TestWahbaLoss:
    def test_zero_for_perfect_attitude(self):
        rng = RngStream(43)
        q = random_unit_quat(rng)
        obs = _obs_from_attitude(q, rng, 5)
        assert wahba_loss(quat_to_matrix(q), obs) <= 1e-20

    def test_single_right_angle_pair(self):
        obs = ObservationSet(b=np.array([[0.0, 1.0, 0.0]]), r=np.array([[1.0, 0.0, 0.0]]))
        assert wahba_loss(np.eye(3), obs) == pytest.approx(2.0)

    def test_trace_form_identity(self):
        # loss == 2 * sum(a_i) - 2 * tr(A B^T) for any attitude
        rng = RngStream(44)
        for _ in range(20):
            obs = _random_pairs(rng, 5)
            a = quat_to_matrix(random_unit_quat(rng))
            prof = build_profile(obs)
            expect = 2.0 * prof.total_weight - 2.0 * float(np.trace(a @ prof.b.T))
            assert wahba_loss(a, obs) == pytest.approx(expect, abs=1e-12)


class TestTraceIdentity:
    def test_quadratic_form_matches_trace(self):
        # tr(A(q) B^T) == q^T K q for random attitudes and observation sets
        rng = RngStream(45)
        for _ in range(200):
            q = random_unit_quat(rng)
            obs = _random_pairs(rng, 4)
            prof = build_profile(obs)
            k = davenport_matrix(prof, obs).k
            lhs = float(np.trace(quat_to_matrix(q) @ prof.b.T))
            rhs = float(q @ k @ q)
            assert abs(lhs - rhs) <= 1e-10


class TestAgainstPerStarLoop:
    """The array q-method against the per-pair loop it replaced (``tests/oracles.py``)."""

    def test_same_pairs_same_solution(self):
        rng = RngStream(47)
        for n in (2, 3, 5, 40, 200):
            for _ in range(10):
                q_true = random_unit_quat(rng)
                a = quat_to_matrix(q_true)
                r = np.array([random_unit_vec(rng) for _ in range(n)])
                b = r @ a.T + np.array([rng.gaussian_vec(1e-2, 3) for _ in range(n)])
                b /= np.linalg.norm(b, axis=1)[:, None]
                w = np.array([rng.uniform() + 0.1 for _ in range(n)])
                obs = ObservationSet(b=b, r=r, weights=w)
                sol = davenport_solve(obs)
                q, lam, loss = davenport_per_star(b, r, w)
                assert np.max(np.abs(sol.q - q)) <= 1e-15
                assert sol.lambda_max == pytest.approx(lam, rel=1e-15)
                assert wahba_loss(quat_to_matrix(sol.q), obs) == pytest.approx(loss, rel=1e-12, abs=1e-15)

    def test_tracker_epochs_against_per_star_pipeline(self):
        # the star-field setup: six heads, 1000 stars, about 180 stars per epoch
        setup = RngStream(48)
        cat = generate_catalog(1000, setup)
        cams = default_camera_rig(6, math.radians(20.0))
        rng, rng_ref = RngStream(49), RngStream(49)
        for _ in range(20):
            q_true = random_unit_quat(setup)
            sol = davenport_solve(observe(q_true, cat, cams, 1e-3, rng))
            pairs = observe_per_star(q_true, cat, cams, 1e-3, rng_ref)
            q, _, _ = davenport_per_star([b for b, _ in pairs], [r for _, r in pairs], [1.0] * len(pairs))
            assert np.max(np.abs(sol.q - q)) <= 1e-15

    def test_both_reject_the_same_sets(self):
        z = np.array([[0.0, 0.0, 1.0]])
        for b, r in ((z, z), (np.vstack([z, z]), np.vstack([z, z]))):
            with pytest.raises(UnderdeterminedAttitude):
                davenport_solve(ObservationSet(b=b, r=r))
            with pytest.raises(UnderdeterminedAttitude):
                davenport_per_star(b, r, [1.0] * len(b))


class TestDavenportSequence:
    """``davenport_solve`` on a sequence of sets: one stacked eigensolve, per-set outcomes."""

    @staticmethod
    def _one_by_one(sets):
        out = []
        for obs in sets:
            try:
                out.append(davenport_solve(obs))
            except AttsimError as exc:
                out.append(exc)
        return out

    def _mixed_sets(self):
        rng = RngStream(61)
        z = np.array([[0.0, 0.0, 1.0]])
        sets = [_random_pairs(rng, n) for n in (2, 3, 7, 40)]
        sets.insert(1, ObservationSet(b=z, r=z))  # one star
        sets.insert(3, ObservationSet(b=np.vstack([z, z]), r=np.vstack([z, z])))  # degenerate gap
        sets.append(_obs_from_attitude(random_unit_quat(rng), rng, 5))
        return sets

    def test_equals_one_call_per_set_bitwise(self):
        sets = self._mixed_sets()
        got = davenport_solve(sets)
        want = self._one_by_one(sets)
        assert len(got) == len(sets)
        kinds = [type(g).__name__ for g in got]
        assert kinds.count("UnderdeterminedAttitude") == 2 and kinds.count("WahbaSolution") == 5
        for g, w in zip(got, want):
            assert type(g) is type(w)
            if isinstance(w, AttsimError):
                assert str(g) == str(w)
            else:
                assert np.array_equal(g.q, w.q)
                assert not np.any(np.signbit(g.q) != np.signbit(w.q))
                assert g.lambda_max == w.lambda_max

    def test_empty_sequence(self):
        assert davenport_solve([]) == []

    @staticmethod
    def _assert_same_outcomes(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            if isinstance(w, AttsimError):
                assert str(g) == str(w)
            else:
                assert g.q.tobytes() == w.q.tobytes()
                assert g.lambda_max == w.lambda_max

    def test_weighted_sets_of_2_to_200_stars(self):
        # padding every set to the largest changes no bit of any outcome,
        # whatever the order of the stack
        rng = RngStream(62)
        sizes = (2, 3, 7, 8, 9, 16, 31, 64, 127, 128, 129, 200)
        sets = [_random_pairs(rng, n) for n in sizes]
        weights = [np.array([rng.uniform() + 0.1 for _ in range(n)]) for n in sizes]
        for n, w in zip(sizes, weights):
            obs = _obs_from_attitude(random_unit_quat(rng), rng, n, weights=w)
            noisy = obs.b + 1e-3 * np.array([random_unit_vec(rng) for _ in range(n)])
            sets.append(ObservationSet(b=noisy, r=obs.r, weights=w))
        want = self._one_by_one(sets)
        assert all(isinstance(w, WahbaSolution) for w in want)
        self._assert_same_outcomes(davenport_solve(sets), want)
        self._assert_same_outcomes(davenport_solve(sets[::-1]), want[::-1])

    def test_z_cross_check_failure_mid_sequence(self):
        # directions of magnitude 1e6 make the two z formulas differ by far
        # more than 1e-12 of the total weight; only that set reports it
        rng = RngStream(63)
        big = _random_pairs(rng, 12)
        big = ObservationSet(b=1e6 * big.b, r=1e6 * big.r, weights=big.weights)
        sets = [_random_pairs(rng, n) for n in (5, 40, 3)]
        sets.insert(2, big)
        want = self._one_by_one(sets)
        assert isinstance(want[2], NumericalFailure) and "z-vector" in str(want[2])
        got = davenport_solve(sets)
        self._assert_same_outcomes(got, want)
        assert [type(g).__name__ for g in got].count("WahbaSolution") == 3

    def test_sweep_limit_belongs_to_its_set(self, monkeypatch):
        # one matrix of the stack fails the sweep; only its set reports it,
        # with the message a one-set call gives
        import attsim.wahba as wmod

        sets = self._mixed_sets()
        bad = davenport_matrix(build_profile(sets[2]), sets[2]).k
        real = wmod.jacobi_eigen_sym

        def limited(m):
            m = np.asarray(m)
            hit = np.array_equal(m, bad) if m.ndim == 2 else any(np.array_equal(x, bad) for x in m)
            if hit:
                raise NumericalFailure("Jacobi sweep limit reached (off-diagonal 1.000e+00)")
            return real(m)

        monkeypatch.setattr(wmod, "jacobi_eigen_sym", limited)
        got = davenport_solve(sets)
        want = self._one_by_one(sets)
        assert isinstance(got[2], NumericalFailure)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            if isinstance(w, AttsimError):
                assert str(g) == str(w)
            else:
                assert np.array_equal(g.q, w.q)
