import math

import numpy as np
import pytest

from attsim.attitude import identity_quat, quat_mul, quat_to_matrix
from attsim.errors import InvalidInput
from attsim.numerics import RngStream
from attsim.startracker import (
    CameraModel,
    ObservationSet,
    StarCatalog,
    default_camera_rig,
    generate_catalog,
    is_visible,
    load_catalog,
    observe,
    row_norms,
    save_catalog,
    scaled_norms,
)
from attsim.wahba import davenport_solve

from conftest import pack_sets, quat_conjugate, random_unit_quat
from oracles import axis_angle_quat, generate_catalog_per_star, observe_one_epoch, observe_per_star

FOV20 = math.radians(20.0)


def _cam(fov=FOV20, boresight=(0.0, 0.0, 1.0)):
    return CameraModel(boresight=boresight, fov_half_angle=fov)


class _PatchedStream(RngStream):
    """A stream whose deviates at the given positions of the stream read as given."""

    def __init__(self, seed, patched):
        super().__init__(seed)
        self.patched = patched
        self.drawn = 0

    def gaussian_vec(self, sigma, n=3):
        v = super().gaussian_vec(sigma, n)
        for pos, value in self.patched.items():
            if self.drawn <= pos < self.drawn + n:
                v[pos - self.drawn] = value
        self.drawn += n
        return v


class TestCatalog:
    def test_reproducible_100(self):
        a = generate_catalog(100, RngStream(1))
        b = generate_catalog(100, RngStream(1))
        assert len(a) == 100
        assert np.array_equal(a.stars, b.stars)
        assert np.allclose(np.linalg.norm(a.stars, axis=1), 1.0, atol=1e-12)

    def test_too_few_rejected(self):
        with pytest.raises(InvalidInput):
            generate_catalog(1, RngStream(1))

    @pytest.mark.parametrize("n, after_a_draw", [(2, False), (3, True), (100, False), (1001, True)])
    def test_one_draw_is_the_per_star_loop(self, n, after_a_draw):
        a, b = RngStream(n), RngStream(n)
        if after_a_draw:
            assert a.gaussian(1.0) == b.gaussian(1.0)
        got = generate_catalog(n, a)
        want = generate_catalog_per_star(n, b)
        assert got.stars.tobytes() == want.stars.tobytes()
        assert a._state == b._state

    def test_short_triples_are_drawn_again(self):
        # a zero first triple and a 1e-13 one further on are skipped, and
        # the shortfall comes from the triples after the first draw
        zeroed = {0: 0.0, 1: 0.0, 2: 0.0, 15: 1e-13, 16: 0.0, 17: 0.0}
        a, b = _PatchedStream(8, zeroed), _PatchedStream(8, zeroed)
        got = generate_catalog(10, a)
        want = generate_catalog_per_star(10, b)
        assert got.stars.tobytes() == want.stars.tobytes()
        assert a._state == b._state
        assert a.drawn == b.drawn == 36

    def test_uniformity(self):
        # mean of n uniform sphere points is within ~3/sqrt(n) of zero
        cat = generate_catalog(10_000, RngStream(7))
        assert np.linalg.norm(cat.stars.mean(axis=0)) <= 0.05

    def test_csv_round_trip(self, tmp_path):
        cat = generate_catalog(25, RngStream(3))
        path = tmp_path / "catalog.csv"
        save_catalog(cat, path)
        back = load_catalog(path)
        assert np.array_equal(back.stars, cat.stars)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0\n")
        with pytest.raises(InvalidInput):
            load_catalog(path)

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidInput):
            StarCatalog(stars=np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_star_rejected(self, bad):
        # a NaN row has no norm to compare, so it must fail the unit test,
        # not slip past it
        stars = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [bad, bad, bad], [0.0, 1.0, 0.0]])
        with pytest.raises(InvalidInput, match="unit norm"):
            StarCatalog(stars=stars)


class TestVisibility:
    def test_boresight_visible(self):
        assert is_visible(np.array([[0.0, 0.0, 1.0]]), _cam()).tolist() == [True]

    def test_outside_fov(self):
        v = np.array([[math.sin(math.radians(25.0)), 0.0, math.cos(math.radians(25.0))]])
        assert is_visible(v, _cam()).tolist() == [False]

    def test_behind_camera(self):
        # also for the widest field of view a head accepts
        widest = _cam(fov=math.nextafter(0.5 * math.pi, 0.0))
        assert is_visible(np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]), widest).tolist() == [False, False]

    def test_boundary_counts_as_not_visible(self):
        v = np.array([[math.sin(FOV20), 0.0, math.cos(FOV20)]])
        assert is_visible(v, _cam()).tolist() == [False]

    def test_mask_over_a_stack(self):
        inside = [0.0, math.sin(math.radians(10.0)), math.cos(math.radians(10.0))]
        outside = [math.sin(math.radians(30.0)), 0.0, math.cos(math.radians(30.0))]
        stack = np.array([inside, outside, [0.0, 0.0, -1.0], inside])
        assert is_visible(stack, _cam()).tolist() == [True, False, False, True]
        assert is_visible(np.zeros((0, 3)), _cam()).shape == (0,)


class TestCameraModel:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            CameraModel(boresight=(0.0, 0.0, 1.0), fov_half_angle=2.0)
        with pytest.raises(InvalidInput):
            CameraModel(boresight=(0.0, 0.0, 1.0), fov_half_angle=0.0)
        not_unit = [(0.0, 0.0, 2.0), (0.0, 0.0, 0.0), (math.nan, 0.0, 1.0)]
        for bad in not_unit + [(0.0, 0.0, 0.0, 1.0), [[0.0, 0.0, 1.0]]]:
            with pytest.raises(InvalidInput):
                CameraModel(boresight=bad, fov_half_angle=FOV20)

    def test_default_rig_boresights(self):
        cams = default_camera_rig(6, FOV20)
        want = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, -1), (-1, 0, 0), (0, -1, 0)]
        assert [tuple(cam.boresight.tolist()) for cam in cams] == want
        assert all(cam.fov_half_angle == FOV20 for cam in cams)

    def test_rig_count_validation(self):
        with pytest.raises(InvalidInput):
            default_camera_rig(0, FOV20)
        with pytest.raises(InvalidInput):
            default_camera_rig(7, FOV20)


class TestObserve:
    def test_noiseless_oracle(self):
        rng = RngStream(11)
        cat = generate_catalog(100, rng)
        cams = default_camera_rig(3, FOV20)
        q_true = random_unit_quat(rng)
        obs = observe(q_true, cat, cams, 0.0, rng)
        a = quat_to_matrix(q_true)
        assert len(obs) > 0
        assert np.max(np.abs(obs.r @ a.T - obs.b)) <= 1e-10
        assert obs.weights.tolist() == [1.0] * len(obs)

    def test_unit_norms(self):
        rng = RngStream(12)
        cat = generate_catalog(200, rng)
        cams = default_camera_rig(2, FOV20)
        obs = observe(random_unit_quat(rng), cat, cams, 5e-3, rng)
        assert len(obs) > 0
        assert np.max(np.abs(np.linalg.norm(obs.b, axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(np.linalg.norm(obs.r, axis=1) - 1.0)) <= 1e-9

    def test_visible_count_matches_solid_angle(self):
        # expected per camera: n * (1 - cos(fov)) / 2 = about 3 for n=100
        counts = []
        for seed in range(30):
            rng = RngStream(seed)
            cat = generate_catalog(100, rng)
            counts.append(len(observe(identity_quat(), cat, [_cam()], 0.0, rng)))
        assert all(0 <= c <= 12 for c in counts)
        assert 1.0 <= float(np.mean(counts)) <= 6.0

    def test_more_cameras_see_more(self):
        rng = RngStream(13)
        cat = generate_catalog(100, rng)
        q = random_unit_quat(rng)
        one = observe(q, cat, default_camera_rig(1, FOV20), 0.0, rng)
        six = observe(q, cat, default_camera_rig(6, FOV20), 0.0, rng)
        assert len(six) >= len(one)

    def test_empty_camera_list_rejected(self):
        rng = RngStream(14)
        cat = generate_catalog(10, rng)
        with pytest.raises(InvalidInput):
            observe(identity_quat(), cat, [], 0.0, rng)

    def test_negative_sigma_rejected(self):
        rng = RngStream(14)
        cat = generate_catalog(10, rng)
        with pytest.raises(InvalidInput):
            observe(identity_quat(), cat, [_cam()], -1.0, rng)

    def test_rotation_consistency(self):
        # rotating the catalog and the attitude together preserves the
        # visible set size
        rng = RngStream(15)
        cat = generate_catalog(150, rng)
        cams = default_camera_rig(3, FOV20)
        q = random_unit_quat(rng)
        n_before = len(observe(q, cat, cams, 0.0, rng))
        delta = random_unit_quat(rng)
        a_delta = quat_to_matrix(delta)
        cat2 = StarCatalog(stars=cat.stars @ a_delta.T)
        q2 = quat_mul(quat_conjugate(delta), q)
        n_after = len(observe(q2, cat2, cams, 0.0, rng))
        assert n_before == n_after

    def test_noise_scaling(self):
        # per-axis sigma maps to a Rayleigh-distributed angle; its RMS over
        # the two tangential axes is sigma * sqrt(2)
        rng = RngStream(16)
        cat = generate_catalog(2000, rng)
        cam = _cam(fov=math.radians(60.0))
        sigma = 5e-3
        angles = []
        q = identity_quat()
        a = quat_to_matrix(q)
        while len(angles) < 10_000:
            obs = observe(q, cat, [cam], sigma, rng)
            for clean, b in zip(obs.r @ a.T, obs.b):
                dot = min(1.0, abs(float(clean @ b)))
                angles.append(math.acos(dot))
        rms = math.sqrt(float(np.mean(np.square(angles))))
        assert abs(rms / math.sqrt(2.0) - sigma) <= 0.1 * sigma


class TestMountGeometry:
    """Where a head points is its boresight in the body frame, and nothing else."""

    def test_offset_camera_sees_offset_stars(self):
        # a camera looking along +x must see a star at body +x when the
        # attitude is identity
        rng = RngStream(17)
        star = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        cat = StarCatalog(stars=star)
        cams = default_camera_rig(2, FOV20)  # boresights +z, +x
        obs = observe(identity_quat(), cat, cams, 0.0, rng)
        seen = sorted(tuple(np.round(r, 6)) for r in obs.r)
        assert len(obs) == 2
        assert (0.0, 0.0, 1.0) in seen and (1.0, 0.0, 0.0) in seen

    def test_attitude_moves_stars_between_cameras(self):
        rng = RngStream(18)
        cat = StarCatalog(stars=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        cams = default_camera_rig(1, FOV20)  # boresight +z only
        # rotate the body so inertial +x lands on body +z
        q = axis_angle_quat([0.0, 1.0, 0.0], math.pi / 2)
        a = quat_to_matrix(q)
        assert np.allclose(a @ np.array([1.0, 0, 0]), [0, 0, 1.0], atol=1e-12)
        obs = observe(q, cat, cams, 0.0, rng)
        assert len(obs) == 1
        assert np.allclose(obs.r, [[1.0, 0.0, 0.0]])

    def test_oblique_boresight(self):
        # a head looking along (1, 1, 1) sees the stars within 20 degrees
        # of that diagonal, and none of the axis stars 54.7 degrees off it
        s = math.sqrt(1.0 / 3.0)
        diagonal = (s, s, s)
        near = axis_angle_quat([1.0, -1.0, 0.0], math.radians(15.0))
        tilted = quat_to_matrix(near).T @ np.array(diagonal)
        cat = StarCatalog(stars=np.array([diagonal, tilted, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        obs = observe(identity_quat(), cat, [_cam(boresight=diagonal)], 0.0, RngStream(19))
        assert np.array_equal(obs.r, cat.stars[:2])


class TestObservationSet:
    def test_defaults(self):
        obs = ObservationSet(b=np.array([[0.0, 0, 1], [1.0, 0, 0]]), r=np.array([[0.0, 0, 1], [1.0, 0, 0]]))
        assert len(obs) == 2
        assert obs.weights.tolist() == [1.0, 1.0]

    def test_empty(self):
        obs = ObservationSet(b=[], r=[])
        assert len(obs) == 0
        assert obs.b.shape == obs.r.shape == (0, 3)
        assert obs.weights.shape == (0,)

    def test_counts(self):
        z = np.zeros((3, 3))
        assert ObservationSet(b=z, r=z).counts is None
        assert ObservationSet(b=z, r=z, counts=np.array([2, 0, 1])).counts == (2, 0, 1)
        assert ObservationSet(b=[], r=[], counts=[]).counts == ()

    @pytest.mark.parametrize(
        "counts",
        [[2, -1, 2], [2, 2], [1, 1], [], [1.5, 1.5]],
        ids=["negative", "over-sum", "under-sum", "none-for-rows", "not-integers"],
    )
    def test_rejects_bad_counts(self, counts):
        z = np.zeros((3, 3))
        with pytest.raises(InvalidInput, match="counts"):
            ObservationSet(b=z, r=z, counts=counts)

    @pytest.mark.parametrize(
        "b, r, weights",
        [
            (np.zeros((2, 3)), np.zeros((3, 3)), None),
            (np.zeros((2, 4)), np.zeros((2, 4)), None),
            (np.zeros(3), np.zeros(3), None),
            (np.zeros((2, 3)), np.zeros((2, 3)), np.ones(3)),
        ],
    )
    def test_rejects_mismatched_shapes(self, b, r, weights):
        with pytest.raises(InvalidInput):
            ObservationSet(b=b, r=r, weights=weights)


class TestObserveAgainstPerStarLoop:
    """The array path against the per-star loop it replaced (``tests/oracles.py``).

    The same pairs in the same order, ``b`` within 4.5e-16 per component
    (the loop normalizes with BLAS dot products, the array path with
    elementwise sums), and the noise stream left in the same state.
    """

    @pytest.mark.parametrize(
        "n_cams, n_stars, fov_deg, sigma",
        [
            (6, 1000, 20.0, 1e-3),  # the star-field benchmark setup
            (3, 100, 20.0, 1e-3),  # the default setup
            (4, 300, 35.0, 5e-3),
            (2, 300, 20.0, 0.0),
        ],
    )
    def test_matches_per_star_loop(self, n_cams, n_stars, fov_deg, sigma):
        setup = RngStream(n_stars + n_cams)
        cat = generate_catalog(n_stars, setup)
        cams = default_camera_rig(n_cams, math.radians(fov_deg))
        rng, rng_ref = RngStream(77), RngStream(77)
        for _ in range(15):
            q = random_unit_quat(setup)
            obs = observe(q, cat, cams, sigma, rng)
            ref = observe_per_star(q, cat, cams, sigma, rng_ref)
            assert len(obs) == len(ref) > 0
            assert np.array_equal(obs.r, np.array([r for _, r in ref]))
            assert np.max(np.abs(obs.b - np.array([b for b, _ in ref]))) <= 4.5e-16
            assert rng._state == rng_ref._state

    def test_length_is_the_visible_star_count(self):
        # counted by the angle between each boresight and each star
        setup = RngStream(19)
        cat = generate_catalog(1000, setup)
        cams = default_camera_rig(6, FOV20)
        for _ in range(5):
            q = random_unit_quat(setup)
            body = cat.stars @ quat_to_matrix(q).T
            want = sum(int((body @ cam.boresight > math.cos(FOV20)).sum()) for cam in cams)
            assert len(observe(q, cat, cams, 1e-3, setup)) == want


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rig(n_cams, n_stars, fov_deg, seed=5):
    return generate_catalog(n_stars, RngStream(seed)), default_camera_rig(n_cams, math.radians(fov_deg))


class TestObserveStack:
    """``observe`` on a stack of epochs against one epoch at a time (``tests/oracles.py``).

    The packed set against the one-epoch sets packed in order: every
    epoch's row count, and every row bit for bit, and the noise stream left
    at the same counter.
    """

    @staticmethod
    def _assert_matches_epoch_by_epoch(qs, cat, cams, sigma, rng, rng_ref):
        obs = observe(qs, cat, cams, sigma, rng)
        ref = pack_sets([observe_one_epoch(q, cat, cams, sigma, rng_ref) for q in qs])
        assert isinstance(obs, ObservationSet) and len(obs.counts) == len(qs)
        assert obs.counts == ref.counts
        assert _same_bits(obs.b, ref.b) and _same_bits(obs.r, ref.r)
        assert _same_bits(obs.weights, ref.weights)
        assert rng._state == rng_ref._state
        return obs

    @pytest.mark.parametrize(
        "n_cams, n_stars, fov_deg, sigma",
        [
            (3, 100, 20.0, 1e-3),  # the orbit benchmark rig
            (6, 1000, 20.0, 1e-3),  # the star-field benchmark rig
            (3, 100, 20.0, 0.0),  # noiseless
            (4, 300, 35.0, 5e-3),
        ],
    )
    def test_rigs(self, n_cams, n_stars, fov_deg, sigma):
        cat, cams = _rig(n_cams, n_stars, fov_deg)
        setup = RngStream(n_stars + n_cams)
        rng, rng_ref = RngStream(77), RngStream(77)
        for n_epochs in (1, 2, 7, 32):
            qs = np.array([random_unit_quat(setup) for _ in range(n_epochs)])
            self._assert_matches_epoch_by_epoch(qs, cat, cams, sigma, rng, rng_ref)

    def test_epochs_with_zero_and_one_visible_star(self):
        cat, cams = _rig(1, 40, 12.0)
        setup = RngStream(3)
        qs = np.array([random_unit_quat(setup) for _ in range(60)])
        counts = self._assert_matches_epoch_by_epoch(qs, cat, cams, 1e-3, RngStream(8), RngStream(8)).counts
        assert 0 in counts and 1 in counts and max(counts) >= 2

    def test_spare_carried_across_two_chunks(self):
        cat, cams = _rig(3, 100, 20.0)
        setup = RngStream(21)
        rng, rng_ref = RngStream(4), RngStream(4)
        # an odd number of stars in the first chunk, so that its draw is
        # not a whole number of pairs of deviates; the second chunk goes on
        # from the counter that as many scalar draws leave
        while True:
            first = np.array([random_unit_quat(setup) for _ in range(5)])
            stars = sum(len(observe_one_epoch(q, cat, cams, 0.0, None)) for q in first)
            if stars % 2:
                break
        self._assert_matches_epoch_by_epoch(first, cat, cams, 1e-3, rng, rng_ref)
        scalar = RngStream(4)
        for _ in range(3 * stars):
            scalar.gaussian(1e-3)
        assert rng._state == scalar._state
        second = np.array([random_unit_quat(setup) for _ in range(6)])
        self._assert_matches_epoch_by_epoch(second, cat, cams, 1e-3, rng, rng_ref)

    def test_one_attitude_returns_its_set(self):
        cat, cams = _rig(3, 100, 20.0)
        q = random_unit_quat(RngStream(1))
        one = observe(q, cat, cams, 1e-3, RngStream(6))
        stack = observe(q[None], cat, cams, 1e-3, RngStream(6))
        assert one.counts is None and stack.counts == (len(one),)
        assert _same_bits(one.b, stack.b) and _same_bits(one.r, stack.r)

    def test_non_unit_attitude_rejected(self):
        cat, cams = _rig(1, 10, 20.0)
        qs = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 2.0]])
        with pytest.raises(InvalidInput):
            observe(qs, cat, cams, 0.0, RngStream(1))

    def test_empty_stack_returns_no_sets(self):
        # a set of no epochs, which davenport_solve takes, and nothing is drawn
        cat, cams = _rig(3, 100, 20.0)
        rng = RngStream(5)
        rng.gaussian(1.0)  # the counter mid-stream
        state = rng._state
        obs = observe(np.zeros((0, 4)), cat, cams, 1e-3, rng)
        assert obs.counts == () and len(obs) == 0
        assert rng._state == state
        assert davenport_solve(observe(np.zeros((0, 4)), cat, cams, 0.0, rng)) == []


class TestScaledNorms:
    def test_directions_at_every_scale(self):
        # in the range where the squares are normal numbers the direction is
        # row / row_norms(row) bit for bit; at 2^-1000 and 2^1000 it is the
        # same direction, and a zero row has norm 0
        rows = np.random.default_rng(8).standard_normal((200, 3))
        want = rows / row_norms(rows)[:, None]
        for scale in (1.0, 2.0**-400, 2.0**400, 2.0**-1000, 2.0**1000):
            scaled, norms = scaled_norms(rows * scale)
            assert (scaled / norms[:, None]).tobytes() == want.tobytes()
        scaled, norms = scaled_norms(np.array([[0.0, 0.0, 0.0], [0.0, -1e-320, 0.0], [1e308, -1e308, 1e308]]))
        assert norms[0] == 0.0 and (scaled[1:] / norms[1:, None]).tolist() == [
            [0.0, -1.0, 0.0], [1 / math.sqrt(3.0), -1 / math.sqrt(3.0), 1 / math.sqrt(3.0)]
        ]
