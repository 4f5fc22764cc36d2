import json
import math

import numpy as np
import pytest

from attsim.errors import ConfigError, InvalidInput
from attsim.harness import (
    ORBIT_PERIOD_S,
    FilterMetrics,
    MetricsReport,
    RunResult,
    SimConfig,
    compute_metrics,
    emulate_gyro,
    run_simulation,
    trajectory_omega,
    write_outputs,
)
from attsim.numerics import RngStream


def short_cfg(**kw):
    base = dict(
        duration_s=30.0,
        gyro_rate_hz=50.0,
        tracker_rate_hz=1.0,
        n_stars=100,
        n_cameras=3,
        seed=2,
    )
    base.update(kw)
    return SimConfig(**base)


class TestTrajectory:
    def test_t0(self):
        w = trajectory_omega(0.0, (0.0, 0.0, 1.0))
        assert np.allclose(w, [0.0, 0.0, -math.pi / 2])

    def test_quarter_period_zero(self):
        w = trajectory_omega(88 * 60 / 4.0, (0.0, 0.0, 1.0))
        assert np.max(np.abs(w)) <= 1e-12

    def test_half_period_flips(self):
        w = trajectory_omega(88 * 60 / 2.0, (0.0, 0.0, 1.0))
        assert np.allclose(w, [0.0, 0.0, math.pi / 2])

    def test_axis_scaling(self):
        axis = np.array([1.0, 0.0, 0.0])
        assert np.allclose(trajectory_omega(0.0, axis), [-math.pi / 2, 0.0, 0.0])

    def test_period_constant(self):
        assert ORBIT_PERIOD_S == 5280.0

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInput):
            trajectory_omega(-1.0, (0.0, 0.0, 1.0))


class TestEmulateGyro:
    def test_zero_sigma_passthrough(self):
        rng = RngStream(1)
        w = np.array([0.1, -0.2, 0.3])
        out = emulate_gyro(w, 0.0, rng)
        assert np.array_equal(out, w)

    def test_noise_statistics(self):
        rng = RngStream(2)
        w = np.zeros(3)
        samples = np.array([emulate_gyro(w, 0.01, rng) for _ in range(100_000)])
        for axis in range(3):
            assert abs(samples[:, axis].std() - 0.01) <= 0.01 * 0.05

    def test_reproducible(self):
        a = np.array([emulate_gyro(np.zeros(3), 0.1, RngStream(5)) for _ in range(1)])
        b = np.array([emulate_gyro(np.zeros(3), 0.1, RngStream(5)) for _ in range(1)])
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidInput):
            emulate_gyro(np.zeros(3), -0.1, RngStream(1))


class TestSimConfig:
    def test_defaults_validate(self):
        SimConfig().validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"duration_s": 10.0, "bogus": 1})

    def test_bad_values_rejected(self):
        for bad in (
            {"duration_s": 0.0},
            {"gyro_rate_hz": 0.5, "tracker_rate_hz": 1.0},
            {"n_cameras": 7},
            {"sigma_gyro": -1.0},
            {"axis": [0.0, 0.0, 0.0]},
            {"aekf_r_scale": 0.0},
        ):
            with pytest.raises(ConfigError):
                SimConfig.from_dict(bad)

    def test_non_finite_and_mistyped_values_rejected(self):
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"duration_s": nan},
            {"duration_s": inf},
            {"tracker_rate_hz": nan},
            {"sigma_meas": -inf},
            {"focal_length": "1.0"},
            {"n_stars": 10.5},
            {"n_cameras": 3.0},
            {"record_stride": 0.5},
            {"seed": True},
            {"run_mekf": 1},
            {"aekf_q_flat": None},
            {"axis": [1.0, nan, 0.0]},
            {"axis": [1.0, 0.0]},
            {"axis": "xyz"},
            {"catalog_path": 3},
        ):
            with pytest.raises(ConfigError):
                SimConfig.from_dict(bad)
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(duration_s=nan))

    def test_integers_accepted_for_floats(self):
        cfg = SimConfig.from_dict({"duration_s": 30, "sigma_gyro": 0, "axis": [0, 1, 0]})
        assert cfg.axis == (0, 1, 0)

    def test_json_round_trip(self, tmp_path):
        cfg = short_cfg(seed=77)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        back = SimConfig.from_json(path)
        assert back == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            SimConfig.from_json(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            SimConfig.from_json(path)

    def test_effective_stride(self):
        assert SimConfig().effective_stride() == 100
        assert short_cfg(record_stride=7).effective_stride() == 7


class TestRunSimulation:
    def test_step_arithmetic_tiny_run(self):
        cfg = SimConfig(duration_s=0.5, gyro_rate_hz=10.0, tracker_rate_hz=1.0, seed=1,
                        record_stride=1)
        res = run_simulation(cfg)
        assert len(res.t) == 5
        assert len(res.epoch_t) + res.skipped_epochs in (0, 1)

    def test_rate_contract(self):
        cfg = short_cfg(duration_s=12.0, gyro_rate_hz=20.0, tracker_rate_hz=2.0, record_stride=1)
        res = run_simulation(cfg)
        n_steps = int(12.0 * 20.0)
        assert len(res.t) == n_steps
        applied_plus_skipped = len(res.epoch_t) + res.skipped_epochs
        assert abs(applied_plus_skipped - int(12.0 * 2.0)) <= 1

    def test_timestamps_strictly_increasing(self):
        res = run_simulation(short_cfg(duration_s=5.0))
        assert np.all(np.diff(res.t) > 0.0)
        for name in ("q_true", "q_aekf", "q_mekf"):
            assert getattr(res, name).shape == (len(res.t), 4)

    def test_deterministic_bitwise(self):
        cfg = short_cfg(duration_s=8.0)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert np.array_equal(a.q_true, b.q_true)
        assert np.array_equal(a.q_aekf, b.q_aekf)
        assert np.array_equal(a.q_mekf, b.q_mekf)
        assert np.array_equal(a.q_meas, b.q_meas)
        assert np.array_equal(a.pnorm_aekf, b.pnorm_aekf)

    def test_noiseless_tracks_truth(self):
        cfg = short_cfg(duration_s=60.0, sigma_gyro=0.0, sigma_star=0.0, sigma_meas=0.0)
        res = run_simulation(cfg)
        assert float(res.err_aekf.max()) <= 1e-6
        assert float(res.err_mekf.max()) <= 1e-6

    def test_measurement_stream_independent_of_filters(self):
        # both filters consume the identical measurement sequence
        cfg = short_cfg(duration_s=10.0)
        both = run_simulation(cfg)
        only_aekf = run_simulation(short_cfg(duration_s=10.0, run_mekf=False))
        assert np.array_equal(both.q_meas, only_aekf.q_meas)

    def test_disabled_filter_stays_at_init(self):
        res = run_simulation(short_cfg(duration_s=5.0, run_aekf=False))
        assert np.array_equal(res.q_aekf, np.tile([0.0, 0.0, 0.0, 1.0], (len(res.t), 1)))

    def test_error_monotonic_in_star_noise(self):
        # more star-vector noise never helps either filter (5 seeds);
        # levels spaced widely enough that the effect dominates the
        # sampling noise of a 60-epoch mean
        for seed in range(1, 6):
            means_a, means_m = [], []
            for sigma in (0.0, 5e-3, 2e-2):
                cfg = short_cfg(duration_s=60.0, seed=seed, sigma_star=sigma)
                m = compute_metrics(run_simulation(cfg))
                means_a.append(m.aekf.mean_error_angle_rad)
                means_m.append(m.mekf.mean_error_angle_rad)
            assert means_a[0] <= means_a[1] + 1e-9 and means_a[1] <= means_a[2] + 1e-9
            assert means_m[0] <= means_m[1] + 1e-9 and means_m[1] <= means_m[2] + 1e-9

    def test_pinned_catalog(self, tmp_path):
        from attsim.startracker import generate_catalog, save_catalog

        path = tmp_path / "cat.csv"
        save_catalog(generate_catalog(60, RngStream(9)), path)
        cfg = short_cfg(duration_s=5.0, catalog_path=str(path))
        res = run_simulation(cfg)
        assert res.aborted is None

    def test_blocks_end_at_records_and_epochs(self, monkeypatch):
        # 50 Hz gyro, an epoch every 50 steps, a record every 20: each predict
        # covers the steps up to the next event and no further
        import attsim.harness as hmod

        sizes = {"aekf": [], "mekf": []}
        real_a, real_m = hmod.aekf_predict, hmod.mekf_predict

        def aekf_spy(s, omegas, dt, noise):
            sizes["aekf"].append(len(omegas))
            return real_a(s, omegas, dt, noise)

        def mekf_spy(s, omegas, dt, noise):
            sizes["mekf"].append(len(omegas))
            return real_m(s, omegas, dt, noise)

        monkeypatch.setattr(hmod, "aekf_predict", aekf_spy)
        monkeypatch.setattr(hmod, "mekf_predict", mekf_spy)
        res = run_simulation(short_cfg(duration_s=3.0, record_stride=20))
        assert sizes["aekf"] == [20, 20, 10, 10, 20, 20, 20, 20, 10]
        assert sizes["mekf"] == sizes["aekf"]
        assert len(res.t) == 8
        assert np.allclose(res.t, [0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.0])

    def test_long_blocks_are_capped(self, monkeypatch):
        import attsim.harness as hmod

        sizes = []
        real = hmod.mekf_predict

        def spy(s, omegas, dt, noise):
            sizes.append(len(omegas))
            return real(s, omegas, dt, noise)

        monkeypatch.setattr(hmod, "mekf_predict", spy)
        run_simulation(short_cfg(duration_s=50.0, tracker_rate_hz=0.02, record_stride=10**9))
        assert sizes == [hmod._MAX_BLOCK_STEPS, hmod._MAX_BLOCK_STEPS, 500]

    def test_numerical_failure_aborts_with_partial_result(self, monkeypatch):
        import attsim.harness as hmod
        from attsim.errors import NumericalFailure

        calls = {"n": 0}
        real = hmod.aekf_update

        def explode(s, q_meas, r4):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NumericalFailure("synthetic failure")
            return real(s, q_meas, r4)

        monkeypatch.setattr(hmod, "aekf_update", explode)
        res = run_simulation(short_cfg(duration_s=10.0, record_stride=1))
        assert res.aborted == "synthetic failure"
        assert 0 < len(res.t) < 10.0 * 50.0
        # the pending covariance snapshots are solved on the abort path too
        for series in (res.pnorm_aekf, res.pnorm_mekf, res.cond_aekf, res.cond_mekf):
            assert len(series) == len(res.t)
            assert np.all(np.isfinite(series)) and np.all(series > 0.0)

    def test_record_chunk_size_does_not_change_outputs(self, monkeypatch):
        import attsim.harness as hmod

        cfg = short_cfg(duration_s=1.4, record_stride=1)  # 70 records
        whole = run_simulation(cfg)
        monkeypatch.setattr(hmod, "_RECORD_CHUNK", 7)  # ten full chunks, then an empty one
        chunked = run_simulation(cfg)
        assert len(chunked.t) == 70
        for name in ("pnorm_aekf", "pnorm_mekf", "cond_aekf", "cond_mekf"):
            assert np.array_equal(getattr(chunked, name), getattr(whole, name))


class TestComputeMetrics:
    def test_empty_rejected(self):
        cfg = short_cfg()
        empty = RunResult(
            config=cfg,
            t=np.zeros(0),
            q_true=np.zeros((0, 4)),
            q_aekf=np.zeros((0, 4)),
            q_mekf=np.zeros((0, 4)),
            err_aekf=np.zeros(0),
            err_mekf=np.zeros(0),
            pnorm_aekf=np.zeros(0),
            pnorm_mekf=np.zeros(0),
            cond_aekf=np.zeros(0),
            cond_mekf=np.zeros(0),
            step_time_aekf=np.zeros(0),
            step_time_mekf=np.zeros(0),
            epoch_t=np.zeros(0),
            q_meas=np.zeros((0, 4)),
        )
        with pytest.raises(InvalidInput):
            compute_metrics(empty)

    def test_perfect_estimates_zero_error(self):
        res = run_simulation(short_cfg(duration_s=10.0, sigma_gyro=0.0, sigma_star=0.0,
                                       sigma_meas=0.0))
        m = compute_metrics(res)
        assert m.aekf.mean_error_angle_rad <= 1e-6
        assert m.mekf.mean_quat_error_norm <= 1e-6

    def test_hand_computed_aggregates(self):
        # synthetic three-record series with known values
        cfg = short_cfg()
        q_id = np.array([0.0, 0.0, 0.0, 1.0])
        q_flip = -q_id
        s = math.sin(0.05)
        c = math.cos(0.05)
        q_rot = np.array([s, 0.0, 0.0, c])  # 0.1 rad about x
        res = RunResult(
            config=cfg,
            t=np.array([1.0, 2.0, 3.0]),
            q_true=np.tile(q_id, (3, 1)),
            q_aekf=np.vstack([q_id, q_flip, q_rot]),
            q_mekf=np.tile(q_id, (3, 1)),
            err_aekf=np.array([0.0, 0.0, 0.1]),
            err_mekf=np.zeros(3),
            pnorm_aekf=np.array([3.0, 2.0, 1.5]),
            pnorm_mekf=np.array([0.3, 0.2, 0.1]),
            cond_aekf=np.array([1.0, 2.0, 3.0]),
            cond_mekf=np.ones(3),
            step_time_aekf=np.array([1e-6, 2e-6, 3e-6]),
            step_time_mekf=np.array([1e-6, 1e-6, 1e-6]),
            epoch_t=np.zeros(0),
            q_meas=np.zeros((0, 4)),
        )
        m = compute_metrics(res)
        assert m.aekf.mean_error_angle_rad == pytest.approx(0.1 / 3.0)
        assert m.aekf.max_error_angle_rad == pytest.approx(0.1)
        # sign-aligned quaternion diff: 0 for q and -q, chord 2*sin(0.025) for the rotated one
        chord = 2.0 * math.sin(0.025)
        assert m.aekf.mean_quat_error_norm == pytest.approx(chord / 3.0, rel=1e-9)
        assert m.aekf.final_covariance_norm == 1.5
        assert m.aekf.mean_condition_number == pytest.approx(2.0)
        assert m.aekf.mean_step_time_s == pytest.approx(2e-6)
        assert m.mekf.mean_error_angle_rad == 0.0

    def test_single_record_mean_equals_max(self):
        res = run_simulation(short_cfg(duration_s=2.0, record_stride=10**9))
        assert len(res.t) == 1
        m = compute_metrics(res)
        assert m.aekf.mean_error_angle_rad == m.aekf.max_error_angle_rad


class TestOutputs:
    def test_files_written_and_deterministic(self, tmp_path):
        cfg = short_cfg(duration_s=6.0)
        res = run_simulation(cfg)
        write_outputs(res, tmp_path / "a", no_timing=True)
        write_outputs(run_simulation(cfg), tmp_path / "b", no_timing=True)
        for name in ("metrics.json", "timeseries.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_header_and_quaternion_order(self, tmp_path):
        res = run_simulation(short_cfg(duration_s=3.0))
        write_outputs(res, tmp_path)
        lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert lines[0] == (
            "t,qw_true,qx_true,qy_true,qz_true,qw_aekf,qx_aekf,qy_aekf,qz_aekf,"
            "qw_mekf,qx_mekf,qy_mekf,qz_mekf,err_aekf,err_mekf,"
            "pnorm_aekf,pnorm_mekf,cond_aekf,cond_mekf"
        )
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == res.t[0]
        # scalar-last storage printed scalar-first
        assert first[1] == res.q_true[0][3]
        assert first[2] == res.q_true[0][0]

    def test_metrics_json_keys(self, tmp_path):
        res = run_simulation(short_cfg(duration_s=3.0))
        write_outputs(res, tmp_path)
        data = json.loads((tmp_path / "metrics.json").read_text())
        assert set(data) == {"aekf", "mekf"}
        want_fields = {
            "mean_error_angle_rad",
            "max_error_angle_rad",
            "mean_quat_error_norm",
            "final_covariance_norm",
            "mean_condition_number",
            "mean_step_time_s",
        }
        assert set(data["aekf"]) == want_fields
        assert set(data["mekf"]) == want_fields

    def test_no_timing_zeroes_step_times(self, tmp_path):
        res = run_simulation(short_cfg(duration_s=3.0))
        metrics = write_outputs(res, tmp_path, no_timing=True)
        assert metrics.aekf.mean_step_time_s == 0.0
        assert metrics.mekf.mean_step_time_s == 0.0

    def test_metrics_report_round_trip(self):
        fm = FilterMetrics(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        rep = MetricsReport(aekf=fm, mekf=fm)
        assert rep.to_dict()["mekf"]["max_error_angle_rad"] == 2.0
