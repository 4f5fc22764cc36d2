import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from attsim.attitude import error_angle, quat_mul
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

from conftest import write_config


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
        # one (n, 3) block draws what n one-step calls would (TestScenarioPass)
        samples = emulate_gyro(np.zeros((100_000, 3)), 0.01, rng)
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
            # the run's process variance (sigma_gyro dt)^2 overflows
            {"gyro_rate_hz": 1e-200, "tracker_rate_hz": 1e-200, "duration_s": 3e200},
            # the largest gyro step angle |omega| dt overflows
            {
                "gyro_rate_hz": 2.8191573663942887e-203,
                "duration_s": 3.0365052447451173e203,
                "tracker_rate_hz": 4.574989672476562e-204,
                "sigma_gyro": 6.367075697493627e132,
                "sigma_star": 6.006169396344262e-203,
                "sigma_meas": 0.0,
                "aekf_r_scale": 1.6359988309001057e-100,
            },
            # no RngStream takes this seed, and no catalog this many stars
            {"seed": 2**64},
            {"n_stars": 10_000_001},
        ):
            with pytest.raises(ConfigError):
                SimConfig.from_dict(bad)
        # the bounds themselves pass intake
        SimConfig.from_dict({"seed": 2**64 - 1})
        SimConfig.from_dict({"n_stars": 10_000_000})

    def test_non_finite_and_mistyped_values_rejected(self):
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"duration_s": nan},
            {"duration_s": inf},
            {"tracker_rate_hz": nan},
            {"sigma_meas": -inf},
            {"sigma_star": "1.0"},
            {"n_stars": 10.5},
            {"n_cameras": 3.0},
            {"record_stride": 0.5},
            {"seed": True},
            {"aekf_q_flat": 1},
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

    def test_step_count_limit(self):
        import attsim.harness as hmod

        limit = hmod._MAX_GYRO_STEPS
        SimConfig(duration_s=limit / 100.0, gyro_rate_hz=100.0).validate()
        with pytest.raises(ConfigError, match="gyro steps"):
            SimConfig(duration_s=limit / 100.0 + 0.01, gyro_rate_hz=100.0).validate()
        with pytest.raises(ConfigError, match="gyro steps"):
            SimConfig.from_dict({"duration_s": 1e300, "gyro_rate_hz": 1e-3, "tracker_rate_hz": 1e-3})

    def test_axis_of_any_length_has_its_direction(self):
        # the axis is scaled by a power of two before its norm is taken, so
        # neither a long nor a short axis overflows or underflows
        for scale in (1e200, 1e150, 1.0, 1e-7, 1e-200, 5e-324):
            cfg = SimConfig.from_dict({"axis": [scale, 0.0, 0.0]})
            assert cfg.axis_unit().tobytes() == np.array([1.0, 0.0, 0.0]).tobytes()
        want = SimConfig(axis=(1.0, -2.0, 0.5)).axis_unit()
        for scale in (2.0**600, 2.0**-600):
            assert SimConfig(axis=(scale, -2.0 * scale, 0.5 * scale)).axis_unit().tobytes() == want.tobytes()
        assert np.array_equal(want, np.array([1.0, -2.0, 0.5]) / math.sqrt(5.25))
        with pytest.raises(ConfigError, match="nonzero"):
            SimConfig.from_dict({"axis": [0.0, -0.0, 0.0]})

    def test_every_config_that_passes_intake_runs(self):
        # configs of at most 300 gyro steps over extreme rates and sigmas,
        # seeds on both sides of 0 and of 2**64 and a star count past the
        # catalog's bound: intake rejects each one whose run would overflow
        # or raise, so every other one runs to a result (an abort is one)
        # with no warning
        rnd = random.Random(2028)

        def sigma():
            return 0.0 if rnd.random() < 0.25 else 10.0 ** rnd.uniform(-300.0, 150.0)

        def seed():
            if rnd.random() < 0.8:
                return rnd.randrange(1000)
            return rnd.choice((0, 2**64)) + rnd.randint(-3, 2)

        ran = 0
        for _ in range(1000):
            gyro = 10.0 ** rnd.uniform(-250.0, 4.0)
            config = {
                "gyro_rate_hz": gyro,
                "tracker_rate_hz": gyro / 10.0 ** rnd.uniform(0.0, 3.0),
                "duration_s": rnd.uniform(1.0, 300.0) / gyro,
                "sigma_gyro": sigma(),
                "sigma_star": sigma(),
                "sigma_meas": sigma(),
                "aekf_r_scale": 10.0 ** rnd.uniform(-100.0, 100.0),
                "n_cameras": rnd.randint(1, 6),
                "n_stars": rnd.choice((2, 5, 100, 10_000_001)),
                "fov_half_angle_rad": rnd.uniform(0.05, 1.5),
                "record_stride": rnd.choice((0, 1, 3)),
                "aekf_q_flat": rnd.random() < 0.5,
                "seed": seed(),
            }
            try:
                cfg = SimConfig.from_dict(config)
            except ConfigError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    run_simulation(cfg)
                except Exception as exc:
                    raise AssertionError(f"{config} failed: {exc!r}") from exc
            ran += 1
        assert ran > 500  # intake let most of them through

    def test_integers_accepted_for_floats(self):
        cfg = SimConfig.from_dict({"duration_s": 30, "sigma_gyro": 0, "axis": [0, 1, 0]})
        assert cfg.axis == (0, 1, 0)

    def test_json_round_trip(self, tmp_path):
        cfg = short_cfg(seed=77)
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
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

    def test_readme_default_config_matches(self):
        # README's default-config block names every field, with its default
        import re
        from dataclasses import fields
        from pathlib import Path

        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [b for b in re.findall(r"```json\n(\{.*?\})\n```", text, re.S) if '"duration_s"' in b]
        assert len(blocks) == 1
        documented = json.loads(blocks[0])
        assert set(documented) == {f.name for f in fields(SimConfig)}
        defaults = SimConfig()
        for name, value in documented.items():
            want = getattr(defaults, name)
            if name == "fov_half_angle_rad":
                assert value == pytest.approx(want, abs=1e-3)
            elif name == "axis":
                assert value == list(want)
            else:
                assert value == want and type(value) is type(want), name

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
        # the measurement sequence does not depend on how the filters are tuned
        base = run_simulation(short_cfg(duration_s=10.0))
        assert len(base.q_meas) == 10
        for tuning in ({"aekf_r_scale": 0.25}, {"aekf_q_flat": False}):
            tuned = run_simulation(short_cfg(duration_s=10.0, **tuning))
            assert not np.array_equal(tuned.q_aekf, base.q_aekf)
            assert tuned.q_meas.tobytes() == base.q_meas.tobytes()
            assert tuned.epoch_t.tobytes() == base.epoch_t.tobytes()

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
        sizes = {name: _spy_block_sizes(monkeypatch, name) for name in ("aekf", "mekf")}
        res = run_simulation(short_cfg(duration_s=3.0, record_stride=20))
        assert sizes["aekf"]() == [20, 20, 10, 10, 20, 20, 20, 20, 10]
        assert sizes["mekf"]() == sizes["aekf"]()
        assert len(res.t) == 8
        assert np.allclose(res.t, [0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.0])

    def test_long_blocks_are_capped(self, monkeypatch):
        import attsim.harness as hmod

        sizes = _spy_block_sizes(monkeypatch, "mekf")
        run_simulation(short_cfg(duration_s=50.0, tracker_rate_hz=0.02, record_stride=10**9))
        assert sizes() == [hmod._MAX_BLOCK_STEPS, hmod._MAX_BLOCK_STEPS, 500]

    @pytest.mark.parametrize("slow", ["aekf_transitions", "mekf_transitions", "block_increments", "_segments"])
    def test_transition_builds_are_charged_to_their_filters(self, slow, monkeypatch):
        # a build that takes 50 ms more shows in the step time of each filter
        # that needs it, and only there; the increments and the segment plan
        # serve both; 250 steps in one chunk
        import time

        import attsim.harness as hmod

        real = getattr(hmod, slow)

        def slowed(*args):
            time.sleep(0.05)
            return real(*args)

        monkeypatch.setattr(hmod, slow, slowed)
        res = run_simulation(short_cfg(duration_s=5.0))
        extra = 0.05 / 250
        for name in ("aekf", "mekf"):
            mean = getattr(res, f"step_time_{name}")
            if slow in ("block_increments", "_segments") or slow.startswith(name):
                assert mean >= extra
            else:
                assert mean < 0.2 * extra

    def test_numerical_failure_aborts_with_partial_result(self, monkeypatch):
        cfg = short_cfg(duration_s=10.0, record_stride=1)
        _fail_update_at(monkeypatch, "aekf", run_simulation(cfg).q_meas[2], "synthetic failure")
        res = run_simulation(cfg)
        assert res.aborted == "synthetic failure"
        assert 0 < len(res.t) < 10.0 * 50.0
        # the last chunk's covariance snapshots are solved on the abort path too
        for series in (res.pnorm_aekf, res.pnorm_mekf, res.cond_aekf, res.cond_mekf):
            assert len(series) == len(res.t)
            assert np.all(np.isfinite(series)) and np.all(series > 0.0)
        for series in (res.q_true, res.q_aekf, res.q_mekf, res.err_aekf, res.err_mekf):
            assert len(series) == len(res.t)

    def test_record_chunk_size_does_not_change_outputs(self, monkeypatch):
        # chunks of one block, so one record and one eigensolve per chunk,
        # against the default chunk, which holds all 2,100 records
        import attsim.harness as hmod

        cfg = short_cfg(duration_s=2100 / 50.0, record_stride=1)
        whole = run_simulation(cfg)
        monkeypatch.setattr(hmod, "_CHUNK_BLOCKS", 1)
        each = run_simulation(cfg)
        assert len(each.t) == 2100
        for name in _RECORD_FIELDS:
            assert getattr(whole, name).tobytes() == getattr(each, name).tobytes(), name

    def test_error_columns_are_the_angles_of_each_record(self, monkeypatch):
        import attsim.harness as hmod

        monkeypatch.setattr(hmod, "_CHUNK_BLOCKS", 16)
        res = run_simulation(short_cfg(duration_s=1.0, record_stride=1))
        assert len(res.t) == 50
        for q_est, err in ((res.q_aekf, res.err_aekf), (res.q_mekf, res.err_mekf)):
            assert err.tobytes() == np.array([error_angle(a, b) for a, b in zip(res.q_true, q_est)]).tobytes()

    @pytest.mark.parametrize("record_stride, records", [(10**9, 1), (3500, 2)])
    def test_chunks_without_records(self, record_stride, records, monkeypatch, tmp_path):
        # 100 epochs of 1000 stars make four chunks of up to 32 epochs, of
        # which two or three hold no record; the same bytes as one chunk,
        # from run_simulation and from the CLI's --no-timing run
        import attsim.harness as hmod
        import attsim.startracker as smod
        from attsim.cli import main

        cfg = short_cfg(duration_s=100.0, n_stars=1000, record_stride=record_stride)
        config = tmp_path / "config.json"
        write_config(cfg, config)
        real, calls = smod.observe, []
        results, outputs = [], []
        for star_rows in (hmod._STAR_ROWS, 1 << 30):
            with monkeypatch.context() as m:
                m.setattr(hmod, "_STAR_ROWS", star_rows)
                m.setattr(smod, "observe", lambda q, *rest: calls.append(len(q)) or real(q, *rest))
                results.append(run_simulation(cfg))
                out = tmp_path / str(star_rows)
                assert main(["run", "--config", str(config), "--out", str(out), "--no-timing"]) == 0
                outputs.append(out)
        assert calls == [32, 32, 32, 4] * 2 + [100, 100]
        chunked, whole = results
        assert len(chunked.t) == records and chunked.t[-1] == 100.0
        for name in (*_RECORD_FIELDS, "epoch_t", "q_meas"):
            assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes(), name
        for name in ("metrics.json", "timeseries.csv"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


def _fail_update_at(monkeypatch, name, q_bad, reason):
    """Make filter ``name``'s update raise NumericalFailure(reason) on the measurement ``q_bad``."""
    import attsim.harness as hmod
    from attsim.errors import NumericalFailure

    real = getattr(hmod, f"{name}_update")

    def update(s, q_meas, r):
        if np.array_equal(q_meas, q_bad):
            raise NumericalFailure(reason)
        return real(s, q_meas, r)

    monkeypatch.setattr(hmod, f"{name}_update", update)


def _spy_block_sizes(monkeypatch, name):
    """Spy on the segment plans and on filter ``name``'s transition builds and predicts in the harness.

    Returns a function that gives the gyro steps of every block the plans
    covered, in order, after checking that each block's rotation is its
    increment at a segment's start and its increment times the rotation
    before otherwise, and its step count its steps plus the count before,
    both from scratch after an update, so a segment open at a chunk end
    continues in the next chunk's plan and no block is planned twice; that
    each segment of a plan lists the rotation of its last block; that
    each build takes its plan's rotations; and that each predict takes
    rotations of the last plan with their rows of the build. For runs that
    do not abort.
    """
    import attsim.harness as hmod

    plan_fn, build, predict = hmod._segments, *(getattr(hmod, f"{name}_{f}") for f in ("transitions", "predict"))
    plans, builds, predicts = [], [], []

    def plan_spy(increments, steps, measured, open_segment):
        out = plan_fn(increments, steps, measured, open_segment)
        plans.append((np.array(increments), list(steps), list(measured), open_segment, out))
        return out

    def build_spy(rotations):
        phi = build(rotations)
        builds.append((len(plans), np.array(rotations), phi.copy()))
        return phi

    def predict_spy(s, r, phi, n, dt, noise):
        predicts.append((len(plans), np.array(r), phi.copy()))
        return predict(s, r, phi, n, dt, noise)

    monkeypatch.setattr(hmod, "_segments", plan_spy)
    monkeypatch.setattr(hmod, f"{name}_transitions", build_spy)
    monkeypatch.setattr(hmod, f"{name}_predict", predict_spy)

    def sizes():
        out = []
        carry = hmod._NO_SEGMENT
        for increments, steps, measured, open_segment, (plan, segment_out) in plans:
            assert open_segment == carry
            r, count = carry
            for i, (m, k, q_meas) in enumerate(zip(increments, steps, measured)):
                r = m if count == 0 else quat_mul(m, r)
                count += k
                assert _same_bits(plan.rotation_rows[i], r) and plan.counts[i] == count
                if q_meas is not None:
                    r, count = hmod._NO_SEGMENT
            for lo, hi, r_end in plan.segments:
                assert _same_bits(np.array(r_end), plan.rotation_rows[hi - 1])
            carry = segment_out
            out.extend(steps)
        assert len(builds) == len(plans)
        for (at, rotations, _), (*_, (plan, _)) in zip(builds, plans):
            assert _same_bits(rotations, plan.rotation_rows)
        for at, r, phi in predicts:
            (_, rotations, built), = [b for b in builds if b[0] == at]
            rows = [int(np.flatnonzero((rotations == row).all(axis=1))[0]) for row in r]
            assert _same_bits(r, rotations[rows]) and _same_bits(phi, built[rows])
        return out

    return sizes


def _assert_same_scenario_close_filters(got, want):
    """The same scenario, records and abort bit for bit, and each filter within rounding.

    The bounds are those of one predict per update segment against one per
    block: each recorded quaternion within 1e-13 rad, and each covariance
    norm and condition number within 1e-12 relative.
    """
    for name in ("t", "q_true", "epoch_t", "q_meas"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.skipped_epochs, got.aborted) == (want.skipped_epochs, want.aborted)
    for f in ("aekf", "mekf"):
        q_got, q_want = getattr(got, f"q_{f}"), getattr(want, f"q_{f}")
        assert max(error_angle(a, b) for a, b in zip(q_got, q_want)) <= 1e-13, f
        assert np.max(np.abs(getattr(got, f"err_{f}") - getattr(want, f"err_{f}"))) <= 1e-13, f
        for series in ("pnorm", "cond"):
            a, b = getattr(got, f"{series}_{f}"), getattr(want, f"{series}_{f}")
            assert np.max(np.abs(a - b) / b) <= 1e-12, f"{series}_{f}"


def _reference_omega(t, axis):
    """The orbit rate at one time, written out as one scalar expression."""
    return -math.cos(t / ORBIT_PERIOD_S * 2.0 * math.pi) * (0.5 * math.pi) * np.asarray(axis, dtype=float)


def _same_bits(a, b):
    return np.array_equal(a, b) and not np.any(np.signbit(a) != np.signbit(b))


class TestScenarioPass:
    """The chunked scenario pass draws what a step-by-step loop draws."""

    def test_trajectory_on_an_array_equals_scalar_calls(self):
        axis = SimConfig(axis=(1.0, -2.0, 0.5)).axis_unit()
        times = np.concatenate([np.arange(4000) * 0.013 + 0.0065, [0.0, ORBIT_PERIOD_S / 4.0, 1e5]])
        got = trajectory_omega(times, axis)
        assert got.shape == (len(times), 3)
        assert _same_bits(got, np.array([trajectory_omega(float(t), axis) for t in times]))
        assert _same_bits(got, np.array([_reference_omega(float(t), axis) for t in times]))
        assert trajectory_omega(times[:0], axis).shape == (0, 3)
        with pytest.raises(InvalidInput):
            trajectory_omega(np.array([1.0, -1e-9]), axis)

    @pytest.mark.parametrize("n", [3, 8, 100, 4_096, 528_000])
    def test_numpy_cosine_is_math_cos_over_an_orbit(self, n):
        # trajectory_omega takes np.cos of a whole window's phases; it must
        # give math.cos's bits on every step midpoint of a full default
        # orbit (528,000 steps of 0.01 s), cut into arrays of n phases
        phase = (np.arange(528_000) * 0.01 + 0.005) / ORBIT_PERIOD_S * 2.0 * math.pi
        got = np.concatenate([np.cos(phase[i:i + n]) for i in range(0, phase.size, n)])
        want = np.fromiter(map(math.cos, phase.tolist()), float, phase.size)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 333])
    @pytest.mark.parametrize("after_a_draw", [False, True])
    def test_gyro_block_equals_one_step_calls(self, n, after_a_draw):
        a, b = RngStream(77), RngStream(77)
        if after_a_draw:  # start the block with the counter mid-stream
            assert a.gaussian(1.0) == b.gaussian(1.0)
        rates = trajectory_omega(np.arange(n) * 0.01 + 0.005, (0.0, 0.0, 1.0))
        got = emulate_gyro(rates, 1e-3, a)
        want = np.array([emulate_gyro(w, 1e-3, b) for w in rates])
        assert got.shape == (n, 3)
        assert _same_bits(got, want)
        assert a._state == b._state
        assert np.array_equal(emulate_gyro(rates, 0.0, a), rates)

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(duration_s=12.0, tracker_rate_hz=3.0, record_stride=7, axis=(1.0, 2.0, -0.5)),
            dict(duration_s=6.0),
            dict(duration_s=3.0, gyro_rate_hz=10.0, tracker_rate_hz=10.0, record_stride=1),
            dict(duration_s=50.0, tracker_rate_hz=0.02, record_stride=10**9),
            dict(duration_s=12.0, tracker_rate_hz=3.0, record_stride=7, aekf_q_flat=False),
        ],
    )
    def test_chunk_bounds_do_not_change_outputs(self, cfg, monkeypatch, tmp_path):
        # one epoch and at most 2 blocks per chunk, windows of at most 7
        # steps: many more chunks and windows, the same blocks,
        # byte-identical outputs
        import attsim.harness as hmod
        import attsim.startracker as smod

        windows, chunks = [], []
        real_omega, real_observe = hmod.trajectory_omega, smod.observe

        def counted_omega(t, axis):
            windows.append(np.size(t))
            return real_omega(t, axis)

        def counted_observe(q, *rest):
            chunks.append(len(q))
            return real_observe(q, *rest)

        monkeypatch.setattr(hmod, "trajectory_omega", counted_omega)
        monkeypatch.setattr(smod, "observe", counted_observe)
        write_outputs(run_simulation(short_cfg(**cfg)), tmp_path / "whole", no_timing=True)
        whole_windows, whole_chunks = len(windows), len(chunks)
        monkeypatch.setattr(hmod, "_STAR_ROWS", 1)
        monkeypatch.setattr(hmod, "_CHUNK_BLOCKS", 2)
        monkeypatch.setattr(hmod, "_WINDOW_STEPS", 7)
        write_outputs(run_simulation(short_cfg(**cfg)), tmp_path / "small", no_timing=True)
        assert len(windows) - whole_windows > whole_windows
        assert len(chunks) - whole_chunks > whole_chunks
        for name in ("metrics.json", "timeseries.csv"):
            assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / "small" / name).read_bytes()


def _plan_configs(stride, n):
    """``n`` configs with record stride ``stride``, drawn from a fixed seed.

    Tracker rates from the gyro rate down to 1/137 of it, mostly at ratios
    that are not whole numbers, durations that are not a multiple of the
    gyro step, catalogs of 2, 100 and 1000 stars, and star-row budgets
    (from one epoch a chunk up to the default), block, window and chunk
    bounds from one step or block up to the defaults.
    """
    import random

    rng = random.Random(1000 + stride % 10007)
    out = []
    for _ in range(n):
        gyro = rng.choice([50.0, 37.0, 100.0, 13.0, 7.3])
        cfg = short_cfg(
            duration_s=round(rng.uniform(0.3, 40.0), 4) + 1.0 / (3.0 * gyro),
            gyro_rate_hz=gyro,
            tracker_rate_hz=gyro / rng.choice([1.0, 2.9, 7.0, 13.7, 50.0, 137.0]),
            record_stride=stride,
            n_stars=rng.choice([2, 100, 1000]),
        )
        bounds = dict(
            _STAR_ROWS=rng.choice([1, 300, 3200, 1 << 15]),
            _CHUNK_BLOCKS=rng.choice([1, 5, 64, 4096]),
            _WINDOW_STEPS=rng.choice([1, 5, 64, 4096]),
            _MAX_BLOCK_STEPS=rng.choice([17, 1000]),
        )
        out.append((cfg, bounds))
    return out


class TestPlanChunks:
    """The planner's blocks, chunks and windows are those of one plan per
    block (``tests/oracles.py``)."""

    @pytest.mark.parametrize("stride", [0, 1, 3, 7, 999, 1000, 1001, 10**9])
    def test_blocks_and_chunks_equal_the_per_block_loop(self, stride, monkeypatch):
        import attsim.harness as hmod
        from oracles import plan_chunks_per_block

        for cfg, bounds in _plan_configs(stride, 25):
            with monkeypatch.context() as m:
                for name, value in bounds.items():
                    m.setattr(hmod, name, value)
                got = []
                first = 1
                for ends, at_epoch, keep, windows in hmod._plan_chunks(cfg, cfg.n_stars):
                    assert len(ends) == len(at_epoch) == len(keep)
                    starts = [first] + (ends[:-1] + 1).tolist()
                    got.append((list(zip(starts, ends.tolist(), at_epoch, keep)), windows))
                    first = int(ends[-1]) + 1
                want = plan_chunks_per_block(cfg, cfg.n_stars)
            assert got == want, (cfg, bounds)
            assert want[-1][0][-1][1] == int(math.floor(cfg.duration_s * cfg.gyro_rate_hz + 1e-9))

    @pytest.mark.parametrize("n_stars, in_file, sizes", [(100, 1000, [32, 8]), (1000, 100, [40])])
    def test_catalog_file_sets_the_epoch_budget(self, n_stars, in_file, sizes, monkeypatch, tmp_path):
        # a catalog file overrides n_stars, so its star count, not n_stars,
        # bounds a chunk's epochs: 32 for 1000 stars, 327 for 100
        import attsim.startracker as smod

        path = tmp_path / "catalog.csv"
        smod.save_catalog(smod.generate_catalog(in_file, RngStream(5)), path)
        cfg = short_cfg(duration_s=40.0, n_stars=n_stars, catalog_path=str(path))
        real = smod.observe
        calls = []
        monkeypatch.setattr(smod, "observe", lambda q, *rest: calls.append(len(q)) or real(q, *rest))
        res = run_simulation(cfg)
        assert calls == sizes
        assert len(res.epoch_t) + res.skipped_epochs == 40


class TestBlockTransitions:
    """The scenario pass's batched block increments and each filter's batched
    block transitions are each block's own, bit for bit."""

    @pytest.mark.parametrize(
        "cfg, windows",
        [
            # mixed lengths: 10-step blocks padded to the window's 20
            (dict(duration_s=3.0, record_stride=20), [[20, 20, 10, 10, 20, 20, 20, 20, 10]]),
            # one-step blocks
            (dict(duration_s=0.5, record_stride=1), [[1] * 25]),
            # two blocks of the cap and a short last block padded to it
            (dict(duration_s=50.0, tracker_rate_hz=0.02, record_stride=10**9), [[1000, 1000, 500]]),
            # the mixed blocks in windows of at most 45 steps, each padded to
            # its own longest block
            (dict(duration_s=3.0, record_stride=20, window=45), [[20, 20], [10, 10, 20], [20, 20], [20, 10]]),
        ],
        ids=["mixed", "one-step", "capped", "windows"],
    )
    def test_each_block_equals_its_transition_alone(self, cfg, windows, monkeypatch):
        import attsim.harness as hmod
        from attsim.attitude import identity_quat, integrate_quat, quat_path
        from attsim.filters import NoiseParams

        cfg = dict(cfg)
        monkeypatch.setattr(hmod, "_WINDOW_STEPS", cfg.pop("window", hmod._WINDOW_STEPS))
        calls = []
        spied = ("block_increments", "aekf_transitions", "mekf_transitions", "integrate_quat", "_estimate")
        for name in spied:
            real = getattr(hmod, name)

            def spy(*args, real=real, name=name):
                out = real(*args)
                calls.append((name, args, out))
                return out

            monkeypatch.setattr(hmod, name, spy)
        run_simulation(short_cfg(**cfg))
        # one truth propagation and one increment build per window, in turn,
        # each on its window's blocks padded to its longest
        truths = [c for c in calls if c[0] == "integrate_quat"]
        builds = [c for c in calls if c[0] == "block_increments"]
        truth_start, dt = truths[0][1][0], truths[0][1][2]
        true_rates = [row for c in truths for row in c[1][1]]
        rates = [row for c in builds for row in c[1][0]]
        truth = np.concatenate([c[2] for c in truths])
        increments = np.concatenate([c[2] for c in builds])
        assert len(builds) == len(truths) == len(windows)
        for (_, (window_rates, _), _), (_, (_, window_true, _), _), held in zip(builds, truths, windows):
            assert window_rates.shape == window_true.shape == (len(held), max(held), 3)
        sizes = [n for held in windows for n in held]
        # both builds take the same rotations: each block's is the product
        # of its segment's increments up to it
        (_, (rot_a,), phi_a), = [c for c in calls if c[0] == "aekf_transitions"]
        (_, (rot_m,), phi_m), = [c for c in calls if c[0] == "mekf_transitions"]
        passes = [c[1] for c in calls if c[0] == "_estimate"]
        assert len(passes) == 2 and rot_a is rot_m
        assert passes[0][6] is phi_a and passes[1][6] is phi_m
        for args in passes:
            _, _, _, _, pass_dt, noise, _, plan, _, _ = args
            assert pass_dt == dt and plan.rotation_rows is rot_a
            assert [n for lo, hi, _ in plan.segments for n in np.diff(plan.counts[lo:hi], prepend=0)] == sizes
            assert noise == NoiseParams(sigma_v=1e-3 * math.sqrt(dt), aekf_q_flat=True)
        # a segment's first rotation is its first increment, bit for bit
        for lo, hi, _ in plan.segments:
            assert _same_bits(rot_a[lo], increments[lo])
            assert _same_bits(rot_a[lo:hi][1:], quat_path(increments[lo], increments[lo + 1:hi]).reshape(-1, 4))
        q_prev = truth_start
        for b, n in enumerate(sizes):
            assert not np.any(rates[b][n:]) and not np.any(true_rates[b][n:])
            alone = rates[b][None, :n]
            m_alone = hmod.block_increments(alone, dt)
            assert _same_bits(increments[b], m_alone[0])
            for phi, build in ((phi_a, hmod.aekf_transitions), (phi_m, hmod.mekf_transitions)):
                assert _same_bits(phi[b], build(rot_a[b:b + 1])[0])
            m = integrate_quat(identity_quat(), alone, dt)[0]
            assert np.max(np.abs(increments[b] - m)) <= 1e-15
            # the truth crosses each block as one block-alone propagation would
            q_prev = integrate_quat(q_prev, true_rates[b][None, :n], dt)[0]
            assert _same_bits(truth[b], q_prev)


    def test_one_block_rotation_is_its_increment_zero_signs_included(self, monkeypatch):
        # the noiseless golden config turns about z alone, so every
        # increment's x and y are zeros; with the tracker at the gyro rate
        # each block is one step, whose increment's zeros are negative while
        # the rate is. Each segment is one block, and its rotation is the
        # increment itself, bit for bit (a product with the identity would
        # make -0.0 into 0.0)
        import attsim.harness as hmod

        config = json.loads((Path(__file__).resolve().parent / "golden" / "noiseless.json").read_text())
        config.update(duration_s=3.0, gyro_rate_hz=10.0, tracker_rate_hz=10.0)
        plans = []
        real = hmod._segments
        monkeypatch.setattr(hmod, "_segments", lambda m, *rest: plans.append((m, real(m, *rest))) or plans[-1][1])
        run_simulation(SimConfig(**config))
        for m, (plan, _) in plans:
            assert all(hi - lo == 1 for lo, hi, _ in plan.segments)
            m = np.array(m)
            assert not np.any(m[:, :2]) and np.any(np.signbit(m[:, :2]))
            assert _same_bits(plan.rotation_rows, m)


def _segment_configs(n):
    """``n`` randomized short configs for the segment pass, drawn from a fixed seed.

    Record strides 1, 3 and 7, tracker rates between 0.5 and 10 Hz, both
    AEKF tunings, and every third config with a field of view narrow enough
    that some tracker epochs see fewer than two stars and are skipped.
    """
    import random

    rng = random.Random(20261019)
    out = []
    for i in range(n):
        cfg = dict(
            duration_s=rng.choice([3.0, 4.0, 6.0]),
            tracker_rate_hz=round(rng.uniform(0.5, 10.0), 3),
            record_stride=(1, 3, 7)[i % 3],
            seed=rng.randrange(1, 10_000),
            axis=(rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0),
        )
        if i % 2:
            cfg.update(aekf_r_scale=0.25, aekf_q_flat=False)
        if i % 3 == 2:
            cfg.update(fov_half_angle_rad=0.2, n_cameras=2)
        out.append(cfg)
    return out


def _passes(monkeypatch, cfg, fail=None, per_step=False, own_transitions=False):
    """Run ``cfg``; the result and every estimate pass's return.

    ``fail`` is ``(filter name, epoch)``: that filter's update fails on that
    epoch's measurement, as found by a run without the failure. With
    ``per_step`` the pass is ``oracles.estimate_per_step`` on the chunk's
    gyro rates, and no segment may span a chunk end; with
    ``own_transitions`` every predict takes the transitions of its
    segment's rotations built alone, where the harness hands it its rows of
    the chunk's build.
    """
    import attsim.harness as hmod
    from oracles import estimate_per_step

    returns = []
    rates = []
    opened = []  # the segment open at each plan's chunk start
    estimate, block_increments, plan = hmod._estimate, hmod.block_increments, hmod._segments

    def spy(*args):
        if per_step:
            assert opened[-1] == hmod._NO_SEGMENT
        returns.append(estimate_per_step(rates[-1], *args) if per_step else estimate(*args))
        return returns[-1]

    def segments(*args):
        opened.append(args[-1])
        return plan(*args)

    def increments(omegas, dt):
        rates.append(omegas)
        return block_increments(omegas, dt)

    with monkeypatch.context() as m:
        if fail is not None:
            name, epoch = fail
            q_bad = run_simulation(short_cfg(**cfg)).q_meas[epoch]
            _fail_update_at(m, name, q_bad, f"synthetic {name} failure")
        m.setattr(hmod, "block_increments", increments)
        m.setattr(hmod, "_estimate", spy)
        m.setattr(hmod, "_segments", segments)
        if own_transitions:
            for name in ("aekf", "mekf"):
                predict, build = getattr(hmod, f"{name}_predict"), getattr(hmod, f"{name}_transitions")
                m.setattr(hmod, f"{name}_predict",
                          lambda s, r_, phi, *rest, predict=predict, build=build: predict(s, r_, build(r_), *rest))
        return run_simulation(short_cfg(**cfg)), returns


# a config whose update segments hold many blocks: skipped epochs, and a
# record every 7 steps; seed 1 is the smallest seed whose run skips one
_LONG_SEGMENTS = dict(duration_s=6.0, tracker_rate_hz=3.0, record_stride=7, fov_half_angle_rad=0.2,
                      n_cameras=2, aekf_r_scale=0.25, aekf_q_flat=False, seed=1)


class TestSegmentPass:
    """Each filter crosses a chunk one update segment at a time, with one predict
    per segment; the exact recursion step by step (``oracles.estimate_per_step``)
    is the reference; where every segment is one block the predicts that
    take their rows of the chunk's transitions equal those that take a build
    of their own rotations, bit for bit; and a segment that spans chunk ends
    is carried, its blocks crossed once."""

    @staticmethod
    def _compare(monkeypatch, cfg, fail=None):
        got, got_passes = _passes(monkeypatch, cfg, fail)
        want, want_passes = _passes(monkeypatch, cfg, fail, per_step=True)
        _assert_same_scenario_close_filters(got, want)
        assert len(got_passes) == len(want_passes)
        for (_, q_got, p_got, f_got), (_, q_want, p_want, f_want) in zip(got_passes, want_passes):
            assert (f_got is None) == (f_want is None) and (f_got is None or f_got[0] == f_want[0])
            assert q_got.shape == q_want.shape and p_got.shape == p_want.shape
            if f_got is not None:  # the snapshots of a failed pass are not used
                continue
            for a, b in zip(q_got, q_want):
                assert error_angle(a, b) <= 1e-13
            for a, b in zip(p_got, p_want):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        return got

    @pytest.mark.parametrize("cfg", _segment_configs(9))
    def test_randomized_configs_match_one_predict_per_block(self, cfg, monkeypatch):
        self._compare(monkeypatch, cfg)

    def test_narrow_field_of_view_skips_epochs(self, monkeypatch):
        # the narrow configs above do reach the skipped-epoch path
        skipped = [run_simulation(short_cfg(**cfg)).skipped_epochs
                   for cfg in _segment_configs(9) if "fov_half_angle_rad" in cfg]
        assert all(n > 0 for n in skipped)

    @pytest.mark.parametrize("name", ["aekf", "mekf"])
    def test_update_failure_mid_chunk(self, name, monkeypatch):
        # records every 3 steps, an epoch every 25: the failing epoch's
        # segment ends there, with no update and a record
        cfg = dict(duration_s=6.0, tracker_rate_hz=2.0, record_stride=3, aekf_q_flat=False)
        res = self._compare(monkeypatch, cfg, fail=(name, 5))
        assert res.aborted == f"synthetic {name} failure"
        assert res.t[-1] == pytest.approx(3.0)

    @staticmethod
    def _cut_into_small_chunks(monkeypatch):
        # chunks of one epoch and two blocks, windows of 7 steps
        import attsim.harness as hmod

        monkeypatch.setattr(hmod, "_STAR_ROWS", 1)
        monkeypatch.setattr(hmod, "_CHUNK_BLOCKS", 2)
        monkeypatch.setattr(hmod, "_WINDOW_STEPS", 7)

    def test_segments_span_chunk_ends(self, monkeypatch, tmp_path):
        # skipped epochs and records every 7 steps make segments of many
        # blocks, which small chunks cut: a segment open at a chunk end is
        # carried as the filter and its plan, so no output moves
        whole = self._compare(monkeypatch, _LONG_SEGMENTS)
        assert whole.skipped_epochs > 0
        self._cut_into_small_chunks(monkeypatch)
        small = run_simulation(short_cfg(**_LONG_SEGMENTS))
        write_outputs(whole, tmp_path / "whole", no_timing=True)
        write_outputs(small, tmp_path / "small", no_timing=True)
        for name in ("metrics.json", "timeseries.csv"):
            assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / "small" / name).read_bytes()

    def test_chunk_cuts_cross_each_block_once(self, monkeypatch):
        # under small chunks the segment plans cover every block of the run
        # once, in order, and each filter's predicts take every block that
        # ends in an update or is recorded once, and no other block; more
        # predicts, since the batches are cut at chunk ends, but no more
        # blocks
        import attsim.harness as hmod

        def crossed():
            lengths = {"aekf": [], "mekf": []}
            with monkeypatch.context() as m:
                for name, out in lengths.items():
                    real = getattr(hmod, f"{name}_predict")
                    m.setattr(hmod, f"{name}_predict",
                              lambda s, r, *rest, real=real, out=out: out.append(len(r)) or real(s, r, *rest))
                res = run_simulation(short_cfg(**_LONG_SEGMENTS))
            return res, lengths

        res, whole = crossed()
        needed = len(res.epoch_t) + len(res.t) - len(np.intersect1d(res.t, res.epoch_t))
        self._cut_into_small_chunks(monkeypatch)
        ends = np.concatenate([plan[0] for plan in hmod._plan_chunks(short_cfg(**_LONG_SEGMENTS), 100)])
        planned = np.diff(ends, prepend=0).tolist()
        _, cut = crossed()
        for name in ("aekf", "mekf"):
            assert sum(cut[name]) == sum(whole[name]) == needed < len(planned)
            assert len(cut[name]) > len(whole[name]) and max(whole[name]) > 2
        sizes = {name: _spy_block_sizes(monkeypatch, name) for name in ("aekf", "mekf")}
        run_simulation(short_cfg(**_LONG_SEGMENTS))
        assert sizes["aekf"]() == sizes["mekf"]() == planned

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(duration_s=10.0),
            dict(duration_s=10.0, aekf_r_scale=0.25, aekf_q_flat=False),
            dict(duration_s=2.0, gyro_rate_hz=10.0, tracker_rate_hz=10.0, record_stride=1),
            dict(duration_s=10.0, record_stride=100),
        ],
        ids=["default", "matched-tuning", "tracker-at-gyro-rate", "record-every-other-epoch"],
    )
    def test_one_block_segments_are_bit_identical(self, cfg, monkeypatch, tmp_path):
        with monkeypatch.context() as m:
            sizes = _spy_block_sizes(m, "mekf")
            got, _ = _passes(m, cfg)
            assert len(sizes()) == len(got.epoch_t)  # every block ends at an update
        self._compare(monkeypatch, cfg)
        want, _ = _passes(monkeypatch, cfg, own_transitions=True)
        write_outputs(got, tmp_path / "segments", no_timing=True)
        write_outputs(want, tmp_path / "blocks", no_timing=True)
        for name in ("metrics.json", "timeseries.csv"):
            assert (tmp_path / "segments" / name).read_bytes() == (tmp_path / "blocks" / name).read_bytes()


def _spy_passes(monkeypatch):
    """Spy on the segment plans, the estimate passes and both filters' predicts in the harness.

    Returns a list that gains ``("plan", open_segment)`` per segment plan
    and ``(plan, measured, keep, calls)`` per estimate pass: the pass's
    segment plan, measurements and record flags, and each predict it made,
    as ``(name, args, result)``.
    """
    import attsim.harness as hmod

    passes = []
    estimate, plan_fn = hmod._estimate, hmod._segments

    def plan_spy(*args):
        passes.append(("plan", args[-1]))
        return plan_fn(*args)

    def estimate_spy(state, predict, update, r, dt, noise, phi, plan, measured, keep):
        passes.append((plan, measured, keep, []))
        return estimate(state, predict, update, r, dt, noise, phi, plan, measured, keep)

    for name in ("aekf", "mekf"):
        def predict_spy(*args, name=name, real=getattr(hmod, f"{name}_predict")):
            out = real(*args)
            passes[-1][-1].append((name, args, out))
            return out

        monkeypatch.setattr(hmod, f"{name}_predict", predict_spy)
    monkeypatch.setattr(hmod, "_estimate", estimate_spy)
    monkeypatch.setattr(hmod, "_segments", plan_spy)
    return passes


class TestBatchedPredicts:
    """Each filter steps once per update, on floats, from the state at its
    segment's start; every other recorded block takes its state from
    batched predicts of at most ``_PREDICT_BLOCKS`` blocks, each block from
    its own segment-start state."""

    @staticmethod
    def _run(monkeypatch, cfg):
        with monkeypatch.context() as m:
            passes = _spy_passes(m)
            run_simulation(short_cfg(**cfg))
        return passes

    @pytest.mark.parametrize(
        "cfg, chunk_blocks",
        [
            (dict(duration_s=30.0, record_stride=1), 4096),  # 30 updates, 1470 batched blocks a pass
            (dict(duration_s=30.0, record_stride=1), 700),
            (_LONG_SEGMENTS, 4096),
            (dict(duration_s=10.0), 4096),  # every block ends in an update
        ],
        ids=["dense", "dense-chunks", "long-segments", "one-block-segments"],
    )
    def test_predict_calls_per_pass(self, cfg, chunk_blocks, monkeypatch):
        import attsim.harness as hmod

        monkeypatch.setattr(hmod, "_CHUNK_BLOCKS", chunk_blocks)
        passes = [p for p in self._run(monkeypatch, cfg) if p[0] != "plan"]
        assert passes
        for _, measured, keep, calls in passes:
            updates = sum(q is not None for q in measured)
            batched = sum(k and q is None for q, k in zip(measured, keep))
            assert len(calls) == updates + -(-batched // hmod._PREDICT_BLOCKS)
            # the update steps come first, one block each, on floats
            for _, args, (quats, covs) in calls[:updates]:
                assert len(args[1]) == 1 and isinstance(quats, list) and isinstance(covs, list)
            assert sum(len(args[1]) for _, args, _ in calls[updates:]) == batched
            assert all(len(args[1]) <= hmod._PREDICT_BLOCKS for _, args, _ in calls)

    def test_each_batched_block_is_its_float_predict_alone(self, monkeypatch):
        # long segments cut by chunk ends: every block of every batched call
        # equals the float predict of that block alone from its own
        # segment-start state, byte for byte, for the AEKF under both
        # process-noise models and the MEKF
        import attsim.harness as hmod

        TestSegmentPass._cut_into_small_chunks(monkeypatch)
        monkeypatch.setattr(hmod, "_PREDICT_BLOCKS", 3)
        checked = {}
        for flat in (True, False):
            passes = self._run(monkeypatch, dict(_LONG_SEGMENTS, aekf_q_flat=flat))
            assert any(p[1] != hmod._NO_SEGMENT for p in passes if p[0] == "plan")  # a segment cut by a chunk end
            for _, _, _, calls in (p for p in passes if p[0] != "plan"):
                for name, (s, r, phi, n, dt, noise), (quats, covs) in calls:
                    if not (isinstance(s.q, np.ndarray) and s.q.ndim == 2):
                        continue
                    predict = getattr(hmod, f"{name}_predict")
                    for j in range(len(r)):
                        alone = hmod.FilterState(s.q[j].tolist(), s.p[j].tolist())
                        (q,), (p,) = predict(alone, [r[j].tolist()], phi[j:j + 1], [int(n[j])], dt, noise)
                        assert np.asarray(quats[j]).tobytes() == np.array(q).tobytes()
                        assert np.asarray(covs[j]).tobytes() == np.array(p).tobytes()
                        checked[name, noise.aekf_q_flat] = checked.get((name, noise.aekf_q_flat), 0) + 1
        assert len(checked) == 4 and min(checked.values()) > 10

    def test_batch_bound_does_not_change_outputs(self, monkeypatch):
        # batches of at most 7 blocks, against the default 512: many more
        # predicts, byte-identical records
        import attsim.harness as hmod

        cfg = short_cfg(duration_s=2100 / 50.0, record_stride=1)
        whole = run_simulation(cfg)
        monkeypatch.setattr(hmod, "_PREDICT_BLOCKS", 7)
        each = run_simulation(cfg)
        assert len(each.t) == 2100
        for name in _RECORD_FIELDS:
            assert getattr(whole, name).tobytes() == getattr(each, name).tobytes(), name


_RECORD_FIELDS = ("t", "q_true", "q_aekf", "q_mekf", "err_aekf", "err_mekf",
                  "pnorm_aekf", "pnorm_mekf", "cond_aekf", "cond_mekf")


def _fail_davenport_at(monkeypatch, epoch):
    """Make the Davenport solve of tracker epoch ``epoch`` (0-based) fail.

    The eigensolve of that epoch's matrix, alone or in a stack, hits the
    sweep limit. The epochs are counted over the stacks of K that
    ``wahba.davenport_matrices`` builds, in order.
    """
    import attsim.wahba as wmod
    from attsim.errors import NumericalFailure

    seen = []
    real_matrices, real_eigen = wmod.davenport_matrices, wmod.jacobi_eigen_sym

    def matrices(prof):
        k = real_matrices(prof)
        i = epoch - len(seen)
        seen.extend([None] * len(k))
        if 0 <= i < len(k):
            seen[epoch] = k[i]
        return k

    def eigen(m):
        bad = seen[epoch] if len(seen) > epoch else None
        stack = np.asarray(m).reshape(-1, 4, 4)
        if bad is not None and any(np.array_equal(x, bad) for x in stack):
            raise NumericalFailure("Jacobi sweep limit reached (off-diagonal 1.000e+00)")
        return real_eigen(m)

    monkeypatch.setattr(wmod, "davenport_matrices", matrices)
    monkeypatch.setattr(wmod, "jacobi_eigen_sym", eigen)


class TestSteadyState:
    """With exact transitions the default covariances are one scalar Riccati recursion each."""

    def test_post_update_covariance_reaches_the_riccati_steady_state(self):
        # default tuning: P0, Q and R are isotropic and the transitions
        # orthogonal, so each filter's covariance stays c I; per tracker
        # epoch c <- (c + Qe) R / (c + Qe + R) with Qe = 100 sigma_v^2 dt =
        # 1e-8, whose fixed point is x = (-Qe + sqrt(Qe^2 + 4 Qe R)) / 2,
        # whatever the rates. The error of c shrinks by about 0.82 (MEKF)
        # and 0.90 (AEKF) per epoch, below 1e-9 relative after 250 epochs
        cfg = SimConfig(duration_s=300.0)
        res = run_simulation(cfg)
        dt = 1.0 / cfg.gyro_rate_hz
        q_epoch = 100 * (cfg.sigma_gyro * math.sqrt(dt)) ** 2 * dt
        assert q_epoch == pytest.approx(1e-8, rel=1e-12)
        late = res.t >= 250.0
        assert late.sum() == 51
        for pnorm, cond, r, target in (
            (res.pnorm_mekf, res.cond_mekf, cfg.sigma_meas**2, 9.5125e-8),
            (res.pnorm_aekf, res.cond_aekf, cfg.aekf_r_scale * cfg.sigma_meas**2, 1.9506e-7),
        ):
            x = 0.5 * (-q_epoch + math.sqrt(q_epoch * q_epoch + 4.0 * q_epoch * r))
            assert x == pytest.approx(target, rel=5e-5)
            assert np.max(np.abs(pnorm[late] - x)) <= 1e-9 * x
            assert np.max(np.abs(cond - 1.0)) <= 1e-12


class TestDavenportAbort:
    """A Davenport NumericalFailure aborts at its own epoch, as with one solve per epoch."""

    @pytest.mark.parametrize("epoch", [0, 13, 29])
    @pytest.mark.parametrize("how", ["sweep"])
    def test_same_partial_result_as_one_solve_per_epoch(self, epoch, how, monkeypatch):
        import attsim.harness as hmod

        cfg = dict(duration_s=30.0, record_stride=20)  # 30 epochs in one chunk
        with monkeypatch.context() as m:
            _fail_davenport_at(m, epoch)
            stacked = run_simulation(short_cfg(**cfg))
        with monkeypatch.context() as m:
            _fail_davenport_at(m, epoch)
            m.setattr(hmod, "_STAR_ROWS", 1)  # one epoch a chunk
            alone = run_simulation(short_cfg(**cfg))
        assert stacked.aborted is not None and stacked.aborted == alone.aborted
        assert how in stacked.aborted  # the injected failure is the abort reason
        assert len(stacked.epoch_t) == epoch
        assert stacked.t[-1] == pytest.approx(epoch + 1.0)
        for name in (*_RECORD_FIELDS, "epoch_t", "q_meas"):
            assert np.array_equal(getattr(stacked, name), getattr(alone, name)), name
        assert stacked.skipped_epochs == alone.skipped_epochs


class TestUpdateAbort:
    """A filter update's NumericalFailure at block j keeps the records before j
    and ends with one record at j holding both filters after j's predict."""

    @pytest.mark.parametrize("epoch", [0, 13, 35])  # 40 epochs in two chunks
    @pytest.mark.parametrize("name", ["aekf", "mekf"])
    def test_partial_result(self, name, epoch, monkeypatch):
        import attsim.harness as hmod

        monkeypatch.setattr(hmod, "_STAR_ROWS", 3200)  # 32 epochs a chunk of 100 stars
        cfg = dict(duration_s=40.0, record_stride=10)  # the epoch blocks are record instants
        full = run_simulation(short_cfg(**cfg))
        t_fail = full.epoch_t[epoch]
        before = int(np.searchsorted(full.t, t_fail))
        assert full.t[before] == t_fail
        with monkeypatch.context() as m:
            predicted = {"aekf": [], "mekf": []}
            for f in predicted:
                def spy(*args, real=getattr(hmod, f"{f}_predict"), out=predicted[f]):
                    out.append(real(*args))
                    return out[-1]

                m.setattr(hmod, f"{f}_predict", spy)
            _fail_update_at(m, name, full.q_meas[epoch], f"synthetic {name} failure")
            res = run_simulation(short_cfg(**cfg))
        assert res.aborted == f"synthetic {name} failure"
        assert len(res.t) == before + 1 and res.t[-1] == t_fail
        for field in _RECORD_FIELDS:
            assert getattr(res, field)[:before].tobytes() == getattr(full, field)[:before].tobytes()
        # the last predict each filter made ends at the failing block, and
        # the last record holds it; neither filter's update at that block shows
        assert res.q_aekf[-1].tobytes() == predicted["aekf"][-1][0][-1].tobytes()
        assert res.q_mekf[-1].tobytes() == predicted["mekf"][-1][0][-1].tobytes()
        assert res.q_true[-1].tobytes() == full.q_true[before].tobytes()
        assert not np.array_equal(res.q_aekf[-1], full.q_aekf[before])
        assert not np.array_equal(res.q_mekf[-1], full.q_mekf[before])
        # the measurement was solved, so it is listed
        assert res.epoch_t.tobytes() == full.epoch_t[:epoch + 1].tobytes()
        assert res.q_meas.tobytes() == full.q_meas[:epoch + 1].tobytes()
        # the same records as a Davenport failure at that epoch
        with monkeypatch.context() as m:
            _fail_davenport_at(m, epoch)
            davenport = run_simulation(short_cfg(**cfg))
        for field in _RECORD_FIELDS:
            assert getattr(res, field).tobytes() == getattr(davenport, field).tobytes(), field


class TestUpdateExceptionAbort:
    """A 180-degree MEKF innovation (GibbsSingularity) and an AEKF estimate too
    short to renormalize (DegenerateQuaternion) abort the run as a filter
    update's NumericalFailure does, with a partial result written."""

    @pytest.mark.parametrize(
        "name, reason",
        [("mekf", "rotation is at 180 degrees"), ("aekf", "cannot normalize quaternion")],
    )
    def test_same_partial_result_as_a_numerical_failure(self, name, reason, monkeypatch, tmp_path, capsys):
        import attsim.harness as hmod
        from attsim.attitude import quat_mul
        from attsim.cli import main

        cfg = SimConfig(duration_s=5.0)
        q_bad = run_simulation(cfg).q_meas[2]  # the measurement of the third update
        real = getattr(hmod, f"{name}_update")

        def update(s, q_meas, r):
            if not np.array_equal(q_meas, q_bad):
                return real(s, q_meas, r)
            if name == "mekf":  # a measurement 180 degrees from the estimate
                return real(s, quat_mul(np.array([1.0, 0.0, 0.0, 0.0]), s.q), r)
            return real(s, np.zeros(4), np.zeros((4, 4)))  # a noiseless zero measurement

        with monkeypatch.context() as m:
            _fail_update_at(m, name, q_bad, "synthetic failure")
            want = run_simulation(cfg)
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        with monkeypatch.context() as m:
            m.setattr(hmod, f"{name}_update", update)
            got = run_simulation(cfg)
            rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--no-timing"])
        assert reason in got.aborted
        assert len(got.epoch_t) == 3 and got.t[-1] == 3.0
        for field in (*_RECORD_FIELDS, "epoch_t", "q_meas"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert rc == 3
        assert reason in capsys.readouterr().err
        write_outputs(got, tmp_path / "direct", no_timing=True)
        for out in ("metrics.json", "timeseries.csv"):
            assert (tmp_path / "out" / out).read_bytes() == (tmp_path / "direct" / out).read_bytes()


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
            step_time_aekf=0.0,
            step_time_mekf=0.0,
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
            step_time_aekf=2e-6,
            step_time_mekf=1e-6,
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


class TestTracedNames:
    """The benchmark's tracer wraps names it looks up on the package's modules.

    A name that disappears (say, a call inlined away) is no longer traced and
    a traced benchmark run reports ``correct`` false; this catches it here.
    """

    @staticmethod
    def _wrapped():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_spans.py"
        spec = importlib.util.spec_from_file_location("trace_spans_under_test", path)
        trace_spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace_spans)
        assert trace_spans.WRAPPED
        return trace_spans.WRAPPED

    def test_every_wrapped_name_exists(self):
        import importlib

        for module, attr, *_ in self._wrapped():
            mod = importlib.import_module(f"attsim.{module}")
            assert callable(getattr(mod, attr, None)), f"attsim.{module}.{attr} is gone"

    @pytest.mark.parametrize("record_stride", [0, 1])
    def test_every_wrapped_harness_name_is_called(self, record_stride, monkeypatch, tmp_path):
        # a name still defined but no longer called would make its traced
        # figure read 0 while the run still checks out; runs as the CLI does
        import attsim.harness as hmod
        from attsim.cli import main

        names = {attr for module, attr, *_ in self._wrapped() if module == "harness"}
        calls = dict.fromkeys(names, 0)
        for attr in names:
            def counted(*args, real=getattr(hmod, attr), attr=attr, **kwargs):
                calls[attr] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(hmod, attr, counted)
        config = tmp_path / "config.json"
        write_config(short_cfg(duration_s=4.0, record_stride=record_stride), config)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert not [attr for attr, n in calls.items() if n == 0]
