import contextlib
import io
import json
import math
import random
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from attsim.cli import main
from attsim.harness import SimConfig

from conftest import write_config


def write_cfg(tmp_path, **kw):
    cfg = SimConfig(duration_s=6.0, gyro_rate_hz=50.0, tracker_rate_hz=1.0, seed=3, **kw)
    path = tmp_path / "cfg.json"
    write_config(cfg, path)
    return path


class TestRunCommand:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "results"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "metrics.json").exists()
        assert (out / "timeseries.csv").exists()
        data = json.loads((out / "metrics.json").read_text())
        assert data["aekf"]["mean_step_time_s"] > 0.0

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"duration_s": 5.0, "wat": 1}))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "text",
        [
            # non-finite numbers: json.load accepts NaN and Infinity
            '{"duration_s": NaN}',
            '{"duration_s": Infinity}',
            '{"duration_s": 1e308}',
            '{"sigma_gyro": NaN}',
            '{"aekf_r_scale": NaN}',
            '{"sigma_star": -Infinity}',
            # integers that are not integers
            '{"n_stars": 10.5}',
            '{"n_cameras": 3.0}',
            '{"seed": 1.5}',
            '{"record_stride": 0.5}',
            '{"n_stars": true}',
            # flags that are not booleans
            '{"aekf_q_flat": 1}',
            # axes that are not three finite numbers
            '{"axis": "abc"}',
            '{"axis": [0.0, 1.0]}',
            '{"axis": [0.0, NaN, 1.0]}',
            '{"axis": [0.0, "1", 1.0]}',
            '{"axis": 1.0}',
            '{"catalog_path": 5}',
            # not config keys: the MEKF estimates no gyro bias, and both
            # filters always run
            '{"sigma_bias_walk": 0.0}',
            '{"run_aekf": "yes"}',
            '{"run_aekf": true}',
            '{"run_mekf": false}',
            # integers too large for a float
            pytest.param('{"duration_s": 1' + "0" * 400 + "}", id="duration_s-400-digit-integer"),
            pytest.param('{"axis": [1' + "0" * 400 + ", 0, 0]}", id="axis-400-digit-integer"),
            # catalogs that cannot be read or drawn
            '{"catalog_path": "missing-catalog.csv"}',
            '{"catalog_path": "."}',
            '{"n_stars": 10000001}',
            '{"n_stars": 1180591620717411303424}',
        ],
    )
    def test_malformed_value_exits_2_without_traceback(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_focal_length_key_exits_2(self, tmp_path, capsys):
        # a tracker head is a cone, a boresight and a half angle: earlier
        # versions had a pinhole focal length that reached no output
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"duration_s": 2.0, "focal_length": 1.0}))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and "focal_length" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "axis, unit",
        [
            ([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
            ([0.0, -2.0**520, 2.0**520], [0.0, -1.0, 1.0]),
            ([1e-7, 0.0, 0.0], [1.0, 0.0, 0.0]),
            ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ],
        ids=["1e200", "2^520", "1e-7", "1e-200"],
    )
    def test_axis_of_any_scale_runs(self, tmp_path, capsys, axis, unit):
        # the direction is taken after scaling by a power of two, so a
        # finite nonzero axis runs as its unit-scale twin does, byte for
        # byte, however short or long; these used to exit 2 (an overflowing
        # or a sub-1e-6 norm), and a zero axis still does
        outputs = []
        for name, value in (("scaled", axis), ("unit", unit), ("zero", [0.0, 0.0, 0.0])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"duration_s": 2.0, "axis": value}))
            rc = main(["run", "--config", str(path), "--out", str(tmp_path / name), "--no-timing"])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if name == "zero":
                assert rc == 2 and "config error" in err and "axis" in err
                assert not (tmp_path / name).exists()
            else:
                assert rc == 0
                outputs.append((tmp_path / name / "timeseries.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "config, name",
        [
            ({"sigma_gyro": 1e200}, "sigma_gyro"),
            ({"sigma_star": 1e200}, "sigma_star"),
            ({"sigma_meas": 1e200}, "sigma_meas"),
            ({"sigma_meas": 1e152, "aekf_r_scale": 1e10}, "aekf_r_scale"),
            # finite squares, but a noisy gyro or star row's squared norm overflows
            ({"sigma_gyro": 1e154}, "sigma_gyro"),
            ({"sigma_star": 5e153}, "sigma_star"),
            # the run's process variance (sigma_gyro dt)^2 overflows
            ({"gyro_rate_hz": 1e-200, "tracker_rate_hz": 1e-200, "duration_s": 3e200}, "gyro_rate_hz"),
            # the largest gyro step angle |omega| dt overflows
            (
                {
                    "gyro_rate_hz": 2.8191573663942887e-203,
                    "duration_s": 3.0365052447451173e203,
                    "tracker_rate_hz": 4.574989672476562e-204,
                    "sigma_gyro": 6.367075697493627e132,
                    "sigma_star": 6.006169396344262e-203,
                    "sigma_meas": 0.0,
                    "aekf_r_scale": 1.6359988309001057e-100,
                },
                "gyro_rate_hz",
            ),
        ],
    )
    def test_sigma_whose_square_overflows_exits_2(self, tmp_path, capsys, config, name):
        # each sigma enters the run squared: such a sigma_star used to skip
        # every epoch and exit 0, the others to fail deep in the run, after
        # numpy overflow warnings. A noisy row of sigma_gyro 1e154 used to
        # end in "P entries must be finite", one of sigma_star 5e153 to exit 0.
        # The two gyro steps that overflow used to warn and end in "P entries
        # must be finite" after the whole scenario pass
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"duration_s": 2.0, **config}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and name in err
        assert "RuntimeWarning" not in err and not caught
        assert not (tmp_path / "o").exists()

    def test_empty_catalog_path_exits_2(self, tmp_path, capsys):
        # an empty path cannot be read; it used to fall through to a seeded catalog
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"duration_s": 2.0, "catalog_path": ""}))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and "catalog file" in err
        assert not (tmp_path / "o").exists()

    def test_nan_star_in_catalog_exits_2(self, tmp_path, capsys):
        # a NaN star would never be visible, so the run would go on without it
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("0,0,1\n1,0,0\nnan,nan,nan\n0,1,0\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"duration_s": 2.0, "catalog_path": str(catalog)}))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and "unit norm" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_huge_step_count_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        import attsim.harness as hmod

        def never(*args, **kwargs):
            raise AssertionError("the simulation loop started")

        monkeypatch.setattr(hmod, "trajectory_omega", never)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"duration_s": 1e300, "gyro_rate_hz": 1e-3, "tracker_rate_hz": 1e-3}))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and "gyro steps" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_output_path_blocked_by_a_file_exits_2_before_running(self, tmp_path, capsys, monkeypatch, under):
        import attsim.harness as hmod

        def never(*args, **kwargs):
            raise AssertionError("the simulation loop started")

        monkeypatch.setattr(hmod, "trajectory_omega", never)
        blocker = tmp_path / "results"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under else blocker
        rc = main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("attsim: config error: ") and err.count("\n") == 1
        assert blocker.read_text() == "not a directory\n"

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        # the directory exists, but one output name is taken by a directory
        out = tmp_path / "results"
        (out / "timeseries.csv").mkdir(parents=True)
        rc = main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("attsim: config error: ") and err.count("\n") == 1

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "results"
        rc = main(["run", "--config", str(cfg), "--out", str(out), "--seed", "-1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("attsim: config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_seed_override_past_u64_exits_2(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["run", "--config", str(write_cfg(tmp_path)), "--out", str(out), "--seed", str(2**64)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.splitlines() == ["attsim: config error: seed must fit in an unsigned 64-bit integer"]
        assert not out.exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--no-timing"])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--no-timing", "--seed", "99"])
        a = (tmp_path / "a" / "timeseries.csv").read_bytes()
        b = (tmp_path / "b" / "timeseries.csv").read_bytes()
        assert a != b

    def test_no_timing_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--no-timing"])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--no-timing"])
        for name in ("metrics.json", "timeseries.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_aborted_run_exits_3_with_partial_outputs(self, tmp_path, monkeypatch):
        import attsim.harness as hmod
        from attsim.errors import NumericalFailure

        def explode(s, q_meas, r4):
            raise NumericalFailure("synthetic failure")

        monkeypatch.setattr(hmod, "aekf_update", explode)
        cfg = write_cfg(tmp_path)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert (tmp_path / "out" / "metrics.json").exists()


# one alternative value per SimConfig field, each far enough from the
# default to move an output of a 10 s run; catalog_path names a catalog
# that gen-catalog writes with another seed
_KNOB_ALTERNATIVES = {
    "duration_s": 12.0,
    "gyro_rate_hz": 50.0,
    "tracker_rate_hz": 2.0,
    "n_stars": 150,
    "n_cameras": 2,
    "fov_half_angle_rad": 0.3,
    "sigma_gyro": 2e-3,
    "sigma_star": 2e-3,
    "sigma_meas": 2e-3,
    "seed": 2,
    "axis": [0.0, 1.0, 0.0],
    "aekf_q_flat": False,
    "aekf_r_scale": 0.25,
    "record_stride": 7,
    "catalog_path": "catalog.csv",
}
_KNOB_BASE = {"duration_s": 10.0}


def run_outputs(tmp_path, name, config):
    """Metrics other than step times, and the record count, of one ``--no-timing`` run."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    assert main(["run", "--config", str(path), "--out", str(out), "--no-timing"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    figures = {
        (flt, key): value
        for flt, row in metrics.items()
        for key, value in row.items()
        if key != "mean_step_time_s"
    }
    records = len((out / "timeseries.csv").read_text().splitlines()) - 1
    return figures, records


class TestEveryKnobMovesAnOutput:
    """Each config field, changed alone on a 10 s default run, moves an output."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        return run_outputs(tmp_path_factory.mktemp("base"), "base", _KNOB_BASE)

    def test_table_covers_every_field(self):
        assert set(_KNOB_ALTERNATIVES) == {f.name for f in fields(SimConfig)}

    @pytest.mark.parametrize("name", sorted(_KNOB_ALTERNATIVES))
    def test_knob_moves_an_output(self, tmp_path, base, name):
        value = _KNOB_ALTERNATIVES[name]
        if name == "catalog_path":
            value = str(tmp_path / value)
            assert main(["gen-catalog", "--n", "100", "--seed", "2", "--out", value]) == 0
        figures, records = run_outputs(tmp_path, name, {**_KNOB_BASE, name: value})
        base_figures, base_records = base
        moved = {k: v for k, v in figures.items() if abs(v - base_figures[k]) > 1e-9 * abs(base_figures[k])}
        assert records != base_records or moved, f"{name} = {value!r} moved no output"


class TestSolveWahba:
    def test_identity_frames(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_text(
            "bx,by,bz,rx,ry,rz\n"
            "1,0,0,1,0,0\n"
            "0,1,0,0,1,0\n"
            "0,0,1,0,0,1\n"
        )
        rc = main(["solve-wahba", str(path)])
        assert rc == 0
        out = capsys.readouterr().out.strip().split()
        q = [float(v) for v in out]
        assert q == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)

    def test_weights_column(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_text(
            "bx,by,bz,rx,ry,rz,weight\n"
            "0,1,0,1,0,0,1.0\n"
            "-1,0,0,0,1,0,0.5\n"
        )
        rc = main(["solve-wahba", str(path)])
        assert rc == 0
        qw, qx, qy, qz = (float(v) for v in capsys.readouterr().out.split())
        s = np.sqrt(0.5)
        assert (qx, qy) == pytest.approx((0.0, 0.0), abs=1e-9)
        assert abs(qz) == pytest.approx(s, abs=1e-9)
        assert qw == pytest.approx(s, abs=1e-9)

    @pytest.mark.parametrize("scale", ["1e-13", "1e-300", "1e300"])
    def test_any_scale_gives_the_rotation(self, tmp_path, capsys, scale):
        # two pairs whose vectors are all of one scale: a norm below 1e-12
        # was called zero (exit 2), as was one whose squares overflowed
        path = tmp_path / "obs.csv"
        path.write_text(f"bx,by,bz,rx,ry,rz\n0,{scale},0,{scale},0,0\n-{scale},0,0,0,{scale},0\n")
        assert main(["solve-wahba", str(path)]) == 0
        out = capsys.readouterr().out
        path.write_text("bx,by,bz,rx,ry,rz\n0,1,0,1,0,0\n-1,0,0,0,1,0\n")
        assert main(["solve-wahba", str(path)]) == 0
        assert out == capsys.readouterr().out

    def test_zero_vector_exits_2(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_text("bx,by,bz,rx,ry,rz\n0,1,0,1,0,0\n-1,0,0,0,0,0\n")
        assert main(["solve-wahba", str(path)]) == 2
        assert capsys.readouterr().err == "attsim: config error: observation vectors must be nonzero\n"

    def test_row_length_must_match_the_header(self, tmp_path, capsys):
        # a weight field under a header without the weight column is a row
        # of the wrong length; a row without a weight under a weighted
        # header gets weight 1
        path = tmp_path / "obs.csv"
        path.write_text("bx,by,bz,rx,ry,rz\n1,0,0,1,0,0,5\n0,1,0,0,1,0\n")
        assert main(["solve-wahba", str(path)]) == 2
        assert "obs.csv:2: expected 6 fields" in capsys.readouterr().err
        path.write_text("bx,by,bz,rx,ry,rz,weight\n1,0,0,1,0,0\n0,1,0,0,1,0,2.5\n")
        assert main(["solve-wahba", str(path)]) == 0
        assert "lambda_max=3.5" in capsys.readouterr().err

    @staticmethod
    def _axes_file(tmp_path, weight):
        # the three axes, each paired with itself: the identity attitude
        path = tmp_path / "obs.csv"
        rows = ("1,0,0,1,0,0", "0,1,0,0,1,0", "0,0,1,0,0,1")
        path.write_text("bx,by,bz,rx,ry,rz,weight\n" + "".join(f"{row},{weight}\n" for row in rows))
        return path

    @pytest.mark.parametrize("weight", ["1e-300", "1e-320", "1e200"])
    def test_tiny_and_huge_weights_give_the_identity(self, tmp_path, capsys, weight):
        # the eigensolver's sum of squares underflowed below about 1e-154
        # (a degenerate gap, or a 180-degree attitude at 1e-320) and
        # overflowed above about 1e154 (a RuntimeWarning)
        path = self._axes_file(tmp_path, weight)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve-wahba", str(path)])
        assert rc == 0 and not caught
        assert capsys.readouterr().out == "1.0 0.0 0.0 0.0\n"

    @pytest.mark.parametrize("weight", ["1e308", "5e307"])
    def test_weights_too_large_exit_2(self, tmp_path, capsys, weight):
        # 3e308 overflows; 1.5e308 does not, but the eigenvalue gap, up to
        # twice the total, does
        path = self._axes_file(tmp_path, weight)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve-wahba", str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and not caught
        assert err.count("\n") == 1 and "config error" in err and "weights" in err

    def test_bad_header_exits_2(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert main(["solve-wahba", str(path)]) == 2

    def test_underdetermined_exits_3(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("bx,by,bz,rx,ry,rz\n0,0,1,0,0,1\n")
        assert main(["solve-wahba", str(path)]) == 3


def run_main_captured(argv):
    """Exit code and stderr of one ``main`` call; an exception escaping ``main`` fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# CSV fields: numbers in several spellings, the non-finite ones, and text
_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["0", "-0", "1", "1e-320", "1e200", "-1e200", "nan", "inf", "-Infinity", "1_0"]),
)
_FIELD = st.one_of(_NUMBER_TEXT, _NUMBER_TEXT, st.text(max_size=6))
_HEADER = st.one_of(
    st.sampled_from(["bx,by,bz,rx,ry,rz", "bx,by,bz,rx,ry,rz,weight", "bx, by, bz, rx, ry, rz , weight"]),
    st.lists(st.sampled_from(["bx", "by", "bz", "rx", "ry", "rz", "weight", "w", ""]), max_size=8).map(",".join),
)
_CSV_TEXT = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(r) for r in rows]) + "\n",
    _HEADER,
    st.lists(st.lists(_FIELD, min_size=5, max_size=8), max_size=6),
)


# Values of the right type for each field, some out of range. Those that
# pass intake keep a run short: at most 2 s at 100 Hz. A duration of 1e300 s
# asks for more gyro steps than intake accepts.
_TYPED_VALUES = {
    "duration_s": [0.5, 2.0, 1e-9, 1e300, 1e308, -1.0],
    "gyro_rate_hz": [10.0, 100.0, 0.0],
    "tracker_rate_hz": [1.0, 10.0, 1e-3, 1e3],
    "n_stars": [2, 3, 60, 1, 10**7 + 1, 2**70],
    "n_cameras": [1, 3, 6, 0, 7, 2**70],
    "fov_half_angle_rad": [0.35, 1.5, 1e-3, 1.6],
    "sigma_gyro": [0.0, 1e-3, 1.0],
    "sigma_star": [0.0, 1e-3, 0.5, -1e-3],
    "sigma_meas": [0.0, 1e-3, 1e3],
    "seed": [0, 1, 2**64 - 1, 2**64, -1],
    "axis": [[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0]],
    "aekf_q_flat": [True, False],
    "aekf_r_scale": [4.0, 0.25, 1e-300, 1e300, 0.0],
    "record_stride": [0, 1, 7, 2**70, -1],
    "catalog_path": [None, "missing-catalog.csv", "."],
}
# values of every wrong kind, for any field
_WRONG_VALUES = st.sampled_from(
    [None, "1", "", True, False, [], {}, [1.0, 2.0], "abc", 10.5, -2.5, math.nan, math.inf, -math.inf]
)
# a config that names no duration runs 0.5 s, not the default orbit; most
# configs carry at most two wrong values, so that intake gets past the first
_CONFIG = st.one_of(
    st.builds(
        lambda typed, wrong: {"duration_s": 0.5, **typed, **wrong},
        st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in _TYPED_VALUES.items()}),
        st.dictionaries(st.sampled_from(sorted(_TYPED_VALUES)), _WRONG_VALUES, max_size=2),
    ),
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=2),
    st.lists(st.integers(), max_size=2),
)


class TestFuzz:
    """Arbitrary input files end in a documented exit code, never a traceback."""

    @FUZZ
    @given(text=st.one_of(_CSV_TEXT, st.text(max_size=80)))
    def test_solve_wahba_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "obs.csv"
            path.write_text(text, encoding="utf-8")
            rc, err = run_main_captured(["solve-wahba", str(path)])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err

    @FUZZ
    @given(data=st.binary(max_size=80))
    def test_solve_wahba_reader_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "obs.csv"
            path.write_bytes(data)
            rc, err = run_main_captured(["solve-wahba", str(path)])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err

    @settings(FUZZ, max_examples=100)
    @given(config=_CONFIG)
    def test_run_config_intake(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            rc, err = run_main_captured(["run", "--config", str(path), "--out", str(Path(tmp) / "o")])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err

    def test_triad_and_solve_wahba_on_extreme_numbers(self, tmp_path):
        # each number is 0, +-10**k over the whole float range and past it
        # (1e-330 reads as 0), or now and then nan or inf; a call ends in
        # exit 0, 2 or 3, a failure in one "attsim: " line, and neither
        # with a warning
        rnd = random.Random(2029)

        def number():
            if rnd.random() < 0.02:
                return rnd.choice(("nan", "inf", "-inf"))
            if rnd.random() < 0.15:
                return "0"
            # half of them of ordinary size, so that some calls get past intake
            k = rnd.randint(-330, 308) if rnd.random() < 0.5 else rnd.randint(-3, 3)
            return f"{rnd.choice('+-')}1e{k}"

        path = tmp_path / "obs.csv"
        codes = set()
        for i in range(300):
            if i % 2:
                width = rnd.choice((6, 7))
                header = "bx,by,bz,rx,ry,rz,weight"[: 17 if width == 6 else None]
                rows = [",".join(number() for _ in range(width)) for _ in range(rnd.randint(1, 4))]
                path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
                argv = ["solve-wahba", str(path)]
            else:
                argv = ["triad", *(number() for _ in range(12))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, err = run_main_captured(argv)
            assert rc in (0, 2, 3), argv
            if rc:
                assert len(err.splitlines()) == 1 and err.startswith("attsim: "), (argv, err)
            codes.add(rc)
        assert codes == {0, 2, 3}


class TestTriad:
    def test_prints_rotation(self, capsys):
        rc = main(
            ["triad"]
            + "1 0 0 0 1 0".split()  # r1 r2
            + "0 1 0 -1 0 0".split()  # b1 b2
        )
        assert rc == 0
        rows = [[float(v) for v in line.split()] for line in capsys.readouterr().out.splitlines()]
        assert np.allclose(rows, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_collinear_exits_3(self, capsys):
        rc = main(["triad"] + "1 0 0 1 0 0 0 1 0 0 0 1".split())
        assert rc == 3

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_component_exits_2(self, capsys, bad):
        # it used to print a NaN matrix and exit 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["triad"] + f"1 0 0 0 1 0 1 0 0 {bad} 1 0".split())
        out = capsys.readouterr()
        assert rc == 2
        assert out.out == "" and not caught
        assert out.err.splitlines() == ["attsim: config error: b2 must have finite components"]

    @pytest.mark.parametrize("scale", ["1e-13", "1e-300", "1e300"])
    def test_any_scale_prints_the_rotation(self, capsys, scale):
        # a norm below 1e-12 was called zero (exit 2), and squares past the
        # float range made the norm infinite (exit 2): the norm is taken
        # after an exact power-of-two scaling, so only the directions count
        rc = main(["triad"] + f"{scale} 0 0 0 {scale} 0 0 1 0 -1 0 0".split())
        out = capsys.readouterr()
        assert rc == 0 and out.err == ""
        rows = [[float(v) for v in line.split()] for line in out.out.splitlines()]
        assert rows == [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("args", ["0 0 0 0 1 0 0 1 0 -1 0 0", "1 0 0 0 1 0 0 1 0 -0.0 0 0"])
    def test_zero_vector_exits_2(self, capsys, args):
        rc = main(["triad"] + args.split())
        out = capsys.readouterr()
        assert rc == 2 and out.out == ""
        name = "r1" if args.startswith("0") else "b2"
        assert out.err.splitlines() == [f"attsim: config error: {name} must be a nonzero vector"]

    def test_negative_numbers_in_any_notation(self, capsys):
        # argparse took "-1e0" for an unknown option and exited 1
        rc = main(["triad"] + "1 0 0 0 1 0 0 1 0 -1e0 0 -.0".split())
        assert rc == 0
        rows = [[float(v) for v in line.split()] for line in capsys.readouterr().out.splitlines()]
        assert np.allclose(rows, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_wrong_arity_exits_1(self, capsys):
        rc = main(["triad", "1", "2", "3"])
        assert rc == 1


class TestGenCatalog:
    def test_writes_catalog(self, tmp_path, capsys):
        out = tmp_path / "cat.csv"
        rc = main(["gen-catalog", "--n", "30", "--seed", "4", "--out", str(out)])
        assert rc == 0
        from attsim.startracker import load_catalog

        cat = load_catalog(out)
        assert len(cat) == 30

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["gen-catalog", "--n", "10", "--seed", "4", "--out", str(a)])
        main(["gen-catalog", "--n", "10", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_is_the_catalog_a_run_at_the_seed_generates(self, tmp_path):
        # a 10 s run writes the same bytes whether it generates its catalog
        # or reads the one gen-catalog wrote with the same n and seed
        cat = tmp_path / "cat.csv"
        assert main(["gen-catalog", "--n", "120", "--seed", "5", "--out", str(cat)]) == 0
        for name, extra in (("generated", {}), ("pinned", {"catalog_path": str(cat)})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"duration_s": 10.0, "n_stars": 120, "seed": 5, **extra}))
            assert main(["run", "--config", str(path), "--out", str(tmp_path / name), "--no-timing"]) == 0
        for output in ("metrics.json", "timeseries.csv"):
            assert (tmp_path / "generated" / output).read_bytes() == (tmp_path / "pinned" / output).read_bytes()

    def test_directory_as_output_exits_2(self, tmp_path, capsys):
        rc = main(["gen-catalog", "--n", "10", "--seed", "4", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("attsim: config error: ") and err.count("\n") == 1

    def test_bad_n_exits_2(self, tmp_path):
        rc = main(["gen-catalog", "--n", "1", "--seed", "4", "--out", str(tmp_path / "c.csv")])
        assert rc == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = main(["gen-catalog", "--n", "10", "--seed", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("attsim: config error: ") and err.count("\n") == 1
        assert not out.exists()


class TestSelfcheck:
    def test_default_profile_passes(self, capsys):
        rc = main(["selfcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok: davenport_recovery" in out
        assert "ok: jacobi_stack_bitwise" in out
        assert "ok: rng_block_bitwise (measured 0.000e+00, tolerance 0.000e+00)" in out
        assert "FAIL" not in out

    def test_strict_profile(self, capsys):
        rc = main(["selfcheck", "--profile", "strict"])
        assert rc == 0


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
