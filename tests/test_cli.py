import json

import numpy as np
import pytest

from attsim.cli import main
from attsim.harness import SimConfig


def write_cfg(tmp_path, **kw):
    cfg = SimConfig(duration_s=6.0, gyro_rate_hz=50.0, tracker_rate_hz=1.0, seed=3, **kw)
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
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
            '{"run_aekf": "yes"}',
            '{"aekf_q_flat": 1}',
            # axes that are not three finite numbers
            '{"axis": "abc"}',
            '{"axis": [0.0, 1.0]}',
            '{"axis": [0.0, NaN, 1.0]}',
            '{"axis": [0.0, "1", 1.0]}',
            '{"axis": 1.0}',
            '{"catalog_path": 5}',
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

    def test_bad_header_exits_2(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert main(["solve-wahba", str(path)]) == 2

    def test_underdetermined_exits_3(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("bx,by,bz,rx,ry,rz\n0,0,1,0,0,1\n")
        assert main(["solve-wahba", str(path)]) == 3


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

    def test_bad_n_exits_2(self, tmp_path):
        rc = main(["gen-catalog", "--n", "1", "--seed", "4", "--out", str(tmp_path / "c.csv")])
        assert rc == 2


class TestSelfcheck:
    def test_default_profile_passes(self, capsys):
        rc = main(["selfcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok: davenport_recovery" in out
        assert "ok: jacobi_stack_bitwise" in out
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
