"""Tests of the benchmark's output checker.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_check_outputs.py

One short ``attsim run`` is made through ``one_run.py``; the checker must
pass it, and must reject a copy whose filter quaternions are rotated by
1e-4 rad.
"""

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check_outputs  # noqa: E402
import run  # noqa: E402

CONFIG = dict(run.DEFAULT_CONFIG, duration_s=5.0, record_stride=50, seed=7)


@pytest.fixture(scope="module")
def workdir():
    path = run.RUNS / "test_check_outputs"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


@pytest.fixture(scope="module")
def real_run(workdir):
    tmp = workdir / "real"
    tmp.mkdir()
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(CONFIG), encoding="ascii")
    rep = run.run_op(cfg_path, tmp / "out")
    assert rep["rc"] == 0 and rep["aborted"] is None
    return tmp / "out", rep


def _rotate_filter_columns(src: Path, dst: Path, angle: float) -> None:
    """Copy an output directory, rotating both filters' quaternions about x by ``angle``."""
    shutil.copytree(src, dst)
    half = 0.5 * angle
    dq = (math.cos(half), math.sin(half), 0.0, 0.0)
    with open(src / "timeseries.csv", "r", encoding="ascii", newline="") as f:
        rows = list(csv.reader(f))
    for row in rows[1:]:
        for first in (5, 9):
            q = tuple(float(v) for v in row[first:first + 4])
            row[first:first + 4] = [repr(v) for v in check_outputs._qmul(dq, q)]
    with open(dst / "timeseries.csv", "w", encoding="ascii", newline="") as f:
        f.write("\n".join(",".join(r) for r in rows) + "\n")


def test_passes_on_a_real_run(real_run):
    out, rep = real_run
    assert check_outputs.check_run(CONFIG, out, rep["epochs_solved"], rep["skipped_epochs"]) == []


def test_fails_on_filter_quaternions_rotated_by_1e_4_rad(real_run, workdir):
    out, rep = real_run
    bad = workdir / "bad"
    _rotate_filter_columns(out, bad, 1e-4)
    problems = check_outputs.check_run(CONFIG, bad, rep["epochs_solved"], rep["skipped_epochs"])
    assert any("err_aekf" in p for p in problems)
    assert any("err_mekf" in p for p in problems)


def test_fails_on_a_wrong_epoch_count(real_run):
    out, rep = real_run
    problems = check_outputs.check_run(CONFIG, out, rep["epochs_solved"] - 1, rep["skipped_epochs"])
    assert any("epochs" in p for p in problems)
