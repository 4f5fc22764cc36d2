"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and
prints a single PASS line with the measured values (visible with
``pytest -s`` or in the captured-output sections of a verbose run).

Criteria 4 through 7 share one sweep of the default configuration over
seeds 1..10, which dominates the suite's runtime (roughly five minutes).
"""

import json
import math
import time

import numpy as np
import pytest

from attsim.attitude import error_angle, quat_to_matrix
from attsim.cli import main as cli_main
from attsim.harness import SimConfig, compute_metrics, run_simulation
from attsim.numerics import RngStream, condition_number, jacobi_eigen_sym
from attsim.startracker import ObservationSet
from attsim.wahba import davenport_solve, triad, wahba_loss

from conftest import random_symmetric, random_unit_quat, random_unit_vec

SWEEP_SEEDS = tuple(range(1, 11))


@pytest.fixture(scope="session")
def default_sweep():
    """Default-config runs for seeds 1..10: [(seed, RunResult, MetricsReport)]."""
    rows = []
    for seed in SWEEP_SEEDS:
        result = run_simulation(SimConfig(seed=seed))
        assert result.aborted is None, f"seed {seed} aborted: {result.aborted}"
        rows.append((seed, result, compute_metrics(result)))
    return rows


def test_c01_davenport_recovery_and_runtime():
    rng = RngStream(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        q_true = random_unit_quat(rng)
        a = quat_to_matrix(q_true)
        rs = [random_unit_vec(rng) for _ in range(5)]
        obs = ObservationSet(b=np.array([a @ r for r in rs]), r=np.array(rs))
        sol = davenport_solve(obs)
        worst = max(worst, error_angle(sol.q, q_true))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, f"worst recovery error {worst:.3e}"
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 PASS: davenport recovery worst {worst:.2e} rad over 100 attitudes "
          f"in {elapsed * 1e3:.0f} ms")


def test_c02_trace_identity():
    # B and K as the solver forms them; K's z, read off the skew part of B,
    # must also equal sum a_i (b_i x r_i) to 1e-12 of the total weight
    from attsim.wahba import _star_sums, davenport_matrices

    rng = RngStream(102)
    worst = 0.0
    worst_z = 0.0
    for _ in range(1000):
        q = random_unit_quat(rng)
        rows = [(random_unit_vec(rng), random_unit_vec(rng), rng.uniform() + 0.1) for _ in range(4)]
        b, r, w = (np.array(col) for col in zip(*rows))
        prof, total = _star_sums(b[None], r[None], w[None])
        k = davenport_matrices(prof)[0]
        prof, total = prof[0], float(total[0])
        lhs = float(np.trace(quat_to_matrix(q) @ prof.T))
        rhs = float(q @ k @ q)
        worst = max(worst, abs(lhs - rhs))
        z_cross = (w[:, None] * np.cross(b, r)).sum(axis=0)
        worst_z = max(worst_z, float(np.max(np.abs(k[:3, 3] - z_cross))) / max(1.0, total))
    assert worst <= 1e-10, f"worst trace-identity gap {worst:.3e}"
    assert worst_z <= 1e-12, f"worst z gap {worst_z:.3e} of the total weight"
    print(f"\nACCEPTANCE 2 PASS: tr(A(q) B^T) == q^T K q within {worst:.2e} on 1000 cases, "
          f"z within {worst_z:.2e} of the total weight")


def test_c03_triad_exactness():
    rng = RngStream(103)
    worst_first = 0.0
    worst_loss = 0.0
    for _ in range(200):
        q_true = random_unit_quat(rng)
        a_true = quat_to_matrix(q_true)
        r1, r2 = random_unit_vec(rng), random_unit_vec(rng)
        if np.linalg.norm(np.cross(r1, r2)) < 1e-2:
            continue
        b1, b2 = a_true @ r1, a_true @ r2
        a = triad(r1, r2, b1, b2)
        worst_first = max(worst_first, float(np.max(np.abs(a @ r1 - b1))))
        obs = ObservationSet(b=np.array([b1, b2]), r=np.array([r1, r2]))
        worst_loss = max(worst_loss, wahba_loss(a, obs))
    assert worst_first <= 1e-12, f"worst first-pair residual {worst_first:.3e}"
    assert worst_loss <= 1e-20, f"worst two-vector loss {worst_loss:.3e}"
    print(f"\nACCEPTANCE 3 PASS: TRIAD first-pair residual {worst_first:.2e}, "
          f"noiseless loss {worst_loss:.2e}")


def test_c04_filter_error_ordering(default_sweep):
    wins = sum(
        1 for _, _, m in default_sweep
        if m.mekf.mean_error_angle_rad <= m.aekf.mean_error_angle_rad
    )
    pairs = [
        (m.aekf.mean_error_angle_rad, m.mekf.mean_error_angle_rad) for _, _, m in default_sweep
    ]
    assert wins >= 8, f"MEKF won only {wins}/10 seeds: {pairs}"
    print(f"\nACCEPTANCE 4 PASS: MEKF mean error <= AEKF in {wins}/10 default-config seeds")


def test_c05_uncertainty_ordering(default_sweep):
    ratios = []
    for seed, _, m in default_sweep:
        assert m.mekf.final_covariance_norm < m.aekf.final_covariance_norm, (
            f"seed {seed}: MEKF {m.mekf.final_covariance_norm:.3e} "
            f">= AEKF {m.aekf.final_covariance_norm:.3e}"
        )
        ratios.append(m.aekf.final_covariance_norm / m.mekf.final_covariance_norm)
    print(f"\nACCEPTANCE 5 PASS: MEKF final covariance norm below AEKF on all 10 seeds "
          f"(AEKF/MEKF ratio {min(ratios):.2f}..{max(ratios):.2f})")


def test_c06_conditioning_bounded(default_sweep):
    worst = 0.0
    for _, result, m in default_sweep:
        for series in (result.cond_aekf, result.cond_mekf):
            assert np.all(np.isfinite(series))
            worst = max(worst, float(series.max()))
        assert math.isfinite(m.aekf.mean_condition_number)
        assert math.isfinite(m.mekf.mean_condition_number)
    assert worst < 1e6, f"worst condition number {worst:.3e}"
    means = [(m.aekf.mean_condition_number, m.mekf.mean_condition_number)
             for _, _, m in default_sweep]
    print(f"\nACCEPTANCE 6 PASS: condition numbers finite, worst {worst:.2f} "
          f"(mean AEKF {np.mean([a for a, _ in means]):.2f}, "
          f"mean MEKF {np.mean([b for _, b in means]):.2f})")


def test_c07_timing_plausible(default_sweep):
    for seed, _, m in default_sweep:
        for name, val in (("aekf", m.aekf.mean_step_time_s), ("mekf", m.mekf.mean_step_time_s)):
            assert 0.0 < val < 1e-3, f"seed {seed} {name} mean step time {val:.2e}s"
    a = np.mean([m.aekf.mean_step_time_s for _, _, m in default_sweep])
    b = np.mean([m.mekf.mean_step_time_s for _, _, m in default_sweep])
    print(f"\nACCEPTANCE 7 PASS: mean step time AEKF {a * 1e6:.1f} us, MEKF {b * 1e6:.1f} us "
          f"(0 < t < 1 ms)")


def test_c08_noiseless_full_orbit():
    cfg = SimConfig(sigma_gyro=0.0, sigma_star=0.0, sigma_meas=0.0, seed=1)
    t0 = time.perf_counter()
    result = run_simulation(cfg)
    elapsed = time.perf_counter() - t0
    m = compute_metrics(result)
    assert result.aborted is None
    assert m.aekf.max_error_angle_rad <= 1e-5, f"AEKF max {m.aekf.max_error_angle_rad:.3e}"
    assert m.mekf.max_error_angle_rad <= 1e-5, f"MEKF max {m.mekf.max_error_angle_rad:.3e}"
    assert elapsed < 60.0, f"full-orbit run took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 8 PASS: noiseless orbit max error AEKF "
          f"{m.aekf.max_error_angle_rad:.2e} / MEKF {m.mekf.max_error_angle_rad:.2e} rad, "
          f"528k steps in {elapsed:.1f}s")


def test_c09_numerics_suite():
    rng = RngStream(109)
    worst = 0.0
    for i in range(1000):
        n = (3, 4, 6)[i % 3]
        m = random_symmetric(rng, n)
        evals, evecs = jacobi_eigen_sym(m)
        scale = max(1.0, float(np.max(np.abs(m))))
        for lam, v in zip(evals, evecs):
            worst = max(worst, float(np.linalg.norm(m @ v - lam * v)) / scale)
    assert worst <= 1e-10, f"worst eigen residual {worst:.3e}"
    assert condition_number(np.eye(4)) == 1.0
    print(f"\nACCEPTANCE 9 PASS: eigensolver worst residual {worst:.2e} over 1000 matrices, "
          f"cond(I) == 1 exactly")


def test_c10_cli_determinism(tmp_path):
    cfg = SimConfig(duration_s=30.0, seed=6)
    cfg_path = tmp_path / "cfg.json"
    cfg.to_json(cfg_path)
    rc1 = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--no-timing"])
    rc2 = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--no-timing"])
    assert rc1 == 0 and rc2 == 0
    for name in ("metrics.json", "timeseries.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    data = json.loads((tmp_path / "a" / "metrics.json").read_text())
    assert data["aekf"]["mean_step_time_s"] == 0.0
    print("\nACCEPTANCE 10 PASS: repeated --no-timing runs are byte-identical")
