"""Scenario generation, the closed simulation loop, metrics, and reports.

The simulated trajectory mimics a low-Earth-orbit pass: a single-axis
angular rate ``omega(t) = -cos(2*pi*t / 5280) * pi/2`` whose period is the
88-minute orbit time. Truth and the noisy gyro samples are generated step
by step at the gyro rate, truth with the exact kinematic step. The
measured rates are buffered, and both filters predict once per block of
gyro steps from the same samples (see :mod:`attsim.filters`). A block ends
at the next event: a star-tracker epoch, a record instant, the last step,
or at most ``_MAX_BLOCK_STEPS`` steps. So every update and every record
sees the filter states it would see after one predict per step, up to
rounding. At star-tracker epochs one Davenport solution (from the full
emulated camera pipeline) is shared by both filters as the quaternion
measurement. Everything downstream of the seed is deterministic except
the wall-clock timing fields; a filter's timing is the wall time of its
block predicts and updates divided by the gyro steps they cover.

Default tuning notes (the trade study this harness supports never pins
sensor grades, so defaults are artifact choices, documented here):

* ``sigma_gyro`` is the per-sample rate noise added by the gyro model; the
  filters receive the equivalent density ``sigma_v = sigma_gyro*sqrt(dt)``.
* The MEKF measurement covariance is ``sigma_meas^2 * I3`` in attitude
  error-angle units. The AEKF covariance is ``aekf_r_scale * sigma_meas^2
  * I4`` on raw quaternion components; with the default scale of 4 and the
  flat AEKF process noise this reproduces the classical behavior where the
  additive filter carries visibly more steady-state covariance and tracks
  slightly worse than its multiplicative counterpart. Setting
  ``aekf_r_scale = 0.25`` and ``aekf_q_flat = false`` instead gives the
  additive filter an honest tangent-space tuning.
* Records are written every ``record_stride`` gyro steps (default: one
  record per tracker epoch) so full-orbit runs stay small and fast; error
  and covariance series are sampled at the record instants.
"""

import json
import logging
import math
import numbers
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import startracker
from .attitude import error_angle, integrate_quat
from .errors import ConfigError, InvalidInput, NumericalFailure, UnderdeterminedAttitude
from .filters import (
    NoiseParams,
    aekf_init,
    aekf_predict,
    aekf_update,
    mekf_init,
    mekf_predict,
    mekf_update,
)
from .numerics import RngStream, jacobi_eigen_sym
from .wahba import davenport_solve

logger = logging.getLogger(__name__)

ORBIT_PERIOD_S = 88.0 * 60.0

# covariance floor used when sigma_meas is zero, so noiseless runs keep an
# invertible innovation
_R_FLOOR = 1e-12

_P0_ATTITUDE = 1e-6

# longest block of gyro steps handed to one predict when no event ends it
# sooner; bounds the per-block stacks to well under a megabyte
_MAX_BLOCK_STEPS = 1000

# records whose covariance snapshots one stacked eigensolve takes; keeps the
# pending buffers and the solver's temporaries at a fixed small size however
# many records a run writes
_RECORD_CHUNK = 512


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, (bool, np.bool_))
        and math.isfinite(value)
    )


@dataclass
class SimConfig:
    """Flat run configuration; JSON config files mirror these fields exactly."""

    duration_s: float = 5280.0
    gyro_rate_hz: float = 100.0
    tracker_rate_hz: float = 1.0
    n_stars: int = 100
    n_cameras: int = 3
    fov_half_angle_rad: float = math.radians(20.0)
    focal_length: float = 1.0
    sigma_gyro: float = 1e-3
    sigma_star: float = 1e-3
    sigma_meas: float = 1e-3
    sigma_bias_walk: float = 0.0
    seed: int = 1
    axis: tuple = (0.0, 0.0, 1.0)
    run_aekf: bool = True
    run_mekf: bool = True
    aekf_q_flat: bool = True
    aekf_r_scale: float = 4.0
    record_stride: int = 0
    catalog_path: Optional[str] = None

    def validate(self) -> None:
        self._check_types()
        if self.duration_s <= 0.0:
            raise ConfigError("duration_s must be positive")
        if self.gyro_rate_hz <= 0.0 or self.tracker_rate_hz <= 0.0:
            raise ConfigError("sensor rates must be positive")
        if self.duration_s * self.gyro_rate_hz < 1.0:
            raise ConfigError("duration_s must cover at least one gyro step")
        if not math.isfinite(self.duration_s * self.gyro_rate_hz):
            raise ConfigError("duration_s * gyro_rate_hz must be finite")
        if self.gyro_rate_hz < self.tracker_rate_hz:
            raise ConfigError("gyro rate must be at least the tracker rate")
        if self.n_stars < 2:
            raise ConfigError("n_stars must be at least 2")
        if not 1 <= self.n_cameras <= 6:
            raise ConfigError("n_cameras must be between 1 and 6")
        if not 0.0 < self.fov_half_angle_rad < 0.5 * math.pi:
            raise ConfigError("fov_half_angle_rad must be in (0, pi/2)")
        if self.focal_length <= 0.0:
            raise ConfigError("focal_length must be positive")
        for name in ("sigma_gyro", "sigma_star", "sigma_meas", "sigma_bias_walk"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        ax = np.asarray(self.axis, dtype=float)
        if ax.shape != (3,) or float(ax @ ax) < 1e-12:
            raise ConfigError("axis must be a nonzero 3-vector")
        if self.aekf_r_scale <= 0.0:
            raise ConfigError("aekf_r_scale must be positive")
        if self.record_stride < 0:
            raise ConfigError("record_stride must be nonnegative")

    def _check_types(self) -> None:
        """Reject values of the wrong type and non-finite numbers.

        JSON admits ``NaN`` and ``Infinity``, and NaN passes every range
        check (its comparisons are false), so finiteness is checked here,
        before the ranges. Floats accept integers; integers accept no
        fractions; flags accept only booleans.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                if not _is_finite_number(value):
                    raise ConfigError(f"{f.name} must be a finite number, not {value!r}")
            elif f.type is int:
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ConfigError(f"{f.name} must be an integer, not {value!r}")
            elif f.type is bool:
                if not isinstance(value, (bool, np.bool_)):
                    raise ConfigError(f"{f.name} must be true or false, not {value!r}")
        axis = self.axis
        if (
            isinstance(axis, (str, bytes))
            or not hasattr(axis, "__len__")
            or len(axis) != 3
            or not all(_is_finite_number(v) for v in axis)
        ):
            raise ConfigError(f"axis must be three finite numbers, not {axis!r}")
        if self.catalog_path is not None and not isinstance(self.catalog_path, str):
            raise ConfigError(f"catalog_path must be a string or null, not {self.catalog_path!r}")

    def axis_unit(self) -> np.ndarray:
        ax = np.asarray(self.axis, dtype=float)
        return ax / math.sqrt(float(ax @ ax))

    def effective_stride(self) -> int:
        if self.record_stride > 0:
            return self.record_stride
        return max(1, int(round(self.gyro_rate_hz / self.tracker_rate_hz)))

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        if isinstance(cfg.axis, list):
            cfg.axis = tuple(cfg.axis)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "SimConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(data)

    def to_json(self, path) -> None:
        d = asdict(self)
        d["axis"] = list(self.axis)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(d, f, indent=2)
            f.write("\n")


@dataclass
class RunResult:
    """Recorded time series plus epoch bookkeeping for one simulation run.

    All per-record arrays share one length and strictly increasing
    timestamps. ``step_time_*`` hold the mean wall-clock seconds spent in
    that filter per gyro step over the record window. Covariance norms and
    condition numbers are spectral; for the MEKF they are taken over the
    3x3 attitude block (the bias block is frozen at zero, so the full 6x6
    would be singular by construction). A record keeps a snapshot of each
    filter's covariance, and the norms and condition numbers come from one
    stacked eigensolve per chunk of up to ``_RECORD_CHUNK`` snapshots; they
    equal bit for bit what one eigensolve per record gives.
    """

    config: SimConfig
    t: np.ndarray
    q_true: np.ndarray
    q_aekf: np.ndarray
    q_mekf: np.ndarray
    err_aekf: np.ndarray
    err_mekf: np.ndarray
    pnorm_aekf: np.ndarray
    pnorm_mekf: np.ndarray
    cond_aekf: np.ndarray
    cond_mekf: np.ndarray
    step_time_aekf: np.ndarray
    step_time_mekf: np.ndarray
    epoch_t: np.ndarray
    q_meas: np.ndarray
    skipped_epochs: int = 0
    aborted: Optional[str] = None


@dataclass(frozen=True)
class FilterMetrics:
    mean_error_angle_rad: float
    max_error_angle_rad: float
    mean_quat_error_norm: float
    final_covariance_norm: float
    mean_condition_number: float
    mean_step_time_s: float


@dataclass(frozen=True)
class MetricsReport:
    """Comparison table for one run, one row per filter."""

    aekf: FilterMetrics
    mekf: FilterMetrics

    def to_dict(self) -> dict:
        return {"aekf": asdict(self.aekf), "mekf": asdict(self.mekf)}


def trajectory_omega(t: float, axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Orbit-like angular rate at time ``t`` [s], along ``axis``."""
    if t < 0.0:
        raise InvalidInput("time must be nonnegative")
    mag = -math.cos(t / ORBIT_PERIOD_S * 2.0 * math.pi) * (0.5 * math.pi)
    return mag * np.asarray(axis, dtype=float)


def emulate_gyro(omega_true, sigma_gyro: float, rng: RngStream) -> np.ndarray:
    """True rate plus per-axis white Gaussian noise."""
    if sigma_gyro < 0.0:
        raise InvalidInput("sigma_gyro must be nonnegative")
    omega_true = np.asarray(omega_true, dtype=float)
    if sigma_gyro == 0.0:
        return omega_true.copy()
    return omega_true + rng.gaussian_vec(sigma_gyro, 3)


def _sign_aligned_diff(qa: np.ndarray, qb: np.ndarray) -> float:
    d1 = qa - qb
    d2 = qa + qb
    return min(math.sqrt(float(d1 @ d1)), math.sqrt(float(d2 @ d2)))


def _pnorm_and_cond(p: np.ndarray):
    """Spectral 2-norms and condition numbers of a stack of covariances, ``(k, n, n)``.

    One stacked eigendecomposition; returns two arrays of length ``k``. A
    condition number is +inf where the smallest eigenvalue magnitude is
    below 1e-300.
    """
    evals, _ = jacobi_eigen_sym(p)
    mags = np.abs(evals)
    hi = mags.max(axis=1)
    lo = mags.min(axis=1)
    singular = lo < 1e-300
    cond = np.where(singular, math.inf, hi / np.where(singular, 1.0, lo))
    return hi, cond


def run_simulation(cfg: SimConfig) -> RunResult:
    """Run the closed loop: truth, gyro, tracker epochs, both filters.

    Tracker epochs whose Davenport solve is underdetermined are skipped
    and logged. A filter NumericalFailure aborts the run; the partial
    result carries the reason in ``aborted``.
    """
    cfg.validate()
    # independent derived sub-streams keep the gyro noise sequence identical
    # when only the star noise settings change (and vice versa)
    root = RngStream(cfg.seed)
    rng_catalog = RngStream(root.next_u64())
    rng_gyro = RngStream(root.next_u64())
    rng_star = RngStream(root.next_u64())
    if cfg.catalog_path:
        catalog = startracker.load_catalog(cfg.catalog_path)
    else:
        catalog = startracker.generate_catalog(cfg.n_stars, rng_catalog)
    cams = startracker.default_camera_rig(cfg.n_cameras, cfg.fov_half_angle_rad, cfg.focal_length)

    dt = 1.0 / cfg.gyro_rate_hz
    n_steps = int(math.floor(cfg.duration_s * cfg.gyro_rate_hz + 1e-9))
    tracker_dt = 1.0 / cfg.tracker_rate_hz
    next_tracker = tracker_dt
    axis = cfg.axis_unit()
    stride = cfg.effective_stride()

    r_meas = max(cfg.sigma_meas * cfg.sigma_meas, _R_FLOOR)
    r3 = r_meas * np.eye(3)
    r4 = (cfg.aekf_r_scale * r_meas) * np.eye(4)
    noise = NoiseParams(
        sigma_v=cfg.sigma_gyro * math.sqrt(dt),
        sigma_u=cfg.sigma_bias_walk,
        aekf_q_flat=cfg.aekf_q_flat,
    )

    q_true = np.array([0.0, 0.0, 0.0, 1.0])
    aekf = aekf_init(q_true, _P0_ATTITUDE * np.eye(4))
    p0_mekf = np.zeros((6, 6))
    p0_mekf[:3, :3] = _P0_ATTITUDE * np.eye(3)
    mekf = mekf_init(q_true, p0_mekf)

    rec_t, rec_qt, rec_qa, rec_qm = [], [], [], []
    rec_ea, rec_em, rec_pa, rec_pm, rec_ca, rec_cm = [], [], [], [], [], []
    rec_ta, rec_tm = [], []
    epoch_t, epoch_q = [], []
    skipped = 0
    aborted = None

    win_time_a = 0.0
    win_time_m = 0.0
    win_steps = 0

    # covariance snapshots of the records not yet solved
    pending_a = np.empty((_RECORD_CHUNK, 4, 4))
    pending_m = np.empty((_RECORD_CHUNK, 3, 3))
    n_pending = 0

    def flush() -> None:
        nonlocal n_pending
        for pending, norms, conds in ((pending_a, rec_pa, rec_ca), (pending_m, rec_pm, rec_cm)):
            pnorm, cond = _pnorm_and_cond(pending[:n_pending])
            norms.extend(pnorm.tolist())
            conds.extend(cond.tolist())
        n_pending = 0

    def record(t_now: float) -> None:
        nonlocal win_time_a, win_time_m, win_steps, n_pending
        rec_t.append(t_now)
        rec_qt.append(q_true.copy())
        rec_qa.append(aekf.q.copy())
        rec_qm.append(mekf.q_ref.copy())
        rec_ea.append(error_angle(q_true, aekf.q))
        rec_em.append(error_angle(q_true, mekf.q_ref))
        pending_a[n_pending] = aekf.p
        pending_m[n_pending] = mekf.p[:3, :3]
        n_pending += 1
        if n_pending == _RECORD_CHUNK:
            flush()
        steps = max(1, win_steps)
        rec_ta.append(win_time_a / steps)
        rec_tm.append(win_time_m / steps)
        win_time_a = 0.0
        win_time_m = 0.0
        win_steps = 0

    # gyro rates measured since the last event, for one block predict
    block = np.empty((min(stride, _MAX_BLOCK_STEPS), 3))
    n_block = 0
    t_now = 0.0
    try:
        for k in range(1, n_steps + 1):
            t_prev = (k - 1) * dt
            t_now = k * dt
            omega_true = trajectory_omega(t_prev + 0.5 * dt, axis)
            block[n_block] = emulate_gyro(omega_true, cfg.sigma_gyro, rng_gyro)
            n_block += 1
            q_true = integrate_quat(q_true, omega_true, dt)

            epoch = t_now >= next_tracker - 1e-9
            due = k % stride == 0 or k == n_steps
            if not (epoch or due or n_block == block.shape[0]):
                continue
            rates = block[:n_block]
            win_steps += n_block
            n_block = 0
            if cfg.run_aekf:
                t0 = time.perf_counter()
                aekf = aekf_predict(aekf, rates, dt, noise)
                win_time_a += time.perf_counter() - t0
            if cfg.run_mekf:
                t0 = time.perf_counter()
                mekf = mekf_predict(mekf, rates, dt, noise)
                win_time_m += time.perf_counter() - t0

            if epoch:
                next_tracker += tracker_dt
                obs = startracker.observe(q_true, catalog, cams, cfg.sigma_star, rng_star)
                try:
                    solution = davenport_solve(obs)
                except UnderdeterminedAttitude as exc:
                    skipped += 1
                    logger.warning("tracker epoch at t=%.3f skipped: %s", t_now, exc)
                else:
                    epoch_t.append(t_now)
                    epoch_q.append(solution.q.copy())
                    if cfg.run_aekf:
                        t0 = time.perf_counter()
                        aekf = aekf_update(aekf, solution.q, r4)
                        win_time_a += time.perf_counter() - t0
                    if cfg.run_mekf:
                        t0 = time.perf_counter()
                        mekf = mekf_update(mekf, solution.q, r3)
                        win_time_m += time.perf_counter() - t0

            if due:
                record(t_now)
    except NumericalFailure as exc:
        aborted = str(exc)
        logger.error("run aborted: %s", exc)
        # keep the partial result well-formed: snapshot the pre-failure state
        if t_now > 0.0 and (not rec_t or t_now > rec_t[-1]):
            record(t_now)
    flush()

    def arr(rows, width=None):
        if width is None:
            return np.array(rows, dtype=float)
        if not rows:
            return np.zeros((0, width))
        return np.array(rows, dtype=float)

    return RunResult(
        config=cfg,
        t=arr(rec_t),
        q_true=arr(rec_qt, 4),
        q_aekf=arr(rec_qa, 4),
        q_mekf=arr(rec_qm, 4),
        err_aekf=arr(rec_ea),
        err_mekf=arr(rec_em),
        pnorm_aekf=arr(rec_pa),
        pnorm_mekf=arr(rec_pm),
        cond_aekf=arr(rec_ca),
        cond_mekf=arr(rec_cm),
        step_time_aekf=arr(rec_ta),
        step_time_mekf=arr(rec_tm),
        epoch_t=arr(epoch_t),
        q_meas=arr(epoch_q, 4),
        skipped_epochs=skipped,
        aborted=aborted,
    )


def compute_metrics(result: RunResult) -> MetricsReport:
    """Aggregate a run into the per-filter comparison table."""
    n = result.t.shape[0]
    if n == 0:
        raise InvalidInput("run result holds no records")

    def one(q_est: np.ndarray, err: np.ndarray, pnorm: np.ndarray, cond: np.ndarray,
            step_time: np.ndarray) -> FilterMetrics:
        qdiff = [
            _sign_aligned_diff(result.q_true[i], q_est[i]) for i in range(n)
        ]
        return FilterMetrics(
            mean_error_angle_rad=float(np.mean(err)),
            max_error_angle_rad=float(np.max(err)),
            mean_quat_error_norm=float(np.mean(qdiff)),
            final_covariance_norm=float(pnorm[-1]),
            mean_condition_number=float(np.mean(cond)),
            mean_step_time_s=float(np.mean(step_time)),
        )

    return MetricsReport(
        aekf=one(result.q_aekf, result.err_aekf, result.pnorm_aekf, result.cond_aekf,
                 result.step_time_aekf),
        mekf=one(result.q_mekf, result.err_mekf, result.pnorm_mekf, result.cond_mekf,
                 result.step_time_mekf),
    )


def _zero_timing(metrics: MetricsReport) -> MetricsReport:
    def strip(m: FilterMetrics) -> FilterMetrics:
        d = asdict(m)
        d["mean_step_time_s"] = 0.0
        return FilterMetrics(**d)

    return MetricsReport(aekf=strip(metrics.aekf), mekf=strip(metrics.mekf))


_CSV_HEADER = (
    "t,"
    "qw_true,qx_true,qy_true,qz_true,"
    "qw_aekf,qx_aekf,qy_aekf,qz_aekf,"
    "qw_mekf,qx_mekf,qy_mekf,qz_mekf,"
    "err_aekf,err_mekf,pnorm_aekf,pnorm_mekf,cond_aekf,cond_mekf"
)


def _csv_quat(q: np.ndarray) -> str:
    # columns print the scalar first for readability; storage is vector-first
    return f"{float(q[3])!r},{float(q[0])!r},{float(q[1])!r},{float(q[2])!r}"


def write_timeseries_csv(result: RunResult, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(_CSV_HEADER + "\n")
        for i in range(result.t.shape[0]):
            row = ",".join(
                [
                    repr(float(result.t[i])),
                    _csv_quat(result.q_true[i]),
                    _csv_quat(result.q_aekf[i]),
                    _csv_quat(result.q_mekf[i]),
                    repr(float(result.err_aekf[i])),
                    repr(float(result.err_mekf[i])),
                    repr(float(result.pnorm_aekf[i])),
                    repr(float(result.pnorm_mekf[i])),
                    repr(float(result.cond_aekf[i])),
                    repr(float(result.cond_mekf[i])),
                ]
            )
            f.write(row + "\n")


def write_metrics_json(metrics: MetricsReport, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        json.dump(metrics.to_dict(), f, indent=2)
        f.write("\n")


def write_outputs(result: RunResult, out_dir, no_timing: bool = False) -> MetricsReport:
    """Emit ``metrics.json`` and ``timeseries.csv`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics = compute_metrics(result)
    if no_timing:
        metrics = _zero_timing(metrics)
    write_metrics_json(metrics, out / "metrics.json")
    write_timeseries_csv(result, out / "timeseries.csv")
    return metrics
