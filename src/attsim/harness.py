"""Scenario generation, the closed simulation loop, metrics, and reports.

The simulated trajectory mimics a low-Earth-orbit pass: a single-axis
angular rate ``omega(t) = -cos(2*pi*t / 5280) * pi/2`` whose period is the
88-minute orbit time, held over each gyro step at its midpoint value.

The run is cut into blocks of gyro steps. A block ends at the next event:
a star-tracker epoch, a record instant, the last step, or at most
``_MAX_BLOCK_STEPS`` steps. Blocks are grouped into chunks of at most
``_EPOCH_CHUNK`` tracker epochs and about ``_CHUNK_STEPS`` steps; a chunk
always ends on a block boundary. Each chunk gets two passes:

* the scenario pass, which never reads filter state: the true rates of
  all the chunk's steps in one call, the noisy gyro samples in one noise
  draw, both laid out as one ``(blocks, longest block, 3)`` stack padded
  with zero rates; the truth at every block end from one call of
  :func:`attsim.attitude.integrate_quat` on the stack; one star-tracker
  observation pass over all the chunk's epochs, whose star noise is one
  draw, and one Davenport solve of their sets as one padded stack; and the
  block transitions of the filters that run: the product of each block's
  gyro increments (:func:`attsim.attitude.block_increments`), which both
  filters share, and each filter's composed (Phi, Q) pair per block, from
  one batched tree over the chunk (see :mod:`attsim.filters`);
* the estimate pass: per block, each filter applies its block transition
  (q <- M q, P <- Phi P Phi^T + Q), takes each epoch's Davenport quaternion
  as their shared measurement in time order, and is recorded at the record
  instants. The AEKF's kinematic process noise (``aekf_q_flat = false``)
  depends on the filter's attitude, so that option alone builds the AEKF's
  (Phi, Q) here, block by block.

So every update and every record sees the filter states it would see
after one predict per step, up to rounding, and the noise streams are the
ones a step-by-step loop draws. Everything downstream of the seed is
deterministic except the wall-clock timing fields. A filter's timing is
the wall time it costs divided by the gyro steps it covers: its block
predicts and updates, its share of the chunk's transition build, and the
shared increment products, which each filter would need alone; the
chunk's build times are spread over its steps.

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
from .attitude import block_increments, error_angle, integrate_quat, quat_norms
from .errors import ConfigError, InvalidInput, NumericalFailure, UnderdeterminedAttitude
from .filters import (
    NoiseParams,
    aekf_init,
    aekf_predict,
    aekf_transitions,
    aekf_update,
    mekf_init,
    mekf_predict,
    mekf_transitions,
    mekf_update,
)
from .numerics import RngStream, jacobi_eigen_sym, padded_rows
from .wahba import davenport_solve

logger = logging.getLogger(__name__)

ORBIT_PERIOD_S = 88.0 * 60.0

# covariance floor used when sigma_meas is zero, so noiseless runs keep an
# invertible innovation
_R_FLOOR = 1e-12

_P0_ATTITUDE = 1e-6

# longest run config intake accepts: about 19 default orbits at 100 Hz
_MAX_GYRO_STEPS = 10_000_000

# longest block of gyro steps handed to one predict when no event ends it
# sooner. A block is at most as long as the spacing of the events that end
# blocks, so a chunk's padded (blocks, longest block) stacks hold at most
# three times its steps plus three longest blocks: the default configuration
# has 32 blocks of 100 steps, 0.4 MB of 4x4 pairs
_MAX_BLOCK_STEPS = 1000

# a chunk of the run holds whole blocks: at most _EPOCH_CHUNK tracker epochs,
# whose Davenport matrices one stacked eigensolve takes, and fewer than
# _CHUNK_STEPS gyro steps plus one block; the chunk's rates, gyro samples
# and observation sets are all the scenario pass keeps
_EPOCH_CHUNK = 32
_CHUNK_STEPS = 4096

# records whose covariance snapshots one stacked eigensolve takes; keeps the
# pending buffers and the solver's temporaries at a fixed small size however
# many records a run writes
_RECORD_CHUNK = 512


def _is_finite_number(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, (bool, np.bool_)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


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
        if self.duration_s * self.gyro_rate_hz > _MAX_GYRO_STEPS:
            raise ConfigError(
                f"duration_s * gyro_rate_hz must not exceed {_MAX_GYRO_STEPS} gyro steps"
            )
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
        for name in ("sigma_gyro", "sigma_star", "sigma_meas"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        x, y, z = (float(v) for v in self.axis)
        squared_norm = x * x + y * y + z * z
        if not math.isfinite(squared_norm):
            raise ConfigError("axis is too long: its squared norm overflows")
        if squared_norm < 1e-12:
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
        x, y, z = (float(v) for v in self.axis)
        norm = math.sqrt(x * x + y * y + z * z)
        return np.array([x / norm, y / norm, z / norm])

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
    condition numbers are spectral, of the AEKF's 4x4 quaternion covariance
    and of the MEKF's 3x3 attitude-error covariance. A record keeps a
    snapshot of each filter's covariance, and the norms and condition
    numbers come from one stacked eigensolve per chunk of up to
    ``_RECORD_CHUNK`` snapshots; they equal bit for bit what one eigensolve
    per record gives.
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


def trajectory_omega(t, axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Orbit-like angular rate at time ``t`` [s], along ``axis``.

    ``t`` is one time (returns a ``(3,)`` rate) or an array of ``n`` times
    (returns ``(n, 3)``, one rate per row). The cosine is taken with
    ``math.cos`` element by element, so a rate does not depend on how many
    times are passed together.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0.0):
        raise InvalidInput("time must be nonnegative")
    phase = (times.reshape(-1) / ORBIT_PERIOD_S * 2.0 * math.pi).tolist()
    mag = -np.fromiter(map(math.cos, phase), float, len(phase)) * (0.5 * math.pi)
    rates = mag[:, None] * np.asarray(axis, dtype=float)
    return rates[0] if times.ndim == 0 else rates


def emulate_gyro(omega_true, sigma_gyro: float, rng: RngStream) -> np.ndarray:
    """True rate plus per-axis white Gaussian noise.

    ``omega_true`` is one rate ``(3,)`` or a block of rates ``(n, 3)``; the
    noise of the block is one draw of ``3 n`` values, row by row, the same
    stream n one-rate calls would draw.
    """
    if sigma_gyro < 0.0:
        raise InvalidInput("sigma_gyro must be nonnegative")
    omega_true = np.asarray(omega_true, dtype=float)
    if sigma_gyro == 0.0:
        return omega_true.copy()
    return omega_true + rng.gaussian_vec(sigma_gyro, omega_true.size).reshape(omega_true.shape)


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


def _first_step_reaching(t: float, dt: float, k: int, n: int) -> int:
    """First step ``j`` of ``k..n`` whose end time ``j * dt`` reaches ``t``; ``n + 1`` if none.

    ``j * dt`` is compared as a step-by-step loop compares it; the quotient
    ``t / dt`` only gives the first guess.
    """
    guess = t / dt
    j = k if guess <= k else (n + 1 if guess > n else math.ceil(guess))
    while j > k and (j - 1) * dt >= t:
        j -= 1
    while j <= n and j * dt < t:
        j += 1
    return j


def _pad(rates: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A chunk's ``(n, 3)`` rates as a zero-padded ``(blocks, longest block, 3)`` stack.

    ``rows`` is :func:`attsim.numerics.padded_rows` of the block lengths.
    """
    return np.concatenate((rates, np.zeros((1, 3))))[rows]


def run_simulation(cfg: SimConfig) -> RunResult:
    """Run the simulation: truth, gyro, tracker epochs, both filters, chunk by chunk.

    Tracker epochs whose Davenport solve is underdetermined are skipped
    and logged, at their turn in time. A NumericalFailure of a filter or of
    an epoch's Davenport solve aborts the run at its turn; the partial
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
    noise = NoiseParams(sigma_v=cfg.sigma_gyro * math.sqrt(dt), aekf_q_flat=cfg.aekf_q_flat)

    q_true = np.array([0.0, 0.0, 0.0, 1.0])
    aekf = aekf_init(q_true, _P0_ATTITUDE * np.eye(4))
    mekf = mekf_init(q_true, _P0_ATTITUDE * np.eye(3))

    rec_t, rec_q, rec_ea, rec_em = [], [], [], []
    rec_pa, rec_pm, rec_ca, rec_cm = [], [], [], []
    rec_ta, rec_tm = [], []
    epoch_t, epoch_q = [], []
    skipped = 0
    aborted = None

    win_time_a = 0.0
    win_time_m = 0.0
    win_steps = 0

    # attitude and covariance snapshots of the records not yet solved: the
    # truth, the AEKF and the MEKF quaternions, then each filter's covariance
    pending_q = np.empty((3, _RECORD_CHUNK, 4))
    pending_a = np.empty((_RECORD_CHUNK, 4, 4))
    pending_m = np.empty((_RECORD_CHUNK, 3, 3))
    n_pending = 0

    def flush() -> None:
        nonlocal n_pending
        q = pending_q[:, :n_pending].copy()
        rec_q.append(q)
        # both error columns, truth against AEKF then truth against MEKF
        err = error_angle(np.concatenate((q[0], q[0])), np.concatenate((q[1], q[2])))
        rec_ea.extend(err[:n_pending].tolist())
        rec_em.extend(err[n_pending:].tolist())
        for pending, norms, conds in ((pending_a, rec_pa, rec_ca), (pending_m, rec_pm, rec_cm)):
            pnorm, cond = _pnorm_and_cond(pending[:n_pending])
            norms.extend(pnorm.tolist())
            conds.extend(cond.tolist())
        n_pending = 0

    def record(t_now: float) -> None:
        nonlocal win_time_a, win_time_m, win_steps, n_pending
        rec_t.append(t_now)
        pending_q[:, n_pending] = q_true, aekf.q, mekf.q_ref
        pending_a[n_pending] = aekf.p
        pending_m[n_pending] = mekf.p
        n_pending += 1
        if n_pending == _RECORD_CHUNK:
            flush()
        steps = max(1, win_steps)
        rec_ta.append(win_time_a / steps)
        rec_tm.append(win_time_m / steps)
        win_time_a = 0.0
        win_time_m = 0.0
        win_steps = 0

    cap = min(stride, _MAX_BLOCK_STEPS)
    q_end = q_true  # truth at the end of the last block the scenario pass built
    t_now = 0.0
    k = 1  # first gyro step no chunk holds yet
    try:
        while k <= n_steps:
            # plan a chunk of whole blocks, each ended by the first event after
            # its start and kept as its rows [lo, hi) of the chunk's arrays
            chunk_start = k
            blocks = []
            n_epochs = 0
            while k <= n_steps and n_epochs < _EPOCH_CHUNK and k - chunk_start < _CHUNK_STEPS:
                epoch_step = _first_step_reaching(next_tracker - 1e-9, dt, k, n_steps)
                due_step = -(-k // stride) * stride
                last = min(epoch_step, due_step, k + cap - 1, n_steps)
                epoch = last == epoch_step
                if epoch:
                    next_tracker += tracker_dt
                    n_epochs += 1
                due = last == due_step or last == n_steps
                blocks.append((k - chunk_start, last - chunk_start + 1, epoch, due))
                k = last + 1

            # scenario pass: the chunk's rates and gyro samples at once, padded
            # into one (blocks, longest block, 3) stack each; the truth at each
            # block end; one observation pass over the chunk's epochs and one
            # stacked Davenport solve; then the block transitions of the
            # running filters
            omega_true = trajectory_omega(np.arange(chunk_start - 1, k - 1) * dt + 0.5 * dt, axis)
            gyro = emulate_gyro(omega_true, cfg.sigma_gyro, rng_gyro)
            steps = np.array([hi - lo for lo, hi, _, _ in blocks])
            rows = padded_rows(steps)
            truth = integrate_quat(q_end, _pad(omega_true, rows), dt)
            q_end = truth[-1]
            solutions = iter(())
            if n_epochs:
                at_epoch = [epoch for _, _, epoch, _ in blocks]
                observations = startracker.observe(
                    truth[at_epoch], catalog, cams, cfg.sigma_star, rng_star
                )
                solutions = iter(davenport_solve(observations))

            # each filter is charged its own transition build and the shared
            # increment products, spread over the chunk's steps
            t0 = time.perf_counter()
            rates = _pad(gyro, rows)
            if cfg.run_aekf or cfg.run_mekf:
                increments = block_increments(rates, dt).tolist()
            t1 = time.perf_counter()
            if cfg.run_aekf and noise.aekf_q_flat:
                phi_a, q_a = aekf_transitions(rates, steps, dt, noise)
            t2 = time.perf_counter()
            if cfg.run_mekf:
                phi_m, q_m = mekf_transitions(rates, steps, dt, noise)
            t3 = time.perf_counter()
            chunk_steps = k - chunk_start
            cost_a = (t2 - t0) / chunk_steps
            cost_m = (t3 - t2 + t1 - t0) / chunk_steps

            # estimate pass: both filters cross the blocks in time order
            for i, ((lo, hi, epoch, due), q_true) in enumerate(zip(blocks, truth)):
                t_now = (chunk_start + hi - 1) * dt
                win_steps += hi - lo
                if cfg.run_aekf:
                    t0 = time.perf_counter()
                    if noise.aekf_q_flat:
                        phi, q_noise = phi_a[i], q_a[i]
                    else:  # the kinematic Q is taken at the AEKF's own attitude
                        (phi,), (q_noise,) = aekf_transitions(
                            rates[i:i + 1, :hi - lo], steps[i:i + 1], dt, noise, aekf.q[None]
                        )
                    aekf = aekf_predict(aekf, increments[i], phi, q_noise)
                    win_time_a += time.perf_counter() - t0 + cost_a * (hi - lo)
                if cfg.run_mekf:
                    t0 = time.perf_counter()
                    mekf = mekf_predict(mekf, increments[i], phi_m[i], q_m[i])
                    win_time_m += time.perf_counter() - t0 + cost_m * (hi - lo)

                if epoch:
                    solution = next(solutions)
                    if isinstance(solution, UnderdeterminedAttitude):
                        skipped += 1
                        logger.warning("tracker epoch at t=%.3f skipped: %s", t_now, solution)
                    elif isinstance(solution, Exception):
                        raise solution
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
    quats = np.concatenate(rec_q, axis=1)

    def arr(rows, width=None):
        if width is None:
            return np.array(rows, dtype=float)
        if not rows:
            return np.zeros((0, width))
        return np.array(rows, dtype=float)

    return RunResult(
        config=cfg,
        t=arr(rec_t),
        q_true=quats[0],
        q_aekf=quats[1],
        q_mekf=quats[2],
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
        # sign-aligned difference: min(|q_true - q|, |q_true + q|) per record
        qdiff = np.minimum(quat_norms(result.q_true - q_est), quat_norms(result.q_true + q_est))
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


# columns print the scalar first for readability; storage is vector-first
_CSV_QUAT = [3, 0, 1, 2]


def write_timeseries_csv(result: RunResult, path) -> None:
    table = np.column_stack(
        (
            result.t,
            result.q_true[:, _CSV_QUAT],
            result.q_aekf[:, _CSV_QUAT],
            result.q_mekf[:, _CSV_QUAT],
            result.err_aekf,
            result.err_mekf,
            result.pnorm_aekf,
            result.pnorm_mekf,
            result.cond_aekf,
            result.cond_mekf,
        )
    )
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(_CSV_HEADER + "\n")
        f.writelines(",".join(map(repr, row)) + "\n" for row in table.tolist())


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
