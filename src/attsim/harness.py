"""Scenario generation, the closed simulation loop, metrics, and reports.

The simulated trajectory mimics a low-Earth-orbit pass: a single-axis
angular rate ``omega(t) = -cos(2*pi*t / 5280) * pi/2`` whose period is the
88-minute orbit time, held over each gyro step at its midpoint value.

The run is cut into blocks of gyro steps. A block ends at the next event:
a star-tracker epoch, a record instant, the last step, or at most
``_MAX_BLOCK_STEPS`` steps. Blocks are grouped into chunks of at most
``_CHUNK_BLOCKS`` blocks and at most as many tracker epochs as rotate the
catalog into ``_STAR_ROWS`` body-frame rows (327 for 100 stars, 32 for
1000); a chunk always ends on a block boundary (:func:`_plan_chunks`). The
chunk is the run's one unit of batching. Each chunk gets a scenario pass,
then one estimate pass per filter, then its records:

* the scenario pass, which never reads filter state. It crosses the
  chunk's blocks in windows of at most ``_WINDOW_STEPS`` steps: for each
  window, the true rates of its steps in one call and the noisy gyro
  samples in one noise draw, both laid out as one ``(blocks, longest
  block, 3)`` stack padded with zero rates; the truth at every block end
  from one call of :func:`attsim.attitude.integrate_quat` on the stack;
  and the product of each block's gyro increments, which both filters
  share. Only those two per-block results are kept across windows. Then
  one star-tracker observation pass over all the chunk's epochs, whose
  star noise is one draw and whose stars come back as one packed
  observation set with each epoch's star count, and one Davenport solve of
  that set, its epochs laid out as one padded stack;
* the segment plan (:func:`_segments`), shared by both filters: the
  chunk's update segments, each the blocks after one update up to and
  including the block of the next, and each block's rotation R_j and gyro
  steps N_j since its segment's start. A segment open at the chunk's end
  carries its last R_j and N_j into the next chunk's plan;
* the estimate passes (:func:`_estimate`), the AEKF's and then the
  MEKF's: each builds its filter's transition of every R_j in one call
  (see :mod:`attsim.filters`), then takes one predict per segment, which
  advances the quaternion block by block (q <- M q) and the covariance in
  closed form, the last block's update with the epoch's Davenport
  quaternion, and the snapshots at the segment's record instants. A filter
  whose segment is open at the chunk's end is carried with the attitude
  after its last block and the covariance at the segment start, so each
  block is crossed once and the outputs do not depend on where chunks end;
* the records: both filters' error angles from one call, and each
  filter's covariance norms and condition numbers from one eigensolve of
  the chunk's snapshots. A stacked call gives each member the bits it gets
  alone, so these too do not depend on where chunks end.

So every update and every record sees the filter states it would see
after one exact predict per step, up to rounding, and the noise streams
are the ones a step-by-step loop draws. Everything downstream of the seed
is deterministic except the wall-clock timing: each estimate pass is timed
as a whole, and a filter's step time is the time of its passes plus the
shared increment products and segment plans, which each filter would need
alone, divided by the gyro steps it crossed.

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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import startracker
from .attitude import _hamilton, block_increments, error_angle, integrate_quat, quat_norms
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
from .numerics import RngStream, jacobi_eigen_sym, norms_and_conditions, padded_rows
from .wahba import WahbaSolution, davenport_solve

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
# blocks, so a window's padded (blocks, longest block) stacks hold at most
# three times its steps plus three longest blocks of rates: the default
# configuration has windows of 40 blocks of 100 steps
_MAX_BLOCK_STEPS = 1000

# a chunk of the run holds whole blocks: at most _CHUNK_BLOCKS blocks, so at
# most that many records, and at most as many tracker epochs as rotate the
# catalog into _STAR_ROWS body-frame rows (768 KiB), which one observe call
# and one Davenport solve take. The scenario pass makes the chunk's per-step
# arrays in windows of whole blocks of at most _WINDOW_STEPS steps (a longer
# block alone), so the rates, gyro samples and padded stacks it holds at
# once do not grow with the chunk
_CHUNK_BLOCKS = 4096
_STAR_ROWS = 1 << 15
_WINDOW_STEPS = 4096

# the rotation and gyro steps of an update segment before its first block
_NO_SEGMENT = ((0.0, 0.0, 0.0, 1.0), 0)


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
    sigma_gyro: float = 1e-3
    sigma_star: float = 1e-3
    sigma_meas: float = 1e-3
    seed: int = 1
    axis: tuple = (0.0, 0.0, 1.0)
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
        # each sigma enters the run squared
        for name in ("sigma_gyro", "sigma_star", "sigma_meas"):
            sigma = float(getattr(self, name))
            if sigma < 0.0:
                raise ConfigError(f"{name} must be nonnegative")
            if not math.isfinite(sigma * sigma):
                raise ConfigError(f"{name} is too large: its square overflows")
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
        if not math.isfinite(float(self.aekf_r_scale) * float(self.sigma_meas) ** 2):
            raise ConfigError("aekf_r_scale * sigma_meas**2 overflows")
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
    timestamps. ``step_time_*`` is each filter's mean wall-clock seconds
    per gyro step over the run (see the module docstring). Covariance norms
    and condition numbers are spectral, of the AEKF's 4x4 quaternion
    covariance and of the MEKF's 3x3 attitude-error covariance. A record
    keeps a snapshot of each filter's covariance, and the norms and
    condition numbers come from one stacked eigensolve of a chunk's
    snapshots; they equal bit for bit what one eigensolve per record gives.
    ``epoch_t`` and ``q_meas`` list every tracker epoch solved, after an
    abort one whose update failed included.
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
    step_time_aekf: float
    step_time_mekf: float
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


def _plan_chunks(cfg: SimConfig, n_stars: int):
    """The run's blocks of gyro steps, chunk by chunk, and each chunk's windows.

    A block starts at the step after the one before it (the first at step
    1) and ends at the first event from its start on: a tracker epoch, the
    first step whose end time reaches the epoch's time; a record instant, a
    multiple of the record stride; the last step; or the block's
    ``_MAX_BLOCK_STEPS``-th step. A chunk ends after its ``max(1,
    _STAR_ROWS // n_stars)``-th epoch, so that one
    :func:`attsim.startracker.observe` call rotates a catalog of ``n_stars``
    into at most ``_STAR_ROWS`` rows for its epochs (or into ``n_stars``
    rows for one epoch), or after its ``_CHUNK_BLOCKS``-th block, which
    bounds its records, or at the last step.
    A window of a chunk is a run of its blocks: a block starts a new window
    when the window would otherwise hold more than ``_WINDOW_STEPS`` steps.

    Yields one ``(ends, at_epoch, keep, windows)`` per chunk: each block's
    last step, as an integer array; whether the block ends at a tracker
    epoch and whether it is recorded (it ends at a record instant or the
    last step), as lists of bools; and the index of each window's first
    block, then the chunk's block count. The first step reaching the next
    epoch is the same for every block start up to it, so it is found once
    per epoch.
    """
    dt = 1.0 / cfg.gyro_rate_hz
    n_steps = int(math.floor(cfg.duration_s * cfg.gyro_rate_hz + 1e-9))
    tracker_dt = 1.0 / cfg.tracker_rate_hz
    next_tracker = tracker_dt
    stride = cfg.effective_stride()
    max_epochs = max(1, _STAR_ROWS // n_stars)
    epoch_step = None  # first step reaching next_tracker, until that epoch
    k = 1  # first step of the next block
    while k <= n_steps:
        ends, at_epoch, keep, windows = [], [], [], [0]
        window_start = k
        n_epochs = 0
        while k <= n_steps and n_epochs < max_epochs and len(ends) < _CHUNK_BLOCKS:
            if epoch_step is None:
                epoch_step = _first_step_reaching(next_tracker - 1e-9, dt, k, n_steps)
            due_step = -(-k // stride) * stride
            last = min(epoch_step, due_step, k + _MAX_BLOCK_STEPS - 1, n_steps)
            epoch = last == epoch_step
            if epoch:
                next_tracker += tracker_dt
                n_epochs += 1
                epoch_step = None
            if last - window_start >= _WINDOW_STEPS and k > window_start:
                windows.append(len(ends))
                window_start = k
            ends.append(last)
            at_epoch.append(epoch)
            keep.append(last == due_step or last == n_steps)
            k = last + 1
        windows.append(len(ends))
        yield np.array(ends), at_epoch, keep, windows


def _pad(rates: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A chunk's ``(n, 3)`` rates as a zero-padded ``(blocks, longest block, 3)`` stack.

    ``rows`` is :func:`attsim.numerics.padded_rows` of the block lengths.
    """
    return np.concatenate((rates, np.zeros((1, 3))))[rows]


def _segments(increments, steps, measured, open_segment):
    """The update segments of the first ``len(measured)`` blocks of a chunk, for both filters.

    A segment ends at the block of the next update (``measured[i]`` not
    None), or stays open at the last block. ``open_segment`` is ``(r, n)``
    of the segment open at the chunk start, ``_NO_SEGMENT`` if none: the
    rotation from its start to its last block's end, as four floats, and
    its gyro steps. Returns each segment's ``(lo, hi)`` block range; each
    block's rotation R_j = M_j R_(j-1) from its segment's start, the
    products of :func:`attsim.attitude.quat_path`, as ``(blocks, 4)``; its
    gyro steps N_j from that start, as a list; and the ``(r, n)`` to carry.
    """
    bounds, counts = [], []
    rotations = np.empty((len(measured), 4))
    r, n = open_segment
    lo = 0
    for i, (m, k, q_meas) in enumerate(zip(increments, steps, measured)):
        r = _hamilton(*m, *r)
        n += k
        rotations[i] = r
        counts.append(n)
        if q_meas is not None:
            bounds.append((lo, i + 1))
            lo = i + 1
            r, n = _NO_SEGMENT
    if lo < len(measured):
        bounds.append((lo, len(measured)))
    return bounds, rotations, counts, (r, n)


def _estimate(state, predict, update, r, dt, noise, phi, increments, counts, segments, measured, keep):
    """One filter's estimate pass over the first ``len(measured)`` blocks of a chunk.

    ``segments`` and ``counts`` come from :func:`_segments`, and ``phi``
    holds the filter's transition of each block's R_j. ``state`` is the
    filter at the chunk start; if a segment is open then, its covariance is
    the one at the segment start. Segment ``[lo, hi)`` is crossed by one
    ``predict(state, increments[lo:hi], phi[lo:hi], counts[lo:hi], dt,
    noise)`` (see :func:`attsim.filters.aekf_predict`), which gives the
    filter after each block; the last is then updated with the quaternion
    ``measured[hi - 1]`` (with covariance ``r``) unless it is None. Block
    ``i`` is snapshotted if ``keep[i]``, after its update if it has one.
    Returns the filter to carry into the next chunk, in the form of
    ``state``; the snapshots' quaternions ``(n_keep, 4)`` and covariances
    ``(n_keep, d, d)``; and None. If an update raises NumericalFailure, the
    pass stops at that block and the last item is ``(i, exception)``.
    """
    q_kept = np.empty((sum(keep), 4))
    p_kept = np.empty(q_kept.shape[:1] + state.p.shape)
    j = 0
    for lo, hi in segments:
        quats, covs = predict(state, increments[lo:hi], phi[lo:hi], counts[lo:hi], dt, noise)
        after = type(state)(quats[-1], covs[-1])
        q_meas = measured[hi - 1]
        if q_meas is not None:
            try:
                after = update(after, q_meas, r)
            except NumericalFailure as exc:
                return state, q_kept, p_kept, (hi - 1, exc)
        # the snapshots inside the segment: a slice when every inner block is kept
        inner = keep[lo:hi - 1]
        n_in = sum(inner)
        if n_in:
            rows = slice(n_in) if n_in == len(inner) else [i for i, kept in enumerate(inner) if kept]
            q_kept[j:j + n_in] = quats[rows]
            p_kept[j:j + n_in] = covs[rows]
            j += n_in
        if keep[hi - 1]:
            q_kept[j] = after.q
            p_kept[j] = after.p
            j += 1
        state = after if q_meas is not None else type(state)(after.q, state.p)
    return state, q_kept, p_kept, None


def run_simulation(cfg: SimConfig) -> RunResult:
    """Run the simulation: truth, gyro, tracker epochs, both filters, chunk by chunk.

    Tracker epochs whose Davenport solve is underdetermined are skipped
    and logged. A NumericalFailure of an epoch's Davenport solve or of a
    filter update at block j (a 180-degree MEKF innovation,
    GibbsSingularity, and an AEKF estimate too short to renormalize,
    DegenerateQuaternion, are NumericalFailures) aborts the run there: the
    partial result keeps the records of the blocks before j and ends with
    one record at block j that holds both filters after that block's
    predict, without its update; ``aborted`` carries the reason. After a
    failed update both passes run the chunk again from its start, with no
    update at j; the filters are deterministic, so the second run cannot
    fail earlier.
    """
    cfg.validate()
    # independent derived sub-streams keep the gyro noise sequence identical
    # when only the star noise settings change (and vice versa)
    root = RngStream(cfg.seed)
    rng_catalog = RngStream(root.next_u64())
    rng_gyro = RngStream(root.next_u64())
    rng_star = RngStream(root.next_u64())
    if cfg.catalog_path is not None:
        catalog = startracker.load_catalog(cfg.catalog_path)
    else:
        catalog = startracker.generate_catalog(cfg.n_stars, rng_catalog)
    cams = startracker.default_camera_rig(cfg.n_cameras, cfg.fov_half_angle_rad)

    dt = 1.0 / cfg.gyro_rate_hz
    axis = cfg.axis_unit()

    r_meas = max(cfg.sigma_meas * cfg.sigma_meas, _R_FLOOR)
    r3 = r_meas * np.eye(3)
    r4 = (cfg.aekf_r_scale * r_meas) * np.eye(4)
    noise = NoiseParams(sigma_v=cfg.sigma_gyro * math.sqrt(dt), aekf_q_flat=cfg.aekf_q_flat)

    q_end = np.array([0.0, 0.0, 0.0, 1.0])  # truth at the end of the last block built
    aekf = aekf_init(q_end, _P0_ATTITUDE * np.eye(4))
    mekf = mekf_init(q_end, _P0_ATTITUDE * np.eye(3))
    open_segment = _NO_SEGMENT

    records = []  # per chunk, a tuple of RunResult's record columns in field order
    epoch_t, epoch_q = [], []
    skipped = 0
    aborted = None
    aekf_s = mekf_s = 0.0  # each filter's wall time
    steps_done = 0  # gyro steps both filters crossed: the last step of the chunk before

    for ends, at_epoch, keep, windows in _plan_chunks(cfg, len(catalog)):
        steps = np.diff(ends, prepend=steps_done)

        # scenario pass, window by window: the window's rates and gyro
        # samples at once, padded into one (blocks, longest block, 3) stack
        # each; the truth at each block end and the gyro increment product
        # of each block, which both filters share. Then one observation pass
        # over the chunk's epochs and one stacked Davenport solve, whose
        # outcomes give each epoch block its measured quaternion, or None
        truth, increments = [], []
        shared_s = 0.0
        first = steps_done
        for lo, hi in zip(windows, windows[1:]):
            last = int(ends[hi - 1])
            omega_true = trajectory_omega(np.arange(first, last) * dt + 0.5 * dt, axis)
            gyro = emulate_gyro(omega_true, cfg.sigma_gyro, rng_gyro)
            rows = padded_rows(steps[lo:hi])
            truth.append(integrate_quat(q_end, _pad(omega_true, rows), dt))
            q_end = truth[-1][-1]
            t0 = time.perf_counter()
            increments.append(block_increments(_pad(gyro, rows), dt))
            shared_s += time.perf_counter() - t0
            first = last
        truth = np.concatenate(truth)
        t0 = time.perf_counter()
        increments = np.concatenate(increments)
        m_list = increments.tolist()
        shared_s += time.perf_counter() - t0
        epoch_blocks = np.flatnonzero(at_epoch).tolist()
        outcomes = davenport_solve(
            startracker.observe(truth[epoch_blocks], catalog, cams, cfg.sigma_star, rng_star)
        )
        measured = [None] * len(ends)
        failure = None  # (block, exception)
        for i, outcome in zip(epoch_blocks, outcomes):
            if isinstance(outcome, WahbaSolution):
                measured[i] = outcome.q
            elif failure is None and not isinstance(outcome, UnderdeterminedAttitude):
                failure = (i, outcome)

        # the segment plan, then each filter's estimate pass, timed as a
        # whole with its own transition build and charged the shared
        # increments and plan. A failure at block j ends the chunk there:
        # all run again from its start, without the update at j and with a
        # record there
        steps_list = steps.tolist()
        while True:
            if failure is not None:
                stop = failure[0]
                measured, keep = measured[:stop] + [None], keep[:stop] + [True]
            t0 = time.perf_counter()
            segments, rotations, counts, segment_out = _segments(m_list, steps_list, measured, open_segment)
            t1 = time.perf_counter()
            aekf_out = _estimate(aekf, aekf_predict, aekf_update, r4, dt, noise, aekf_transitions(rotations),
                                 m_list, counts, segments, measured, keep)
            t2 = time.perf_counter()
            mekf_out = _estimate(mekf, mekf_predict, mekf_update, r3, dt, noise, mekf_transitions(rotations),
                                 m_list, counts, segments, measured, keep)
            t3 = time.perf_counter()
            failures = [out[3] for out in (aekf_out, mekf_out) if out[3] is not None]
            if not failures:
                break
            failure = min(failures, key=lambda f: f[0])
        aekf, mekf, open_segment = aekf_out[0], mekf_out[0], segment_out
        shared_s += t1 - t0
        aekf_s += t2 - t1 + shared_s
        mekf_s += t3 - t2 + shared_s
        n_done = len(measured)
        steps_done = int(ends[n_done - 1])

        # the chunk's records: both error columns, truth against the AEKF
        # then against the MEKF, from one call, and each filter's covariance
        # norms and condition numbers from one eigensolve of its snapshots
        ends_t = ends * dt
        kept = np.flatnonzero(keep)
        (q_aekf, p_aekf), (q_mekf, p_mekf) = aekf_out[1:3], mekf_out[1:3]
        q_true = truth[kept]
        err = error_angle(np.concatenate((q_true, q_true)), np.concatenate((q_aekf, q_mekf)))
        pnorm_aekf, cond_aekf = norms_and_conditions(jacobi_eigen_sym(p_aekf, vectors=False))
        pnorm_mekf, cond_mekf = norms_and_conditions(jacobi_eigen_sym(p_mekf, vectors=False))
        records.append((ends_t[kept], q_true, q_aekf, q_mekf, err[:len(kept)], err[len(kept):],
                        pnorm_aekf, pnorm_mekf, cond_aekf, cond_mekf))
        for i, outcome in zip(epoch_blocks, outcomes):
            if i >= n_done:
                break
            if isinstance(outcome, UnderdeterminedAttitude):
                skipped += 1
                logger.warning("tracker epoch at t=%.3f skipped: %s", ends_t[i], outcome)
            elif isinstance(outcome, WahbaSolution):
                epoch_t.append(ends_t[i])
                epoch_q.append(outcome.q.copy())
        if failure is not None:
            if not isinstance(failure[1], NumericalFailure):
                raise failure[1]
            aborted = str(failure[1])
            logger.error("run aborted: %s", failure[1])
            break
    return RunResult(
        cfg,
        *(np.concatenate(column) for column in zip(*records)),
        step_time_aekf=aekf_s / steps_done,
        step_time_mekf=mekf_s / steps_done,
        epoch_t=np.array(epoch_t, dtype=float),
        q_meas=np.array(epoch_q, dtype=float).reshape(-1, 4),
        skipped_epochs=skipped,
        aborted=aborted,
    )


def compute_metrics(result: RunResult) -> MetricsReport:
    """Aggregate a run into the per-filter comparison table."""
    n = result.t.shape[0]
    if n == 0:
        raise InvalidInput("run result holds no records")

    def one(q_est: np.ndarray, err: np.ndarray, pnorm: np.ndarray, cond: np.ndarray,
            step_time: float) -> FilterMetrics:
        # sign-aligned difference: min(|q_true - q|, |q_true + q|) per record
        qdiff = np.minimum(quat_norms(result.q_true - q_est), quat_norms(result.q_true + q_est))
        return FilterMetrics(
            mean_error_angle_rad=float(np.mean(err)),
            max_error_angle_rad=float(np.max(err)),
            mean_quat_error_norm=float(np.mean(qdiff)),
            final_covariance_norm=float(pnorm[-1]),
            mean_condition_number=float(np.mean(cond)),
            mean_step_time_s=float(step_time),
        )

    return MetricsReport(
        aekf=one(result.q_aekf, result.err_aekf, result.pnorm_aekf, result.cond_aekf,
                 result.step_time_aekf),
        mekf=one(result.q_mekf, result.err_mekf, result.pnorm_mekf, result.cond_mekf,
                 result.step_time_mekf),
    )


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
        metrics = MetricsReport(
            aekf=replace(metrics.aekf, mean_step_time_s=0.0),
            mekf=replace(metrics.mekf, mean_step_time_s=0.0),
        )
    write_metrics_json(metrics, out / "metrics.json")
    write_timeseries_csv(result, out / "timeseries.csv")
    return metrics
