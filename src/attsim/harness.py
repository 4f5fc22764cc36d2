"""Scenario generation, the closed simulation loop, metrics, and reports.

The simulated trajectory mimics a low-Earth-orbit pass: a single-axis
angular rate ``omega(t) = -cos(2*pi*t / 5280) * pi/2`` whose period is the
88-minute orbit time, held over each gyro step at its midpoint value.

The run is cut into blocks of gyro steps. A block ends at the next event:
a star-tracker epoch, a record instant, the last step, or at most
``_MAX_BLOCK_STEPS`` steps. Blocks are grouped into chunks of at most
``_EPOCH_CHUNK`` tracker epochs and about ``_CHUNK_STEPS`` steps; a chunk
always ends on a block boundary (:func:`_plan_chunks`). Each chunk gets a
scenario pass, then one estimate pass per filter:

* the scenario pass, which never reads filter state: the true rates of
  all the chunk's steps in one call, the noisy gyro samples in one noise
  draw, both laid out as one ``(blocks, longest block, 3)`` stack padded
  with zero rates; the truth at every block end from one call of
  :func:`attsim.attitude.integrate_quat` on the stack; one star-tracker
  observation pass over all the chunk's epochs, whose star noise is one
  draw, and one Davenport solve of their sets as one padded stack; and
  the product of each block's gyro increments, which both filters share;
* the estimate passes (:func:`_estimate`), the AEKF's and then the
  MEKF's: each builds its filter's composed (Phi, Q) pair per block, from
  one batched tree over the chunk (see :mod:`attsim.filters`), then
  crosses the blocks one update segment at a time, the blocks after one
  update up to and including the block of the next (or at most
  ``_MAX_SEGMENT_BLOCKS`` blocks). One predict per segment advances the
  quaternion block by block (q <- M q) and applies every prefix of the
  segment's pairs to the covariance at its start in one batched step;
  the last block takes the epoch's Davenport quaternion, and the filter
  is snapshotted at the segment's record instants. A segment of one
  block gets bit for bit what one predict per block gets. A segment
  still open at the chunk's end is carried into the next chunk, with its
  start state and its blocks' increments and pairs, and crossed again
  from its start there, so the outputs do not depend on where chunks
  end. The AEKF's kinematic process noise (``aekf_q_flat = false``)
  depends on the filter's attitude, so that option builds its (Phi, Q)
  per segment, from the attitudes the segment's predict has just
  propagated.

So every update and every record sees the filter states it would see
after one predict per step, up to rounding, and the noise streams are the
ones a step-by-step loop draws. Everything downstream of the seed is
deterministic except the wall-clock timing: each estimate pass is timed
as a whole, and a filter's step time is the time of its passes plus the
shared increment products, which each filter would need alone, divided by
the gyro steps it crossed.

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

# longest update segment, in blocks: a segment with no update for this many
# blocks ends there, without one. A segment still open at a chunk end is
# carried into the next chunk and crossed again from its start, so this
# bounds what a chunk carries over and crosses twice
_MAX_SEGMENT_BLOCKS = 512

# records whose covariance snapshots one stacked eigensolve takes; keeps the
# pending buffers and the solver's temporaries at a fixed size however many
# records a run writes. The buffers are allocated empty, so capacity a run
# does not fill is never touched and costs no resident memory
_RECORD_CHUNK = 2048


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
    timestamps. ``step_time_*`` is each filter's mean wall-clock seconds
    per gyro step over the run (see the module docstring). Covariance norms
    and condition numbers are spectral, of the AEKF's 4x4 quaternion
    covariance and of the MEKF's 3x3 attitude-error covariance. A record
    keeps a snapshot of each filter's covariance, and the norms and
    condition numbers come from one stacked eigensolve per chunk of up to
    ``_RECORD_CHUNK`` snapshots; they equal bit for bit what one eigensolve
    per record gives. ``epoch_t`` and ``q_meas`` list every tracker epoch
    solved, after an abort one whose update failed included.
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


def _plan_chunks(cfg: SimConfig):
    """The run's blocks of gyro steps, chunk by chunk.

    A block starts at the step after the one before it (the first at step
    1) and ends at the first event from its start on: a tracker epoch, the
    first step whose end time reaches the epoch's time; a record instant, a
    multiple of the record stride; the last step; or the block's
    ``_MAX_BLOCK_STEPS``-th step. A chunk ends after
    ``_EPOCH_CHUNK`` epochs, or after the block that reaches its
    ``_CHUNK_STEPS``-th step, or at the last step.

    Yields one ``(ends, at_epoch, keep)`` per chunk: each block's last step,
    as an integer array, and whether the block ends at a tracker epoch and
    whether it is recorded (it ends at a record instant or the last step),
    as lists of bools. The first step reaching the next epoch is the same
    for every block start up to it, so it is found once per epoch.
    """
    dt = 1.0 / cfg.gyro_rate_hz
    n_steps = int(math.floor(cfg.duration_s * cfg.gyro_rate_hz + 1e-9))
    tracker_dt = 1.0 / cfg.tracker_rate_hz
    next_tracker = tracker_dt
    stride = cfg.effective_stride()
    epoch_step = None  # first step reaching next_tracker, until that epoch
    k = 1  # first step of the next block
    while k <= n_steps:
        chunk_start = k
        ends, at_epoch, keep = [], [], []
        n_epochs = 0
        while k <= n_steps and n_epochs < _EPOCH_CHUNK and k - chunk_start < _CHUNK_STEPS:
            if epoch_step is None:
                epoch_step = _first_step_reaching(next_tracker - 1e-9, dt, k, n_steps)
            due_step = -(-k // stride) * stride
            last = min(epoch_step, due_step, k + _MAX_BLOCK_STEPS - 1, n_steps)
            epoch = last == epoch_step
            if epoch:
                next_tracker += tracker_dt
                n_epochs += 1
                epoch_step = None
            ends.append(last)
            at_epoch.append(epoch)
            keep.append(last == due_step or last == n_steps)
            k = last + 1
        yield np.array(ends), at_epoch, keep


def _pad(rates: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A chunk's ``(n, 3)`` rates as a zero-padded ``(blocks, longest block, 3)`` stack.

    ``rows`` is :func:`attsim.numerics.padded_rows` of the block lengths.
    """
    return np.concatenate((rates, np.zeros((1, 3))))[rows]


def _prebuilt(phi: np.ndarray, q: np.ndarray):
    """The ``transition`` of :func:`_estimate` for block pairs built ahead, ``(B, n, n)`` stacks."""
    return lambda lo, hi, q0, path: (phi[lo:hi], q[lo:hi])


def _carry(state):
    """The carry of :func:`_estimate` for a filter with no update segment open."""
    return state, [], None


def _estimate(carry, predict, update, r, transition, increments, measured, keep):
    """One filter's estimate pass over the first ``len(measured)`` blocks of a chunk.

    The blocks are crossed one update segment at a time. A segment runs
    from one update to the next: it ends at the block of the next update,
    at the ``_MAX_SEGMENT_BLOCKS``-th block since the last update, or
    otherwise at the chunk's last block, where it stays open. ``carry`` is
    ``(start, m, pairs)``: the filter at the start of the segment open when
    the chunk starts, the increments of its blocks in earlier chunks, and
    their (Phi, Q) pairs as two ``(c, n, n)`` stacks, or None if there are
    none (:func:`_carry`). Segment ``[lo, hi)`` is crossed from its start by
    one ``predict(start, m + increments[lo:hi], pairs)``, where
    ``pairs(q0, path)`` gives the carried pairs followed by
    ``transition(lo, hi, q0, path)`` (see
    :func:`attsim.filters.aekf_predict`). So a segment that spans chunk ends
    is crossed again from its start in each chunk, and each block gets the
    bits it gets when one chunk holds the whole segment. The predict gives
    the filter after each block; the last is then updated with the
    quaternion ``measured[hi - 1]`` (with covariance ``r``) unless it is
    None. Block ``i`` is snapshotted if ``keep[i]``, after its update if it
    has one. Returns the carry into the next chunk, the snapshots'
    quaternions ``(n_keep, 4)`` and covariances ``(n_keep, n, n)``, and
    None; if an update raises NumericalFailure, the pass stops at that
    block and the last item is ``(i, exception)``.
    """
    start, m_open, pairs_open = carry
    q_kept = np.empty((sum(keep), 4))
    p_kept = np.empty(q_kept.shape[:1] + start.p.shape)
    j = 0
    n = len(measured)
    lo = 0
    while lo < n:
        c = len(m_open)  # blocks of the segment that earlier chunks hold
        hi = lo + 1
        while hi < n and measured[hi - 1] is None and c + hi - lo < _MAX_SEGMENT_BLOCKS:
            hi += 1

        def pairs(q0, path):
            nonlocal pairs_open
            phi, q = transition(lo, hi, q0, path)
            if pairs_open is not None:
                phi, q = np.concatenate((pairs_open[0], phi)), np.concatenate((pairs_open[1], q))
            pairs_open = phi, q
            return phi, q

        m_open = m_open + increments[lo:hi]
        quats, covs = predict(start, m_open, pairs)
        state = type(start)(quats[-1], covs[-1])
        q_meas = measured[hi - 1]
        if q_meas is not None:
            try:
                state = update(state, q_meas, r)
            except NumericalFailure as exc:
                return _carry(state), q_kept, p_kept, (hi - 1, exc)
        # the snapshots inside the segment, rows c.. of its predict: a slice
        # when every inner block is kept
        inner = keep[lo:hi - 1]
        n_in = sum(inner)
        if n_in:
            rows = slice(c, c + n_in) if n_in == len(inner) else [c + i for i, kept in enumerate(inner) if kept]
            q_kept[j:j + n_in] = quats[rows]
            p_kept[j:j + n_in] = covs[rows]
            j += n_in
        if keep[hi - 1]:
            q_kept[j] = state.q
            p_kept[j] = state.p
            j += 1
        if q_meas is not None or len(m_open) == _MAX_SEGMENT_BLOCKS:
            start, m_open, pairs_open = _carry(state)
        lo = hi
    return (start, m_open, pairs_open), q_kept, p_kept, None


def run_simulation(cfg: SimConfig) -> RunResult:
    """Run the simulation: truth, gyro, tracker epochs, both filters, chunk by chunk.

    Tracker epochs whose Davenport solve is underdetermined are skipped
    and logged. A NumericalFailure of an epoch's Davenport solve or of a
    filter update at block j aborts the run there: the partial result keeps
    the records of the blocks before j and ends with one record at block j
    that holds both filters after that block's predict, without its update;
    ``aborted`` carries the reason. After a failed update both passes run
    the chunk again from its start, with no update at j; the filters are
    deterministic, so the second run cannot fail earlier.
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
    cams = startracker.default_camera_rig(cfg.n_cameras, cfg.fov_half_angle_rad)

    dt = 1.0 / cfg.gyro_rate_hz
    axis = cfg.axis_unit()

    r_meas = max(cfg.sigma_meas * cfg.sigma_meas, _R_FLOOR)
    r3 = r_meas * np.eye(3)
    r4 = (cfg.aekf_r_scale * r_meas) * np.eye(4)
    noise = NoiseParams(sigma_v=cfg.sigma_gyro * math.sqrt(dt), aekf_q_flat=cfg.aekf_q_flat)

    q_end = np.array([0.0, 0.0, 0.0, 1.0])  # truth at the end of the last block built
    aekf = _carry(aekf_init(q_end, _P0_ATTITUDE * np.eye(4)))
    mekf = _carry(mekf_init(q_end, _P0_ATTITUDE * np.eye(3)))

    rec_t, rec_q, rec_ea, rec_em = [], [], [], []
    rec_pa, rec_pm, rec_ca, rec_cm = [], [], [], []
    epoch_t, epoch_q = [], []
    skipped = 0
    aborted = None
    aekf_s = mekf_s = 0.0  # each filter's wall time
    steps_done = 0  # gyro steps both filters crossed: the last step of the chunk before

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
        rec_ea.append(err[:n_pending])
        rec_em.append(err[n_pending:])
        for pending, norms, conds in ((pending_a, rec_pa, rec_ca), (pending_m, rec_pm, rec_cm)):
            evals = jacobi_eigen_sym(pending[:n_pending], vectors=False)
            pnorm, cond = norms_and_conditions(evals)
            norms.append(pnorm)
            conds.append(cond)
        n_pending = 0

    def keep_records(times, q_true, aekf_kept, mekf_kept) -> None:
        """Queue a chunk's records, solving the snapshots each time the buffers fill."""
        nonlocal n_pending
        rec_t.append(times)
        done = 0
        while done < len(times):
            take = min(len(times) - done, _RECORD_CHUNK - n_pending)
            src, dst = slice(done, done + take), slice(n_pending, n_pending + take)
            pending_q[:, dst] = q_true[src], aekf_kept[0][src], mekf_kept[0][src]
            pending_a[dst] = aekf_kept[1][src]
            pending_m[dst] = mekf_kept[1][src]
            n_pending += take
            done += take
            if n_pending == _RECORD_CHUNK:
                flush()

    def aekf_transition(rates, steps):
        """The AEKF's ``transition(lo, hi, q0, path)`` over a chunk's stack of block rates."""
        if noise.aekf_q_flat:
            return _prebuilt(*aekf_transitions(rates, steps, dt, noise))

        def kinematic(lo, hi, q0, path):  # Q is taken at the AEKF's own attitude at each block start
            starts = np.concatenate((q0[None], path[:-1]))[lo - hi:]
            return aekf_transitions(rates[lo:hi, :steps[lo:hi].max()], steps[lo:hi], dt, noise, starts)

        return kinematic

    for ends, at_epoch, keep in _plan_chunks(cfg):
        steps = np.diff(ends, prepend=steps_done)

        # scenario pass: the chunk's rates and gyro samples at once, padded
        # into one (blocks, longest block, 3) stack each; the truth at each
        # block end; one observation pass over the chunk's epochs and one
        # stacked Davenport solve, whose outcomes give each epoch block its
        # measured quaternion, or None
        omega_true = trajectory_omega(np.arange(steps_done, ends[-1]) * dt + 0.5 * dt, axis)
        gyro = emulate_gyro(omega_true, cfg.sigma_gyro, rng_gyro)
        rows = padded_rows(steps)
        truth = integrate_quat(q_end, _pad(omega_true, rows), dt)
        q_end = truth[-1]
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

        # estimate passes: the gyro increment products of the blocks, which
        # both filters share, then each filter across the blocks in turn,
        # timed as a whole with its own transition build. A failure at
        # block j ends the chunk there: both passes run again from the
        # chunk's start, without the update at j and with a record there
        t0 = time.perf_counter()
        rates = _pad(gyro, rows)
        increments = block_increments(rates, dt).tolist()
        shared_s = time.perf_counter() - t0
        while True:
            if failure is not None:
                stop = failure[0]
                measured, keep = measured[:stop] + [None], keep[:stop] + [True]
            # each pass's (Phi, Q) stacks are dropped when it returns
            t0 = time.perf_counter()
            aekf_out = _estimate(aekf, aekf_predict, aekf_update, r4, aekf_transition(rates, steps),
                                 increments, measured, keep)
            t1 = time.perf_counter()
            mekf_out = _estimate(mekf, mekf_predict, mekf_update, r3,
                                 _prebuilt(*mekf_transitions(rates, steps, dt, noise)),
                                 increments, measured, keep)
            t2 = time.perf_counter()
            failures = [out[3] for out in (aekf_out, mekf_out) if out[3] is not None]
            if not failures:
                break
            failure = min(failures, key=lambda f: f[0])
        aekf, mekf = aekf_out[0], mekf_out[0]
        aekf_s += t1 - t0 + shared_s
        mekf_s += t2 - t1 + shared_s
        n_done = len(measured)
        steps_done = int(ends[n_done - 1])

        ends_t = ends * dt
        kept = np.flatnonzero(keep)
        keep_records(ends_t[kept], truth[kept], aekf_out[1:3], mekf_out[1:3])
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
    flush()
    quats = np.concatenate(rec_q, axis=1)

    return RunResult(
        config=cfg,
        t=np.concatenate(rec_t),
        q_true=quats[0],
        q_aekf=quats[1],
        q_mekf=quats[2],
        err_aekf=np.concatenate(rec_ea),
        err_mekf=np.concatenate(rec_em),
        pnorm_aekf=np.concatenate(rec_pa),
        pnorm_mekf=np.concatenate(rec_pm),
        cond_aekf=np.concatenate(rec_ca),
        cond_mekf=np.concatenate(rec_cm),
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
