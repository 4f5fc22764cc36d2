"""Checks of one ``attsim run`` output directory that do not use ``attsim``.

Every expected value is derived here from the config and from the closed
forms of the simulated scenario:

* the truth is a rotation about ``axis`` by
  theta(t) = -(T/4) sin(2 pi t / T), T = 5280 s, the integral of the
  documented rate omega(t) = -(pi/2) cos(2 pi t / T). The program samples
  the rate at each step's midpoint, so the truth columns may drift from the
  closed form by at most the midpoint rule's max|omega''| dt^3 / 24 per step;
* the error columns are the rotation angles between the truth and each
  filter's quaternion columns;
* the ``metrics.json`` figures are the means, maxima and last values of the
  CSV columns;
* the record and epoch counts follow from the duration, rates and stride;
* each filter's error stays within a bound set by ``sigma_meas`` and
  ``sigma_gyro``.

:func:`check_run` returns a list of problems, empty when the output passes.
"""

import json
import math
from pathlib import Path

ORBIT_PERIOD_S = 5280.0
# max |omega''(t)| of omega(t) = -(pi/2) cos(2 pi t / T)
OMEGA_DDOT_MAX = 0.5 * math.pi * (2.0 * math.pi / ORBIT_PERIOD_S) ** 2
# quaternion products round by a few ulp per step; allow a generous 1e-15 rad
ROUNDING_PER_STEP = 1e-15
# Errors a working filter stays within, in units of its per-epoch uncertainty.
# The worst record over 720 configs of the three workloads reads 2.7e-3 rad,
# a quarter of 10 units; an epoch that sees two close stars can pull a
# filter several times further, while a diverging filter leaves by far.
ERROR_BOUND_SIGMAS = 30.0
ERROR_BOUND_FLOOR = 1e-5

HEADER = (
    "t,"
    "qw_true,qx_true,qy_true,qz_true,"
    "qw_aekf,qx_aekf,qy_aekf,qz_aekf,"
    "qw_mekf,qx_mekf,qy_mekf,qz_mekf,"
    "err_aekf,err_mekf,pnorm_aekf,pnorm_mekf,cond_aekf,cond_mekf"
).split(",")

FILTERS = ("aekf", "mekf")


def _qmul(a, b):
    """Hamilton product of scalar-first quaternions (w, x, y, z)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def rotation_angle(a, b) -> float:
    """Angle in [0, pi] of the rotation between unit quaternions ``a`` and ``b``."""
    w, x, y, z = _qmul(a, (b[0], -b[1], -b[2], -b[3]))
    return 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), abs(w))


def truth_quat(t: float, axis):
    """Closed-form truth at ``t``, scalar first."""
    theta = -(ORBIT_PERIOD_S / 4.0) * math.sin(2.0 * math.pi * t / ORBIT_PERIOD_S)
    s = math.sin(0.5 * theta)
    return (math.cos(0.5 * theta), axis[0] * s, axis[1] * s, axis[2] * s)


def expected_counts(cfg: dict):
    """(gyro steps, record step indices, tracker epochs) implied by the config."""
    gyro_hz = float(cfg["gyro_rate_hz"])
    tracker_hz = float(cfg["tracker_rate_hz"])
    n_steps = int(math.floor(float(cfg["duration_s"]) * gyro_hz + 1e-9))
    stride = int(cfg.get("record_stride", 0)) or max(1, int(round(gyro_hz / tracker_hz)))
    rec_k = list(range(stride, n_steps + 1, stride))
    if not rec_k or rec_k[-1] != n_steps:
        rec_k.append(n_steps)
    epochs = int(math.floor(n_steps / gyro_hz * tracker_hz + 1e-6))
    return n_steps, rec_k, epochs


def error_bound(cfg: dict) -> float:
    """Largest error angle a working filter shows: the measurement sigma plus
    the gyro drift over one tracker interval, times ERROR_BOUND_SIGMAS."""
    dt = 1.0 / float(cfg["gyro_rate_hz"])
    drift = float(cfg["sigma_gyro"]) * math.sqrt(dt / float(cfg["tracker_rate_hz"]))
    return max(ERROR_BOUND_FLOOR, ERROR_BOUND_SIGMAS * (float(cfg["sigma_meas"]) + drift))


def read_csv(path):
    with open(path, "r", encoding="ascii") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ValueError("timeseries.csv is empty")
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_run(cfg: dict, out_dir, epochs_solved=None, skipped_epochs=None) -> list:
    """Problems found in ``out_dir`` (``timeseries.csv``, ``metrics.json``) for ``cfg``.

    ``epochs_solved`` and ``skipped_epochs``, when given, are the run's epoch
    bookkeeping; their sum must equal the epochs the config implies.
    """
    out = Path(out_dir)
    problems = []
    try:
        header, rows = read_csv(out / "timeseries.csv")
        with open(out / "metrics.json", "r", encoding="ascii") as f:
            metrics = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if header != HEADER:
        return [f"unexpected CSV header {header}"]
    if any(len(r) != len(HEADER) for r in rows):
        return ["CSV row with the wrong number of fields"]
    col = {name: [r[i] for r in rows] for i, name in enumerate(HEADER)}

    n_steps, rec_k, epochs = expected_counts(cfg)
    if len(rows) != len(rec_k):
        problems.append(f"{len(rows)} records, config implies {len(rec_k)}")
        return problems
    if epochs_solved is not None and epochs_solved + (skipped_epochs or 0) != epochs:
        problems.append(
            f"{epochs_solved} solved + {skipped_epochs} skipped epochs, config implies {epochs}"
        )

    dt = 1.0 / float(cfg["gyro_rate_hz"])
    ax = [float(v) for v in cfg.get("axis", (0.0, 0.0, 1.0))]
    an = math.sqrt(sum(v * v for v in ax))
    axis = [v / an for v in ax]
    step_bound = OMEGA_DDOT_MAX * dt**3 / 24.0 + ROUNDING_PER_STEP
    bound = error_bound(cfg)
    for i, k in enumerate(rec_k):
        row = rows[i]
        t = row[0]
        if abs(t - k * dt) > 1e-9 * max(1.0, k * dt):
            problems.append(f"record {i}: t={t!r}, expected {k * dt!r}")
            break
        q = {
            "true": tuple(row[1:5]),
            "aekf": tuple(row[5:9]),
            "mekf": tuple(row[9:13]),
        }
        for name, qv in q.items():
            if abs(math.sqrt(sum(v * v for v in qv)) - 1.0) > 1e-9:
                problems.append(f"record {i}: q_{name} is not unit norm")
        gap = rotation_angle(q["true"], truth_quat(t, axis))
        if gap > k * step_bound + 1e-12:
            problems.append(f"record {i}: q_true is {gap:.3e} rad from the closed-form truth")
        for j, f in enumerate(FILTERS):
            err = row[13 + j]
            recomputed = rotation_angle(q["true"], q[f])
            if abs(err - recomputed) > 1e-12:
                problems.append(f"record {i}: err_{f}={err!r}, quaternions give {recomputed!r}")
            if not err <= bound:
                problems.append(f"record {i}: err_{f}={err:.3e} exceeds the bound {bound:.3e}")
            pnorm = row[15 + j]
            cond = row[17 + j]
            if not (math.isfinite(pnorm) and pnorm > 0.0):
                problems.append(f"record {i}: pnorm_{f}={pnorm!r} is not positive and finite")
            if not (math.isfinite(cond) and cond >= 1.0 - 1e-9):
                problems.append(f"record {i}: cond_{f}={cond!r} is not finite and >= 1")
        if len(problems) > 20:
            problems.append("stopping after 20 problems")
            return problems

    n = len(rows)
    for f in FILTERS:
        m = metrics.get(f)
        if not isinstance(m, dict):
            problems.append(f"metrics.json has no '{f}' table")
            continue
        err = col[f"err_{f}"]
        qf = [(r[1:5], r[5:9] if f == "aekf" else r[9:13]) for r in rows]
        qdiff = [
            min(
                math.sqrt(sum((x - y) ** 2 for x, y in zip(qt, qe))),
                math.sqrt(sum((x + y) ** 2 for x, y in zip(qt, qe))),
            )
            for qt, qe in qf
        ]
        expected = {
            "mean_error_angle_rad": (math.fsum(err) / n, 1e-12),
            "max_error_angle_rad": (max(err), 0.0),
            "mean_quat_error_norm": (math.fsum(qdiff) / n, 1e-9),
            "final_covariance_norm": (col[f"pnorm_{f}"][-1], 0.0),
            "mean_condition_number": (math.fsum(col[f"cond_{f}"]) / n, 1e-12),
        }
        for key, (want, rel) in expected.items():
            got = m.get(key)
            if not isinstance(got, (int, float)) or not _rel_close(float(got), want, rel):
                problems.append(f"metrics.json {f}.{key}={got!r}, CSV gives {want!r}")
        step = m.get("mean_step_time_s")
        if not isinstance(step, (int, float)) or not (math.isfinite(step) and step >= 0.0):
            problems.append(f"metrics.json {f}.mean_step_time_s={step!r}")
    return problems
