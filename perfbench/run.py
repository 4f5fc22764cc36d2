"""attsim benchmark: time, memory and accuracy of ``attsim run`` on three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 40 --trace 0

A workload is a config template. ``--seed`` makes a round of configs from
it, one per derived config seed (``1000 * seed + j``); the seed reaches the
program only through the config files. Each operation is one
``attsim run`` in a fresh interpreter (``one_run.py``), one at a time, with
BLAS threads pinned to 1 and the benchmark and its operations pinned to one
CPU. After one untimed warm-up operation, the benchmark runs whole rounds
until the next round would end past ``--seconds``, and always at least one.
Every output is checked by ``check_outputs.py``, and every rerun of a config
must write the same ``timeseries.csv`` byte for byte.

Times are scaled to a reference host speed. A shared virtual machine runs
the same code 20-50 % slower in phases lasting tens of seconds to minutes,
longer than a run. After every operation the benchmark times a fixed
reference loop (:func:`reference_loop`, no ``attsim`` code) on the same CPU;
every time it reports is the measured time multiplied by
``REF_S / median(reference loop time over the run)``, that is, the time the
operation would take on a host where the loop takes ``REF_S``. The raw
medians and the scale go to stderr.

``--trace 0`` prints the end-to-end metrics: the medians of ``run_s``
(first simulation step to written outputs), ``setup_s`` (interpreter start
to first simulation step) and ``peak_rss_mb`` over the round's operations,
and each filter's mean error angle averaged over the round's configs.
``--trace 1`` runs the first half of the configs twice per round, untraced
and traced, and prints the ``per_layer`` metrics of ``BENCHMARK.json`` from
the traced operations (medians over them), with ``trace.overhead_s`` the
median of traced minus untraced ``run_s``. If the program no longer has a
name the tracer wraps, the figures drawn from it cannot be measured and read
0: the run names it on stderr and reports ``correct`` false, so that the 0 is
not taken for a gain.

The last line of stdout is one JSON object with ``correct``, ``attempted``
(operations run), ``failed`` (operations the program aborted) and
``metrics``. Exits 1 without that line when the program cannot be run or
crashes.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

sys.path.insert(0, str(HERE))
import check_outputs  # noqa: E402
import trace_spans  # noqa: E402

# The default configuration (README "Running a simulation"), spelled out for
# the fields the checker reads; every other field keeps the program default.
DEFAULT_CONFIG = {
    "gyro_rate_hz": 100.0,
    "tracker_rate_hz": 1.0,
    "n_stars": 100,
    "n_cameras": 3,
    "sigma_gyro": 0.001,
    "sigma_meas": 0.001,
    "axis": [0.0, 0.0, 1.0],
    "record_stride": 0,
}

# A filter's mean error varies by 20-40% (IQR over median) from one config
# seed to the next, mostly with how many catalog stars the heads see, so a
# round averages over many configs. A round takes 20-35 s on a 2-core box.
WORKLOADS = {
    # the paper's experiment: gyro emulation, truth and the two predicts dominate
    "orbit": {"seeds": 32, "config": {"duration_s": 120.0}},
    # a record every gyro step: per-record eigensolves and the CSV writer dominate
    "dense-records": {"seeds": 28, "config": {"duration_s": 18.0, "record_stride": 1}},
    # ~180 stars per epoch and one update per predict: observe and Davenport dominate
    "star-field": {
        "seeds": 28,
        "config": {
            "duration_s": 6.0,
            "n_cameras": 6,
            "n_stars": 1000,
            "gyro_rate_hz": 10.0,
            "tracker_rate_hz": 10.0,
        },
    },
}
SEED_STRIDE = 1000
OP_TIMEOUT_S = 150

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


# Typical time of one reference_loop() on the 2-vCPU host of the README's
# reference figures; reported times are scaled to a host where it takes this.
REF_S = 0.050
_REF_F = np.eye(6) + 1e-3 * np.arange(36.0).reshape(6, 6)
_REF_Q = 1e-6 * np.eye(6)
_REF_STARS = np.random.default_rng(0).normal(size=(1000, 3))
_REF_STARS /= np.linalg.norm(_REF_STARS, axis=1)[:, None]


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the kinds of work ``attsim`` does:
    Python arithmetic, small-matrix numpy calls (a covariance propagation)
    and numpy calls on a 1000-row star array (a field-of-view selection)."""
    t0 = time.perf_counter()
    x = np.ones(6)
    s = 0.0
    for i in range(3000):
        x = _REF_F @ x
        x = x / np.sqrt(x @ x)
        for k in range(8):
            s += (i * k) % 7 * 0.5
    p = np.eye(6)
    for _ in range(800):
        p = _REF_F @ p @ _REF_F.T + _REF_Q
        p = 0.5 * (p + p.T)
        x = _REF_F @ x
        x = x / np.linalg.norm(x)
        p[:3, :3] += np.outer(x[:3], x[:3]) * 1e-9
    rot = np.eye(3)
    for _ in range(400):
        v = _REF_STARS @ rot.T
        seen = v[:, 2] > 0.9
        s += float(np.sum(v[seen, 0] / v[seen, 2]))
        rot = np.eye(3) + 1e-6 * (v[seen].T @ _REF_STARS[seen])
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Run this process and the operations it starts on one CPU, so that the
    reference loop sees the same CPU as the operations."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class BenchError(Exception):
    """The program could not be run, or crashed."""


def workload_configs(workload: str, seed: int) -> list:
    spec = WORKLOADS[workload]
    return [
        dict(DEFAULT_CONFIG, **spec["config"], seed=SEED_STRIDE * seed + j)
        for j in range(spec["seeds"])
    ]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def run_op(cfg_path: Path, out_dir: Path, spans_path=None) -> dict:
    """One ``attsim run`` in a fresh interpreter; returns its ``op.json`` plus timings."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    cmd = [sys.executable, str(HERE / "one_run.py"), "--src", str(SRC),
           "--config", str(cfg_path), "--out", str(out_dir)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=str(ROOT), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cfg_path.name}: no exit within {OP_TIMEOUT_S} s") from exc
    if proc.returncode not in (0, 3):
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{cfg_path.name}: exit code {proc.returncode}\n{tail}")
    try:
        with open(out_dir / "op.json", "r", encoding="utf-8") as f:
            rep = json.load(f)
    except (OSError, ValueError) as exc:
        raise BenchError(f"{cfg_path.name}: no op.json: {exc}") from exc
    rep["setup_s"] = rep["loop_mono"] - t_spawn
    rep["run_s"] = rep["done_mono"] - rep["loop_mono"]
    return rep


def layer_metrics(rep: dict, spans: list) -> dict:
    """Per-layer figures of one traced operation."""
    lr = trace_spans.layer_report(spans, rep["loop_perf"], rep["done_perf"])
    calls, total_s = lr["calls"], lr["total_s"]

    def us_per_call(name, site=""):
        n = calls.get((name, site), 0)
        return 1e6 * total_s[(name, site)] / n if n else 0.0

    n_obs = calls.get(("startracker.observe", ""), 0)
    m = {
        "filters.aekf_predict.us_per_call": us_per_call("filters.aekf_predict"),
        "filters.mekf_predict.us_per_call": us_per_call("filters.mekf_predict"),
        "filters.aekf_update.us_per_call": us_per_call("filters.aekf_update"),
        "filters.mekf_update.us_per_call": us_per_call("filters.mekf_update"),
        "harness.trajectory_omega.us_per_call": us_per_call("harness.trajectory_omega"),
        "harness.emulate_gyro.us_per_call": us_per_call("harness.emulate_gyro"),
        "attitude.integrate_quat.truth_us_per_call": us_per_call("attitude.integrate_quat", "truth"),
        "startracker.observe.us_per_call": us_per_call("startracker.observe"),
        "startracker.observe.stars_per_call":
            lr["count_sum"].get(("startracker.observe", ""), 0) / n_obs if n_obs else 0.0,
        "wahba.davenport_solve.us_per_call": us_per_call("wahba.davenport_solve"),
        "numerics.jacobi_eigen_sym.davenport_us_per_call":
            us_per_call("numerics.jacobi_eigen_sym", "davenport"),
        "numerics.jacobi_eigen_sym.record_us_per_call":
            us_per_call("numerics.jacobi_eigen_sym", "record"),
        "attitude.error_angle.record_us_per_call": us_per_call("attitude.error_angle", "record"),
        "harness.compute_metrics.s": total_s.get(("harness.compute_metrics", ""), 0.0),
        "harness.write_timeseries_csv.s": total_s.get(("harness.write_timeseries_csv", ""), 0.0),
        "harness.write_outputs.bytes": rep["bytes"],
        "startracker.generate_catalog.s": total_s.get(("startracker.generate_catalog", ""), 0.0),
        "harness.run_simulation.self_s": lr["run_simulation_self_s"],
    }
    for layer, s in lr["layer_self_s"].items():
        m[f"{layer}.self_s"] = s
    m.update({
        "harness.gyro_steps": calls.get(("harness.trajectory_omega", ""), 0),
        "harness.epochs": n_obs,
        "harness.records": rep["records"],
        "harness.skipped_epochs": rep["skipped_epochs"],
        "trace.run_s": rep["run_s"],
    })
    rep["layer_sum_s"] = sum(lr["layer_self_s"].values())
    rep["uncovered_s"] = lr["uncovered_s"]
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "attsim" / "__init__.py").is_file():
        print(f"run.py: no attsim sources under {SRC}", file=sys.stderr)
        return 1
    pin_to_one_cpu()

    wdir = RUNS / args.workload
    if wdir.exists():
        shutil.rmtree(wdir)
    wdir.mkdir(parents=True)
    cfgs = workload_configs(args.workload, args.seed)
    cfg_paths = []
    for j, cfg in enumerate(cfgs):
        path = wdir / f"config{j}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="ascii")
        cfg_paths.append(path)

    problems = []
    untraced_names = set()
    digests = {}
    err_means = {}
    counts = {"attempted": 0, "failed": 0, "epochs": 0, "skipped": 0}
    ref_s = []

    def op(j: int, traced: bool, counted: bool = True):
        out = wdir / (f"out{j}t" if traced else f"out{j}")
        spans_path = wdir / "spans.json" if traced else None
        rep = run_op(cfg_paths[j], out, spans_path)
        implied = check_outputs.expected_counts(cfgs[j])[2]
        if counted:
            ref_s.append(reference_loop())
            counts["attempted"] += 1
            counts["epochs"] += implied
        if rep["rc"] == 3 or rep["aborted"] is not None:
            if counted:
                counts["failed"] += 1
            print(f"run.py: config {j} aborted: {rep['aborted']}", file=sys.stderr)
            return None
        if counted:
            counts["skipped"] += rep["skipped_epochs"]
        for p in check_outputs.check_run(cfgs[j], out, rep["epochs_solved"], rep["skipped_epochs"]):
            problems.append(f"config {j}: {p}")
        csv_bytes = (out / "timeseries.csv").read_bytes()
        digest = hashlib.sha256(csv_bytes).hexdigest()
        if digests.setdefault(j, digest) != digest:
            problems.append(f"config {j}: timeseries.csv differs from an earlier run of the same config")
        try:
            with open(out / "metrics.json", "r", encoding="ascii") as f:
                metrics = json.load(f)
            err_means[j] = tuple(float(metrics[f]["mean_error_angle_rad"]) for f in ("aekf", "mekf"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"config {j}: no mean error angles in metrics.json: {exc!r}")
        rep["records"] = csv_bytes.count(b"\n") - 1
        rep["bytes"] = len(csv_bytes) + (out / "metrics.json").stat().st_size
        if traced:
            untraced_names.update(rep["untraced"])
            with open(spans_path, "r", encoding="utf-8") as f:
                rep["layers"] = layer_metrics(rep, json.load(f))
        return rep

    # a traced round pairs an untraced and a traced run of each of the first
    # half of the configs, so it takes about as long as an untraced round
    n_configs = (len(cfgs) + 1) // 2 if args.trace else len(cfgs)
    untraced, traced, overhead = [], [], []
    try:
        op(0, traced=False, counted=False)
        t_start = time.monotonic()
        while True:
            t_round = time.monotonic()
            for j in range(n_configs):
                plain = op(j, traced=False)
                if plain is not None:
                    untraced.append(plain)
                if args.trace:
                    rep = op(j, traced=True)
                    if rep is not None:
                        traced.append(rep)
                        if plain is not None:
                            overhead.append(rep["run_s"] - plain["run_s"])
            now = time.monotonic()
            if (now - t_start) + (now - t_round) > args.seconds:
                break
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if not untraced or (args.trace and not traced):
        print("run.py: every operation aborted; nothing to report", file=sys.stderr)
        return 1

    if untraced_names:
        problems.append("not traced, the program no longer has " + ", ".join(sorted(untraced_names))
                        + " (see trace_spans.WRAPPED); the per-layer figures drawn from it read 0")
    for p in problems[:20]:
        print(f"run.py: check failed: {p}", file=sys.stderr)
    print(f"run.py: {args.workload} seed={args.seed}: {counts['attempted']} runs, "
          f"{counts['failed']} aborted, tracker epochs attempted={counts['epochs']} "
          f"skipped={counts['skipped']}", file=sys.stderr)
    ref_median = statistics.median(ref_s)
    scale = REF_S / ref_median
    print(f"run.py: reference loop median {ref_median:.6f} s over {len(ref_s)} samples, "
          f"times scaled by {scale:.4f}; unscaled medians: "
          f"run_s {statistics.median(r['run_s'] for r in untraced):.6f} s, "
          f"setup_s {statistics.median(r['setup_s'] for r in untraced):.6f} s", file=sys.stderr)

    if args.trace:
        metrics = {}
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for name, unit in ((m["name"], m["unit"]) for m in bench["per_layer"]):
            if name == "trace.overhead_s":
                value = statistics.median(overhead) if overhead else 0.0
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            if unit in ("s", "us"):
                value *= scale
            metrics[name] = {"value": value, "unit": unit}
        share = statistics.median(r["layer_sum_s"] / r["run_s"] for r in traced)
        print(f"run.py: layer self times sum to {share:.4f} of traced run_s "
              f"(CLI code outside any span: {statistics.median(r['uncovered_s'] for r in traced):.2e} s)",
              file=sys.stderr)
    elif not err_means:
        print("run.py: no operation wrote mean error angles", file=sys.stderr)
        return 1
    else:
        means = list(err_means.values())
        metrics = {
            "run_s": {"value": scale * statistics.median(r["run_s"] for r in untraced), "unit": "s"},
            "setup_s": {"value": scale * statistics.median(r["setup_s"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] / 1024.0 for r in untraced),
                            "unit": "MB"},
            "aekf_err_mean_rad": {"value": statistics.fmean(a for a, _ in means), "unit": "rad"},
            "mekf_err_mean_rad": {"value": statistics.fmean(m for _, m in means), "unit": "rad"},
        }
    for name, m in metrics.items():
        print(f"run.py: {name} = {m['value']!r} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
