"""Rerun workloads over several seeds and print each metric's median and quartiles.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload orbit ...] [--trace 0]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
with the run length from ``BENCHMARK.json``. For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(the distance between the quartiles over the median) and, for end-to-end
metrics, that spread over the metric's bound. The bounds in
``BENCHMARK.json`` are set from these figures. Also prints each run's share
of failed operations, which must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workload or names:
        values = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(res["failed"] / res["attempted"])
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs, failed shares seen: {sorted(shares)}")
        print(f"{'metric':52s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'/bound':>7s}")
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            rel = f"{spread / bounds[name]:7.3f}" if name in bounds else ""
            print(f"{name:52s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {rel}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
