"""Golden outputs of ``attsim run --no-timing`` runs, pinned on disk.

Rerun equality only shows that a run repeats; these pins show that the
outputs stay what they were. Two kinds are kept:

* the SHA-256 of ``metrics.json`` and ``timeseries.csv`` of four short
  runs, in ``tests/golden/digests.json``: any change of one ulp in any
  output column fails the test. ``long-segments`` records every step
  between tracker epochs 400 steps apart, so its update segments hold 400
  blocks and its first chunk ends inside one;
* the ``repr`` of every metric of a 528 s run of the default config (528
  records, 528 tracker epochs), in ``tests/golden/orbit-528s-metrics.json``:
  a failure names the metric that moved and shows both values.

The configs live in ``tests/golden/*.json``; fields not named keep the
program defaults, seed 1 included.

Re-pin only on purpose, and state the largest output deviation in
CHANGES.md when doing so::

    PYTHONPATH=src python3 tests/test_golden.py [--parent SRC]

With ``--parent``, each golden config is also run by the package under
``SRC`` (the ``src`` directory of the tree before the change), in a
subprocess, and the largest absolute and relative deviation of each
``timeseries.csv`` column from it is printed, config by config: the
figures a re-pin quotes.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from attsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
OUTPUTS = ("metrics.json", "timeseries.csv")
CONFIGS = ("default-30s", "record-every-step", "noiseless", "long-segments")
METRICS_CONFIG = "orbit-528s"
METRIC_REPRS = GOLDEN / f"{METRICS_CONFIG}-metrics.json"


def run_no_timing(name: str, out_dir: Path) -> None:
    config = GOLDEN / f"{name}.json"
    rc = main(["run", "--config", str(config), "--out", str(out_dir), "--no-timing"])
    assert rc == 0


def run_digests(name: str, out_dir: Path) -> dict:
    """SHA-256 of each output of one ``--no-timing`` run of the named config."""
    run_no_timing(name, out_dir)
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in OUTPUTS}


def run_metric_reprs(out_dir: Path) -> dict:
    """``repr`` of every metric, per filter, of the 528 s ``--no-timing`` run."""
    run_no_timing(METRICS_CONFIG, out_dir)
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="ascii"))
    return {flt: {k: repr(v) for k, v in row.items()} for flt, row in metrics.items()}


@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_match_pinned_digests(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="ascii"))[name]
    assert run_digests(name, tmp_path) == pinned


def test_528s_metrics_match_pinned_reprs(tmp_path):
    pinned = json.loads(METRIC_REPRS.read_text(encoding="ascii"))
    assert run_metric_reprs(tmp_path) == pinned


def _columns(csv_path: Path) -> dict:
    """The columns of a ``timeseries.csv``, by header name, as lists of floats."""
    header, *rows = csv_path.read_text(encoding="ascii").splitlines()
    return dict(zip(header.split(","), zip(*([float(x) for x in row.split(",")] for row in rows))))


def print_deviations(name: str, got_dir: Path, parent_dir: Path) -> None:
    """Print the largest absolute and relative deviation of each CSV column of ``got_dir`` from ``parent_dir``."""
    got, want = _columns(got_dir / "timeseries.csv"), _columns(parent_dir / "timeseries.csv")
    for column, values in got.items():
        ref = want[column]
        if len(ref) != len(values):
            print(f"{name} {column}: {len(values)} rows against the parent's {len(ref)}")
            continue
        absolute = max((abs(a - b) for a, b in zip(values, ref)), default=0.0)
        relative = max((abs(a - b) / abs(b) for a, b in zip(values, ref) if b != 0.0), default=0.0)
        print(f"{name} {column}: largest deviation {absolute:.3g} absolute, {relative:.3g} relative")


def run_parent(name: str, src: str, out_dir: Path) -> None:
    """One ``--no-timing`` run of the named config by the package under ``src``, in a subprocess."""
    import os
    import subprocess

    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "attsim", "run", "--config", str(GOLDEN / f"{name}.json"), "--out", str(out_dir),
           "--no-timing"]
    subprocess.run(cmd, env=env, check=True)


if __name__ == "__main__":
    import argparse
    import tempfile

    ap = argparse.ArgumentParser(description="Re-pin the golden outputs.")
    ap.add_argument("--parent", metavar="SRC",
                    help="also run each config by the package under SRC and print each column's deviation from it")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_digests(name, Path(tmp) / name) for name in CONFIGS}
        reprs = run_metric_reprs(Path(tmp) / METRICS_CONFIG)
        if args.parent:
            for name in CONFIGS + (METRICS_CONFIG,):
                run_parent(name, args.parent, Path(tmp) / "parent" / name)
                print_deviations(name, Path(tmp) / name, Path(tmp) / "parent" / name)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="ascii")
    METRIC_REPRS.write_text(json.dumps(reprs, indent=2) + "\n", encoding="ascii")
    print(f"wrote {DIGESTS} and {METRIC_REPRS}", file=sys.stderr)
