"""Golden outputs of ``attsim run --no-timing`` runs, pinned on disk.

Rerun equality only shows that a run repeats; these pins show that the
outputs stay what they were. Two kinds are kept:

* the SHA-256 of ``metrics.json`` and ``timeseries.csv`` of three short
  runs, in ``tests/golden/digests.json``: any change of one ulp in any
  output column fails the test;
* the ``repr`` of every metric of a 528 s run of the default config (528
  records, 528 tracker epochs), in ``tests/golden/orbit-528s-metrics.json``:
  a failure names the metric that moved and shows both values.

The configs live in ``tests/golden/*.json``; fields not named keep the
program defaults, seed 1 included.

Re-pin only on purpose, and state the largest output deviation in
CHANGES.md when doing so::

    PYTHONPATH=src python3 tests/test_golden.py
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
CONFIGS = ("default-30s", "record-every-step", "noiseless")
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_digests(name, Path(tmp) / name) for name in CONFIGS}
        reprs = run_metric_reprs(Path(tmp) / METRICS_CONFIG)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="ascii")
    METRIC_REPRS.write_text(json.dumps(reprs, indent=2) + "\n", encoding="ascii")
    print(f"wrote {DIGESTS} and {METRIC_REPRS}", file=sys.stderr)
