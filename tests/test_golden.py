"""Golden digests: pinned SHA-256 of the outputs of three short ``attsim run --no-timing`` runs.

Rerun equality only shows that a run repeats; these digests show that the
outputs stay what they were. Any change of one ulp in any output column
fails the test. The configs live in ``tests/golden/*.json`` (fields not
named keep the program defaults, seed 1 included) and the digests in
``tests/golden/digests.json``.

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


def run_digests(name: str, out_dir: Path) -> dict:
    """SHA-256 of each output of one ``--no-timing`` run of the named config."""
    config = GOLDEN / f"{name}.json"
    rc = main(["run", "--config", str(config), "--out", str(out_dir), "--no-timing"])
    assert rc == 0
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in OUTPUTS}


@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_match_pinned_digests(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="ascii"))[name]
    assert run_digests(name, tmp_path) == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_digests(name, Path(tmp) / name) for name in CONFIGS}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="ascii")
    print(f"wrote {DIGESTS}", file=sys.stderr)
