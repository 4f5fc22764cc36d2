"""A run's peak memory does not grow with its length (README "How a run is computed").

Each run is an ``attsim run`` of the default configuration in a child
process, which reads its own peak resident set, ``VmHWM`` in
``/proc/self/status``, after writing its outputs. ``ru_maxrss`` would not
do: a child started by fork and exec can report the parent's resident set
from before the exec.

Measured on a 2-vCPU x86-64 host (Python 3.11, numpy 2.4.6), in the kB
of ``/proc``: 120 s runs peak at 32,812-33,144 kB, 1,200 s runs at
34,404-34,580 kB, 1,260-1,768 kB more over eight pairs. That difference is
the 1,080 more records and their CSV rows, and the tracker epochs of a
chunk, which reach their bound (327 epochs of 100 stars) only in the
longer run. With the per-step arrays of a chunk made at once rather than in
4096-step windows, the two runs peaked at 35,468 and 42,312 kB, 6,844 kB
apart. The bound, 3,072 kB, sits between the two.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
STATUS = Path("/proc/self/status")

_CHILD = """
import sys
from attsim.cli import main
rc = main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--no-timing"])
with open("/proc/self/status") as f:
    print([line.split()[1] for line in f if line.startswith("VmHWM:")][0])
sys.exit(rc)
"""

# largest growth of the peak allowed from a 120 s to a 1,200 s run, in kB
_GROWTH_KB = 3 * 1024


def _peak_kb(duration_s, tmp_path):
    cfg = tmp_path / f"cfg{duration_s}.json"
    cfg.write_text(f'{{"duration_s": {duration_s}}}\n')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(cfg), str(tmp_path / f"out{duration_s}")],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status to read a process's own peak memory")
def test_peak_memory_does_not_grow_with_the_run(tmp_path):
    short = _peak_kb(120.0, tmp_path)
    long = _peak_kb(1200.0, tmp_path)
    assert long - short <= _GROWTH_KB, (short, long)
