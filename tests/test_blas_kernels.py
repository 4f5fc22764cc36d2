"""The gyro increment products and the filters' float paths do not depend on the OpenBLAS kernel.

``attsim.attitude.block_increments`` of one fixed stack;
``attsim.filters.aekf_update`` and ``mekf_update`` over fixed random
states, measurements and SPD covariances; and the one-block
``aekf_predict`` (under both process-noise models) and ``mekf_predict``
that take their transition as rows of floats, over fixed random states,
rotations and SPD covariances, are computed in a child process per
``OPENBLAS_CORETYPE``, and each must give one SHA-256 under all.
That variable picks the kernel only when numpy links an OpenBLAS built
with ``DYNAMIC_ARCH``; otherwise it has no effect and the children agree
trivially. A core type the CPU cannot run (its instruction set flag is not
in ``/proc/cpuinfo``) is left out, since forcing it would crash the child.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CPUINFO = Path("/proc/cpuinfo")

# core type -> the /proc/cpuinfo flag its kernels need ("pni" is SSE3)
_CORETYPES = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}

_INCREMENTS = """
import hashlib
import numpy as np
from attsim.attitude import block_increments
w = np.random.default_rng(22).standard_normal((40, 100, 3))
w[::3, 57:] = 0.0
print(hashlib.sha256(block_increments(w, 0.01).tobytes()).hexdigest())
"""

# the inputs are built with elementwise products and sums only, which do
# not go through BLAS, so every child updates the same bytes
_UPDATES = """
import hashlib
import numpy as np
from attsim.filters import FilterState, aekf_update, mekf_update
rng = np.random.default_rng(23)
h = hashlib.sha256()
def spd(n, scale):
    a = rng.standard_normal((n, 2 * n))
    return scale * (a[:, None, :] * a[None, :, :]).sum(axis=-1) / (2 * n)
def unit(v):
    return v / np.sqrt((v * v).sum())
for _ in range(200):
    q = unit(rng.standard_normal(4))
    meas = unit(q + 0.01 * rng.standard_normal(4))
    a = aekf_update(FilterState(q=q, p=spd(4, 1e-6)), meas, spd(4, 1e-6))
    m = mekf_update(FilterState(q=q, p=spd(3, 1e-6)), meas, spd(3, 1e-6))
    for x in (a.q, a.p, m.q, m.p):
        h.update(np.asarray(x).tobytes())
print(h.hexdigest())
"""

# the one-block predicts of the float kernel: each takes its transition as
# rows of floats, built from the rotation elementwise (the AEKF's table
# product has one nonzero term per entry, so it is exact on every kernel)
_PREDICTS = """
import hashlib
import numpy as np
from attsim.filters import (FilterState, NoiseParams, aekf_predict, aekf_transitions, mekf_predict,
                            mekf_transitions)
rng = np.random.default_rng(24)
h = hashlib.sha256()
def spd(n, scale):
    a = rng.standard_normal((n, 2 * n))
    return scale * (a[:, None, :] * a[None, :, :]).sum(axis=-1) / (2 * n)
def unit(v):
    return v / np.sqrt((v * v).sum())
flat, kinematic = NoiseParams(sigma_v=1e-3, aekf_q_flat=True), NoiseParams(sigma_v=1e-3, aekf_q_flat=False)
for _ in range(200):
    q = unit(rng.standard_normal(4))
    m = [unit(np.append(0.01 * rng.standard_normal(3), 1.0)).tolist()]
    n = [int(rng.integers(1, 1000))]
    for noise in (flat, kinematic):
        out = aekf_predict(FilterState(q=q, p=spd(4, 1e-6)), m, aekf_transitions(m).tolist(), n, 0.01, noise)
        h.update(np.asarray(out[0]).tobytes() + np.asarray(out[1]).tobytes())
    out = mekf_predict(FilterState(q=q, p=spd(3, 1e-6)), m, mekf_transitions(m).tolist(), n, 0.01, flat)
    h.update(np.asarray(out[0]).tobytes() + np.asarray(out[1]).tobytes())
print(h.hexdigest())
"""


def _runnable_coretypes():
    if not CPUINFO.exists():
        return []
    flags = set()
    for line in CPUINFO.read_text().splitlines():
        if line.startswith("flags"):
            flags.update(line.split(":", 1)[1].split())
    return [core for core, flag in _CORETYPES.items() if flag in flags]


def _digest(coretype, child):
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, (coretype, proc.stderr)
    return proc.stdout.strip()


def _one_digest_under_every_kernel(child):
    cores = _runnable_coretypes()
    if len(cores) < 2:
        pytest.skip("needs /proc/cpuinfo and a CPU that runs at least two of the core types")
    digests = {core: _digest(core, child) for core in cores}
    assert len(set(digests.values())) == 1, digests


def test_block_increments_have_one_digest_under_every_kernel():
    _one_digest_under_every_kernel(_INCREMENTS)


def test_filter_updates_have_one_digest_under_every_kernel():
    _one_digest_under_every_kernel(_UPDATES)


def test_one_block_predicts_have_one_digest_under_every_kernel():
    _one_digest_under_every_kernel(_PREDICTS)
