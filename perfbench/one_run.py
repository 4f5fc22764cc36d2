"""One ``attsim run`` in a fresh interpreter, with marks taken from outside the program.

Usage::

    python3 perfbench/one_run.py --src SRC --config CFG --out DIR [--spans FILE]

Imports ``attsim`` from ``SRC`` (and refuses any other copy), then calls
``attsim.cli.main(["run", "--config", CFG, "--out", DIR])``. Three wrappers
are put around names the CLI and harness look up:

* the first ``harness.trajectory_omega`` call marks the start of the
  simulation loop, the end of set-up (the wrapper then removes itself; if
  the program never calls it, the entry into ``run_simulation`` is the mark);
* ``harness.run_simulation`` hands back its ``RunResult`` for the epoch
  counts and the abort reason;
* with ``--spans``, every name in ``trace_spans.WRAPPED`` records spans,
  written to FILE as JSON after the run.

Writes ``op.json`` into DIR: the CLI exit code, the marks on the
system-wide monotonic clock, peak RSS, the epoch bookkeeping and, with
``--spans``, the wrapped names the program no longer has. Exits with the
CLI's exit code.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import attsim
    from attsim import cli, harness, startracker, wahba

    if src not in Path(attsim.__file__).resolve().parents:
        print(f"one_run: imported attsim from {attsim.__file__}, not from {src}", file=sys.stderr)
        return 1

    tracer = None
    if args.spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import trace_spans

        tracer = trace_spans.install({"harness": harness, "startracker": startracker, "wahba": wahba})

    marks = {}
    captured = {}
    inner_run = harness.run_simulation
    inner_omega = harness.trajectory_omega

    def run_simulation(cfg):
        marks["entry"] = (time.monotonic(), time.perf_counter())
        result = inner_run(cfg)
        captured["result"] = result
        return result

    def first_omega(*a, **kw):
        marks["loop"] = (time.monotonic(), time.perf_counter())
        harness.trajectory_omega = inner_omega
        return inner_omega(*a, **kw)

    harness.run_simulation = run_simulation
    harness.trajectory_omega = first_omega

    rc = cli.main(["run", "--config", args.config, "--out", args.out])
    done = (time.monotonic(), time.perf_counter())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    loop = marks.get("loop", marks.get("entry", done))
    result = captured.get("result")
    report = {
        "rc": rc,
        "loop_mono": loop[0],
        "done_mono": done[0],
        "loop_perf": loop[1],
        "done_perf": done[1],
        "peak_rss_kb": maxrss_kb,
        "epochs_solved": None if result is None else int(len(result.epoch_t)),
        "skipped_epochs": None if result is None else int(result.skipped_epochs),
        "aborted": None if result is None else result.aborted,
        "untraced": [] if tracer is None else tracer.missing,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "op.json", "w", encoding="utf-8") as f:
        json.dump(report, f)
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
