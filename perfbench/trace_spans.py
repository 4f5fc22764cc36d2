"""Span recording around the calls ``attsim.harness`` makes, from outside the program.

:func:`install` replaces module attributes with wrappers that record one span
per call: name, call site, start, end, parent span and, for some calls, a
count taken from the result. The harness looks these names up at call time,
so the wrappers see every call without any change to the package. Spans stay
in memory; the caller writes them out when the run ends.

:func:`layer_report` turns the spans of one run into per-layer figures. A
span's self time is its duration minus the durations of its child spans,
both clipped to the run interval, so that work done before the simulation
loop starts (catalog generation) counts as set-up and not as run.
"""

import time

# (module, attribute, span name, call site, result count).
# The span name is "<layer>.<function>", named after the module that owns
# the function; the call site tells apart one function reached two ways.
WRAPPED = (
    ("harness", "run_simulation", "harness.run_simulation", "", None),
    ("harness", "trajectory_omega", "harness.trajectory_omega", "", None),
    ("harness", "emulate_gyro", "harness.emulate_gyro", "", None),
    ("harness", "integrate_quat", "attitude.integrate_quat", "truth", None),
    ("harness", "aekf_predict", "filters.aekf_predict", "", None),
    ("harness", "mekf_predict", "filters.mekf_predict", "", None),
    ("harness", "aekf_update", "filters.aekf_update", "", None),
    ("harness", "mekf_update", "filters.mekf_update", "", None),
    ("harness", "davenport_solve", "wahba.davenport_solve", "", None),
    ("harness", "jacobi_eigen_sym", "numerics.jacobi_eigen_sym", "record", None),
    ("harness", "error_angle", "attitude.error_angle", "record", None),
    ("harness", "compute_metrics", "harness.compute_metrics", "", None),
    ("harness", "write_timeseries_csv", "harness.write_timeseries_csv", "", None),
    ("harness", "write_outputs", "harness.write_outputs", "", None),
    ("startracker", "generate_catalog", "startracker.generate_catalog", "", None),
    ("startracker", "observe", "startracker.observe", "", len),
    ("wahba", "jacobi_eigen_sym", "numerics.jacobi_eigen_sym", "davenport", None),
)

LAYERS = ("filters", "startracker", "wahba", "numerics", "attitude", "harness")


class Tracer:
    """In-memory span list: ``[name, site, start, end, parent index, count]``."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def wrap(self, fn, name, site, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, site, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return traced


def install(modules) -> Tracer:
    """Wrap every name of :data:`WRAPPED` that ``modules`` (name -> module) holds.

    A name the program no longer has is listed in ``tracer.missing`` as
    ``"module.attribute"``: the figures drawn from it cannot be measured.
    """
    tracer = Tracer()
    for mod_name, attr, name, site, counter in WRAPPED:
        mod = modules[mod_name]
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.missing.append(f"{mod_name}.{attr}")
        else:
            setattr(mod, attr, tracer.wrap(fn, name, site, counter))
    return tracer


def _clipped(span, t0, t1) -> float:
    return max(0.0, min(span[3], t1) - max(span[2], t0))


def layer_report(spans, t0: float, t1: float) -> dict:
    """Per-layer figures of one traced run over the run interval ``[t0, t1]``.

    Returns a flat dict: ``calls``/``total_s``/``count_sum`` keyed by
    ``(name, site)``, self seconds per layer, self seconds of the
    ``harness.run_simulation`` body, and the interval not covered by any
    top-level span (CLI code between the wrapped calls).
    """
    child_s = [0.0] * len(spans)
    covered = 0.0
    for span in spans:
        d = _clipped(span, t0, t1)
        if span[4] >= 0:
            child_s[span[4]] += d
        else:
            covered += d
    calls, total_s, count_sum = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    run_sim_self = 0.0
    for i, span in enumerate(spans):
        key = (span[0], span[1])
        calls[key] = calls.get(key, 0) + 1
        total_s[key] = total_s.get(key, 0.0) + (span[3] - span[2])
        if span[5] is not None:
            count_sum[key] = count_sum.get(key, 0) + span[5]
        self_s = _clipped(span, t0, t1) - child_s[i]
        layer = span[0].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        if span[0] == "harness.run_simulation":
            run_sim_self += self_s
    return {
        "calls": calls,
        "total_s": total_s,
        "count_sum": count_sum,
        "layer_self_s": layer_self,
        "run_simulation_self_s": run_sim_self,
        "uncovered_s": (t1 - t0) - covered,
    }
