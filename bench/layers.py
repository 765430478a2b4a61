"""Per-layer metrics from the spans of a traced run.

Counts and times are per pass (the sum over the traced passes divided by
their number), so they do not depend on how many passes fit in a run.
A metric is *absent* when none of the spans or counters it reads was
recorded: the workload never entered that layer, or a refactor renamed or
stopped calling the wrapped name.  Absent metrics are listed by name; the
result line still needs a number for them and carries 0.
"""

from __future__ import annotations

import statistics

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "bessel.calls": "count",
    "bessel.self_s": "s",
    "bessel.orders": "count",
    "survival.closed_form.self_s": "s",
    "survival.s_less.self_s": "s",
    "survival.s_greater.self_s": "s",
    "survival.critical.self_s": "s",
    "survival.series.self_s": "s",
    "survival.contour.self_s": "s",
    "survival.points": "count",
    "survival.contour.raise_s": "s",
    "survival.raised": "count",
    "survival.wrong": "count",
    "survival.useful_ratio": "ratio",
    "lattice.propagate.calls": "count",
    "lattice.propagate.self_s": "s",
    "lattice.eigensystem.self_s": "s",
    "lattice.amplitudes": "count",
    "finitesize.deviation.calls": "count",
    "finitesize.deviation.self_s": "s",
    "finitesize.cumulative.self_s": "s",
    "eme.modes.solve.calls": "count",
    "eme.modes.solve.self_s": "s",
    "eme.modes.unknowns": "count",
    "eme.modes.lu_s": "s",
    "eme.modes.lu_nnz": "count",
    "eme.modes.eigsh_s": "s",
    "eme.modes.opinv_solves": "count",
    "eme.modes.opinv_per_mode": "ratio",
    "eme.modes.kept": "count",
    "eme.modes.raised": "count",
    "experiments.run_eme.self_s": "s",
    "experiments.run_eme.steps": "count",
    "eme.propagate.shift.self_s": "s",
    "eme.propagate.coeffs.self_s": "s",
    "eme.propagate.launch.self_s": "s",
    "experiments.calibration.calls": "count",
    "experiments.calibration.self_s": "s",
    "experiments.compare.self_s": "s",
    "eme.profile.self_s": "s",
    "eme.reconstruct.fit.calls": "count",
    "eme.reconstruct.fit.self_s": "s",
    "eme.reconstruct.index.self_s": "s",
    "eme.reconstruct.candidates": "count",
    "eme.reconstruct.noisy_gap": "ratio",
    "eme.propagate.fidelity.calls": "count",
    "eme.propagate.fidelity.self_s": "s",
    "cli.self_s": "s",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.bytes_written": "bytes",
    "check.err_over_tol": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
    "trace.absent": "count",
}

_EVALUATORS = ("survival.closed_form", "survival.series", "survival.contour")


class _Agg:
    __slots__ = ("calls", "total", "self", "raised", "raise_s", "infos")

    def __init__(self):
        self.calls = 0
        self.total = self.self = self.raise_s = 0.0
        self.raised = 0
        self.infos = []


def per_layer(tracer, untraced_walls, traced_walls, requested, failed, wrong, worst,
              missing):
    """(metrics {name: value}, absent names) for one traced run."""
    spans = tracer.spans
    selfs = tracer.self_times()
    agg = {}
    for s, own in zip(spans, selfs):
        a = agg.setdefault(s.name, _Agg())
        a.calls += 1
        a.total += s.end - s.start
        a.self += own
        if s.raised:
            a.raised += 1
            a.raise_s += s.end - s.start
        if s.info is not None:
            a.infos.append(s.info)

    n = float(len(traced_walls))
    values, absent = {}, []

    def span(metric, name, field):
        a = agg.get(name)
        if a is None:
            absent.append(metric)
            values[metric] = 0.0
        else:
            values[metric] = getattr(a, field) / n

    def derived(metric, sources, value):
        if not any(src in agg for src in sources):
            absent.append(metric)
            values[metric] = 0.0
        else:
            values[metric] = value()

    def info_sum(name, key=None):
        infos = agg[name].infos if name in agg else []
        return sum(i.get(key, 0) if key else i for i in infos) / n

    for metric in UNITS:
        if metric.endswith(".calls"):
            span(metric, metric[: -len(".calls")], "calls")
        elif metric.endswith(".self_s"):
            span(metric, metric[: -len(".self_s")], "self")

    span("survival.contour.raise_s", "survival.contour", "raise_s")
    span("eme.modes.lu_s", "eme.modes.lu", "total")
    span("eme.modes.eigsh_s", "eme.modes.eigsh", "self")
    span("eme.modes.raised", "eme.modes.solve", "raised")
    span("io.write_s", "io.write", "total")
    span("io.read_s", "io.read", "total")
    derived("bessel.orders", ["bessel"], lambda: info_sum("bessel"))
    derived("survival.points", _EVALUATORS,
            lambda: sum(agg[e].calls for e in _EVALUATORS if e in agg) / n)
    derived("survival.raised", _EVALUATORS,
            lambda: sum(agg[e].raised for e in _EVALUATORS if e in agg) / n)
    passes = len(untraced_walls) + len(traced_walls)
    derived("survival.wrong", _EVALUATORS, lambda: wrong.get("survival", 0) / passes)
    derived("survival.useful_ratio", _EVALUATORS,
            lambda: 1.0 - failed.get("survival", 0) / requested["survival"])
    derived("lattice.amplitudes", ["lattice.propagate"], lambda: info_sum("lattice.propagate"))
    derived("eme.modes.unknowns", ["eme.modes.solve"], lambda: info_sum("eme.modes.solve", "unknowns"))
    derived("eme.modes.kept", ["eme.modes.solve"],
            lambda: info_sum("eme.modes.solve", "kept"))
    derived("eme.modes.lu_nnz", ["eme.modes.lu"], lambda: float(max(agg["eme.modes.lu"].infos)))
    if "opinv_solves" in tracer.counters:
        values["eme.modes.opinv_solves"] = tracer.counters["opinv_solves"] / n
        values["eme.modes.opinv_per_mode"] = tracer.counters["opinv_solves"] / max(
            1.0, info_sum("eme.modes.solve", "requested") * n)
    else:
        absent += ["eme.modes.opinv_solves", "eme.modes.opinv_per_mode"]
        values["eme.modes.opinv_solves"] = values["eme.modes.opinv_per_mode"] = 0.0
    derived("experiments.run_eme.steps", ["experiments.run_eme"],
            lambda: info_sum("experiments.run_eme"))
    derived("eme.reconstruct.candidates", ["eme.reconstruct.fit"],
            lambda: sum(1 for s in spans if s.name == "eme.modes.solve"
                        and _under(spans, s, "eme.reconstruct.fit")) / n)
    if "noisy_fit" in worst:
        values["eme.reconstruct.noisy_gap"] = worst["noisy_fit"]
    else:
        absent.append("eme.reconstruct.noisy_gap")
        values["eme.reconstruct.noisy_gap"] = 0.0
    derived("io.bytes_written", ["io.write"], lambda: info_sum("io.write"))

    values["check.err_over_tol"] = max(worst.values(), default=0.0)
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    covered = sum(s.end - s.start for s in spans if s.parent < 0)
    values["trace.covered_frac"] = covered / sum(traced_walls)
    values["trace.absent"] = float(len(absent))
    absent += [f"(not found) {m}" for m in missing]
    return {m: values[m] for m in UNITS}, absent


def _under(spans, span, name) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False
