"""Per-layer tracing from outside the program.

Wrappers replace the names the callers resolve (a module attribute or a
class attribute), so every call through that name opens a span.  A span
records its name, start, end and the index of the span that was open when
it started; self time is the span's duration minus the time its children
cover.  Spans stay in memory and are reduced to metrics at the end.

Nothing here is imported by the untraced passes: the wrappers are
installed only for the traced half of a ``--trace 1`` run and removed
afterwards.  A target whose attribute no longer exists is skipped and
reported as absent, so a refactor that renames or drops a call site never
breaks the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "raised", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.raised = False
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, key):
        self.counters[key] = self.counters.get(key, 0) + 1

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span named `name`.

        before(args, kw) and after(info, args, result) compute the span's
        info (a count or a dict).  A hook that no longer fits the call's
        arguments leaves the info empty instead of breaking the call.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            span = Span(name, clock(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                if before is not None:
                    span.info = _hook(before, args, kw)
                result = fn(*args, **kw)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                span.info = _hook(after, span.info, args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def _hook(fn, *args):
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - a changed signature must not break the call
        return None


# ---------------------------------------------------------------- targets

def _file_bytes(info, args, result):
    try:
        return os.path.getsize(args[0])
    except (OSError, IndexError, TypeError):
        return 0


def _propagate_amplitudes(args, kw):
    op, grid = args[0], args[2] if len(args) > 2 else kw.get("grid")
    return op.n_sites * len(grid)


def _bessel_orders(args, kw):
    return abs(int(args[0])) + 1


def _solve_before(args, kw):
    profile = args[0]
    n_modes = args[2] if len(args) > 2 else kw.get("n_modes", 0)
    return {"unknowns": profile.grid.nx * profile.grid.ny, "requested": n_modes}


def _solve_after(info, args, result):
    info["kept"] = result.n_modes
    return info


def _lu_nnz(info, args, result):
    return result.L.nnz + result.U.nnz


def _run_eme_steps(args, kw):
    grid = args[1] if len(args) > 1 else kw["grid"]
    return len(grid)


# (module, attribute, span name, before, after); "Class.method" patches a
# class attribute.  Several call sites of one function map to one span name.
TARGETS = [
    ("defectlattice.survival", "bessel_j_array", "bessel", _bessel_orders, None),
    ("defectlattice.survival", "bessel_j", "bessel", _bessel_orders, None),
    ("defectlattice.survival", "s_less", "survival.s_less", None, None),
    ("defectlattice.survival", "s_greater", "survival.s_greater", None, None),
    ("defectlattice.survival", "c0_critical", "survival.critical", None, None),
    ("defectlattice.survival", "c0_closed_form", "survival.closed_form", None, None),
    ("defectlattice.survival", "survival_series", "survival.series", None, None),
    ("defectlattice.survival", "c0_contour", "survival.contour", None, None),
    ("defectlattice.lattice", "propagate", "lattice.propagate", _propagate_amplitudes, None),
    ("defectlattice.lattice", "TridiagonalOperator.eigensystem", "lattice.eigensystem", None, None),
    ("defectlattice.finitesize", "propagate", "lattice.propagate", _propagate_amplitudes, None),
    ("defectlattice.experiments", "c0_closed_form", "survival.closed_form", None, None),
    ("defectlattice.experiments", "propagate", "lattice.propagate", _propagate_amplitudes, None),
    ("defectlattice.experiments", "compare_models", "experiments.compare", None, None),
    ("defectlattice.experiments", "run_eme", "experiments.run_eme", _run_eme_steps, None),
    ("defectlattice.experiments", "pair_splitting_beta", "experiments.calibration", None, None),
    ("defectlattice.experiments", "solve_modes", "eme.modes.solve", _solve_before, _solve_after),
    ("defectlattice.experiments", "array_profile", "eme.profile", None, None),
    ("defectlattice.experiments", "ricker_profile", "eme.profile", None, None),
    ("defectlattice.experiments", "gaussian_input", "eme.propagate.launch", None, None),
    ("defectlattice.experiments", "modal_coefficients", "eme.propagate.coeffs", None, None),
    ("defectlattice.experiments", "shift_mode", "eme.propagate.shift", None, None),
    ("defectlattice.eme.modes", "splu", "eme.modes.lu", None, _lu_nnz),
    ("defectlattice.eme.modes", "eigsh", "eme.modes.eigsh", None, None),
    ("defectlattice.eme.reconstruct", "solve_modes", "eme.modes.solve", _solve_before, _solve_after),
    ("defectlattice.eme.reconstruct", "ricker_profile", "eme.profile", None, None),
    ("defectlattice.eme.reconstruct", "mode_fidelity", "eme.propagate.fidelity", None, None),
    ("defectlattice.eme.reconstruct", "reconstruct_index", "eme.reconstruct.index", None, None),
    ("defectlattice.eme.reconstruct", "implied_n_eff", "eme.reconstruct.index", None, None),
    ("defectlattice.cli", "main", "cli", None, None),
    ("defectlattice.cli", "c0_closed_form", "survival.closed_form", None, None),
    ("defectlattice.cli", "propagate", "lattice.propagate", _propagate_amplitudes, None),
    ("defectlattice.cli", "deviation", "finitesize.deviation", None, None),
    ("defectlattice.cli", "cumulative_deviation", "finitesize.cumulative", None, None),
    ("defectlattice.cli", "compare_models", "experiments.compare", None, None),
    ("defectlattice.cli", "run_eme", "experiments.run_eme", _run_eme_steps, None),
    ("defectlattice.cli", "fit_ricker", "eme.reconstruct.fit", None, None),
    ("defectlattice.cli", "read_field", "io.read", None, None),
    ("defectlattice.cli", "write_csv", "io.write", None, _file_bytes),
    ("defectlattice.cli", "_write_json", "io.write", None, _file_bytes),
    ("defectlattice.cli", "write_field", "io.write", None, _file_bytes),
    ("defectlattice.cli", "line_chart", "io.write", None, _file_bytes),
]


def _resolve(module_name, attr):
    """(owner, attribute name) for a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


def install(tracer: Tracer):
    """Install every resolvable target; return (uninstall, missing target names)."""
    saved, missing = [], []
    for module_name, attr, name, before, after in TARGETS:
        found = _resolve(module_name, attr)
        if found is None:
            missing.append(f"{module_name}.{attr}")
            continue
        owner, leaf = found
        original = getattr(owner, leaf)
        saved.append((owner, leaf, original))
        setattr(owner, leaf, tracer.wrap(name, original, before, after))

    # ARPACK's shift-invert solves go through the LinearOperator built in
    # solve_modes; count its matvecs without opening a span per solve
    found = _resolve("defectlattice.eme.modes", "LinearOperator")
    if found is None:
        missing.append("defectlattice.eme.modes.LinearOperator")
    else:
        owner, leaf = found
        original = getattr(owner, leaf)
        saved.append((owner, leaf, original))

        def counting_operator(*args, **kw):
            matvec = kw.get("matvec")
            if matvec is not None:
                def counted(x, _solve=matvec):
                    tracer.count("opinv_solves")
                    return _solve(x)

                kw["matvec"] = counted
            return original(*args, **kw)

        setattr(owner, leaf, counting_operator)

    def uninstall():
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)

    return uninstall, missing
