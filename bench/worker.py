"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by run.py, never by hand.  Protocol on stdout: a line
``@@ready <CLOCK_MONOTONIC>`` once the inputs are built (the parent
subtracts its own stamp taken just before the spawn, which gives the
set-up time), then, unless ``--setup-only``, one line ``@@result <json>``.

The timed phase repeats passes over the workload's job list until
``--seconds`` have elapsed (at least one pass).  Before every job the
package's function caches are cleared, so each job starts as cold as a
fresh CLI invocation.  With ``--trace 1`` the first half of the time runs
untraced and the second half with the tracing wrappers installed; only the
traced passes feed the per-layer metrics, and the ratio of the two halves'
median pass times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def _environment() -> dict:
    import scipy

    def blas(cfg):
        try:
            info = cfg["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError):
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(getattr(np.__config__, "CONFIG", None)),
        "scipy_blas": blas(getattr(scipy.__config__, "CONFIG", None)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _function_caches():
    """Every functools cache defined in the package (cleared before each job)."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "defectlattice" or name.startswith("defectlattice."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and value not in found:
                    found.append(value)
    return found


def _run_pass(jobs, caches, kept, durations):
    """Run every job once, in list order; return the summed job time.

    The order is fixed so that the allocation sequence, and with it the
    peak resident memory, repeats from run to run.  An output equal to
    the job's first one is stored as that object, so neither memory nor
    checking grows with the number of passes.
    """
    wall = 0.0
    for i, job in enumerate(jobs):
        for cache in caches:
            cache.cache_clear()
        t0 = time.perf_counter()
        try:
            raw = job.run()
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as failed values
            raw = exc
        dt = time.perf_counter() - t0
        wall += dt
        durations[i].append(dt)
        output = raw if isinstance(raw, BaseException) else _guard(job.keep, raw)
        first = kept[i][1] if len(kept) >= len(jobs) else None  # the first pass leads `kept`
        kept.append((i, first if _same(output, first) else output))
    return wall


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return False
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and np.array_equal(a, b, equal_nan=True))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _guard(fn, *args):
    """fn(*args), or the exception it raised: a malformed output fails its values."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001
        return exc


def _account(jobs, kept, oracle):
    """Per category over all passes: values requested, failed, delivered but out
    of tolerance, and the worst finite error/tolerance; plus the raised errors."""
    requested, failed, wrong, worst, errors = {}, {}, {}, {}, []
    checked = {}  # id(output) -> ratios: an output repeated across passes is checked once
    for i, output in kept:
        job = jobs[i]
        if id(output) not in checked:
            checked[id(output)] = (
                output if isinstance(output, BaseException) else _guard(job.check, output, oracle)
            )
        ratios = checked[id(output)]
        if isinstance(ratios, BaseException):
            errors.append(f"{job.name}: {type(ratios).__name__}: {ratios}")
            ratios = {}
        for cat, n in job.values.items():
            r = np.asarray(ratios.get(cat, []), dtype=float)
            good = int(np.count_nonzero(r <= 1.0))  # NaN and inf compare false
            requested[cat] = requested.get(cat, 0) + n
            failed[cat] = failed.get(cat, 0) + n - good
            wrong[cat] = wrong.get(cat, 0) + r.size - good
            finite = r[np.isfinite(r)]
            if finite.size:
                worst[cat] = max(worst.get(cat, 0.0), float(finite.max()))
    return requested, failed, wrong, worst, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import defectlattice
    if not Path(defectlattice.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"defectlattice imported from {defectlattice.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    jobs = workloads.BUILDERS[args.workload](args.seed, args.workdir)
    print(f"@@ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    caches = _function_caches()
    kept, walls, traced_walls = [], [], []
    durations = [[] for _ in jobs]
    tracer, missing = None, []
    start = time.perf_counter()
    untraced_until = args.seconds / 2 if args.trace else args.seconds
    while not walls or time.perf_counter() - start < untraced_until:
        walls.append(_run_pass(jobs, caches, kept, durations))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        uninstall, missing = tracing.install(tracer)
        try:
            traced_start = time.perf_counter()
            while not traced_walls or time.perf_counter() - traced_start < args.seconds / 2:
                traced_walls.append(_run_pass(jobs, caches, kept, [[] for _ in jobs]))
        finally:
            uninstall()

    oracle = workloads.Oracle()
    requested, failed, wrong, worst, errors = _account(jobs, kept, oracle)
    result = {
        "env": _environment(),
        "passes": len(walls),
        "jobs_per_pass": len(jobs),
        "pass_walls": walls,
        # each job's median over the passes: the median of these is the
        # typical job, robust to one slow call and to the mix of job sizes
        "job_medians": [statistics.median(d) for d in durations],
        "peak_rss_mb": peak_rss_mb,
        "requested": requested,
        "failed": failed,
        "errors": errors[:20],
        "worst": worst,
    }
    if tracer is not None:
        import layers

        result["per_layer"], result["absent"] = layers.per_layer(
            tracer, walls, traced_walls, requested, failed, wrong, worst, missing
        )
    print("@@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
