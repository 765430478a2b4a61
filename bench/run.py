"""defectlattice benchmark: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy, and the run fails (exit 2)
without printing a result when that source tree is missing.

Each run is closed-loop with a single client: a fresh worker process
(worker.py) builds the workload's inputs and runs its jobs back to back.
This process only orchestrates, so at most two processes exist at a time.
The BLAS thread count is pinned to 1 for every worker.

With ``--trace 0`` the result carries the end-to-end metrics:

    setup_s      median over SETUP_SAMPLES fresh processes of the time from
                 process start to inputs ready (import, grids, mode files)
    wall_s       median wall time of one pass over the workload's job list
    job_p50_s    median wall time of one job (one user-level call): the
                 median over the job list of each job's median over passes
    peak_rss_mb  peak resident memory of the worker up to the end of the
                 timed passes (reference computations excluded)

With ``--trace 1`` it carries the per-layer metrics of layers.py instead.
``attempted`` and ``failed`` count requested values over all passes; a
value fails when its job raised or exited non-zero, when a sweep stopped
before it, or when it is outside its tolerance of the reference.  The
report lines above the result give the machine, the per-category counts
and, for traced runs, the per-layer table with absent metrics marked.
See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("analytic", "chain", "eme_compare", "mode_fit")
SETUP_SAMPLES = 3  # the worker's own set-up plus SETUP_SAMPLES - 1 set-up-only processes
DEADLINE_S = 170.0
BLAS_THREADS = "1"


class WorkerError(RuntimeError):
    pass


def _spawn(args, workdir, deadline, setup_only):
    """Run one worker; return (seconds from spawn to ready, result dict or None)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the run deadline") from None
    ready = result = None
    for line in out.splitlines():
        if line.startswith("@@ready "):
            # the worker stamps CLOCK_MONOTONIC, which is system-wide on Linux
            ready = float(line.split()[1]) - spawned
        elif line.startswith("@@result "):
            result = json.loads(line[len("@@result "):])
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or ready is None or (not setup_only and result is None):
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return ready, result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "defectlattice" / "__init__.py").is_file():
        print(f"no defectlattice source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        setups = []
        if not args.trace:  # set-up time is an end-to-end metric only
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, workdir, deadline, setup_only=True)[0])
        ready, res = _spawn(args, workdir, deadline, setup_only=False)
        setups.append(ready)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(res["requested"].values())
    failed = sum(res["failed"].values())
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(
        f"{args.workload}: {res['passes']} passes x {res['jobs_per_pass']} jobs; "
        + ", ".join(f"{c} {res['failed'][c]}/{n} failed" for c, n in res["requested"].items())
        + f"; worst error/tolerance {max(res['worst'].values(), default=0.0):.3g}"
    )
    for err in res["errors"]:
        print(f"  error: {err}")
    if args.trace:
        import layers

        for name, value in res["per_layer"].items():
            mark = "  absent" if name in res["absent"] else ""
            print(f"  {name:32s} {value:14.6g} {layers.UNITS[name]}{mark}")
        for name in res["absent"]:
            if name.startswith("(not found)"):
                print(f"  {name}")
        metrics = {n: _metric(v, layers.UNITS[n]) for n, v in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(statistics.median(res["pass_walls"]), "s"),
            "job_p50_s": _metric(statistics.median(res["job_medians"]), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
