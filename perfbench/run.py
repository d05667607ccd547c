"""Benchmark of ``bicausal verify`` and ``bicausal report``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 30 --trace 0

One process, one thread, closed loop: passes of the workload run back to
back for ``--seconds`` seconds, and every pass's output is checked against
the seed-code reference in ``perfbench/reference``.  The last line of stdout
is the result object; the line before it holds the run's conditions and
correctness figures.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see README.md).  The
exit code is 0 when every output matched the reference, 1 when one did not,
and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
FD_STEP_VAR = "BICAUSAL_FD_STEP"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# Set-up as a user pays it: a fresh interpreter imports the package and the
# benchmark generates the workload's inputs.  Timed inside the child.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bicausal
from perfbench.workloads import make_inputs
make_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "tiny")
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a subset of the inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def pin_environment() -> bool:
    """One CPU, one BLAS/OpenMP thread, default FD steps.

    Passes and calibration kernels share one CPU, so the kernel sees the
    contention the passes see.  Returns whether FD_STEP_VAR was set.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return os.environ.pop(FD_STEP_VAR, None) is not None


def measure_setup(workload: str, seed: int, size: str) -> tuple[list[float], list[float]]:
    """Set-up times in fresh interpreters: (raw seconds, reference seconds)."""

    from perfbench import calibrate

    def one(kernels: list) -> tuple[float, float]:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, ROOT, workload, str(seed), size],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        kernels.append(calibrate.kernel_seconds())
        return seconds, calibrate.scale(seconds, kernels[-2], kernels[-1])

    raw, scaled, _ = repeat(one, until(0.0, SETUP_REPEATS))
    return raw, scaled


def repeat(run_one, done):
    """Repeat ``run_one(kernels)`` until ``done``.

    ``run_one`` returns (raw seconds, reference seconds) and appends the
    kernel times it measured to ``kernels``, which starts with one kernel run.
    ``done(n, elapsed, typical)`` sees the runs made, the seconds spent and
    the median run time plus one kernel run.  Returns the raw seconds, the
    reference seconds and the kernel times.
    """
    from perfbench import calibrate

    kernels = [calibrate.kernel_seconds()]
    raw, scaled = [], []
    start = time.perf_counter()
    while True:
        r, s = run_one(kernels)
        raw.append(r)
        scaled.append(s)
        typical = statistics.median(raw) + kernels[-1]
        if done(len(raw), time.perf_counter() - start, typical):
            return raw, scaled, kernels


def until(seconds: float, min_runs: int):
    """Stop rule: at least min_runs, and no run that would end after ``seconds``."""
    return lambda n, elapsed, typical: n >= min_runs and elapsed + typical > seconds


class Clock:
    """Times entry-point calls, running the calibration kernel after each.

    A call is scaled to reference seconds by the kernel times right before
    and right after it.  With a tracer, the wrappers are installed for the
    call only, so the kernel always runs unwrapped.
    """

    def __init__(self, kernels: list, tracer=None):
        self.kernels = kernels
        self.tracer = tracer
        self.raw = self.scaled = 0.0

    def __call__(self, fn, *args):
        from perfbench import calibrate

        if self.tracer is None:
            start = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - start
        else:
            self.tracer.install()
            try:
                out, dt = self.tracer.run(fn, *args)
            finally:
                self.tracer.uninstall()
        self.kernels.append(calibrate.kernel_seconds())
        self.raw += dt
        self.scaled += calibrate.scale(dt, self.kernels[-2], self.kernels[-1])
        return out


class Passes:
    """Runs passes, checks each against the reference, keeps the figures."""

    def __init__(self, workload, inputs, ref, subset):
        self.workload, self.inputs, self.ref, self.subset = workload, inputs, ref, subset
        self.attempted = self.failed = self.mismatches = 0
        self.rise = 0.0
        self.fail_frac = 0.0
        self.limit = None
        self.points = self.used = 0

    def run(self, kernels: list, tracer=None) -> tuple[float, float]:
        """One pass: (raw seconds, reference seconds) of its entry-point calls."""
        from perfbench.verdicts import compare
        from perfbench.workloads import run_pass

        clock = Clock(kernels, tracer)
        outcome = run_pass(self.workload, self.inputs, OUT_DIR, clock)
        check = compare(self.workload, self.ref, outcome.rows, self.subset)
        self.attempted += check.rows
        self.failed += check.bad_rows
        self.mismatches += check.verdict_mismatches
        self.rise = max(self.rise, check.residual_rise)
        self.fail_frac = max(self.fail_frac, check.fail_frac)
        self.limit = check.limit
        self.points, self.used = outcome.points_requested, outcome.points_used
        return clock.raw, clock.scaled

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.mismatches == 0

    def summary(self) -> dict:
        return {
            "verdict_mismatches": self.mismatches,
            "residual_rise": self.rise,
            "residual_rise_limit": self.limit,
            "fail_frac": self.fail_frac,
            "points_requested": self.points,
            "points_used": self.used,
        }


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def end_to_end(args, passes, conditions) -> tuple[dict, dict]:
    setup_main = conditions.pop("setup_main_s")
    setup_raw, setup = measure_setup(args.workload, args.seed, args.size)
    raw, scaled, kernels = repeat(passes.run, until(args.seconds, MIN_PASSES))
    wall = statistics.median(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "points_per_s": {"value": passes.points / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    info = {
        "passes": len(raw),
        "wall_s_upper_quartile": upper_quartile(scaled),
        "pass_s": scaled,
        "pass_s_raw": raw,
        "wall_s_raw_median": statistics.median(raw),
        "kernel_s": kernels,
        "setup_s_samples": setup,
        "setup_s_raw_samples": setup_raw,
        "setup_main_process_s": setup_main,
    }
    return metrics, info


def per_layer(args, passes, conditions) -> tuple[dict, dict, list[str]]:
    from bicausal.identities import IDENTITY_NAMES
    from perfbench.spans import ROOT as ROOT_SPAN
    from perfbench.spans import SKIP_COUNTER, Tracer, installed_wrappers, self_times

    problems = []
    untraced_raw, untraced, _ = repeat(passes.run, until(args.seconds / 2.0, 1))
    if installed_wrappers():
        problems.append("wrappers installed during an untraced pass")

    tracer = Tracer()
    counts, selfs = [], []

    def traced_pass(kernels: list) -> tuple[float, float]:
        tracer.reset()
        times = passes.run(kernels, tracer)
        counts.append(dict(tracer.counts))
        own, gap = self_times(tracer.spans)
        selfs.append(own)
        if gap > 1e-9:
            problems.append(f"span self times miss the pass duration by {gap:.3g}")
        return times

    traced_raw, traced, kernels = repeat(
        traced_pass, until(args.seconds / 2.0, MIN_TRACED_PASSES)
    )
    left = installed_wrappers()
    if left:
        problems.append(f"wrappers left installed: {left}")
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced passes")

    untraced_wall = statistics.median(untraced_raw)
    overhead_s = max(statistics.median(traced_raw) - untraced_wall, 0.0)
    unattributed = statistics.median(s.get(ROOT_SPAN, 0.0) for s in selfs)
    # Time outside every layer span must stay within the tracing overhead.
    if unattributed > overhead_s + 0.02 * untraced_wall:
        problems.append(f"{unattributed:.3f} s of a pass lies outside every layer span")

    pts = passes.points
    count = counts[0]
    # Per-pass factor from raw to reference seconds.
    factors = [t / r for t, r in zip(traced, traced_raw)]

    def ms(name):
        return 1e3 * statistics.median(s.get(name, 0.0) * f for s, f in zip(selfs, factors))

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("shape", "tangent_derivatives", "frame_data"):
        put(f"surfaces.{name}.ms_per_pt", ms(f"surfaces.{name}") / pts, "ms/pt")
    for name in IDENTITY_NAMES:
        put(f"identities.{name}.ms_per_pt", ms(f"identities.{name}") / pts, "ms/pt")
    put("identities.curvature_suite.ms_per_pt", ms("identities.curvature_suite") / pts, "ms/pt")
    evaluations = sum(count.get(f"identities.{n}", 0) for n in IDENTITY_NAMES)
    put("identities.skipped_frac",
        count.get(SKIP_COUNTER, 0) / evaluations if evaluations else 0.0, "frac")
    for name in ("frame", "metric", "to_frame", "connection_table", "christoffels",
                 "cov_deriv_on_curve"):
        put(f"ambient.{name}.calls_per_pt", count.get(f"ambient.{name}", 0) / pts, "calls/pt")
    put("ambient.cov_deriv_on_curve.ms_per_pt", ms("ambient.cov_deriv_on_curve") / pts, "ms/pt")
    put("linalg.solve.calls_per_pt", count.get("linalg.solve", 0) / pts, "calls/pt")
    put("numdiff.central_diff.calls_per_pt", count.get("numdiff.central_diff", 0) / pts,
        "calls/pt")
    for name in ("metric", "frame", "to_frame", "christoffels"):
        put(f"groups.{name}.calls_per_pt", count.get(f"groups.{name}", 0) / pts, "calls/pt")
    put("groups.cov_deriv_on_curve.ms_per_pt", ms("groups.cov_deriv_on_curve") / pts, "ms/pt")
    put("catalog.build_surface.ms", ms("catalog.build_surface"), "ms/pass")
    put("catalog.build_surface.calls", count.get("catalog.build_surface", 0), "calls/pass")
    put("suite.run_suite.self_ms", ms("suite.run_suite"), "ms/pass")
    put("suite.points_used_frac", passes.used / pts, "frac")
    put("cli.cmd_report.self_ms", ms("cli.cmd_report"), "ms/pass")
    put("trace.overhead_frac",
        statistics.median(traced) / statistics.median(untraced) - 1.0, "frac")

    info = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "untraced_pass_s_raw": untraced_raw,
        "traced_pass_s_raw": traced_raw,
        "kernel_s": kernels,
        "unattributed_s": unattributed,
        "missing_targets": tracer.missing,
        "counts": count,
        "self_ms": {k: 1e3 * v for k, v in sorted(selfs[-1].items())},
    }
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {"conditions": conditions, "span_fields": ["name", "id", "parent", "start", "end"],
             "spans": tracer.spans, "counts": count},
            fh,
        )
    info["spans_file"] = os.path.relpath(path, ROOT)
    return metrics, info, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    fd_step_was_set = pin_environment()
    if not os.path.isdir(os.path.join(SRC, "bicausal")):
        print(f"error: no package source at {SRC}/bicausal; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import NAMES, config_seed, make_inputs

    if args.workload not in NAMES:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(NAMES)}",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    import bicausal
    import numpy

    inputs = make_inputs(args.workload, args.seed, args.size == "tiny")
    setup_main = time.perf_counter() - start
    if not os.path.abspath(bicausal.__file__).startswith(SRC + os.sep):
        print(f"error: bicausal imported from {bicausal.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench.verdicts import load_reference

    os.makedirs(OUT_DIR, exist_ok=True)
    steps = bicausal.FDSteps.from_env()
    conditions = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": config_seed(args.seed) if inputs["seed"] is not None else None,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fd_first_step": steps.first,
        "fd_second_step": steps.second,
        "fd_step_env_unset": fd_step_was_set,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "setup_main_s": setup_main,
    }
    ref = load_reference(args.workload, inputs["seed"])
    passes = Passes(args.workload, inputs, ref, subset=args.size == "tiny")

    problems: list[str] = []
    if args.trace:
        conditions.pop("setup_main_s")
        metrics, info, problems = per_layer(args, passes, conditions)
    else:
        metrics, info = end_to_end(args, passes, conditions)
    correct = passes.correct and not problems
    print(json.dumps({"conditions": conditions, **info, **passes.summary(),
                      "problems": problems}))
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
