"""The benchmark's workloads: inputs made from a seed, and one pass of each.

Every pass drives the package only through its public entry points
(``bicausal.cli.main`` for ``verify`` and ``report``, ``bicausal.run_suite``
for the group-model sweep) and returns the rows that the correctness check
compares against the committed reference.

``bicausal`` is imported inside the functions, never at module level, so the
runner can pin the thread variables before NumPy loads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass

NAMES = ("verify-default", "verify-group", "report-grid")

# Inputs repeat with this period in the seed: the reference holds the seed
# code's output for config seeds 0 .. REFERENCE_SEEDS - 1.
REFERENCE_SEEDS = 8

GROUP_PARAMS = ((1.0, 1.0), (4.0, 1.0), (-1.0, 1.0))
GROUP_SURFACES = (
    "berger-helicoid:alpha=0.5,variant=space",
    "berger-helicoid:alpha=0.5,variant=time",
    "su11-helicoid:family=h1,rate=0.35,variant=space",
    "su11-helicoid:family=h1,rate=0.35,variant=time",
)

REPORT_SURFACE = "graph:bowl:a=0.2"
REPORT_PARAMS = ("1,1", "1,0")
REPORT_GRID = "17x17"
# 5 - 1 divides 17 - 1, so the tiny grid's points are points of the full grid.
TINY_REPORT_GRID = "5x5"

# Numeric report columns compared by value; the rest are compared exactly.
REPORT_VALUE_COLUMNS = (
    "x", "y", "z", "w", "eps", "omega_L", "angle_L", "angle_R",
    "H_R", "H_L", "K_e^R", "K_e^L", "K_R", "K_L",
)


def config_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def make_inputs(name: str, seed: int, tiny: bool = False) -> dict:
    """The generated inputs of one workload: CLI argument lists or suite settings.

    ``tiny`` keeps a subset of the full inputs whose outputs are a subset of
    the full reference: the first parameter pair of the sweeps (the sweep's
    random stream is consumed parameters first), or a coarser report grid.
    """
    s = config_seed(seed)
    if name == "verify-default":
        argv = ["verify", "--seed", str(s)]
        if tiny:
            argv += ["--params", "1,1"]
        return {"argv": argv, "seed": s}
    if name == "verify-group":
        params = GROUP_PARAMS[:1] if tiny else GROUP_PARAMS
        return {"params": params, "surfaces": GROUP_SURFACES, "seed": s}
    if name == "report-grid":
        grid = TINY_REPORT_GRID if tiny else REPORT_GRID
        return {
            "argvs": [
                ["report", REPORT_SURFACE, "--params", p, "--grid", grid]
                for p in REPORT_PARAMS
            ],
            "seed": None,
        }
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


@dataclass
class Outcome:
    """What one pass produced, keyed for comparison with the reference.

    Verify rows map (identity, params, surface) to (status, max_residual);
    report rows map (params, u, v) to the CSV row as a dict of strings.
    """

    rows: dict
    points_requested: int
    points_used: int


def run_pass(name: str, inputs: dict, out_dir: str, call) -> Outcome:
    """Run one pass of a workload.

    Every entry-point call goes through ``call(fn, *args)``, which times it;
    reading the outputs back is not timed.
    """
    from bicausal import cli

    if name == "verify-default":
        path = _fresh(os.path.join(out_dir, "verify-default.json"))
        with contextlib.redirect_stdout(io.StringIO()):
            call(cli.main, inputs["argv"] + ["--json", path])
        with open(path) as fh:
            return _verify_outcome(json.load(fh))
    if name == "verify-group":
        import bicausal

        config = bicausal.SuiteConfig(
            params=inputs["params"], surfaces=inputs["surfaces"], seed=inputs["seed"]
        )
        # Looked up inside the call, so a traced call reaches the wrapped binding.
        return _verify_outcome(call(lambda: bicausal.run_suite(config)))
    if name == "report-grid":
        paths = []
        for i, argv in enumerate(inputs["argvs"]):
            path = _fresh(os.path.join(out_dir, f"report-grid-{i}.csv"))
            with contextlib.redirect_stdout(io.StringIO()):
                code = call(cli.main, argv + ["--csv", path])
            if code != 0:
                raise RuntimeError(f"bicausal {' '.join(argv)} exited with {code}")
            paths.append(path)
        return _report_outcome(inputs["argvs"], paths)
    raise ValueError(f"unknown workload {name!r}")


def _fresh(path: str) -> str:
    """Remove an output left by an earlier pass, so a pass never reads it back."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    return path


def _verify_outcome(report: dict) -> Outcome:
    rows = {
        (r["identity"], r["params"], r["surface"]): (
            r["status"],
            None if r["max_residual"] is None else float(r["max_residual"]),
        )
        for r in report["results"]
    }
    return Outcome(
        rows=rows,
        points_requested=sum(s["points_requested"] for s in report["surfaces"]),
        points_used=sum(s["points_used"] for s in report["surfaces"]),
    )


def _report_outcome(argvs: list, paths: list) -> Outcome:
    rows = {}
    for argv, path in zip(argvs, paths):
        params = argv[argv.index("--params") + 1]
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rows[(params, row["u"], row["v"])] = row
    computed = sum(1 for row in rows.values() if row.get("H_R"))
    return Outcome(rows=rows, points_requested=len(rows), points_used=computed)
