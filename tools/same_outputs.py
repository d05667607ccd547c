"""Check that two source trees give byte-identical outputs on a fixed set of runs.

Usage::

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is the ``src`` directory of a checkout (the one holding the
``bicausal`` package), for instance of the parent commit, unpacked with
``git archive PARENT src | tar -x -C DIR`` or checked out with
``git worktree add``.  Every run is ``python -m bicausal ...`` or
``python -c ...`` in a fresh subprocess with that directory first on
``PYTHONPATH`` and ``BICAUSAL_FD_STEP`` unset, so the two trees never share
a process.  The runs are the output set that a change claiming bit-identical
results must keep:

* ``verify --seed s --json`` for s = 0..7 (JSON apart from ``generated_at``,
  and stdout);
* ``verify --samples 1``, where each row's maximum is one sample's residual,
  and ``verify --samples 30`` on a subset that mixes identities that draw
  with stacked ones, on a subset of six identities of which none draws
  tangent directions, so that no surface's batch holds the Riemannian shape
  operators and every join builds its own, with the stacked curves of
  ``KILLING_R`` and ``CONN_DIFF``, and with all identities at (4,1), where
  ``graph:bowl:a=0.2`` loses 2 samples to ``ILL_CONDITIONED`` inside an
  evaluation of four coordinate-model surfaces;
* ``verify`` at tau = 0 and small tau, and on the group-model helicoids:
  with all identities, with two subsets of only the identities that draw,
  given out of registry order, and with ``--samples 1``; and on the su11
  families ``p`` and ``p1``, ``h1`` with ``t_rate`` and the Berger helicoid
  at alpha = 0.7, with and without a ``variant`` band, so that every
  stacked chart is compared;
* ``verify`` of both variants of one helicoid where one variant has no band:
  the su11 family ``h1`` at (-1,0.3), whose time variant is skipped after its
  space variant was built on the same ambient, and the Berger helicoid at
  alpha = -0.7 at (1,1), whose space variant is skipped, so that the skip
  lines of the shared band detection are compared;
* ``verify`` of coordinate- and group-model surfaces given interleaved, at
  (1,1), where the slice is unavailable, and at (1,0), where the group-model
  ones are;
* ``report`` CSVs of ``graph:bowl:a=0.2`` at five parameter pairs, a 64x64
  grid, 17x17 grids at (1,0) and at (-1,0), in the disk (three stacks of rows
  each, each stack through one tau = 0 connection table that serves both
  metrics), both group helicoids, the su11 family ``e``,
  ``slice:t0=0.1`` and two Hopf cylinders, whose rows are all
  ``SIGN_AMBIGUOUS``, and of ``graph:bowl:a=0.6`` on a 33x33 grid at (4,1),
  where 16 rows skip their curvature columns as ``NULL_DIRECTION``;
* what the catalog alone decides: ``surfaces``, with and without
  ``--params`` at six pairs; ``verify --samples 2`` of short addresses that
  the catalog completes with its defaults, at four pairs, whose skip lines
  carry each address and reason, and of Hopf cylinders that leave the disk
  beside one inside it;
  the errors of four malformed addresses; and ``mesh`` as obj and as csv,
  with the obj of a group-model surface refused;
* through the Python API, ``evaluate_samples`` of all 25 identities on two
  planes at the disk edge, where stencil rows leave the model, one of them
  timelike with no null-free adapted basis, and on a plane folded at one
  center and at one stencil row: every skip that the default verify never
  meets (``DOMAIN_VIOLATION``, ``NULL_DIRECTION``), printed with
  ``float.hex``, with the generator's final state, each excluded sample's
  error class and message (the domain check's ``p!r`` text), and each
  sample's stencil error class and message and ``curvature_suite`` (or its
  skip), so that the stencil rows of a batch with excluded centers are
  compared;
  and ``evaluate_samples`` of all 25 identities on every default surface at
  (1,1) and (-1,1), coordinate and group models, printing every residual
  with ``float.hex``: the verify report shows only each row's maximum, so a
  residual below it that moves by one ulp would go unseen there;
* through the Python API, ``evaluate_samples`` of all 25 identities and of
  four that draw, on ``graph:bowl:a=0.2`` at (1,1), the su11 helicoid
  family ``h1`` at (-1,1) and a Berger helicoid at (1,1), with the ambient's
  ``curve_error`` and ``curve_stencils`` patched so that a curve whose
  velocity has a first coordinate above 0.8 leaves the model: the samples
  whose KILLING draws stop are drawn one by one and the rest in one call
  (``draw_plan``), and every outcome is printed with ``float.hex``, with
  the generator's state after each run;
* through the Python API, the one-row ``frame``, ``metric`` (R and L),
  ``frame_partials`` and ``point_table`` (R and L) of the coordinate model
  at (1,1), (1,0), (-1,0), (0,0) and (-4,1), on points with signed zeros and
  points 1e-7 inside the disk edge, printed with ``float.hex``: at tau = 0
  the one-row table, which no batch takes, of each signature; and
  ``indefiniteness_check`` on a 4x4 interior grid of every default surface
  at (0,1), (4,1), (-1,1) and (1,1).

Prints ``identical``, or the first differing output with its first differing
line, and exits 0 or 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

OUT = "OUTPUT"  # placeholder for the run's output file

CASES: list[tuple[str, list[str]]] = [
    (f"verify seed {s}", ["verify", "--seed", str(s), "--json", OUT]) for s in range(8)
]
CASES += [
    ("verify --samples 1", ["verify", "--samples", "1", "--json", OUT]),
    (
        "verify --samples 30, mixed identities",
        ["verify", "--samples", "30", "--seed", "3",
         "--identities", "INT1_R,SHAPE_L,GAUSS_L,NORMCURV", "--json", OUT],
    ),
    (
        "verify --samples 30, no identity that draws directions",
        ["verify", "--samples", "30", "--identities",
         "MEANCURV_R,MEANCURV_L,INT2_L,EXTRINSIC_REL,KILLING_R,CONN_DIFF", "--json", OUT],
    ),
    (
        "verify --samples 30 at (4,1), some samples ill-conditioned",
        ["verify", "--params", "4,1", "--samples", "30", "--seed", "0", "--json", OUT],
    ),
    (
        "verify tau = 0 and small tau",
        ["verify", "--params", "1,0", "--params", "-1,0", "--params", "0,0",
         "--params", "1,1e-3", "--json", OUT],
    ),
]
CASES += [
    (
        f"verify group helicoids at ({pair})",
        ["verify", "--params", pair, "--surfaces", "berger-helicoid",
         "--surfaces", "su11-helicoid", "--samples", "12", "--json", OUT],
    )
    for pair in ("1,1", "4,1", "-1,1")
]
CASES += [
    (
        f"verify group helicoids at ({pair}), --identities {subset}",
        ["verify", "--params", pair, "--surfaces", "berger-helicoid",
         "--surfaces", "su11-helicoid", "--samples", "12", "--identities", subset,
         "--json", OUT],
    )
    for pair in ("1,1", "-1,1")
    for subset in ("KILLING_L,NORMCURV,METRIC_SUM", "CONN_DIFF,BILINEAR_R,SHAPE_L")
]
CASES += [
    (
        f"verify group helicoids at ({pair}), --samples 1",
        ["verify", "--params", pair, "--surfaces", "berger-helicoid",
         "--surfaces", "su11-helicoid", "--samples", "1", "--json", OUT],
    )
    for pair in ("1,1", "4,1", "-1,1")
]
CASES += [
    (
        "verify of more group helicoids at (-1,1), (-2,0.7) and (4,1)",
        ["verify", "--params", "-1,1", "--params", "-2,0.7", "--params", "4,1",
         "--samples", "6", "--surfaces", "su11-helicoid:family=p",
         "--surfaces", "su11-helicoid:family=p1,variant=time",
         "--surfaces", "su11-helicoid:family=h1,t_rate=0.5,variant=space",
         "--surfaces", "berger-helicoid:alpha=0.7",
         "--surfaces", "berger-helicoid:alpha=0.7,variant=space", "--json", OUT],
    ),
]
CASES += [
    (
        "verify of both variants where one has no band, at (-1,0.3) and (1,1)",
        ["verify", "--params", "-1,0.3", "--params", "1,1", "--samples", "4",
         "--surfaces", "su11-helicoid:family=h1,variant=space",
         "--surfaces", "su11-helicoid:family=h1,variant=time",
         "--surfaces", "berger-helicoid:alpha=-0.7,variant=space",
         "--surfaces", "berger-helicoid:alpha=-0.7,variant=time", "--json", OUT],
    ),
]
CASES += [
    (
        "verify interleaved models at (1,1) and (1,0)",
        ["verify", "--params", "1,1", "--params", "1,0", "--samples", "5",
         "--surfaces", "graph:bowl:a=0.2", "--surfaces", "berger-helicoid:alpha=0.5,variant=time",
         "--surfaces", "slice:t0=0.1", "--surfaces", "hopf:circle",
         "--surfaces", "berger-helicoid:alpha=0.5,variant=space", "--json", OUT],
    ),
]
CASES += [
    (f"report graph:bowl:a=0.2 at ({pair})",
     ["report", "graph:bowl:a=0.2", "--params", pair, "--csv", OUT])
    for pair in ("1,1", "1,0", "-1,1", "-1,0", "0,0")
]
CASES += [
    ("report graph:bowl:a=0.2 64x64 at (1,1)",
     ["report", "graph:bowl:a=0.2", "--params", "1,1", "--grid", "64x64", "--csv", OUT]),
    # 289 rows in three stacks, each through the tau = 0 connection table
    ("report graph:bowl:a=0.2 17x17 at (1,0)",
     ["report", "graph:bowl:a=0.2", "--params", "1,0", "--grid", "17x17", "--csv", OUT]),
    ("report graph:bowl:a=0.2 17x17 at (-1,0)",
     ["report", "graph:bowl:a=0.2", "--params", "-1,0", "--grid", "17x17", "--csv", OUT]),
    ("report berger-helicoid at (1,1)",
     ["report", "berger-helicoid", "--params", "1,1", "--csv", OUT]),
    ("report su11-helicoid at (-1,1)",
     ["report", "su11-helicoid", "--params", "-1,1", "--csv", OUT]),
    ("report su11-helicoid:family=e at (-1,1)",
     ["report", "su11-helicoid:family=e", "--params", "-1,1", "--csv", OUT]),
    ("report slice:t0=0.1 at (-1,0)",
     ["report", "slice:t0=0.1", "--params", "-1,0", "--csv", OUT]),
    # vertical cylinders: every row is SIGN_AMBIGUOUS, where the sign tie rule acts
    ("report hopf:circle:r=0.9 at (1,0.5)",
     ["report", "hopf:circle:r=0.9", "--params", "1,0.5", "--csv", OUT]),
    ("report hopf:ellipse at (-1,1)",
     ["report", "hopf:ellipse", "--params", "-1,1", "--csv", OUT]),
    # rows flagged NULL_DIRECTION, whose curvature columns are left empty
    ("report graph:bowl:a=0.6 33x33 at (4,1)",
     ["report", "graph:bowl:a=0.6", "--params", "4,1", "--grid", "33x33", "--csv", OUT]),
]

# What the catalog alone decides: the family list, the default addresses, the
# addresses and skip reasons of short addresses, the errors of malformed ones
# and the meshes.
CASES += [("surfaces", ["surfaces"])]
CASES += [
    (f"surfaces --params {pair}", ["surfaces", "--params", pair])
    for pair in ("1,1", "-1,1", "-4,1", "0,0", "1,0", "0,1")
]
SHORT_ADDRESSES = (
    "hopf", "hopf:ellipse", "graph", "vgraph", "slice", "helicoid:variant=time",
    "berger-helicoid:variant=space", "su11-helicoid:family=e,t_rate=0.5",
)
CASES += [
    (
        "verify --samples 2 of short addresses",
        ["verify", "--samples", "2", "--params", "1,1", "--params", "-1,1",
         "--params", "0,1", "--params", "1,0",
         *(arg for address in SHORT_ADDRESSES for arg in ("--surfaces", address)),
         "--json", OUT],
    ),
    (
        "verify of Hopf cylinders outside the disk at (-1,1), beside one inside",
        ["verify", "--samples", "2", "--params", "-1,1", "--surfaces", "hopf:circle:r=2.5",
         "--surfaces", "hopf:ellipse:a=3", "--surfaces", "hopf:circle"],
    ),
]
CASES += [
    (f"verify of malformed {address}", ["verify", "--params", "1,1", "--surfaces", address])
    for address in ("hopf:circle:a=0.5", "hopf:ellipse:r=1", "graph:dome", "nosuch")
]
CASES += [
    ("mesh hopf:ellipse obj at (-1,1)",
     ["mesh", "hopf:ellipse", "--params", "-1,1", "--grid", "6x5", "--out", OUT]),
    ("mesh helicoid:variant=space obj at (0,1)",
     ["mesh", "helicoid:variant=space", "--params", "0,1", "--grid", "5x6", "--out", OUT]),
    ("mesh vgraph csv at (-4,1)",
     ["mesh", "vgraph", "--params", "-4,1", "--grid", "5x5", "--format", "csv", "--out", OUT]),
    ("mesh su11-helicoid csv at (-1,1)",
     ["mesh", "su11-helicoid:variant=time", "--params", "-1,1", "--grid", "5x5",
      "--format", "csv", "--out", OUT]),
    ("mesh berger-helicoid obj at (1,1), refused",
     ["mesh", "berger-helicoid", "--params", "1,1", "--out", OUT]),
]

# The edge planes of the batch tests: the plane z = 0 with samples whose
# stencils reach past the disk edge, a timelike plane 1.5 stencil steps
# inside the edge, and the plane z = 0 whose u-derivative vanishes at one
# center and at one stencil row, at the disk-edge pairs and at a singular pair.
EDGE_PLANES = """
import math
import numpy as np
from bicausal.ambient import CoordinateAmbient, SpaceParams
from bicausal.identities import IDENTITY_NAMES, SampleSkip, curvature_suite, evaluate_samples
from bicausal.surfaces import SurfaceChart, frame_batch

def plane(p0, du, dv):
    p0, du, dv = (np.array(a, dtype=float) for a in (p0, du, dv))
    return SurfaceChart("plane", lambda u, v: p0 + u * du + v * dv, ((-1.0, 1.0),) * 2,
                        lambda u, v: (du, dv))

def folded(folds):
    def jacobian(u, v):
        return np.array([0.0 if u in folds else 1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    return SurfaceChart("folded", lambda u, v: np.array([u, v, 0.0]), ((-1.0, 1.0),) * 2,
                        jacobian)

def suite(d):
    try:
        return " ".join(f"{k}={v.hex()}" for k, v in curvature_suite(d).items())
    except SampleSkip as skip:
        return "skip " + skip.reason
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

rng = np.random.default_rng(5)
for pair in [(-1.0, 0.0), (-4.0, 1.0), (-1.0, 0.5)]:
    amb = CoordinateAmbient(SpaceParams(*pair))
    h, edge = amb.steps.second, amb.params.disk_radius * math.sqrt(1.0 - 1e-6)
    x0 = edge - 1.5 * h
    lam = 1.0 / (1.0 + 0.25 * pair[0] * x0 * x0)
    planes = [
        (plane((0, 0, 0), (1, 0, 0), (0, 1, 0)),
         [(x0, 0.0), (0.0, edge - 0.5 * h), (0.3, 0.2), (edge + h, 0.0)]),
        (plane((x0, 0, 0), (1, 0, 10 * lam), (0, 0.2, 3 * lam)),
         [(0.0, 0.0), (-0.3, 0.0), (-0.5, 0.4), (0.0, 0.1)]),
        (folded({0.3, 0.5 + h}), [(0.1, 0.2), (0.3, 0.2), (0.5, 0.2), (0.7, 0.1)]),
    ]
    for chart, uvs in planes:
        samples = []
        for uv, d in zip(uvs, frame_batch(amb, chart, uvs)):
            if hasattr(d, "code"):
                print(pair, uv, "excluded", d.code, type(d).__name__, str(d))
            else:
                samples.append(d)
                err = d.stencil_error()
                print(pair, uv, "stencil", type(err).__name__, str(err), suite(d))
        for d, out in zip(samples, evaluate_samples(IDENTITY_NAMES, samples, rng)):
            for name, got in out.items():
                value = got.get("skipped") or " ".join(map(float.hex, got["residuals"]))
                print(pair, d.uv, name, value)
print(rng.bit_generator.state)
"""
CASES += [("evaluate_samples on the edge planes", ["-c", EDGE_PLANES])]

# Every residual of every identity, not only each row's maximum.
ALL_RESIDUALS = """
import numpy as np
from bicausal.ambient import SpaceParams
from bicausal.catalog import build_surface, default_surfaces
from bicausal.identities import IDENTITY_NAMES, evaluate_samples
from bicausal.suite import sample_points
from bicausal.surfaces import frame_batch

rng = np.random.default_rng(11)
for pair in [(1.0, 1.0), (-1.0, 1.0)]:
    params = SpaceParams(*pair)
    for address in default_surfaces(params):
        built = build_surface(address, params)
        uvs = sample_points(built.chart, 8, rng, built.ambient.steps.second)
        batch = frame_batch(built.ambient, built.chart, uvs)
        samples = [d for d in batch if not hasattr(d, "code")]
        for d, out in zip(samples, evaluate_samples(IDENTITY_NAMES, samples, rng)):
            for name, got in out.items():
                value = got.get("skipped") or " ".join(map(float.hex, got["residuals"]))
                print(pair, address, d.uv, name, value)
print(rng.bit_generator.state)
"""
CASES += [("evaluate_samples: every residual at (1,1) and (-1,1)", ["-c", ALL_RESIDUALS])]

# KILLING curves forced to leave the model, in the coordinate and both group
# models: the samples whose draws stop take them one by one, the others in
# one call, so the outcomes and the final state compare both ways of drawing.
LEAVING_CURVES = """
import numpy as np
from bicausal.ambient import SpaceParams
from bicausal.catalog import build_surface
from bicausal.errors import CurveSingular
from bicausal.identities import IDENTITY_NAMES, evaluate_samples
from bicausal.surfaces import frame_batch

def leave(ambient):
    # a curve whose velocity has a first coordinate above 0.8 leaves the model,
    # for the one-curve check and for the stacked curves alike
    error, stencils = ambient.curve_error, ambient.curve_stencils

    def leaving(vel):
        return CurveSingular("curve leaves the model at t=0.0") if vel[0] > 0.8 else None

    def curve_stencils(points, velocities, h):
        out, errors = stencils(points, velocities, h)
        return out, [[leaving(v) or e for v, e in zip(curves, row)]
                     for curves, row in zip(velocities, errors)]

    ambient.curve_error = lambda p, vel, h: leaving(vel) or error(p, vel, h)
    ambient.curve_stencils = curve_stencils

rng = np.random.default_rng(13)
for address, pair in [("graph:bowl:a=0.2", (1.0, 1.0)),
                      ("su11-helicoid:family=h1,rate=0.35", (-1.0, 1.0)),
                      ("berger-helicoid:alpha=0.5,variant=space", (1.0, 1.0))]:
    built = build_surface(address, SpaceParams(*pair))
    leave(built.ambient)
    (u0, u1), (v0, v1) = built.chart.domain
    uvs = [(u0 + (i + 0.5) * (u1 - u0) / 4, v0 + (j + 0.5) * (v1 - v0) / 3)
           for i in range(4) for j in range(3)]
    samples = [d for d in frame_batch(built.ambient, built.chart, uvs) if not hasattr(d, "code")]
    for names in (IDENTITY_NAMES, ["KILLING_L", "NORMCURV", "METRIC_SUM", "KILLING_R"]):
        for d, out in zip(samples, evaluate_samples(names, samples, rng)):
            for name, got in out.items():
                value = got.get("skipped") or " ".join(map(float.hex, got["residuals"]))
                print(pair, address, d.uv, name, value)
        print(rng.bit_generator.state)
"""
CASES += [("evaluate_samples with KILLING curves that leave the model", ["-c", LEAVING_CURVES])]

# The coordinate primitives on one row, and ``indefiniteness_check``, which no
# CLI run reaches.
ONE_ROW = """
import math
import numpy as np
from bicausal.ambient import SIGNATURES, CoordinateAmbient, SpaceParams
from bicausal.catalog import build_surface, default_surfaces
from bicausal.identities import indefiniteness_check
from bicausal.surfaces import frame_data

def hexed(a):
    return " ".join(map(float.hex, np.asarray(a, dtype=float).ravel().tolist()))

for pair in [(1.0, 1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (-4.0, 1.0)]:
    amb = CoordinateAmbient(SpaceParams(*pair))
    r = amb.params.disk_radius
    edge = 2.0 if r is None else r * math.sqrt(1.0 - 1e-6) - 1e-7
    points = [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (0.3, -0.7, 1.25), (-1.1, 0.4, -2.0),
              (edge, -0.0, 0.5), (-0.0, -edge, -0.5)]
    for p in map(np.array, points):
        print(pair, p.tolist(), "frame", hexed(amb.frame(p)))
        print(pair, p.tolist(), "frame_partials", hexed(amb.frame_partials(p[None])))
        for sig in SIGNATURES:
            print(pair, p.tolist(), "metric", sig.value, hexed(amb.metric(sig, p)))
            print(pair, p.tolist(), "point_table", sig.value, hexed(amb.point_table(sig, p)))

for pair in [(0.0, 1.0), (4.0, 1.0), (-1.0, 1.0), (1.0, 1.0)]:
    params = SpaceParams(*pair)
    for address in default_surfaces(params):
        built = build_surface(address, params)
        (u0, u1), (v0, v1) = built.chart.domain
        for i in range(4):
            for j in range(4):
                uv = (u0 + (i + 1) * (u1 - u0) / 5, v0 + (j + 1) * (v1 - v0) / 5)
                try:
                    data = frame_data(built.ambient, built.chart, uv, validate=False)
                    got = indefiniteness_check(data)
                    out = " ".join(
                        f"{k}={v.hex() if isinstance(v, float) else v}" for k, v in got.items()
                    )
                except Exception as exc:
                    out = f"{type(exc).__name__}: {exc}"
                print(pair, address, uv, out)
"""
CASES += [("one-row coordinate primitives and indefiniteness_check", ["-c", ONE_ROW])]


def run_case(src: str, argv: list[str]) -> dict[str, str]:
    """Exit code, stdout, stderr and output file of one run, as text."""
    env = os.environ.copy()
    env.pop("BICAUSAL_FD_STEP", None)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "output")
        args = [path if a == OUT else a for a in argv]
        command = args if args[0] == "-c" else ["-m", "bicausal", *args]
        proc = subprocess.run(
            [sys.executable, *command],
            capture_output=True, text=True, env=env, cwd=tmp,
        )
        text = ""
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
    # the report's timestamp is the one field allowed to differ
    lines = [ln for ln in text.splitlines(keepends=True) if '"generated_at":' not in ln]
    stdout = proc.stdout.replace(path, OUT)
    return {
        "exit code": f"{proc.returncode}\n",
        "stdout": stdout,
        "stderr": proc.stderr.replace(path, OUT),
        "output file": "".join(lines),
    }


def first_difference(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}:\n  parent: {x}\n  change: {y}"
    return f"line {min(len(la), len(lb)) + 1}: one output ends ({len(la)} vs {len(lb)} lines)"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = argv
    for src in (parent, change):
        if not os.path.isdir(os.path.join(src, "bicausal")):
            print(f"{src!r} holds no bicausal package", file=sys.stderr)
            return 2
    jobs = [(src, args) for _, args in CASES for src in (parent, change)]
    # two subprocesses at a time: the runs are single-threaded and small
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: run_case(*job), jobs))
    for n, (name, _) in enumerate(CASES):
        old, new = results[2 * n], results[2 * n + 1]
        for key in old:
            if old[key] != new[key]:
                print(f"differs: {name}, {key}, {first_difference(old[key], new[key])}")
                return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
