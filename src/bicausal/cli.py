"""Command-line interface: verify identities, tabulate surface data, export meshes.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys

import numpy as np

from .ambient import SpaceParams, Signature
from .catalog import CATALOG, build_surface, default_surfaces
from .errors import ConfigInvalid, GeometryError, UnsupportedFormat
from .identities import IDENTITIES, IDENTITY_NAMES, SampleSkip, curvature_suite
from .suite import (
    DEFAULT_PARAMS,
    NON_FINITE,
    SuiteConfig,
    check_config,
    checked_nothing,
    run_suite,
)
from .surfaces import DEGENERATE, frame_batch, uv_columns

# Grid rows per ``frame_batch`` in ``report``.  A fixed size bounds the stacks'
# memory, whatever the grid: the stencil stage holds eight rows per sample.  At
# 128 rows the peak RSS of perfbench's report-grid is 1.2% above that at 64
# (BENCH_23.json).
REPORT_BATCH_ROWS = 128


def _parse_params(values) -> tuple[tuple[float, float], ...]:
    if not values:
        return DEFAULT_PARAMS
    out = []
    for text in values:
        parts = text.split(",")
        if len(parts) != 2:
            raise ConfigInvalid(f"--params wants 'kappa,tau', got {text!r}")
        try:
            out.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigInvalid(f"bad number in --params {text!r}: {exc}") from None
    return tuple(out)


def _parse_tols(values) -> dict:
    out = {}
    for text in values or ():
        if "=" not in text:
            raise ConfigInvalid(f"--tol wants IDENTITY=value, got {text!r}")
        name, value = text.split("=", 1)
        name = name.strip()
        if name not in IDENTITIES:
            raise ConfigInvalid(f"unknown identity {name!r} in --tol; known: {IDENTITY_NAMES}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigInvalid(f"bad tolerance value in --tol {text!r}") from None
        if not (0 < out[name] < math.inf):
            raise ConfigInvalid(f"tolerance must be positive and finite in --tol {text!r}")
    return out


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigInvalid(f"--grid wants NUxNV like 10x10, got {text!r}")
    try:
        nu, nv = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigInvalid(f"--grid wants integers, got {text!r}") from None
    if nu < 2 or nv < 2:
        raise ConfigInvalid("--grid needs at least 2 points per axis")
    return nu, nv


def _grid_points(chart, nu: int, nv: int):
    (ulo, uhi), (vlo, vhi) = chart.domain
    us = np.linspace(ulo, uhi, nu)
    vs = np.linspace(vlo, vhi, nv)
    return us, vs


def _strict_json(report: dict) -> dict:
    """The report with each non-finite residual as None, which JSON writes as null."""
    results = [
        {**row, "max_residual": None} if row.get("reason") == NON_FINITE else row
        for row in report["results"]
    ]
    return {**report, "results": results}


def _open_output(path: str, newline: str | None = None):
    """``path`` opened for writing; a path that cannot be written is a configuration error."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ConfigInvalid(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_verify(args) -> int:
    config = SuiteConfig(
        params=_parse_params(args.params),
        surfaces=tuple(args.surfaces) if args.surfaces else None,
        identities=tuple(args.identities.split(",")) if args.identities else None,
        samples=args.samples,
        seed=args.seed,
        tolerances=_parse_tols(args.tol),
    )
    # checked, then opened, before the sweep: a path that cannot be written
    # fails at once, and a bad configuration leaves an existing file as it was
    check_config(config)
    with _open_output(args.json) if args.json else contextlib.nullcontext() as out:
        report = run_suite(config)
        if out:
            json.dump(_strict_json(report), out, indent=2, allow_nan=False)
            out.write("\n")

    by_surface: dict[tuple[str, str], list] = {}
    for row in report["results"]:
        by_surface.setdefault((row["params"], row["surface"]), []).append(row)
    for (par, surf), rows in by_surface.items():
        fails = [r for r in rows if r["status"] == "fail"]
        n_skip = sum(1 for r in rows if r["status"] == "skipped")
        evaluated = [r for r in rows if r["max_residual"] is not None]
        if fails:
            print(f"FAIL  {surf} @ ({par})")
            for r in fails:
                if r["max_residual"] is None:
                    # failed without an evaluated sample: every sample skipped it
                    reasons = ", ".join(f"{code} ({n})" for code, n in r["skipped"].items())
                    print(f"      {r['identity']}: no evaluated sample, skipped: {reasons}")
                    continue
                print(
                    f"      {r['identity']}: max residual {r['max_residual']:.3e}"
                    f" > tolerance {r['tolerance']:.1e} over {r['samples']} samples"
                )
        else:
            worst = max(
                evaluated, key=lambda r: r["max_residual"] / r["tolerance"], default=None
            )
            note = (
                f"worst {worst['identity']} {worst['max_residual']:.2e}/{worst['tolerance']:.0e}"
                if worst
                else "no applicable identities"
            )
            skip_note = f", {n_skip} skipped" if n_skip else ""
            print(f"pass  {surf} @ ({par}): {len(rows)} identities, {note}{skip_note}")
    for row in report["skipped_surfaces"]:
        print(f"skip  {row['surface']} @ ({row['params']}): {row['reason']}")
    s = report["summary"]
    verdict = "OK" if s["pass"] else "FAILED"
    if checked_nothing(report["surfaces"]):
        verdict += ": no sample was used"
    print(f"== {s['n_pass']} pass, {s['n_fail']} fail, {s['n_skipped']} skipped ({verdict})")
    return 0 if s["pass"] else 1


_REPORT_FIELDS = [
    "character",
    "eps",
    "omega_L",
    "angle_L",
    "angle_R",
    "H_R",
    "H_L",
    "K_e^R",
    "K_e^L",
    "K_R",
    "K_L",
    "flags",
]


def _report_row(uv, point, data) -> dict:
    """The CSV row of the grid point uv at ``point``, from its frame data or its error."""
    u, v = uv
    row: dict = {"u": f"{u:.12g}", "v": f"{v:.12g}"}
    names = ("x", "y", "z", "w")[: len(point)]
    for name, value in zip(names, point):
        row[name] = f"{value:.12g}"
    if isinstance(data, GeometryError):
        row["character"] = DEGENERATE if data.code == "DEGENERATE_INPUT" else ""
        row["flags"] = data.code
        return row
    flags = list(data.flags)
    row.update(
        character=data.character,
        eps=f"{data.eps:.0f}",
        omega_L=f"{data.omega_l:.12g}",
        angle_L=f"{data.angle_l:.12g}",
        angle_R=f"{data.angle_r:.12g}",
    )
    try:
        curv = curvature_suite(data)
        row.update(
            H_R=f"{data.h_r:.12g}",
            H_L=f"{data.h_l:.12g}",
            **{
                "K_e^R": f"{curv['ke_R']:.12g}",
                "K_e^L": f"{curv['ke_L']:.12g}",
                "K_R": f"{curv['k_R']:.12g}",
                "K_L": f"{curv['k_L']:.12g}",
            },
        )
    except (SampleSkip, GeometryError) as exc:
        flags.append(getattr(exc, "reason", None) or getattr(exc, "code", "ERROR"))
    row["flags"] = ";".join(sorted(set(flags)))
    return row


def _write_batch(writer, built, rows: list, fieldnames: list) -> None:
    """Write the CSV rows of the grid points ``rows``, framed as one batch.

    Each row is a list in ``fieldnames`` order, with "" for a field it
    lacks.  A function of its own, so that a batch and its stages are freed
    when it returns, before ``cmd_report`` builds the next one.
    """
    batch = frame_batch(built.ambient, built.chart, rows)
    # an excluded row has no frame data: its point is charted again, in one stack
    excluded = [uv for uv, d in zip(rows, batch) if isinstance(d, GeometryError)]
    charted = iter(built.chart.points(*uv_columns(excluded), built.ambient.dim)[0])
    for uv, data in zip(rows, batch):
        point = next(charted) if isinstance(data, GeometryError) else data.point
        row = _report_row(uv, point, data)
        writer.writerow([row.get(name, "") for name in fieldnames])


def cmd_report(args) -> int:
    params = _parse_params([args.params])[0]
    built = build_surface(args.surface, SpaceParams(*params))
    nu, nv = _parse_grid(args.grid)
    us, vs = _grid_points(built.chart, nu, nv)
    coord_names = ["x", "y", "z"] + (["w"] if built.group_model else [])
    fieldnames = ["u", "v"] + coord_names + _REPORT_FIELDS

    sink = _open_output(args.csv, newline="") if args.csv else contextlib.nullcontext(sys.stdout)
    with sink as out:
        writer = csv.writer(out)
        writer.writerow(fieldnames)
        grid = [(float(u), float(v)) for u in us for v in vs]
        for start in range(0, len(grid), REPORT_BATCH_ROWS):
            _write_batch(writer, built, grid[start : start + REPORT_BATCH_ROWS], fieldnames)
    if args.csv:
        print(f"wrote {nu * nv} rows for {built.address} to {args.csv}")
    return 0


def cmd_mesh(args) -> int:
    params = _parse_params([args.params])[0]
    space = SpaceParams(*params)
    built = build_surface(args.surface, space)
    nu, nv = _parse_grid(args.grid)
    if args.format == "obj" and built.group_model:
        raise UnsupportedFormat(
            "obj output needs 3 coordinates; "
            f"{built.address} lives in the 4-dimensional group model (use --format csv)"
        )
    us, vs = _grid_points(built.chart, nu, nv)
    us, vs = np.repeat(us, nv), np.tile(vs, nu)
    points, _ = built.chart.points(us, vs, built.ambient.dim)
    with _open_output(args.out, newline="") as fh:
        if args.format == "obj":
            fh.write(f"# {built.address} at ({space.label()}), {nu}x{nv} grid\n")
            for x, y, z in points:
                fh.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
            for iu in range(nu - 1):
                for iv in range(nv - 1):
                    a = iu * nv + iv + 1
                    b = a + nv
                    fh.write(f"f {a} {b} {b + 1} {a + 1}\n")
        else:
            names = ("x", "y", "z", "w") if built.group_model else ("x", "y", "z")
            writer = csv.writer(fh)
            writer.writerow(["u", "v", *names])
            for u, v, point in zip(us, vs, points):
                writer.writerow([f"{u:.12g}", f"{v:.12g}", *(f"{c:.12g}" for c in point)])
    print(f"wrote {built.address} mesh ({nu}x{nv}, {args.format}) to {args.out}")
    return 0


def cmd_surfaces(args) -> int:
    if args.params:
        params = _parse_params([args.params])[0]
        for address in default_surfaces(SpaceParams(*params)):
            print(address)
        return 0
    for family, entry in CATALOG.items():
        labels = f" labels: {', '.join(entry.labels)}" if entry.labels else ""
        print(f"{family}: {entry.description} [{entry.validity}]{labels}")
    return 0


def cmd_identities(args) -> int:
    for name in IDENTITY_NAMES:
        print(f"{name}\t{IDENTITIES[name].tolerance:.0e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicausal",
        description=(
            "Numerical checks for surfaces measured simultaneously by the"
            " Riemannian and Lorentzian metrics of the twisted homogeneous spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--params", action="append", metavar="K,T",
                   help="parameter pair kappa,tau (repeatable; default: built-in list)")
    p.add_argument("--surfaces", action="append", metavar="ADDRESS",
                   help="surface address (repeatable; default: catalog defaults per pair)")
    p.add_argument("--identities", metavar="A,B,...",
                   help="comma-separated identity names (default: all)")
    p.add_argument("--samples", type=int, default=8, metavar="N",
                   help="sample points per surface (default 8)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--tol", action="append", metavar="IDENTITY=X",
                   help="tolerance override (repeatable)")
    p.add_argument("--json", metavar="FILE", help="write the full report as JSON")

    p = sub.add_parser("report", help="tabulate pointwise surface data as CSV")
    p.add_argument("surface", help="surface address, e.g. hopf:circle:r=0.8")
    p.add_argument("--params", required=True, metavar="K,T", help="parameter pair kappa,tau")
    p.add_argument("--grid", default="16x16", metavar="NUxNV", help="grid size (default 16x16)")
    p.add_argument("--csv", metavar="FILE", help="output path (default: stdout)")

    p = sub.add_parser("mesh", help="export a surface mesh")
    p.add_argument("surface", help="surface address")
    p.add_argument("--params", required=True, metavar="K,T", help="parameter pair kappa,tau")
    p.add_argument("--grid", default="32x32", metavar="NUxNV", help="grid size (default 32x32)")
    p.add_argument("--format", choices=("obj", "csv"), default="obj")
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("surfaces", help="list catalog families or default addresses")
    p.add_argument("--params", metavar="K,T",
                   help="print default addresses for this pair instead of the family list")

    p = sub.add_parser("identities", help="list identity names and tolerances")
    return parser


def _merge_params_values(argv: list[str]) -> list[str]:
    """Join ``--params -1,1`` into ``--params=-1,1`` so negative kappa parses."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--params" and i + 1 < len(argv):
            out.append(f"--params={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


# One parser per process: building it costs about a millisecond per ``main`` call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_merge_params_values(argv))
    # looked up at each call, so that a command rebound on the module is the one run
    commands = {
        "verify": cmd_verify,
        "report": cmd_report,
        "mesh": cmd_mesh,
        "surfaces": cmd_surfaces,
        "identities": cmd_identities,
    }
    try:
        return commands[args.command](args)
    except (ConfigInvalid, UnsupportedFormat) as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
