"""Acceptance gate: the eleven guarantees this package ships with.

Each test prints exactly one line

    acceptance check N/11: PASS|FAIL — <name>: <details>

and then asserts it, so ``pytest -v tests/test_acceptance.py`` doubles as a
checklist (run with ``-s`` to see the lines for passing checks too).

Check 10 is expected to FAIL, deliberately.  Its final clause asserts that
vertical cylinders in a twisted geometry have equal sectional and equal
extrinsic curvatures under the two metrics.  The package's values do not
satisfy it: both gaps are exactly 2*tau^2, along three computation routes
whose values are frozen as regression anchors in test_curvature.py.  The
extrinsic clause fails on the exact values too (det A_R = -tau^2,
det A_L = +tau^2).  The sectional clause rests on the package's K_L, the
Gauss-equation value whose kbar_L is not divided by the Gram determinant of
the plane, a convention all three routes share; the Gauss curvature of the
induced Lorentzian metric of these cylinders is 0, like K_R.  The assertion
is kept faithful to the shipped guarantee list rather than silently
corrected; the failure message carries the measured numbers.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from bicausal import SpaceParams
from bicausal.ambient import CoordinateAmbient, Signature, connection_gap_frame
from bicausal.catalog import build_surface, default_surfaces, parse_surface
from bicausal.errors import GeometryError
from bicausal.identities import (
    curvature_suite,
    indefiniteness_check,
    intrinsic_curvature_r,
    ruling_defect,
    run_identities,
)
from bicausal.suite import OMEGA_CONDITION_LIMIT
from bicausal.surfaces import frame_data

from conftest import (
    UNTWISTED_PARAMS,
    gap_tensor,
    interior_grid,
    random_params,
    random_point,
)
from oracles import frame_orthonormality_defect, koszul_table

SIGS = (Signature.R, Signature.L)

# Parameter pairs used for the shared surface-sample pool (checks 4-6, 8, 9).
SAMPLE_PARAMS = ((1.0, 1.0), (-1.0, 1.0), (4.0, 1.0), (1.0, 0.5))


def _emit(num: int, name: str, ok: bool, details: str) -> str:
    line = f"acceptance check {num}/11: {'PASS' if ok else 'FAIL'} — {name}: {details}"
    print(line)
    return line


@lru_cache(maxsize=1)
def shared_samples():
    """Catalog samples over four parameter sets, skipping ill-conditioned
    points near the causal-character boundary (same policy as the runner)."""
    pool = []
    for pair in SAMPLE_PARAMS:
        params = SpaceParams(*pair)
        for address in default_surfaces(params):
            built = build_surface(parse_surface(address), params)
            for uv in interior_grid(built.chart.domain, 4, 4):
                try:
                    data = frame_data(built.ambient, built.chart, uv, validate=False)
                except GeometryError:
                    continue
                if data.omega_l > OMEGA_CONDITION_LIMIT:
                    continue
                pool.append((built.address, pair, data))
    return pool


def _collect(names, rng):
    """Run identities over the shared pool; worst residual and count per name."""
    worst = {n: 0.0 for n in names}
    counts = {n: 0 for n in names}
    for _, _, data in shared_samples():
        out = run_identities(list(names), data, rng)
        for name, res in out.items():
            if "skipped" in res:
                continue
            counts[name] += 1
            if res["residuals"]:
                worst[name] = max(worst[name], max(res["residuals"]))
    return worst, counts


def test_check_01_frame_and_metric_axioms():
    gen = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        params = random_params(gen)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, gen)
        for sig in SIGS:
            worst = max(worst, frame_orthonormality_defect(ambient, sig, p))
        xi, at = ambient.fiber_direction(p), ambient.point_frame(p)
        worst = max(worst, abs(at.inner(Signature.R, xi, xi) - 1.0))
        worst = max(worst, abs(at.inner(Signature.L, xi, xi) + 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    line = _emit(
        1,
        "frame and metric axioms",
        ok,
        f"max defect {worst:.2e} (tol 1e-12) over 1000 random configurations in {elapsed:.2f}s (limit 1s)",
    )
    assert ok, line


def test_check_02_connection_tables_against_koszul_oracle():
    gen = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    negative_curvature_seen = 0
    for i in range(100):
        params = random_params(gen)
        if i % 4 == 0:
            params = SpaceParams(-abs(params.kappa) - 0.1, params.tau)
        if params.kappa < 0:
            negative_curvature_seen += 1
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, gen)
        for sig in SIGS:
            table = ambient.connection_table(sig, p)
            oracle = koszul_table(ambient, sig, p, 1e-4)
            worst = max(worst, float(np.max(np.abs(table - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and negative_curvature_seen >= 25 and elapsed < 5.0
    line = _emit(
        2,
        "connection tables vs finite-difference Koszul oracle",
        ok,
        f"max residual {worst:.2e} (tol 1e-5) over 100 configurations "
        f"({negative_curvature_seen} with negative base curvature) in {elapsed:.2f}s (limit 5s)",
    )
    assert ok, line


def test_check_03_connection_gap_tensor():
    gen = np.random.default_rng(303)
    worst_frame = 0.0
    for _ in range(30):
        params = random_params(gen)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, gen)
        diff = ambient.connection_table(Signature.R, p) - ambient.connection_table(
            Signature.L, p
        )
        e = np.eye(3)
        for i in range(3):
            for j in range(3):
                gap = connection_gap_frame(params.tau, e[i], e[j])
                worst_frame = max(worst_frame, float(np.max(np.abs(gap - diff[i, j]))))

    worst_fd = 0.0
    for _ in range(10):
        params = random_params(gen)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, gen)
        x, y = gen.normal(size=3), gen.normal(size=3)
        curve = ambient.curve_through(p, x)
        derivs = {
            sig: ambient.cov_deriv_on_curve(sig, curve, lambda t: y, 1e-4, velocity=x)
            for sig in SIGS
        }
        closed = gap_tensor(ambient, p, x, y)
        worst_fd = max(
            worst_fd,
            float(np.max(np.abs((derivs[Signature.R] - derivs[Signature.L]) - closed))),
        )

    worst_untwisted = 0.0
    for kappa, tau in UNTWISTED_PARAMS:
        ambient = CoordinateAmbient(SpaceParams(kappa, tau))
        for _ in range(20):
            p = random_point(ambient, gen)
            x, y = gen.normal(size=3), gen.normal(size=3)
            gap = gap_tensor(ambient, p, x, y)
            worst_untwisted = max(worst_untwisted, float(np.max(np.abs(gap))))

    ok = worst_frame < 1e-10 and worst_fd < 1e-5 and worst_untwisted < 1e-12
    line = _emit(
        3,
        "difference tensor of the two connections",
        ok,
        f"frame fields {worst_frame:.2e} (tol 1e-10), FD fields {worst_fd:.2e} (tol 1e-5), "
        f"untwisted gap {worst_untwisted:.2e} (tol 1e-12)",
    )
    assert ok, line


def test_check_04_unit_normals_and_pairing():
    gen = np.random.default_rng(404)
    worst_routes = 0.0
    worst_unit = 0.0
    worst_pairing = 0.0
    characters: set[str] = set()
    surfaces: set[str] = set()

    # the shared twisted pool, plus the families that only exist at kappa=0
    # (coordinate helicoids) or tau=0 (horizontal slices)
    samples = list(shared_samples())
    for pair in ((0.0, 1.0), (1.0, 0.0)):
        params = SpaceParams(*pair)
        for address in default_surfaces(params):
            built = build_surface(parse_surface(address), params)
            for uv in interior_grid(built.chart.domain, 3, 3):
                try:
                    data = frame_data(built.ambient, built.chart, uv, validate=False)
                except GeometryError:
                    continue
                samples.append((built.address, pair, data))

    for address, _, data in samples:
        surfaces.add(address.split(":")[0])
        characters.add(data.character)
        inv = data.invariants
        worst_routes = max(worst_routes, inv["normal_routes"], inv["angle_transform"])
        worst_unit = max(worst_unit, inv["unit_normal_R"], inv["unit_normal_L"])
        out = run_identities(["NORMAL_PAIRING"], data, gen)
        worst_pairing = max(worst_pairing, max(out["NORMAL_PAIRING"]["residuals"]))
    ok = (
        worst_routes < 1e-9
        and worst_unit < 1e-10
        and worst_pairing < 1e-9
        and characters >= {"spacelike", "timelike"}
        and len(surfaces) == 7
    )
    line = _emit(
        4,
        "unit normal construction and pairing",
        ok,
        f"two normal routes agree to {worst_routes:.2e} (tol 1e-9), unit defect {worst_unit:.2e} "
        f"(tol 1e-10), pairing {worst_pairing:.2e} (tol 1e-9) over all {len(surfaces)} catalog "
        f"families, characters {sorted(characters)}",
    )
    assert ok, line


def test_check_05_shape_operator_identities():
    names = ("SHAPE_R", "SHAPE_L", "BILINEAR_R", "BILINEAR_L", "MEANCURV_R", "MEANCURV_L")
    gen = np.random.default_rng(505)
    start = time.perf_counter()
    worst, counts = _collect(names, gen)
    elapsed = time.perf_counter() - start
    n_samples = len(shared_samples())
    peak = max(worst.values())
    ok = (
        peak < 1e-4
        and n_samples >= 200
        and min(counts.values()) >= 200
        and len(SAMPLE_PARAMS) >= 3
        and elapsed < 30.0
    )
    line = _emit(
        5,
        "shape operator, bilinear and mean curvature relations",
        ok,
        f"max residual {peak:.2e} (tol 1e-4) over {n_samples} samples from "
        f"{len(SAMPLE_PARAMS)} parameter sets in {elapsed:.1f}s (limit 30s)",
    )
    assert ok, line


def test_check_06_integrability_relations():
    names = ("INT1_L", "INT2_L", "INT1_R", "INT2_R")
    gen = np.random.default_rng(606)
    worst, counts = _collect(names, gen)
    peak = max(worst.values())
    ok = peak < 1e-4 and min(counts.values()) >= 200
    line = _emit(
        6,
        "integrability relations, both signatures",
        ok,
        f"max residual {peak:.2e} (tol 1e-4), at least {min(counts.values())} samples per relation",
    )
    assert ok, line


def test_check_07_simultaneously_minimal_helicoids():
    worst_h = 0.0
    worst_ruling = 0.0
    grids = 0
    for pair in ((0.0, 1.0), (4.0, 1.0), (-1.0, 1.0)):
        params = SpaceParams(*pair)
        for address in (a for a in default_surfaces(params) if "helicoid" in a):
            built = build_surface(parse_surface(address), params)
            grids += 1
            for uv in interior_grid(built.chart.domain, 10, 10):
                data = frame_data(built.ambient, built.chart, uv, validate=False)
                worst_h = max(worst_h, abs(data.h_r), abs(data.h_l))
                defect = ruling_defect(data, direction=(0.0, 1.0))
                worst_ruling = max(worst_ruling, defect["R"], defect["L"])

    worst_slice = 0.0
    for pair in ((1.0, 0.0), (-1.0, 0.0)):
        params = SpaceParams(*pair)
        for address in (a for a in default_surfaces(params) if a.startswith("slice")):
            built = build_surface(parse_surface(address), params)
            for uv in interior_grid(built.chart.domain, 10, 10):
                data = frame_data(built.ambient, built.chart, uv, validate=False)
                worst_slice = max(worst_slice, abs(data.h_r), abs(data.h_l))
                for sig in SIGS:
                    worst_slice = max(
                        worst_slice, float(np.max(np.abs(data.shape(sig))))
                    )

    ok = worst_h < 1e-4 and worst_ruling < 1e-3 and worst_slice < 1e-9 and grids >= 6
    line = _emit(
        7,
        "helicoids minimal under both metrics with geodesic rulings",
        ok,
        f"max |H| {worst_h:.2e} (tol 1e-4) and ruling defect {worst_ruling:.2e} (tol 1e-3) "
        f"on {grids} 10x10 interior grids; untwisted slices totally geodesic to {worst_slice:.2e} (tol 1e-9)",
    )
    assert ok, line


def test_check_08_equal_mean_curvature_classification():
    """Where the two mean curvatures coincide, the Riemannian shape operator
    is nowhere definite, and on genuine instances of the classification
    (spacelike, or timelike with both mean curvatures vanishing) the normal
    curvatures along the distinguished direction and its rotation obey the
    fixed ratio in the normal stretch.  Pointwise accidental crossings of
    H_R - H_L on non-minimal timelike surfaces are not instances and are
    excluded (counted below): at such points the 1e-6 hypothesis window is
    larger than the curvature scale itself."""
    qualifying = [
        (a, p, d) for a, p, d in shared_samples() if abs(d.h_r - d.h_l) < 1e-6
    ]
    worst_det = -math.inf
    worst_ratio = 0.0
    ratio_evaluated = 0
    crossings_excluded = 0
    ratio_skips = 0
    for _, _, data in qualifying:
        check = indefiniteness_check(data)
        worst_det = max(worst_det, check["det_ratio"])
        if not check["asserted"]:
            crossings_excluded += 1
            continue
        if "ratio_skipped" in check:
            ratio_skips += 1
            continue
        if abs(data.omega_l - 1.0) > 1e-6:
            ratio_evaluated += 1
            worst_ratio = max(worst_ratio, check["ratio_residual"])
    ok = (
        len(qualifying) >= 50
        and worst_det <= 1e-8
        and ratio_evaluated >= 50
        and worst_ratio < 1e-5
    )
    line = _emit(
        8,
        "equal mean curvatures force an indefinite shape operator",
        ok,
        f"{len(qualifying)} qualifying samples, max signed det {worst_det:.2e} (bound 1e-8); "
        f"normal-curvature ratio residual {worst_ratio:.2e} (tol 1e-5) on {ratio_evaluated} instances "
        f"({crossings_excluded} pointwise crossings excluded, {ratio_skips} ratio skips)",
    )
    assert ok, line


def test_check_09_curvature_relations_and_brioschi_oracle():
    names = ("SECTIONAL_REL", "EXTRINSIC_REL", "GAUSS_R", "GAUSS_L", "COMBINED_516")
    gen = np.random.default_rng(909)
    worst, counts = _collect(names, gen)
    peak = max(worst.values())

    worst_brioschi = 0.0
    brioschi_n = 0
    for _, _, data in shared_samples()[::24]:
        gauss_route = curvature_suite(data)["k_R"]
        stencil_route = intrinsic_curvature_r(data)
        worst_brioschi = max(worst_brioschi, abs(gauss_route - stencil_route))
        brioschi_n += 1

    ok = (
        peak < 1e-4
        and min(counts.values()) >= 200
        and worst_brioschi < 1e-3
        and brioschi_n >= 10
    )
    line = _emit(
        9,
        "curvature relations and intrinsic-curvature oracle",
        ok,
        f"max relation residual {peak:.2e} (tol 1e-4); Gauss-equation route vs intrinsic "
        f"stencil {worst_brioschi:.2e} (tol 1e-3) on {brioschi_n} samples",
    )
    assert ok, line


def test_check_10_cylinder_curvature_equality():
    """Final clause deliberately fails; see the module docstring."""
    configs = (
        ((1.0, 1.0), "hopf:circle:r=0.9"),
        ((4.0, 1.0), "hopf:circle:r=0.9"),
        ((-1.0, 1.0), "hopf:circle:r=0.81"),
        ((1.0, 0.5), "hopf:circle:r=0.9"),
    )
    worst_omega = 0.0
    worst_k_gap = 0.0
    worst_ke_gap = 0.0
    gaps = []
    for pair, address in configs:
        params = SpaceParams(*pair)
        built = build_surface(parse_surface(address), params)
        for uv in interior_grid(built.chart.domain, 3, 3):
            data = frame_data(built.ambient, built.chart, uv, validate=False)
            suite = curvature_suite(data)
            worst_omega = max(worst_omega, abs(data.omega_l - 1.0))
            worst_k_gap = max(worst_k_gap, abs(suite["k_R"] - suite["k_L"]))
            worst_ke_gap = max(worst_ke_gap, abs(suite["ke_R"] - suite["ke_L"]))
        gaps.append((pair, 2.0 * pair[1] ** 2))

    worst_untwisted = 0.0
    for kappa, address in ((1.0, "hopf:circle:r=0.9"), (-1.0, "hopf:circle:r=0.81")):
        params = SpaceParams(kappa, 0.0)
        built = build_surface(parse_surface(address), params)
        for uv in interior_grid(built.chart.domain, 3, 3):
            suite = curvature_suite(
                frame_data(built.ambient, built.chart, uv, validate=False)
            )
            for key in ("ke_R", "ke_L", "k_R", "k_L"):
                worst_untwisted = max(worst_untwisted, abs(suite[key]))

    assert worst_omega < 1e-8, f"normal stretch on vertical cylinders: {worst_omega:.2e}"
    assert worst_untwisted < 1e-4, f"untwisted cylinder curvatures: {worst_untwisted:.2e}"

    ok = worst_k_gap < 1e-4 and worst_ke_gap < 1e-4
    line = _emit(
        10,
        "vertical cylinders: curvature agreement between the two metrics",
        ok,
        f"omega_L = 1 to {worst_omega:.2e} (tol 1e-8) and untwisted cylinders flat to "
        f"{worst_untwisted:.2e} (tol 1e-4), BUT the asserted equalities K_R = K_L and "
        f"K_e^R = K_e^L fail: measured gaps {worst_k_gap:.6g} and {worst_ke_gap:.6g} "
        f"vs tolerance 1e-4. For every twisted vertical cylinder the package finds "
        f"K_R = 0, K_L = 2*tau^2, K_e^R = -tau^2, K_e^L = +tau^2 (gap exactly 2*tau^2 "
        f"= {', '.join(f'{g:g} at ({p[0]:g},{p[1]:g})' for p, g in gaps)}), agreeing across the "
        f"curvature-tensor route, the closed-form route, and the group-model route "
        f"(regression-locked in test_curvature.py). The equality asserted here cannot "
        f"hold for tau != 0: it contradicts those three independent computations.",
    )
    assert ok, line


def test_check_11_determinism_and_runtime():
    reports = []
    runtimes = []
    for name in ("acc_a.json", "acc_b.json"):
        out = f"/tmp/{name}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bicausal.cli", "verify", "--json", out],
            capture_output=True,
            text=True,
        )
        runtimes.append(time.perf_counter() - start)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(out) as fh:
            reports.append(fh.read())
    stripped = [
        "\n".join(l for l in text.splitlines() if "generated_at" not in l)
        for text in reports
    ]
    identical = stripped[0] == stripped[1]
    # also byte-compare the parsed-and-canonicalized form to rule out
    # whitespace-only luck
    parsed = []
    for text in reports:
        doc = json.loads(text)
        doc.pop("generated_at")
        parsed.append(json.dumps(doc, sort_keys=True))
    ok = identical and parsed[0] == parsed[1] and max(runtimes) < 120.0
    line = _emit(
        11,
        "byte-identical reports and full-suite runtime",
        ok,
        f"two default runs identical apart from the timestamp: {identical}; "
        f"runtimes {runtimes[0]:.1f}s / {runtimes[1]:.1f}s (limit 120s)",
    )
    assert ok, line
