"""Verification suite: sweep identities over catalog surfaces and parameters.

The runner is deterministic for a fixed configuration: one seeded generator is
consumed in a fixed iteration order (parameters, then surfaces, then sample
points, then the identities that draw, in registry order), so repeated runs
produce identical reports apart from the isolated timestamp field.  Each
surface's draw plan (``identities.draw_plan``) takes every used sample's
draws in that order, sample after sample, at the surface's turn.  The
surfaces of one parameter pair and ambient model are built on one ambient,
and once the pair's surfaces are all sampled, each identity's evaluator runs
once per model over the stacked samples and draws of all its surfaces
(``identities.evaluate_plans``); the outcomes are then split back per
surface, and the rows keep the order of the surfaces.
"""

from __future__ import annotations

import datetime
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .ambient import SpaceParams
from .catalog import (
    CATALOG,
    MODELS,
    build_surface,
    default_surfaces,
    resolve_address,
    validate_address,
)
from .errors import ConfigInvalid, GeometryError, SurfaceUnavailable
from .identities import IDENTITIES, IDENTITY_NAMES, draw_plan, evaluate_plans
from .numdiff import FDSteps
from .surfaces import frame_batch

SCHEMA_VERSION = 1

DEFAULT_PARAMS: tuple[tuple[float, float], ...] = (
    (1.0, 1.0),
    (-1.0, 1.0),
    (4.0, 1.0),
    (1.0, 0.5),
    (1.0, 0.0),
    (-1.0, 0.0),
    (0.0, 0.0),
)

# Reason of a row failed by a NaN or infinite residual; the JSON report
# writes that residual as null.
NON_FINITE = "NON_FINITE"

# Reasons that make an empty identity row "not applicable" rather than a failure.
BENIGN_SKIPS = frozenset({"PARAMETER_SINGULARITY", "NULL_DIRECTION"})

# Sample points whose tangent plane is close to null are excluded from the
# finite-difference identity checks: the Lorentzian normalization factor
# omega_L diverges at the causal-character boundary and amplifies stencil
# truncation error by a high power of omega_L (empirically ~omega_L^8 on the
# catalog graphs), so residuals there measure conditioning, not correctness.
# The bound keeps roughly a factor-of-ten margin under the 1e-4 tolerances,
# but none under NORMCURV's 1e-5: on a 60x60 grid of graph:bowl:a=0.2 at
# (1,1), 20 seeds per sample, NORMCURV exceeds 1e-5 on 8 of the 120 samples
# with 4.5 < omega_L <= 6 (1.6e-5 at the interior uv (0.7186, 0.5017),
# omega_L 5.83; 5.2e-5 at the domain edge, omega_L 5.44).
OMEGA_CONDITION_LIMIT = 6.0


@dataclass
class SuiteConfig:
    params: tuple[tuple[float, float], ...] = DEFAULT_PARAMS
    surfaces: tuple[str, ...] | None = None
    identities: tuple[str, ...] | None = None
    samples: int = 8
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    def resolved_identities(self) -> list[str]:
        if self.identities is None:
            return list(IDENTITY_NAMES)
        requested = set(self.identities)
        unknown = requested - set(IDENTITY_NAMES)
        if unknown:
            raise ConfigInvalid(
                f"unknown identities {sorted(unknown)}; known: {IDENTITY_NAMES}"
            )
        # registry order keeps rng consumption deterministic
        return [n for n in IDENTITY_NAMES if n in requested]

    def tolerance_for(self, name: str) -> float:
        if name in self.tolerances:
            return float(self.tolerances[name])
        return IDENTITIES[name].tolerance


def sample_points(chart, n: int, rng: np.random.Generator, step: float):
    """Jittered grid over the chart domain, inset from the edges."""
    (ulo, uhi), (vlo, vhi) = chart.domain
    nu = max(1, int(np.ceil(np.sqrt(n))))
    nv = max(1, int(np.ceil(n / nu)))
    du = uhi - ulo
    dv = vhi - vlo
    inset_u = max(0.05 * du, 5.0 * step)
    inset_v = max(0.05 * dv, 5.0 * step)
    if 2 * inset_u >= du or 2 * inset_v >= dv:
        raise ConfigInvalid(
            f"chart domain {chart.domain!r} too small for stencil steps {step:g}"
        )
    us = np.linspace(ulo + inset_u, uhi - inset_u, nu)
    vs = np.linspace(vlo + inset_v, vhi - inset_v, nv)
    cell_u = (du - 2 * inset_u) / max(nu - 1, 1)
    cell_v = (dv - 2 * inset_v) / max(nv - 1, 1)
    # the first n points of the grid, u-major; each point draws its u jitter,
    # then its v jitter, on the axes with more than one grid line
    draws = rng.random((n, (nu > 1) + (nv > 1)))
    ju = 0.3 * cell_u * (draws[:, 0] - 0.5) if nu > 1 else 0.0
    jv = 0.3 * cell_v * (draws[:, -1] - 0.5) if nv > 1 else 0.0
    u = np.clip(np.repeat(us, nv)[:n] + ju, ulo + inset_u, uhi - inset_u)
    v = np.clip(np.tile(vs, nu)[:n] + jv, vlo + inset_v, vhi - inset_v)
    return list(zip(u.tolist(), v.tolist()))


def _worst(residuals: list[float]) -> float:
    """Largest residual, or the first non-finite one; 0.0 for none.

    Plain ``max`` drops a NaN that does not come first, which would let it
    pass; a non-finite residual must decide the row instead.  A finite sum
    shows in one pass that every residual is finite; only a sum that is not
    (a non-finite residual, or an overflow) is scanned for the first one.
    """
    if not math.isfinite(sum(residuals)):
        for r in residuals:
            if not math.isfinite(r):
                return r
    return max(residuals, default=0.0)


def check_config(config: SuiteConfig) -> list[str]:
    """Raise ConfigInvalid for a fault of ``config`` found without a sweep; else its identities.

    Checks the identity names, ``samples``, ``seed``, every surface address,
    the finite-difference step, every parameter pair, and then every surface
    address resolved at every pair (``catalog.resolve_address``), in this
    order.  A parameter pair (by label) given twice is a fault, and so is a
    surface whose resolved address repeats another's at some pair, since
    report rows are keyed by them: ``hopf:circle`` and
    ``hopf:circle:r=0.9`` are one surface at (1,1), though not at (-1,1).
    ``run_suite`` calls it first, and ``bicausal verify`` before it opens
    its output file, so a bad configuration leaves an existing file as it
    was.
    """
    identity_names = config.resolved_identities()
    if config.samples < 1:
        raise ConfigInvalid(f"samples must be at least 1, got {config.samples}")
    if config.seed < 0:
        raise ConfigInvalid(f"seed must be nonnegative, got {config.seed}")
    surfaces = config.surfaces or ()
    for address in surfaces:
        validate_address(address)
    FDSteps.from_env()
    pairs = [SpaceParams(float(kappa), float(tau)) for kappa, tau in config.params]
    _reject_repeats("parameter pair", [params.label() for params in pairs])
    for params in pairs:
        resolved = [resolve_address(address, params).canonical() for address in surfaces]
        _reject_repeats("surface", resolved, f" at ({params.label()})")
    return identity_names


def _reject_repeats(what: str, keys: list[str], where: str = "") -> None:
    """ConfigInvalid at the first key that repeats an earlier one: its rows would repeat too."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ConfigInvalid(f"{what} {key!r} is given more than once{where}")
        seen.add(key)


def _sample_surface(built, params, n: int, rng, steps) -> tuple[dict, list]:
    """The surface's row of the report and its used samples, at ``n`` jittered points."""
    points = sample_points(built.chart, n, rng, steps.second)
    excluded: dict[str, int] = {}
    characters: dict[str, int] = {}
    samples = []
    for data in frame_batch(built.ambient, built.chart, points):
        if isinstance(data, GeometryError):
            excluded[data.code] = excluded.get(data.code, 0) + 1
            continue
        if data.omega_l > OMEGA_CONDITION_LIMIT:
            excluded["ILL_CONDITIONED"] = excluded.get("ILL_CONDITIONED", 0) + 1
            continue
        characters[data.character] = characters.get(data.character, 0) + 1
        samples.append(data)
    row = {
        "params": params.label(),
        "surface": built.address,
        "points_requested": len(points),
        "points_used": len(samples),
        "excluded": dict(sorted(excluded.items())),
        "characters": dict(sorted(characters.items())),
    }
    return row, samples


def _identity_rows(
    config: SuiteConfig, params, address: str, used: int, outcomes: dict[str, list]
) -> list[dict]:
    """The result row of each identity on one surface, from its samples' outcomes.

    ``outcomes[name]`` holds each used sample's residual list or skip reason.
    """
    results = []
    label = params.label()
    for name, outs in outcomes.items():
        evaluated = [out for out in outs if not isinstance(out, str)]
        skipped = Counter(out for out in outs if isinstance(out, str))
        residuals = list(chain.from_iterable(evaluated))
        worst = _worst(residuals) if evaluated else None
        tol = config.tolerance_for(name)
        if not evaluated:
            benign = used == 0 or set(skipped) <= BENIGN_SKIPS
            status = "skipped" if benign else "fail"
        else:
            status = "pass" if math.isfinite(worst) and worst <= tol else "fail"
        result = {
            "identity": name,
            "params": label,
            "surface": address,
            "tolerance": tol,
            "max_residual": worst,
            "samples": len(evaluated),
            "residual_count": len(residuals),
            "skipped": dict(sorted(skipped.items())),
            "status": status,
        }
        if worst is not None and not math.isfinite(worst):
            result["reason"] = NON_FINITE
        results.append(result)
    return results


def checked_nothing(surface_rows: list[dict]) -> bool:
    """Whether no surface of a run kept a sample: every one was skipped, or lost all its
    samples to exclusions.  Such a run evaluated no identity, so it does not pass."""
    return not any(row["points_used"] for row in surface_rows)


def run_suite(config: SuiteConfig) -> dict:
    """Run the verification sweep and return a JSON-ready report."""
    identity_names = check_config(config)
    rng = np.random.default_rng(config.seed)
    steps = FDSteps.from_env()

    results = []
    surface_rows = []
    skipped_surfaces = []

    for kappa, tau in config.params:
        params = SpaceParams(float(kappa), float(tau))
        addresses = (
            list(config.surfaces) if config.surfaces is not None else default_surfaces(params)
        )
        # One ambient per model at this pair, and each model's surfaces: their
        # positions, addresses and draw plans, evaluated together once all are sampled.
        ambients: dict[str, object] = {}
        groups: dict[str, list] = {}
        for i, address in enumerate(addresses):
            entry = CATALOG[validate_address(address).family]
            model = entry.model
            # made before the first build, so that a surface found unavailable
            # (a variant without its band) leaves the ambient to the next
            if model not in ambients and entry.valid(params) is None:
                ambients[model] = MODELS[model](params, steps=steps)
            try:
                built = build_surface(address, params, steps=steps, ambient=ambients.get(model))
            except SurfaceUnavailable as exc:
                skipped_surfaces.append(
                    {"params": params.label(), "surface": address, "reason": str(exc)}
                )
                continue
            surface_row, samples = _sample_surface(built, params, config.samples, rng, steps)
            surface_rows.append(surface_row)
            plan = draw_plan(identity_names, samples, rng)
            groups.setdefault(model, []).append((i, built.address, plan))
        rows: dict[int, list[dict]] = {}
        for group in groups.values():
            outcomes = evaluate_plans(identity_names, [plan for _, _, plan in group])
            for j, (i, address, plan) in enumerate(group):
                rows[i] = _identity_rows(
                    config, params, address, len(plan.samples),
                    {name: outcomes[name][j] for name in identity_names},
                )
        results += [row for i in sorted(rows) for row in rows[i]]

    n_pass = sum(1 for r in results if r["status"] == "pass")
    n_fail = sum(1 for r in results if r["status"] == "fail")
    n_skip = sum(1 for r in results if r["status"] == "skipped")
    report = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {
            "params": [SpaceParams(float(k), float(t)).label() for k, t in config.params],
            "surfaces": list(config.surfaces) if config.surfaces is not None else None,
            "identities": identity_names,
            "samples": config.samples,
            "seed": config.seed,
            "tolerance_overrides": {
                k: float(v) for k, v in sorted(config.tolerances.items())
            },
            "fd_first_step": steps.first,
            "fd_second_step": steps.second,
        },
        "results": results,
        "surfaces": surface_rows,
        "skipped_surfaces": skipped_surfaces,
        "summary": {
            "pass": n_fail == 0 and not checked_nothing(surface_rows),
            "n_pass": n_pass,
            "n_fail": n_fail,
            "n_skipped": n_skip,
        },
    }
    return report
