"""Named surface families with validity rules and canonical addresses.

An address looks like ``family[:label][:key=value,...]`` — for example
``hopf:circle:r=0.8``, ``slice:t0=0.2``, ``graph:bowl:a=0.2`` or
``su11-helicoid:family=h1,rate=0.35,variant=space``.  A malformed address
(a key the family does not recognize, a value that is not a finite number or
out of range) raises ConfigInvalid from ``validate_address``, which reads no
parameters.  A well-formed address whose surface does not exist at the
requested (kappa, tau) raises its subclass SurfaceUnavailable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .ambient import CoordinateAmbient, SpaceParams, Signature
from .errors import ConfigInvalid, GeometryError, ModelMismatch, SurfaceUnavailable
from .groups import (
    BERGER,
    HELICOID_FAMILIES,
    SU11,
    GroupAmbient,
    berger_helicoid_chart,
    su11_helicoid_chart,
)
from .numdiff import FDSteps
from .surfaces import (
    DEGENERATE,
    SPACELIKE,
    TIMELIKE,
    SurfaceChart,
    _charted,
    _classify,
    _grams,
)


@dataclass(frozen=True)
class ParsedSurface:
    family: str
    label: str | None
    kwargs: dict

    def canonical(self) -> str:
        parts = [self.family]
        if self.label:
            parts.append(self.label)
        if self.kwargs:
            parts.append(
                ",".join(
                    f"{k}={_fmt_value(v)}" for k, v in sorted(self.kwargs.items())
                )
            )
        return ":".join(parts)


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


def parse_surface(text: str) -> ParsedSurface:
    parts = [p for p in text.strip().split(":") if p != ""]
    if not parts:
        raise ConfigInvalid("empty surface address")
    family = parts[0]
    label = None
    kwargs: dict = {}
    for part in parts[1:]:
        if "=" in part:
            for item in part.split(","):
                if "=" not in item:
                    raise ConfigInvalid(f"malformed key=value item {item!r} in {text!r}")
                key, value = item.split("=", 1)
                key = key.strip()
                value = value.strip()
                if not key:
                    raise ConfigInvalid(f"empty key in surface address {text!r}")
                try:
                    kwargs[key] = float(value)
                except ValueError:
                    kwargs[key] = value
        elif label is None:
            label = part
        else:
            raise ConfigInvalid(f"surface address {text!r} has two labels")
    return ParsedSurface(family, label, kwargs)


@dataclass
class BuiltSurface:
    ambient: object
    chart: SurfaceChart
    address: str
    family: str
    label: str | None
    kwargs: dict
    group_model: bool
    character_hint: str | None = None


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    labels: tuple
    description: str
    validity: str
    valid: Callable[[SpaceParams], str | None]
    # The ambient model the family lives in, a key of MODELS.
    model: str
    build: Callable[[object, str | None, dict], BuiltSurface]
    # Option key -> check of its value that reads no parameters.
    options: dict


def _reject_unknown(kwargs: dict, allowed: set, family: str) -> None:
    unknown = set(kwargs) - allowed
    if unknown:
        raise ConfigInvalid(
            f"surface family {family!r} does not accept {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _number(kwargs: dict, key: str, default: float | None = None) -> float | None:
    """The option ``key`` as a float, or ``default`` when it is absent."""
    return float(kwargs[key]) if key in kwargs else default


# Checks of one option value, run by ``validate_address``.


def _finite(key: str, value) -> None:
    try:
        ok = math.isfinite(float(value))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigInvalid(f"surface option {key}={value!r} is not a finite number")


def _positive(key: str, value) -> None:
    _finite(key, value)
    if float(value) <= 0.0:
        raise ConfigInvalid(f"surface option {key} must be > 0, got {value!r}")


def _one_of(*choices: str):
    def check(key: str, value) -> None:
        if value not in choices:
            raise ConfigInvalid(
                f"surface option {key} must be one of {', '.join(choices)}, got {value!r}"
            )

    return check


_variant = _one_of("space", "time")


def _planar_scale(params: SpaceParams) -> float:
    if params.kappa >= 0.0:
        return 1.0
    return min(1.0, 0.45 * params.disk_radius)


def detect_character_bands(
    ambient, chart: SurfaceChart, u0: float, t_lo: float, t_hi: float, n: int = 160
):
    """Runs of constant causal character along the second chart axis at u = u0.

    The charted rows are classified as one stack, as ``causal_character``
    would classify each; a row that raises a GeometryError is DEGENERATE.
    """
    ts = np.linspace(t_lo, t_hi, n)
    uvs = [(float(u0), t) for t in ts.tolist()]
    point, pair, _, rows = _charted(ambient, chart, uvs, ambient.steps.second)
    with np.errstate(all="ignore"):
        gram_r = _grams(ambient.metrics(Signature.R, point), pair)
        det_l = np.linalg.det(_grams(ambient.metrics(Signature.L, point), pair)).tolist()
    scale = (gram_r[:, 0, 0] * gram_r[:, 1, 1]).tolist()
    chars = [DEGENERATE] * n
    for i, sc, dl, p in zip(rows, scale, det_l, point):
        try:
            chars[i], _ = _classify(sc, dl, p)
        except GeometryError:
            pass
    bands = []
    start = 0
    for i in range(1, n + 1):
        if i == n or chars[i] != chars[start]:
            bands.append((chars[start], float(ts[start]), float(ts[i - 1])))
            start = i
    return bands


def _band_for_variant(ambient, chart, variant: str, t_lo: float, t_hi: float, u0=0.0):
    want = {"space": SPACELIKE, "time": TIMELIKE}[variant]
    bands = [b for b in detect_character_bands(ambient, chart, u0, t_lo, t_hi) if b[0] == want]
    if not bands:
        raise SurfaceUnavailable(
            f"surface has no {want} band on [{t_lo:g}, {t_hi:g}] for these parameters"
        )
    char, lo, hi = max(bands, key=lambda b: b[2] - b[1])
    margin = 0.12 * (hi - lo)
    if hi - lo - 2 * margin <= 10 * ambient.steps.second:
        raise SurfaceUnavailable(f"{want} band [{lo:g}, {hi:g}] too narrow to sample")
    return lo + margin, hi - margin


# -- coordinate-model families ------------------------------------------------


def _build_hopf(ambient, label, kwargs):
    params = ambient.params
    label = label or "circle"
    scale = _planar_scale(params)
    if label == "circle":
        _reject_unknown(kwargs, {"r"}, "hopf:circle")
        r = _number(kwargs, "r", 0.9 * scale)
        axes = (r, r)
        kwargs = {"r": r}
    else:
        _reject_unknown(kwargs, {"a", "b"}, "hopf:ellipse")
        a = _number(kwargs, "a", 0.9 * scale)
        b = _number(kwargs, "b", 0.55 * scale)
        axes = (a, b)
        kwargs = {"a": a, "b": b}

    ax, ay = axes

    def point(u, v):
        return np.array([ax * math.cos(u), ay * math.sin(u), v])

    def jac(u, v):
        du = np.array([-ax * math.sin(u), ay * math.cos(u), 0.0])
        dv = np.array([0.0, 0.0, 1.0])
        return du, dv

    chart = SurfaceChart(
        name=f"hopf-{label}",
        chart=point,
        domain=((0.0, 2.0 * math.pi), (-1.4, 1.4)),
        jacobian=jac,
    )
    if not (ambient.contains(point(0.0, 0.0)) and ambient.contains(point(0.5 * math.pi, 0.0))):
        raise SurfaceUnavailable(
            f"hopf axes {axes} leave the model domain at ({params.kappa:g}, {params.tau:g})"
        )
    parsed = ParsedSurface("hopf", label, kwargs)
    return BuiltSurface(ambient, chart, parsed.canonical(), "hopf", label, kwargs, False, TIMELIKE)


def _build_slice(ambient, label, kwargs):
    params = ambient.params
    t0 = _number(kwargs, "t0", 0.0)
    s = 0.8 * _planar_scale(params)

    def point(u, v):
        return np.array([u, v, t0])

    def jac(u, v):
        return np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])

    chart = SurfaceChart(
        name="slice",
        chart=point,
        domain=((-s, s), (-s, s)),
        jacobian=jac,
    )
    parsed = ParsedSurface("slice", None, {"t0": t0})
    return BuiltSurface(ambient, chart, parsed.canonical(), "slice", None, {"t0": t0}, False, SPACELIKE)


def _build_graph(ambient, label, kwargs):
    params = ambient.params
    a = _number(kwargs, "a", 0.2)
    s = 0.8 * _planar_scale(params)

    def point(u, v):
        return np.array([u, v, a * (u * u + v * v)])

    def jac(u, v):
        return np.array([1.0, 0.0, 2.0 * a * u]), np.array([0.0, 1.0, 2.0 * a * v])

    chart = SurfaceChart(
        name="graph-bowl",
        chart=point,
        domain=((-s, s), (-s, s)),
        jacobian=jac,
    )
    parsed = ParsedSurface("graph", "bowl", {"a": a})
    return BuiltSurface(ambient, chart, parsed.canonical(), "graph", "bowl", {"a": a}, False, SPACELIKE)


def _build_vgraph(ambient, label, kwargs):
    params = ambient.params
    a = _number(kwargs, "a", 0.15)
    s = _planar_scale(params)

    def point(u, v):
        return np.array([a * u * v, u, v])

    def jac(u, v):
        return np.array([a * v, 1.0, 0.0]), np.array([a * u, 0.0, 1.0])

    chart = SurfaceChart(
        name="vgraph-saddle",
        chart=point,
        domain=((0.15 * s, 0.85 * s), (0.2, 1.2)),
        jacobian=jac,
    )
    parsed = ParsedSurface("vgraph", "saddle", {"a": a})
    return BuiltSurface(ambient, chart, parsed.canonical(), "vgraph", "saddle", {"a": a}, False, TIMELIKE)


def _build_helicoid(ambient, label, kwargs):
    c = _number(kwargs, "c", 0.7)
    variant = kwargs.get("variant")

    def point(u, v):
        return np.array([v * math.cos(u), v * math.sin(u), c * u])

    def jac(u, v):
        du = np.array([-v * math.sin(u), v * math.cos(u), c])
        dv = np.array([math.cos(u), math.sin(u), 0.0])
        return du, dv

    # The tangent plane changes character where tau v^2 +- v = c; locate the
    # requested band numerically instead of hard-coding the untwisted rule.
    v_lo, v_hi = 0.1 * c, 2.6 * c
    if variant is None:
        v_range = (v_lo, v_hi)
    else:
        probe = SurfaceChart("helicoid-probe", point, ((-1.4, 1.4), (v_lo, v_hi)), jacobian=jac)
        v_range = _band_for_variant(ambient, probe, variant, v_lo, v_hi)
    out_kwargs = {"c": c}
    if variant is not None:
        out_kwargs["variant"] = variant
    chart = SurfaceChart(
        name="helicoid",
        chart=point,
        domain=((-1.4, 1.4), v_range),
        jacobian=jac,
    )
    parsed = ParsedSurface("helicoid", None, out_kwargs)
    hint = {"space": SPACELIKE, "time": TIMELIKE, None: None}[variant]
    return BuiltSurface(ambient, chart, parsed.canonical(), "helicoid", None, out_kwargs, False, hint)


# -- group-model families ------------------------------------------------------


def _build_berger_helicoid(ambient, label, kwargs):
    alpha = _number(kwargs, "alpha", 0.5)
    variant = kwargs.get("variant")
    t_lo, t_hi = 0.06, 0.5 * math.pi - 0.06
    chart = berger_helicoid_chart(alpha, domain=((-1.2, 1.2), (t_lo, t_hi)))
    if variant is not None:
        band = _band_for_variant(ambient, chart, variant, t_lo, t_hi)
        chart = berger_helicoid_chart(alpha, domain=((-1.2, 1.2), band))
    out_kwargs = {"alpha": alpha}
    if variant is not None:
        out_kwargs["variant"] = variant
    parsed = ParsedSurface("berger-helicoid", None, out_kwargs)
    hint = {"space": SPACELIKE, "time": TIMELIKE, None: None}.get(variant)
    return BuiltSurface(
        ambient, chart, parsed.canonical(), "berger-helicoid", None, out_kwargs, True, hint
    )


def _build_su11_helicoid(ambient, label, kwargs):
    params = ambient.params
    family = kwargs.get("family", "h1")
    rate = _number(kwargs, "rate", 0.35)
    t_rate = _number(kwargs, "t_rate")
    variant = kwargs.get("variant")
    ct = 0.5 * params.kappa**2 if t_rate is None else abs(t_rate)
    tmax = 1.3 / max(1.0, ct)
    chart = su11_helicoid_chart(
        params, family, rate, domain=((-1.2, 1.2), (-tmax, tmax)), t_rate=t_rate
    )
    if variant is not None:
        band = _band_for_variant(ambient, chart, variant, -tmax, tmax)
        chart = su11_helicoid_chart(
            params, family, rate, domain=((-1.2, 1.2), band), t_rate=t_rate
        )
    out_kwargs = {"family": family, "rate": rate}
    if t_rate is not None:
        out_kwargs["t_rate"] = t_rate
    if variant is not None:
        out_kwargs["variant"] = variant
    parsed = ParsedSurface("su11-helicoid", None, out_kwargs)
    hint = {"space": SPACELIKE, "time": TIMELIKE, None: None}.get(variant)
    return BuiltSurface(
        ambient, chart, parsed.canonical(), "su11-helicoid", None, out_kwargs, True, hint
    )


def _always(params: SpaceParams) -> None:
    return None


def _needs_tau_zero(params: SpaceParams) -> str | None:
    if params.tau != 0.0:
        return "needs tau = 0"
    return None


def _needs_flat_base(params: SpaceParams) -> str | None:
    if params.kappa != 0.0:
        return "needs kappa = 0"
    return None


def _needs_berger(params: SpaceParams) -> str | None:
    if not (params.kappa > 0.0 and params.tau != 0.0):
        return "needs kappa > 0 and tau != 0"
    return None


def _needs_su11(params: SpaceParams) -> str | None:
    if not (params.kappa < 0.0 and params.tau != 0.0):
        return "needs kappa < 0 and tau != 0"
    return None


# The ambient of each model at a parameter pair, made as ``MODELS[model](params, steps=steps)``;
# the model is the ambient's ``kind``.
MODELS: dict[str, Callable] = {
    CoordinateAmbient.kind: CoordinateAmbient,
    BERGER: partial(GroupAmbient, BERGER),
    SU11: partial(GroupAmbient, SU11),
}

CATALOG: dict[str, CatalogEntry] = {
    "hopf": CatalogEntry(
        "hopf",
        ("circle", "ellipse"),
        "vertical cylinder over a plane curve (contains the fiber direction)",
        "any parameters; the curve must fit the base domain",
        _always,
        CoordinateAmbient.kind,
        _build_hopf,
        options={"r": _positive, "a": _positive, "b": _positive},
    ),
    "slice": CatalogEntry(
        "slice",
        (),
        "horizontal plane z = t0 in a product space",
        "tau = 0",
        _needs_tau_zero,
        CoordinateAmbient.kind,
        _build_slice,
        options={"t0": _finite},
    ),
    "graph": CatalogEntry(
        "graph",
        ("bowl",),
        "graph z = a (x^2 + y^2), spacelike near the origin",
        "any parameters",
        _always,
        CoordinateAmbient.kind,
        _build_graph,
        options={"a": _finite},
    ),
    "vgraph": CatalogEntry(
        "vgraph",
        ("saddle",),
        "vertical graph x = a y z, timelike with varying fiber angle",
        "any parameters",
        _always,
        CoordinateAmbient.kind,
        _build_vgraph,
        options={"a": _finite},
    ),
    "helicoid": CatalogEntry(
        "helicoid",
        (),
        "classical helicoid, minimal for both metrics",
        "kappa = 0",
        _needs_flat_base,
        CoordinateAmbient.kind,
        _build_helicoid,
        options={"c": _positive, "variant": _variant},
    ),
    "berger-helicoid": CatalogEntry(
        "berger-helicoid",
        (),
        "ruled minimal surface in the sphere model",
        "kappa > 0 and tau != 0",
        _needs_berger,
        BERGER,
        _build_berger_helicoid,
        options={"alpha": _finite, "variant": _variant},
    ),
    "su11-helicoid": CatalogEntry(
        "su11-helicoid",
        (),
        "ruled minimal surface in the hyperbolic model",
        "kappa < 0 and tau != 0",
        _needs_su11,
        SU11,
        _build_su11_helicoid,
        options={
            "family": _one_of(*HELICOID_FAMILIES),
            "rate": _finite,
            "t_rate": _finite,
            "variant": _variant,
        },
    ),
}


def validate_address(address: str | ParsedSurface) -> ParsedSurface:
    """Check an address against the catalog without building it.

    Rejects unknown families, labels and option keys, and option values that
    fail their check (not a finite number, not positive where a size is
    meant, not one of the allowed names): the parameter-free part of
    validity, so a malformed address is an error at every (kappa, tau).
    Whether the surface exists at given (kappa, tau) is only known at build
    time.
    """
    parsed = parse_surface(address) if isinstance(address, str) else address
    entry = CATALOG.get(parsed.family)
    if entry is None:
        raise ConfigInvalid(
            f"unknown surface family {parsed.family!r}; known: {sorted(CATALOG)}"
        )
    if parsed.label is not None and parsed.label not in entry.labels:
        raise ConfigInvalid(
            f"unknown label {parsed.label!r} for family {parsed.family!r};"
            f" labels: {sorted(entry.labels) or 'none'}"
        )
    unknown = set(parsed.kwargs) - set(entry.options)
    if unknown:
        raise ConfigInvalid(
            f"surface family {parsed.family!r} does not accept {sorted(unknown)};"
            f" allowed: {sorted(entry.options)}"
        )
    for key, value in parsed.kwargs.items():
        entry.options[key](key, value)
    return parsed


def build_surface(
    address: str | ParsedSurface,
    params: SpaceParams,
    steps: FDSteps | None = None,
    ambient=None,
) -> BuiltSurface:
    """The surface at ``address`` in the space of ``params``, built on ``ambient``.

    ``ambient`` is an ambient of the family's model at ``params``, which
    surfaces built on it share (ModelMismatch otherwise); by default a fresh
    one with ``steps``.
    """
    parsed = validate_address(address)
    entry = CATALOG[parsed.family]
    reason = entry.valid(params)
    if reason is not None:
        raise SurfaceUnavailable(
            f"surface {parsed.canonical()!r} not valid at ({params.kappa:g}, {params.tau:g}): {reason}"
        )
    if ambient is None:
        ambient = MODELS[entry.model](params, steps=steps)
    elif ambient.kind != entry.model or ambient.params != params:
        raise ModelMismatch(
            f"surface {parsed.canonical()!r} needs an ambient of the {entry.model} model"
            f" at ({params.label()})"
        )
    return entry.build(ambient, parsed.label, dict(parsed.kwargs))


def default_surfaces(params: SpaceParams) -> list[str]:
    """Deterministic list of catalog addresses exercising this parameter pair."""
    scale = _planar_scale(params)
    out = [
        f"hopf:circle:r={0.9 * scale:g}",
        f"hopf:ellipse:a={0.9 * scale:g},b={0.55 * scale:g}",
        "graph:bowl:a=0.2",
        "vgraph:saddle:a=0.15",
    ]
    if params.tau == 0.0:
        out.insert(0, "slice:t0=0.1")
    if params.kappa == 0.0:
        out.append("helicoid:c=0.7,variant=space")
        out.append("helicoid:c=0.7,variant=time")
    if params.kappa > 0.0 and params.tau != 0.0:
        out.append("berger-helicoid:alpha=0.5,variant=space")
        out.append("berger-helicoid:alpha=0.5,variant=time")
    if params.kappa < 0.0 and params.tau != 0.0:
        out.append("su11-helicoid:family=h1,rate=0.35,variant=space")
        out.append("su11-helicoid:family=h1,rate=0.35,variant=time")
    return out
