"""Named surface families with validity rules and canonical addresses.

An address looks like ``family[:label][:key=value,...]`` — for example
``hopf:circle:r=0.8``, ``slice:t0=0.2``, ``graph:bowl:a=0.2`` or
``su11-helicoid:family=h1,rate=0.35,variant=space``.  A malformed address
(a key the family does not recognize, a value that is not a finite number or
out of range) raises ConfigInvalid from ``validate_address``, which reads no
parameters.  ``resolve_address`` completes an address at a parameter pair
with the default label and options, as ``build_surface`` builds it; the
canonical form of the result is the surface's address in every report.  A
well-formed address whose surface does not exist at the requested
(kappa, tau) raises the subclass SurfaceUnavailable from ``build_surface``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .ambient import CoordinateAmbient, SpaceParams, Signature, _cos_sin, _filled
from .errors import ConfigInvalid, ModelMismatch, SurfaceUnavailable
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
    _characters,
    _charted,
    _grams,
    uv_columns,
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
    # The canonical address of the resolved surface (``resolve_address``).
    address: str
    character_hint: str | None

    @property
    def group_model(self) -> bool:
        """Whether the surface lives in a group model, with 4 coordinates."""
        return isinstance(self.ambient, GroupAmbient)


@dataclass(frozen=True)
class CatalogEntry:
    # The labels the family takes; the first is the default.
    labels: tuple
    description: str
    # The pairs the family is defined at, in words and as a predicate.
    validity: str
    holds: Callable[[SpaceParams], bool]
    # The ambient model the family lives in, a key of MODELS.
    model: str
    # (ambient, label, resolved options) -> the chart as a function of its
    # v-range, whose default is the range the surface is sampled on.
    chart: Callable[[object, str | None, dict], Callable[..., SurfaceChart]]
    # Option key -> check of its value that reads no parameters.
    options: dict
    # (params, label) -> each option the label takes, with its default at
    # that pair, or None for an option left out of the address unless given.
    defaults: Callable[[SpaceParams, str | None], dict]
    # The causal character of the surface when no ``variant`` selects one.
    character: str | None = None

    def valid(self, params: SpaceParams) -> str | None:
        """None where the family is defined at ``params``, else the reason it is not."""
        return None if self.holds(params) else f"needs {self.validity}"


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
    point, pair, _, rows = _charted(ambient, chart, *uv_columns(uvs), ambient.steps.second)
    with np.errstate(all="ignore"):
        gram_r = _grams(ambient.metrics(Signature.R, point), pair)
        det_l = np.linalg.det(_grams(ambient.metrics(Signature.L, point), pair))
        rejected, spacelike = _characters(gram_r[:, 0, 0] * gram_r[:, 1, 1], det_l)
    chars = [DEGENERATE] * n
    for i, bad, space in zip(rows, rejected.tolist(), spacelike.tolist()):
        if not bad:
            chars[i] = SPACELIKE if space else TIMELIKE
    bands = []
    start = 0
    for i in range(1, n + 1):
        if i == n or chars[i] != chars[start]:
            bands.append((chars[start], float(ts[start]), float(ts[i - 1])))
            start = i
    return bands


def _band_for_variant(bands: list, variant: str, t_lo: float, t_hi: float, h: float):
    """The v-range of ``variant`` on [t_lo, t_hi]: its widest band of ``bands``, inset."""
    want = {"space": SPACELIKE, "time": TIMELIKE}[variant]
    bands = [b for b in bands if b[0] == want]
    if not bands:
        raise SurfaceUnavailable(
            f"surface has no {want} band on [{t_lo:g}, {t_hi:g}] for these parameters"
        )
    char, lo, hi = max(bands, key=lambda b: b[2] - b[1])
    margin = 0.12 * (hi - lo)
    if hi - lo - 2 * margin <= 10 * h:
        raise SurfaceUnavailable(f"{want} band [{lo:g}, {hi:g}] too narrow to sample")
    return lo + margin, hi - margin


# -- coordinate-model families ------------------------------------------------


def _hopf(ambient, label, options):
    axes = (options["r"],) * 2 if label == "circle" else (options["a"], options["b"])
    ax, ay = axes

    def point(us, vs):
        c, s = _cos_sin(us)
        return _filled(len(us), (ax * c, ay * s, vs), (3,))

    def jac(us, vs):
        c, s = _cos_sin(us)
        return _filled(len(us), (-ax * s, ay * c, 0.0, 0.0, 0.0, 1.0), (2, 3))

    if not all(ambient.contains_rows(point(np.array([0.0, 0.5 * math.pi]), np.zeros(2)))):
        params = ambient.params
        raise SurfaceUnavailable(
            f"hopf axes {axes} leave the model domain at ({params.kappa:g}, {params.tau:g})"
        )
    return lambda v_range=(-1.4, 1.4): SurfaceChart(
        f"hopf-{label}", point, ((0.0, 2.0 * math.pi), v_range), jac, stacked=True
    )


def _hopf_defaults(params: SpaceParams, label: str) -> dict:
    scale = _planar_scale(params)
    if label == "circle":
        return {"r": 0.9 * scale}
    return {"a": 0.9 * scale, "b": 0.55 * scale}


def _slice(ambient, label, options):
    t0 = options["t0"]
    s = 0.8 * _planar_scale(ambient.params)

    def point(us, vs):
        return _filled(len(us), (us, vs, t0), (3,))

    def jac(us, vs):
        return _filled(len(us), (1.0, 0.0, 0.0, 0.0, 1.0, 0.0), (2, 3))

    return lambda v_range=(-s, s): SurfaceChart(
        "slice", point, ((-s, s), v_range), jac, stacked=True
    )


def _graph(ambient, label, options):
    a = options["a"]
    s = 0.8 * _planar_scale(ambient.params)

    def point(us, vs):
        return _filled(len(us), (us, vs, a * (us * us + vs * vs)), (3,))

    def jac(us, vs):
        return _filled(len(us), (1.0, 0.0, 2.0 * a * us, 0.0, 1.0, 2.0 * a * vs), (2, 3))

    return lambda v_range=(-s, s): SurfaceChart(
        "graph-bowl", point, ((-s, s), v_range), jac, stacked=True
    )


def _vgraph(ambient, label, options):
    a = options["a"]
    s = _planar_scale(ambient.params)

    def point(us, vs):
        return _filled(len(us), (a * us * vs, us, vs), (3,))

    def jac(us, vs):
        return _filled(len(us), (a * vs, 1.0, 0.0, a * us, 0.0, 1.0), (2, 3))

    return lambda v_range=(0.2, 1.2): SurfaceChart(
        "vgraph-saddle", point, ((0.15 * s, 0.85 * s), v_range), jac, stacked=True
    )


def _helicoid(ambient, label, options):
    c = options["c"]

    def point(us, vs):
        cu, su = _cos_sin(us)
        return _filled(len(us), (vs * cu, vs * su, c * us), (3,))

    def jac(us, vs):
        cu, su = _cos_sin(us)
        return _filled(len(us), (-vs * su, vs * cu, c, cu, su, 0.0), (2, 3))

    # The tangent plane changes character where tau v^2 +- v = c, so a
    # variant's band is located numerically, not by the untwisted rule.
    return lambda v_range=(0.1 * c, 2.6 * c): SurfaceChart(
        "helicoid", point, ((-1.4, 1.4), v_range), jac, stacked=True
    )


# -- group-model families ------------------------------------------------------


def _berger_helicoid(ambient, label, options):
    return lambda v_range=(0.06, 0.5 * math.pi - 0.06): berger_helicoid_chart(
        options["alpha"], ((-1.2, 1.2), v_range)
    )


def _su11_helicoid(ambient, label, options):
    params = ambient.params
    t_rate = options.get("t_rate")
    ct = 0.5 * params.kappa**2 if t_rate is None else abs(t_rate)
    tmax = 1.3 / max(1.0, ct)
    return lambda v_range=(-tmax, tmax): su11_helicoid_chart(
        params, options["family"], options["rate"], ((-1.2, 1.2), v_range), t_rate=t_rate
    )


# The ambient of each model at a parameter pair, made as ``MODELS[model](params, steps=steps)``;
# the model is the ambient's ``kind``.
MODELS: dict[str, Callable] = {
    CoordinateAmbient.kind: CoordinateAmbient,
    BERGER: partial(GroupAmbient, BERGER),
    SU11: partial(GroupAmbient, SU11),
}

CATALOG: dict[str, CatalogEntry] = {
    "hopf": CatalogEntry(
        ("circle", "ellipse"),
        "vertical cylinder over a plane curve (contains the fiber direction)",
        "any parameters; the curve must fit the base domain",
        lambda params: True,
        CoordinateAmbient.kind,
        _hopf,
        options={"r": _positive, "a": _positive, "b": _positive},
        defaults=_hopf_defaults,
        character=TIMELIKE,
    ),
    "slice": CatalogEntry(
        (),
        "horizontal plane z = t0 in a product space",
        "tau = 0",
        lambda params: params.tau == 0.0,
        CoordinateAmbient.kind,
        _slice,
        options={"t0": _finite},
        defaults=lambda params, label: {"t0": 0.0},
        character=SPACELIKE,
    ),
    "graph": CatalogEntry(
        ("bowl",),
        "graph z = a (x^2 + y^2), spacelike near the origin",
        "any parameters",
        lambda params: True,
        CoordinateAmbient.kind,
        _graph,
        options={"a": _finite},
        defaults=lambda params, label: {"a": 0.2},
        character=SPACELIKE,
    ),
    "vgraph": CatalogEntry(
        ("saddle",),
        "vertical graph x = a y z, timelike with varying fiber angle",
        "any parameters",
        lambda params: True,
        CoordinateAmbient.kind,
        _vgraph,
        options={"a": _finite},
        defaults=lambda params, label: {"a": 0.15},
        character=TIMELIKE,
    ),
    "helicoid": CatalogEntry(
        (),
        "classical helicoid, minimal for both metrics",
        "kappa = 0",
        lambda params: params.kappa == 0.0,
        CoordinateAmbient.kind,
        _helicoid,
        options={"c": _positive, "variant": _variant},
        defaults=lambda params, label: {"c": 0.7, "variant": None},
    ),
    "berger-helicoid": CatalogEntry(
        (),
        "ruled minimal surface in the sphere model",
        "kappa > 0 and tau != 0",
        lambda params: params.kappa > 0.0 and params.tau != 0.0,
        BERGER,
        _berger_helicoid,
        options={"alpha": _finite, "variant": _variant},
        defaults=lambda params, label: {"alpha": 0.5, "variant": None},
    ),
    "su11-helicoid": CatalogEntry(
        (),
        "ruled minimal surface in the hyperbolic model",
        "kappa < 0 and tau != 0",
        lambda params: params.kappa < 0.0 and params.tau != 0.0,
        SU11,
        _su11_helicoid,
        options={
            "family": _one_of(*HELICOID_FAMILIES),
            "rate": _finite,
            "t_rate": _finite,
            "variant": _variant,
        },
        defaults=lambda params, label: {
            "family": "h1", "rate": 0.35, "t_rate": None, "variant": None
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


def resolve_address(address: str | ParsedSurface, params: SpaceParams) -> ParsedSurface:
    """The address completed at ``params`` with the default label and options.

    Its ``canonical()`` is the address of the surface that ``build_surface``
    builds at ``params``, known without building a chart.  Raises
    ConfigInvalid for a malformed address (``validate_address``) and for an
    option that its label does not take; whether the surface exists at
    ``params`` is not checked.
    """
    parsed = validate_address(address)
    entry = CATALOG[parsed.family]
    label = parsed.label or (entry.labels[0] if entry.labels else None)
    defaults = entry.defaults(params, label)
    unknown = set(parsed.kwargs) - set(defaults)
    if unknown:
        name = f"{parsed.family}:{label}"
        raise ConfigInvalid(
            f"surface family {name!r} does not accept {sorted(unknown)};"
            f" allowed: {sorted(defaults)}"
        )
    options = {**defaults, **parsed.kwargs}
    return ParsedSurface(
        parsed.family, label, {k: v for k, v in options.items() if v is not None}
    )


def build_surface(
    address: str | ParsedSurface,
    params: SpaceParams,
    steps: FDSteps | None = None,
    ambient=None,
) -> BuiltSurface:
    """The surface at ``address`` in the space of ``params``, built on ``ambient``.

    ``ambient`` is an ambient of the family's model at ``params``, which
    surfaces built on it share (ModelMismatch otherwise); by default a fresh
    one with ``steps``.  A ``variant`` option restricts the chart's v-range
    to the widest band of that causal character.  The bands are detected
    once per ambient and address without the variant, so both variants of a
    surface built on one ambient share them (``Ambient.bands``).
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
    resolved = resolve_address(parsed, params)
    chart_of = entry.chart(ambient, resolved.label, resolved.kwargs)
    chart, hint = chart_of(), entry.character
    variant = resolved.kwargs.get("variant")
    if variant is not None:
        rest = {k: v for k, v in resolved.kwargs.items() if k != "variant"}
        key = ParsedSurface(resolved.family, resolved.label, rest).canonical()
        t_lo, t_hi = chart.domain[1]
        if key not in ambient.bands:
            ambient.bands[key] = detect_character_bands(ambient, chart, 0.0, t_lo, t_hi)
        h = ambient.steps.second
        chart = chart_of(_band_for_variant(ambient.bands[key], variant, t_lo, t_hi, h))
        hint = {"space": SPACELIKE, "time": TIMELIKE}[variant]
    return BuiltSurface(ambient, chart, resolved.canonical(), hint)


# The surfaces that ``default_surfaces`` takes, each at the pairs where its family is valid.
_DEFAULT_ADDRESSES = ("slice:t0=0.1", "hopf:circle", "hopf:ellipse", "graph", "vgraph") + tuple(
    f"{family}:variant={variant}"
    for family in ("helicoid", "berger-helicoid", "su11-helicoid")
    for variant in ("space", "time")
)


def default_surfaces(params: SpaceParams) -> list[str]:
    """Deterministic list of catalog addresses exercising this parameter pair."""
    resolved = [resolve_address(address, params) for address in _DEFAULT_ADDRESSES]
    return [r.canonical() for r in resolved if CATALOG[r.family].valid(params) is None]
