"""Surface catalog: addresses, parsing, validity, default sets."""

from __future__ import annotations

import re

import numpy as np
import pytest

from bicausal import catalog
from bicausal.ambient import CoordinateAmbient, SpaceParams
from bicausal.catalog import (
    CATALOG,
    build_surface,
    default_surfaces,
    detect_character_bands,
    parse_surface,
    resolve_address,
    validate_address,
)
from bicausal.errors import (
    ConfigInvalid,
    CurveSingular,
    GeometryError,
    ModelMismatch,
    SurfaceUnavailable,
)
from bicausal.groups import su11_helicoid_chart
from bicausal.suite import DEFAULT_PARAMS, SuiteConfig, run_suite
from bicausal.surfaces import (
    DEGENERATE,
    SPACELIKE,
    TIMELIKE,
    SurfaceChart,
    causal_character,
    frame_data,
    uv_columns,
)

from conftest import interior_grid, same_bits
from oracles import berger_helicoid_rows, coordinate_chart_rows, su11_helicoid_rows


def test_catalog_families():
    assert set(CATALOG) == {
        "hopf",
        "slice",
        "graph",
        "vgraph",
        "helicoid",
        "berger-helicoid",
        "su11-helicoid",
    }


def test_parse_surface_roundtrip():
    parsed = parse_surface("hopf:circle:r=0.8")
    assert parsed.family == "hopf"
    assert parsed.label == "circle"
    assert parsed.kwargs == {"r": 0.8}
    assert parse_surface(parsed.canonical()) == parsed

    parsed = parse_surface("su11-helicoid:family=h1,rate=0.35,variant=space")
    assert parsed.family == "su11-helicoid"
    assert parsed.label is None
    assert parsed.kwargs["family"] == "h1"
    assert parsed.kwargs["rate"] == 0.35
    assert parsed.kwargs["variant"] == "space"


def test_validate_address_rejections():
    with pytest.raises(ConfigInvalid):
        validate_address("nosuch:surface")
    with pytest.raises(ConfigInvalid):
        validate_address("hopf:square")  # unknown label
    with pytest.raises(ConfigInvalid):
        validate_address("graph:bowl:zzz=1")  # unknown option key
    # valid addresses pass through unchanged
    assert validate_address("hopf:circle:r=0.8").family == "hopf"


def test_resolve_address_fills_in_the_defaults_at_the_pair():
    def resolved(address, pair):
        return resolve_address(address, SpaceParams(*pair)).canonical()

    assert resolved("hopf", (1.0, 1.0)) == "hopf:circle:r=0.9"
    assert resolved("hopf", (-1.0, 1.0)) == "hopf:circle:r=0.81"
    assert resolved("hopf:ellipse", (-1.0, 1.0)) == "hopf:ellipse:a=0.81,b=0.495"
    assert resolved("graph", (1.0, 1.0)) == "graph:bowl:a=0.2"
    # an option without a default stays out unless given; validity is not checked
    assert resolved("su11-helicoid:variant=time", (1.0, 1.0)) == (
        "su11-helicoid:family=h1,rate=0.35,variant=time"
    )
    # the label decides which options the address takes
    for address in ("hopf:circle:a=0.5", "hopf:ellipse:r=1", "hopf:b=0.5"):
        validate_address(address)
        with pytest.raises(ConfigInvalid, match="does not accept"):
            resolve_address(address, SpaceParams(1.0, 1.0))


def test_built_address_is_the_resolved_address():
    short = (
        "hopf", "hopf:ellipse", "graph", "vgraph", "slice", "helicoid:variant=time",
        "berger-helicoid:variant=space", "su11-helicoid:family=e,t_rate=0.5",
    )
    built = 0
    for kappa, tau in DEFAULT_PARAMS:
        params = SpaceParams(kappa, tau)
        for address in short:
            try:
                surface = build_surface(address, params)
            except SurfaceUnavailable:
                continue
            assert surface.address == resolve_address(address, params).canonical()
            built += 1
    # hopf, hopf:ellipse, graph and vgraph exist at every pair
    assert built >= 4 * len(DEFAULT_PARAMS)


def test_build_rejects_parameter_mismatch():
    for address, pair, reason in (
        ("slice:t0=0.1", (1.0, 1.0), "needs tau = 0"),
        ("helicoid:c=0.7", (1.0, 1.0), "needs kappa = 0"),
        ("berger-helicoid:alpha=0.5", (-1.0, 1.0), "needs kappa > 0 and tau != 0"),
        ("su11-helicoid:family=h1,rate=0.3", (1.0, 1.0), "needs kappa < 0 and tau != 0"),
    ):
        with pytest.raises(ConfigInvalid, match=f"not valid at .*: {re.escape(reason)}$"):
            build_surface(address, SpaceParams(*pair))


def test_surfaces_built_on_one_ambient_share_it():
    """``build_surface(..., ambient=...)`` builds on the ambient given, of the family's model."""
    params = SpaceParams(1.0, 1.0)
    bowl = build_surface("graph:bowl:a=0.2", params)
    saddle = build_surface("vgraph:saddle:a=0.15", params, ambient=bowl.ambient)
    assert saddle.ambient is bowl.ambient
    space = build_surface("berger-helicoid:alpha=0.5,variant=space", params)
    assert space.ambient.kind == CATALOG["berger-helicoid"].model != bowl.ambient.kind
    time = build_surface("berger-helicoid:alpha=0.5,variant=time", params, ambient=space.ambient)
    assert time.ambient is space.ambient
    with pytest.raises(ModelMismatch):
        build_surface("graph:bowl:a=0.2", params, ambient=space.ambient)
    with pytest.raises(ModelMismatch):
        build_surface("graph:bowl:a=0.2", SpaceParams(1.0, 0.5), ambient=bowl.ambient)


def test_build_rejects_bad_option_values():
    params = SpaceParams(0.0, 1.0)
    with pytest.raises(ConfigInvalid):
        build_surface("helicoid:c=-1", params)
    with pytest.raises(ConfigInvalid):
        build_surface("helicoid:c=0.7,variant=sideways", params)


def test_default_surfaces_all_build_and_sample():
    for kappa, tau in DEFAULT_PARAMS:
        params = SpaceParams(kappa, tau)
        addresses = default_surfaces(params)
        assert len(addresses) >= 4
        for address in addresses:
            built = build_surface(address, params)
            uv = interior_grid(built.chart.domain, 1, 1)[0]
            data = frame_data(built.ambient, built.chart, uv, validate=False)
            assert data.character in (SPACELIKE, TIMELIKE)


def test_default_surfaces_compose_by_parameters():
    with_slice = default_surfaces(SpaceParams(1.0, 0.0))
    assert with_slice[0].startswith("slice:")
    assert any(a.startswith("hopf:circle") for a in with_slice)
    flat = default_surfaces(SpaceParams(0.0, 1.0))
    assert sum(a.startswith("helicoid:") for a in flat) == 2
    sphere = default_surfaces(SpaceParams(1.0, 1.0))
    assert sum(a.startswith("berger-helicoid:") for a in sphere) == 2
    hyper = default_surfaces(SpaceParams(-1.0, 1.0))
    assert sum(a.startswith("su11-helicoid:") for a in hyper) == 2


def test_planar_surfaces_scale_into_negative_curvature_disk():
    """With kappa < 0 the model lives on a disk; default planar surfaces must
    stay inside it."""
    params = SpaceParams(-4.0, 1.0)
    radius = params.disk_radius
    assert radius == pytest.approx(1.0)
    for address in default_surfaces(params):
        built = build_surface(address, params)
        if built.group_model:
            continue
        for uv in interior_grid(built.chart.domain, 3, 3):
            p = built.chart.point(*uv)
            assert np.hypot(p[0], p[1]) < radius
            assert built.ambient.contains(p)


def test_variant_bands_deliver_requested_character():
    configs = [
        ("helicoid:c=0.7,variant=space", (0.0, 1.0), SPACELIKE),
        ("helicoid:c=0.7,variant=time", (0.0, 1.0), TIMELIKE),
        ("helicoid:c=0.7,variant=space", (0.0, 0.0), SPACELIKE),
        ("helicoid:c=0.7,variant=time", (0.0, 0.0), TIMELIKE),
        ("berger-helicoid:alpha=0.5,variant=space", (1.0, 1.0), SPACELIKE),
        ("berger-helicoid:alpha=0.5,variant=time", (1.0, 1.0), TIMELIKE),
        ("su11-helicoid:family=h1,rate=0.35,variant=space", (-1.0, 1.0), SPACELIKE),
        ("su11-helicoid:family=h1,rate=0.35,variant=time", (-1.0, 1.0), TIMELIKE),
    ]
    for address, (kappa, tau), want in configs:
        params = SpaceParams(kappa, tau)
        built = build_surface(address, params)
        assert built.character_hint == want
        for uv in interior_grid(built.chart.domain, 4, 4):
            data = frame_data(built.ambient, built.chart, uv, validate=False)
            assert data.character == want, (address, uv)


def test_hopf_radius_must_fit_disk():
    params = SpaceParams(-1.0, 1.0)  # disk radius 2
    built = build_surface("hopf:circle:r=1.0", params)
    assert built.address == "hopf:circle:r=1"
    with pytest.raises(ConfigInvalid):
        build_surface("hopf:circle:r=2.5", params)


def test_catalog_entry_metadata_complete():
    for family, entry in CATALOG.items():
        assert entry.description
        assert entry.validity
        assert all(callable(check) for check in entry.options.values())


def _bands_point_by_point(ambient, chart, u0, t_lo, t_hi, n=160):
    """``detect_character_bands`` classifying one row at a time with ``causal_character``."""
    ts = np.linspace(t_lo, t_hi, n)
    chars = []
    for t in ts:
        try:
            u, v = float(u0), float(t)
            du, dv = chart.partials(u, v, ambient.steps.second)
            char, _ = causal_character(ambient, chart.point(u, v), du, dv)
        except GeometryError:
            char = DEGENERATE
        chars.append(char)
    bands, start = [], 0
    for i in range(1, n + 1):
        if i == n or chars[i] != chars[start]:
            bands.append((chars[start], float(ts[start]), float(ts[i - 1])))
            start = i
    return bands


@pytest.mark.parametrize(
    "family,pair",
    [
        ("helicoid:c=0.7", (0.0, 1.0)),
        ("helicoid:c=0.7", (0.0, 0.5)),
        ("helicoid:c=0.7", (0.0, 0.0)),
        ("berger-helicoid:alpha=0.5", (1.0, 1.0)),
        ("berger-helicoid:alpha=0.5", (4.0, 1.0)),
        ("su11-helicoid:family=h1,rate=0.35", (-1.0, 1.0)),
    ],
)
def test_band_detection_matches_per_point_classification(family, pair, monkeypatch):
    """The stacked band scan of every variant= family gives the per-point bands.

    The coordinate helicoid exists only at kappa = 0.
    """
    seen = []

    def spy(ambient, chart, u0, t_lo, t_hi, n=160):
        bands = detect_character_bands(ambient, chart, u0, t_lo, t_hi, n)
        seen.append((bands, _bands_point_by_point(ambient, chart, u0, t_lo, t_hi, n)))
        return bands

    monkeypatch.setattr(catalog, "detect_character_bands", spy)
    for variant in ("space", "time"):
        try:
            build_surface(f"{family},variant={variant}", SpaceParams(*pair))
        except ConfigInvalid:
            pass  # no usable band of this character here
    assert len(seen) == 2
    for stacked, reference in seen:
        assert stacked == reference


def test_band_detection_marks_failing_chart_rows_degenerate():
    ambient = CoordinateAmbient(SpaceParams(1.0, 1.0))

    def point(u, v):
        if 0.3 < v < 0.5:
            raise CurveSingular(f"no point at v={v}")
        return np.array([v * np.cos(u), v * np.sin(u), 0.7 * u])

    def jac(u, v):
        return np.array([-v * np.sin(u), v * np.cos(u), 0.7]), np.array([np.cos(u), np.sin(u), 0.0])

    chart = SurfaceChart("probe", point, ((-1.0, 1.0), (0.0, 2.0)), jacobian=jac)
    bands = detect_character_bands(ambient, chart, 0.2, 0.05, 1.8)
    assert any(c == DEGENERATE and 0.3 < lo <= hi < 0.5 for c, lo, hi in bands)
    assert bands == _bands_point_by_point(ambient, chart, 0.2, 0.05, 1.8)


def test_variants_on_one_ambient_detect_their_bands_once(monkeypatch):
    """Both variants of a surface built on one ambient share one band detection.

    A default verify has variant surfaces at five pairs, so it detects bands
    five times, once per pair.  A shared detection gives the v-range, and a
    variant without a band the message, of a fresh build.  A sweep shares
    the pair's ambient also after a surface found unavailable.
    """
    calls = []

    def spy(ambient, chart, *args):
        calls.append(ambient)
        return detect_character_bands(ambient, chart, *args)

    monkeypatch.setattr(catalog, "detect_character_bands", spy)
    run_suite(SuiteConfig(seed=0))
    assert len(calls) == 5 == len({id(ambient) for ambient in calls})

    calls.clear()
    params = SpaceParams(1.0, 1.0)
    space = build_surface("berger-helicoid:alpha=0.5,variant=space", params)
    time = build_surface("berger-helicoid:alpha=0.5,variant=time", params, ambient=space.ambient)
    assert len(calls) == 1
    fresh = build_surface("berger-helicoid:alpha=0.5,variant=time", params)
    assert time.chart.domain == fresh.chart.domain
    # another surface on the same ambient detects its own bands
    build_surface("berger-helicoid:alpha=0.7,variant=time", params, ambient=space.ambient)
    assert len(calls) == 3

    params = SpaceParams(-1.0, 0.3)
    space = build_surface("su11-helicoid:family=h1,variant=space", params)
    with pytest.raises(SurfaceUnavailable) as shared:
        build_surface("su11-helicoid:family=h1,variant=time", params, ambient=space.ambient)
    assert len(calls) == 4
    with pytest.raises(SurfaceUnavailable) as alone:
        build_surface("su11-helicoid:family=h1,variant=time", params)
    assert str(shared.value) == str(alone.value)
    assert str(shared.value) == "surface has no timelike band on [-1.3, 1.3] for these parameters"

    # a sweep shares the bands also when the first variant has none
    calls.clear()
    surfaces = tuple(f"berger-helicoid:alpha=-0.7,variant={v}" for v in ("space", "time"))
    report = run_suite(SuiteConfig(params=((1.0, 1.0),), surfaces=surfaces, samples=1))
    assert len(calls) == 1
    assert [row["surface"] for row in report["skipped_surfaces"]] == [surfaces[0]]
    assert [row["surface"] for row in report["surfaces"]] == [surfaces[1]]


# -- stacked charts against their per-row formulas -----------------------------

STACKED_CHARTS = [
    ("hopf:circle", (1.0, 1.0)),
    ("hopf:ellipse", (-1.0, 1.0)),
    ("slice:t0=0.1", (-1.0, 0.0)),
    ("graph:bowl:a=0.2", (1.0, 1.0)),
    ("graph:bowl:a=-0.3", (-4.0, 1.0)),
    ("vgraph", (-4.0, 1.0)),
    ("helicoid:variant=space", (0.0, 1.0)),
    ("helicoid:c=0.5", (0.0, 0.0)),
    ("berger-helicoid", (1.0, 1.0)),
    ("berger-helicoid:alpha=0.7,variant=time", (4.0, 1.0)),
    *(
        (f"su11-helicoid:family={family}{extra}", pair)
        for family in ("e", "h1", "p1", "p")
        for extra, pair in (("", (-1.0, 1.0)), (",rate=0.6,t_rate=0.5", (-2.0, 0.7)))
    ),
]


def _row_formula(address: str, params: SpaceParams):
    """The per-row point and jacobian of a catalog address at ``params``."""
    resolved = resolve_address(address, params)
    options = resolved.kwargs
    if resolved.family == "berger-helicoid":
        return berger_helicoid_rows(options["alpha"])
    if resolved.family == "su11-helicoid":
        return su11_helicoid_rows(params, options["family"], options["rate"], options.get("t_rate"))
    return coordinate_chart_rows(resolved.family, resolved.label, options)


def _edge_and_inner_uvs(domain, rng, n: int = 40) -> list:
    """The corners and edge midpoints of a chart's domain, then n rows inside it."""
    (ul, uh), (vl, vh) = domain
    edges = [(u, v) for u in (ul, 0.5 * (ul + uh), uh) for v in (vl, 0.5 * (vl + vh), vh)]
    inner = zip(rng.uniform(ul, uh, n).tolist(), rng.uniform(vl, vh, n).tolist())
    return edges + list(inner)


def _assert_stack_is_rows(chart, point, jacobian, uvs, h) -> None:
    """The n-row stack, each one-row stack and each row's formula agree bit for bit."""
    us, vs = uv_columns(uvs)
    points, pairs = chart.chart(us, vs), chart.jacobian(us, vs)
    for i, (u, v) in enumerate(uvs):
        want_point, want_pair = point(u, v), np.array(jacobian(u, v))
        assert same_bits(points[i], want_point), (u, v)
        assert same_bits(pairs[i], want_pair), (u, v)
        assert same_bits(chart.point(u, v), want_point), (u, v)
        assert same_bits(np.array(chart.partials(u, v, h)), want_pair), (u, v)


@pytest.mark.parametrize("address, pair", STACKED_CHARTS)
def test_stacked_chart_is_the_per_row_formula_bit_for_bit(address, pair, rng):
    params = SpaceParams(*pair)
    built = build_surface(address, params)
    assert built.chart.stacked
    point, jacobian = _row_formula(address, params)
    uvs = _edge_and_inner_uvs(built.chart.domain, rng)
    _assert_stack_is_rows(built.chart, point, jacobian, uvs, built.ambient.steps.first)
    # the stacked points and pairs of a chart, and the empty stack
    us, vs = uv_columns(uvs)
    points, errors = built.chart.points(us, vs)
    pairs, pair_errors = built.chart.pairs(us, vs, built.ambient.steps.first)
    assert same_bits(points, built.chart.chart(us, vs)) and errors == [None] * len(uvs)
    assert same_bits(pairs, built.chart.jacobian(us, vs)) and pair_errors == errors
    empty = built.chart.chart(*uv_columns([]))
    assert empty.shape == (0, built.ambient.dim)


@pytest.mark.parametrize("family", ["e", "h1", "p1", "p"])
def test_stacked_su11_chart_with_base_and_t_rate(family, rng):
    """The congruence factor ``base`` and the ruling rate ``t_rate`` keep the bits too."""
    params = SpaceParams(-1.5, 0.8)
    c, s = np.cosh(0.3), np.sinh(0.3)
    base = np.array([[c, 1j * s * np.exp(0.2j)], [-1j * s * np.exp(-0.2j), c]])
    domain = ((-1.2, 1.2), (-1.0, 1.0))
    for t_rate in (None, 0.4, -1.1):
        chart = su11_helicoid_chart(params, family, 0.35, domain, t_rate=t_rate, base=base)
        point, jacobian = su11_helicoid_rows(params, family, 0.35, t_rate, base)
        _assert_stack_is_rows(chart, point, jacobian, _edge_and_inner_uvs(domain, rng), 1e-4)


def test_stacked_chart_without_jacobian_differences_four_stacks():
    """FD partials of a stacked chart are the per-row central differences."""
    built = build_surface("berger-helicoid", SpaceParams(1.0, 1.0))
    chart = SurfaceChart("no-jacobian", built.chart.chart, built.chart.domain, stacked=True)
    h = 1e-4
    uvs = [(0.1, 0.3), (-1.2, 0.06), (0.7, 1.2)]
    pairs, errors = chart.pairs(*uv_columns(uvs), h)
    assert errors == [None] * 3
    for (u, v), pair in zip(uvs, pairs):
        du = (chart.point(u + h, v) - chart.point(u - h, v)) / (2.0 * h)
        dv = (chart.point(u, v + h) - chart.point(u, v - h)) / (2.0 * h)
        assert same_bits(pair, np.array([du, dv]))
        assert same_bits(np.array(chart.partials(u, v, h)), pair)
