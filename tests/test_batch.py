"""Batches of samples: a batch of n gives, sample by sample, the bits of n batches of one.

``frame_batch`` builds each stage (centers, frame components, rotations,
stencil rows, connection tables, shape operators, T-derivatives, curvature
scalars) as one stack over its samples, and ``evaluate_samples`` runs each
stacked identity once over them.  Every number and every error a sample
reports must not depend on the batch it is in.
"""

from __future__ import annotations

import functools
import gc
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bicausal.ambient import CoordinateAmbient, Signature, SpaceParams
from bicausal.catalog import CATALOG, MODELS, build_surface, default_surfaces, parse_surface
from bicausal.errors import CurveSingular, GeometryError, OrientationFlip, SurfaceUnavailable
from bicausal.identities import (
    IDENTITIES,
    IDENTITY_NAMES,
    DrawPlan,
    SampleSkip,
    curvature_suite,
    draw_plan,
    evaluate_plans,
    evaluate_samples,
    run_identities,
)
from bicausal import cli, identities, surfaces
from bicausal.surfaces import (
    NORMAL_FIELDS,
    T_FIELDS,
    SurfaceChart,
    TwoMetricFrameData,
    frame_batch,
    frame_data,
    uv_columns,
)

from conftest import same_bits
from oracles import normal_data_two_pass

SIGS = (Signature.R, Signature.L)


def _outcome(fn):
    """("ok", value) or ("error", class, code, message) of one call."""
    try:
        return ("ok", fn())
    except (GeometryError, SampleSkip) as exc:
        code = getattr(exc, "code", None) or exc.reason
        return ("error", type(exc), code, str(exc))


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, type) or isinstance(a, str) or a is None:
        return a == b
    return same_bits(a, b)


def _readings(data) -> list:
    """Everything a sample reports, in a fixed order of first use."""
    if isinstance(data, GeometryError):
        return [("error", type(data), data.code, str(data))]
    out = [data.uv, data.point, data.invariants, data.flags]
    for sig in SIGS:
        out.append(_outcome(lambda: data.shape(sig)))
        out.append(_outcome(lambda: data.tangent_derivatives(sig)))
        out.append(data.table(sig))
        out.append(_outcome(lambda: data.rotation(sig)))
    out.append(_outcome(lambda: curvature_suite(data)))
    out.append(_outcome(lambda: _stencil_n_l(data)))
    out.append(list(data._batch.frame_components()[data._k]))
    out.append([data._batch.t_coeffs(sig)[data._k] for sig in SIGS])
    out.append((data._batch.curve_starts()[data._k] or data).point)
    return out


def _stencil_n_l(data) -> np.ndarray:
    """The Lorentzian normals of a sample's eight stencil rows, or its first row error."""
    batch, k = data._batch, data._k
    err = batch.stencil_errors()[k]
    if err is not None:
        raise err
    st = batch.stencil()
    at = st.rows.index(8 * k)
    return st.n_l[at : at + 8]


def _assert_batch_equals_singles(ambient, chart, uvs) -> list:
    batch = frame_batch(ambient, chart, uvs)
    assert len(batch) == len(uvs)
    for k, uv in enumerate(uvs):
        (alone,) = frame_batch(ambient, chart, [uv])
        got, want = _readings(batch[k]), _readings(alone)
        assert _same(got, want), (k, uv)
    return batch


def _domain_uvs(chart, fractions):
    (u0, u1), (v0, v1) = chart.domain
    return [(u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)) for fu, fv in fractions]


# well inside, near the edges and past them, where kappa < 0 surfaces leave the disk
FRACTIONS = [(0.37, 0.61), (0.05, 0.9), (0.5, 0.5), (0.93, 0.12), (-0.4, 0.5), (1.45, 1.3),
             (0.2, 0.2), (0.71, 0.44)]


@pytest.mark.parametrize(
    "address, pair",
    [
        ("graph:bowl:a=0.2", (1.0, 1.0)),
        ("graph:bowl:a=0.2", (1.0, 0.0)),
        ("vgraph:saddle:a=0.15", (-1.0, 0.0)),
        ("hopf:circle:r=0.45", (-1.0, 1.0)),
        ("hopf:ellipse:a=0.81,b=0.495", (-1.0, 0.5)),
        ("slice:t0=0.1", (-1.0, 0.0)),
        ("helicoid:c=0.75", (0.0, 1.0)),
        ("berger-helicoid:alpha=0.5,variant=space", (1.0, 1.0)),
        ("berger-helicoid:alpha=0.5,variant=time", (4.0, 1.0)),
        ("su11-helicoid:family=h1,rate=0.35,variant=time", (-1.0, 1.0)),
        ("su11-helicoid:family=e,rate=0.35,variant=space", (-4.0, 1.0)),
    ],
)
def test_batch_of_n_equals_n_batches_of_one(address, pair):
    built = build_surface(address, SpaceParams(*pair))
    uvs = _domain_uvs(built.chart, FRACTIONS)
    batch = _assert_batch_equals_singles(built.ambient, built.chart, uvs)
    assert any(not isinstance(d, GeometryError) for d in batch)


def test_batch_reproduces_the_sample_path_of_frame_data():
    built = build_surface("graph:bowl:a=0.2", SpaceParams(-1.0, 0.0))
    uvs = _domain_uvs(built.chart, FRACTIONS[:4])
    for uv, data in zip(uvs, frame_batch(built.ambient, built.chart, uvs)):
        alone = frame_data(built.ambient, built.chart, uv, validate=False)
        assert _same(_readings(data), _readings(alone))
        for sig in SIGS:
            assert same_bits(data.table(sig), built.ambient.point_table(sig, data.point))


def _plane(half_width: float) -> SurfaceChart:
    """The slice z = 0 of the coordinate model, charted by (x, y)."""
    return SurfaceChart(
        name="plane",
        chart=lambda u, v: np.array([u, v, 0.0]),
        domain=((-half_width, half_width),) * 2,
        jacobian=lambda u, v: (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
    )


def test_each_sample_raises_its_own_first_stencil_error():
    """Near the disk edge some samples' stencils leave the model; only those samples raise."""
    ambient = CoordinateAmbient(SpaceParams(-1.0, 0.0))
    h = ambient.steps.second
    edge = 2.0 * math.sqrt(1.0 - 1e-6)
    # +2h leaves the disk; +h leaves the disk; all rows inside; center outside
    uvs = [(edge - 1.5 * h, 0.0), (0.0, edge - 0.5 * h), (0.3, 0.2), (edge + h, 0.0)]
    batch = _assert_batch_equals_singles(ambient, _plane(2.0), uvs)
    assert isinstance(batch[3], GeometryError) and batch[3].code == "DOMAIN_VIOLATION"
    for k in (0, 1):
        with pytest.raises(GeometryError) as raised:
            batch[k].shape(Signature.R)
        assert raised.value.code == "DOMAIN_VIOLATION"
        # raised again on every use
        with pytest.raises(GeometryError):
            batch[k].tangent_derivatives(Signature.L)
    assert np.all(np.isfinite(batch[2].shape(Signature.L)))


def _parabolic_cylinder(z0: float) -> SurfaceChart:
    """x = (z - z0)^2 in the flat model, charted by (y, z): timelike near z = z0, where its
    Lorentzian normal angle changes sign."""
    return SurfaceChart(
        name="parabolic",
        chart=lambda u, v: np.array([(v - z0) ** 2, u, v]),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        jacobian=lambda u, v: (np.array([0.0, 1.0, 0.0]), np.array([2.0 * (v - z0), 0.0, 1.0])),
    )


def _flip_case():
    """The parabolic cylinder at (0,0) with a sample 1.5 stencil steps below z0, whose row at
    +2h along chart axis 1 lies past z0, between samples whose stencils stay on one side."""
    ambient = CoordinateAmbient(SpaceParams(0.0, 0.0))
    z0, h = 0.3, ambient.steps.second
    uvs = [(0.1, z0 - 0.2), (0.0, z0 - 1.5 * h), (0.0, z0 + 3 * h)]
    return ambient, _parabolic_cylinder(z0), uvs


def test_a_stencil_across_a_sign_change_of_the_normal_angle_raises_orientation_flip():
    ambient, chart, uvs = _flip_case()
    batch = _assert_batch_equals_singles(ambient, chart, uvs)
    flipped = batch[1].stencil_error()
    assert isinstance(flipped, OrientationFlip) and flipped.code == "ORIENTATION_FLIP"
    assert str(flipped) == f"normal angle changes sign across stencil at uv={uvs[1]!r}"
    # the row at +2h along axis 1 is the first and only one across z0
    st = batch[1]._batch.stencil()
    assert [e is not None for e in st.errors[8:16]] == [False] * 5 + [True] + [False] * 2
    with pytest.raises(OrientationFlip) as raised:
        batch[1].shape(Signature.L)
    assert str(raised.value) == str(flipped)
    assert batch[0].stencil_error() is None and batch[2].stencil_error() is None
    assert batch[1].eps == 1.0 and batch[1].angle_l < 0.0


def _assert_normal_data_equals_two_passes(ambient, chart, uvs) -> surfaces.SampleBatch:
    """The centers and stencil rows of a batch's one ``_normal_data`` pass give every field,
    error and message of the two passes that built them before."""
    batch = surfaces.SampleBatch(ambient, chart, uvs)
    want = normal_data_two_pass(ambient, chart, batch.uvs, ambient.steps)
    for got, ref in zip((batch.center, batch.stencil()), want):
        assert got.rows == ref.rows
        assert [(type(e), str(e)) if e else None for e in got.errors] == [
            (type(e), str(e)) if e else None for e in ref.errors
        ]
        for name in surfaces._NORMAL_ARRAYS:
            a, b = getattr(got, name), getattr(ref, name)
            assert (a is None and b is None) or same_bits(a, b), name
    return batch


@pytest.mark.parametrize("pair", [(1.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
def test_one_normal_pass_equals_two_on_the_default_surfaces(pair):
    params = SpaceParams(*pair)
    for address in default_surfaces(params):
        built = build_surface(address, params)
        batch = _assert_normal_data_equals_two_passes(
            built.ambient, built.chart, _domain_uvs(built.chart, FRACTIONS)
        )
        assert batch.centers, address


def test_one_normal_pass_equals_two_where_centers_are_excluded():
    """Centers excluded by the domain check, and centers that the chart kept but a later check
    excluded, whose stencil rows the pass computes and the stencil leaves out."""
    ambient = CoordinateAmbient(SpaceParams(-1.0, 0.0))
    h, edge = ambient.steps.second, ambient.params.disk_radius * math.sqrt(1.0 - 1e-6)
    uvs = [(edge + h, 0.0), (edge - 1.5 * h, 0.0), (9.0, 9.0), (0.3, 0.2), (0.0, edge - 0.5 * h),
           (-edge - 2 * h, 0.1)]
    batch = _assert_normal_data_equals_two_passes(ambient, _plane(ambient.params.disk_radius), uvs)
    assert batch.centers == [0, 1, 2] and batch.center.rows == [1, 3, 4]
    assert any(e is not None for e in batch.stencil().errors)
    # the fold at u = 0.3 fails the center's rank check, and at 0.5 + h a stencil row's
    folded = _folded_plane({0.3, 0.5 + ambient.steps.second})
    uvs = [(0.1, 0.2), (0.3, 0.2), (0.5, 0.2), (0.7, 0.1)]
    batch = _assert_normal_data_equals_two_passes(ambient, folded, uvs)
    assert batch.centers == [0, 2, 3] and len(batch.center.rows) == 4
    assert isinstance(batch.stencil(), surfaces._Selected)
    assert [e.code for e in batch.stencil().errors if e is not None] == ["IMMERSION_FAILURE"]


def test_one_normal_pass_equals_two_on_a_sign_ambiguous_cylinder_and_across_a_flip():
    built = build_surface("hopf:circle:r=0.45", SpaceParams(-1.0, 1.0))
    batch = _assert_normal_data_equals_two_passes(
        built.ambient, built.chart, _domain_uvs(built.chart, FRACTIONS)
    )
    assert batch.center.sign_ambiguous.all()
    batch = _assert_normal_data_equals_two_passes(*_flip_case())
    assert [type(e) for e in batch.stencil().errors].count(OrientationFlip) == 1


# -- fuzzing: parameters at kappa + 4 tau^2 = 0 and points at the disk edge -----

SINGULAR_PAIRS = [(-4.0, 1.0), (-1.0, 0.5), (-0.25, 0.25)]


@st.composite
def _edge_batch(draw):
    kappa = draw(st.sampled_from([-4.0, -1.0, -0.25]))
    tau = draw(st.sampled_from([0.0, math.sqrt(-kappa) / 2.0, 0.3]))
    # the edge of the model's domain, and the stencil step
    edge = 2.0 / math.sqrt(-kappa) * math.sqrt(1.0 - 1e-6)
    h = CoordinateAmbient(SpaceParams(kappa, tau)).steps.second
    n = draw(st.integers(1, 4))
    uvs = []
    for _ in range(n):
        # steps inside the edge: the stencil reaches two steps out
        inside = draw(st.one_of(st.floats(-1.0, 3.0), st.floats(3.0, 100.0)))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        r = edge - inside * h
        uvs.append((r * math.cos(angle), r * math.sin(angle)))
    return (kappa, tau), uvs


def _assert_finite_or_coded(batch):
    for data in batch:
        if isinstance(data, GeometryError):
            assert isinstance(data.code, str) and data.code
            continue
        assert np.isfinite(data.omega_l)
        for sig in SIGS:
            for call in (lambda: data.shape(sig), lambda: data.tangent_derivatives(sig)):
                out = _outcome(call)
                if out[0] == "error":
                    assert isinstance(out[2], str) and out[2]
                else:
                    value = out[1]
                    arrays = [value] if isinstance(value, np.ndarray) else [
                        *value["dt"], *value["dangle"]
                    ]
                    assert all(np.all(np.isfinite(a)) for a in arrays)


@given(_edge_batch())
def test_fuzz_disk_edge_batches_are_finite_or_coded(sample):
    pair, uvs = sample
    ambient = CoordinateAmbient(SpaceParams(*pair))
    chart = _plane(2.0 / math.sqrt(-pair[0]))
    batch = _assert_batch_equals_singles(ambient, chart, uvs)
    _assert_finite_or_coded(batch)


@given(
    st.sampled_from(SINGULAR_PAIRS),
    st.sampled_from(["graph:bowl:a=0.2", "hopf:circle:r=0.4", "vgraph:saddle:a=0.15",
                     "su11-helicoid:family=h1,rate=0.35,variant=time"]),
    st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), min_size=1, max_size=3),
)
def test_fuzz_singular_parameters_are_finite_or_coded(pair, address, fractions):
    """kappa + 4 tau^2 = 0: the identities' singular ratio; the frame data must stay sound."""
    built = _built(pair, address)
    if isinstance(built, SurfaceUnavailable):
        assert isinstance(built.code, str) and built.code
        return
    uvs = _domain_uvs(built.chart, fractions)
    batch = _assert_batch_equals_singles(built.ambient, built.chart, uvs)
    _assert_finite_or_coded(batch)


@functools.lru_cache(maxsize=None)
def _built(pair, address):
    """The built surface, or the coded error that says it does not exist at the pair."""
    try:
        return build_surface(address, SpaceParams(*pair))
    except SurfaceUnavailable as exc:
        return exc


def _charted_row_by_row(ambient, chart, uvs, h):
    """``surfaces._charted`` with one ``validate_point`` per row, as the reference."""
    errors, rows, points, pairs = [None] * len(uvs), [], [], []
    for i, (u, v) in enumerate(uvs):
        try:
            point = ambient.validate_point(chart.point(u, v))
            pair = chart.partials(u, v, h)
        except GeometryError as exc:
            errors[i] = exc
            continue
        rows.append(i)
        points.append(point)
        pairs.append(pair)
    dim = ambient.dim
    return np.array(points).reshape(-1, dim), np.array(pairs).reshape(-1, 2, dim), errors, rows


def _with_bad_rows(chart: SurfaceChart, far) -> SurfaceChart:
    """``chart``, but at u = 9 the point ``far``, at 8 a NaN, at 7 one coordinate short."""
    bad = {9.0: far, 8.0: [0.1, math.nan] + [0.0] * (len(far) - 2), 7.0: far[:-1]}

    def point(u, v):
        return np.array(bad[u], dtype=float) if u in bad else chart.point(u, v)

    return SurfaceChart("mixed", point, chart.domain)


@pytest.mark.parametrize(
    "address, pair, far",
    [
        ("graph:bowl:a=0.2", (-1.0, 0.5), [3.0, 0.0, 0.0]),
        ("berger-helicoid", (1.0, 1.0), [2.0, 0.0, 0.0, 0.0]),
    ],
    ids=["coordinate-disk", "group"],
)
def test_stacked_domain_check_keeps_each_rows_error(address, pair, far):
    built = build_surface(address, SpaceParams(*pair))
    ambient, chart = built.ambient, _with_bad_rows(built.chart, far)
    uvs = [(0.3, 0.2), (9.0, 0.0), (0.1, -0.4), (8.0, 0.1), (7.0, 0.2), (-0.2, 0.5), (9.0, 1.0)]
    if ambient.params.disk_radius is not None:
        # graph:bowl is (u, v, f): rows just inside and just outside the domain's edge
        edge = ambient.params.disk_radius * math.sqrt(1.0 - 1e-6)
        inside = edge * (1.0 - 1e-12)
        uvs += [(inside, 0.0), (0.0, -edge * (1.0 + 1e-12)), (0.6 * inside, -0.8 * inside)]
    h = ambient.steps.first
    point, pair_, errors, rows = surfaces._charted(ambient, chart, *uv_columns(uvs), h)
    want_point, want_pair, want_errors, want_rows = _charted_row_by_row(ambient, chart, uvs, h)
    assert rows == want_rows
    assert same_bits(point, want_point) and same_bits(pair_, want_pair)
    got = [(type(e), str(e)) if e is not None else None for e in errors]
    assert got == [(type(e), str(e)) if e is not None else None for e in want_errors]
    assert [i for i, e in enumerate(errors) if e is not None] == [
        i for i, uv in enumerate(uvs) if uv[0] in (9.0, 8.0, 7.0) or i == 8
    ]


@pytest.mark.parametrize("jacobian", [False, True], ids=["fd", "jacobian"])
def test_chart_of_single_rows_keeps_each_rows_chart_error(jacobian):
    """A chart of single rows is looped; a row whose point or partials raise keeps its error."""
    built = build_surface("graph:bowl:a=0.2", SpaceParams(1.0, 1.0))
    h = built.ambient.steps.first

    def point(u, v):
        if u in (0.5, 0.25 + h):
            raise CurveSingular(f"no point at u={u}")
        return built.chart.point(u, v)

    def partials(u, v):
        if u == -0.3:
            raise CurveSingular(f"no partials at u={u}")
        return built.chart.partials(u, v, h)

    chart = SurfaceChart("gaps", point, built.chart.domain, partials if jacobian else None)
    uvs = [(0.1, 0.2), (0.5, 0.0), (0.25, 0.1), (-0.3, 0.4), (0.6, -0.2)]
    got = surfaces._charted(built.ambient, chart, *uv_columns(uvs), h)
    want = _charted_row_by_row(built.ambient, chart, uvs, h)
    assert got[3] == want[3] == ([0, 2, 4] if jacobian else [0, 3, 4])
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert [(type(e), str(e)) if e else None for e in got[2]] == [
        (type(e), str(e)) if e else None for e in want[2]
    ]


# -- identities: one stacked evaluation per surface ----------------------------


def _assert_identities_equal_singles(
    ambient, chart, uvs, seed: int = 7, names=IDENTITY_NAMES, make_rng=np.random.default_rng
) -> list:
    """The identities over a batch give each sample the outcomes of a batch of one.

    One generator serves the batch and one the singles.  The batch's draw
    plan takes each sample's draws in the order of a sample-by-sample
    evaluation, so the two streams stay in step and end in the same state.
    """
    pairs = [
        (uv, d) for uv, d in zip(uvs, frame_batch(ambient, chart, uvs))
        if not isinstance(d, GeometryError)
    ]
    batch_rng = make_rng(seed)
    together = evaluate_samples(names, [d for _, d in pairs], batch_rng)
    rng = make_rng(seed)
    for (uv, _), got in zip(pairs, together):
        (alone,) = frame_batch(ambient, chart, [uv])
        want = run_identities(names, alone, rng)
        assert list(got) == list(want) == list(names)
        assert _same(got, want), uv
    assert batch_rng.bit_generator.state == rng.bit_generator.state
    return together


def _plane_through(p0, du, dv) -> SurfaceChart:
    p0, du, dv = (np.array(a, dtype=float) for a in (p0, du, dv))
    return SurfaceChart(
        name="plane",
        chart=lambda u, v: p0 + u * du + v * dv,
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        jacobian=lambda u, v: (du, dv),
    )


def _timelike_plane_at_the_edge(ambient) -> SurfaceChart:
    """A timelike plane 1.5 stencil steps inside the disk edge, at uv (0, 0).

    du, dv, du + dv and du - dv are all timelike there, so the Lorentzian
    adapted basis has no first vector (NULL_DIRECTION); the stencil row at
    u = +2h leaves the disk (DOMAIN_VIOLATION).
    """
    x0 = ambient.params.disk_radius * math.sqrt(1.0 - 1e-6) - 1.5 * ambient.steps.second
    lam = 1.0 / (1.0 + 0.25 * ambient.params.kappa * x0 * x0)
    return _plane_through((x0, 0.0, 0.0), (1.0, 0.0, 10.0 * lam), (0.0, 0.2, 3.0 * lam))


def _edge_uvs(ambient) -> list:
    h = ambient.steps.second
    edge = ambient.params.disk_radius * math.sqrt(1.0 - 1e-6)
    return [(edge - 1.5 * h, 0.0), (0.0, edge - 0.5 * h), (0.3, 0.2), (edge + h, 0.0)]


def _skips(outcomes) -> set:
    return {out["skipped"] for sample in outcomes for out in sample.values() if "skipped" in out}


@pytest.mark.parametrize("pair", [(-1.0, 0.0), (-4.0, 1.0)], ids=["disk-edge", "singular-edge"])
def test_identities_at_the_disk_edge_equal_batches_of_one(pair):
    """Samples whose stencil leaves the disk skip with their own error, also at a singular pair."""
    ambient = CoordinateAmbient(SpaceParams(*pair))
    chart = _plane(ambient.params.disk_radius)
    outcomes = _assert_identities_equal_singles(ambient, chart, _edge_uvs(ambient))
    assert "DOMAIN_VIOLATION" in _skips(outcomes)
    assert ("PARAMETER_SINGULARITY" in _skips(outcomes)) == (pair == (-4.0, 1.0))


@pytest.mark.parametrize("pair", [(-1.0, 0.0), (-1.0, 0.5)], ids=["tau0", "singular"])
def test_identities_on_a_null_direction_plane_equal_batches_of_one(pair):
    ambient = CoordinateAmbient(SpaceParams(*pair))
    chart = _timelike_plane_at_the_edge(ambient)
    outcomes = _assert_identities_equal_singles(
        ambient, chart, [(0.0, 0.0), (-0.3, 0.0), (-0.5, 0.4), (0.0, 0.1)]
    )
    assert {"NULL_DIRECTION", "DOMAIN_VIOLATION"} <= _skips(outcomes)


@pytest.mark.parametrize(
    "address, pair",
    [
        ("graph:bowl:a=0.2", (1.0, 0.0)),
        ("vgraph:saddle:a=0.15", (-1.0, 0.0)),
        ("hopf:circle:r=0.45", (-4.0, 1.0)),
        ("graph:bowl:a=0.2", (-1.0, 0.5)),
        ("berger-helicoid:alpha=0.5,variant=time", (1.0, 1.0)),
        ("su11-helicoid:family=h1,rate=0.35,variant=space", (-1.0, 1.0)),
    ],
)
def test_identities_on_catalog_batches_equal_batches_of_one(address, pair):
    built = build_surface(address, SpaceParams(*pair))
    uvs = _domain_uvs(built.chart, FRACTIONS)
    outcomes = _assert_identities_equal_singles(built.ambient, built.chart, uvs)
    assert any("residuals" in out for sample in outcomes for out in sample.values())


# -- identities: one evaluation over the surfaces of one ambient ----------------


def _samples(ambient, chart, uvs) -> list:
    return [d for d in frame_batch(ambient, chart, uvs) if not isinstance(d, GeometryError)]


def _assert_grouped_equals_per_surface(
    make_ambient, surfaces, seed: int = 7, keep: slice | None = None
) -> list:
    """One evaluation of several surfaces of one ambient gives the bits of one per surface.

    ``surfaces`` lists (build, uvs) per surface, where ``build(ambient)`` is
    its chart on ``ambient``.  The grouped run builds every surface on one
    ambient, takes each surface's draw plan in turn and evaluates them all
    at once (``evaluate_plans``).  The reference builds each surface on a
    fresh ambient and calls ``evaluate_samples`` once per surface.  The
    outcomes and the generators' final states must agree bitwise.  With
    ``keep``, the grouped run evaluates only those samples of each surface,
    and the reference is a batch of their uvs.
    """
    names = list(IDENTITY_NAMES)
    ambient = make_ambient()
    groups = [_samples(ambient, build(ambient), uvs) for build, uvs in surfaces]
    groups = [samples[keep or slice(None)] for samples in groups]
    rng = np.random.default_rng(seed)
    grouped = evaluate_plans(names, [draw_plan(names, samples, rng) for samples in groups])
    ref = np.random.default_rng(seed)
    for j, ((build, uvs), samples) in enumerate(zip(surfaces, groups)):
        fresh = make_ambient()
        uvs = uvs if keep is None else [d.uv for d in samples]
        want = evaluate_samples(names, _samples(fresh, build(fresh), uvs), ref)
        assert len(want) == len(samples)
        # each sample's residual list or skip reason, per identity
        want = {name: [next(iter(out[name].values())) for out in want] for name in names}
        assert _same({name: grouped[name][j] for name in names}, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    return groups


def _catalog(params, *addresses) -> tuple:
    """The ambient factory of the addresses' one model, and (build, uvs) of each surface."""
    (model,) = {CATALOG[parse_surface(address).family].model for address in addresses}
    def chart_on(address, ambient):
        return build_surface(address, params, ambient=ambient).chart

    surfaces = [
        (functools.partial(chart_on, a), _domain_uvs(build_surface(a, params).chart, FRACTIONS))
        for a in addresses
    ]
    return functools.partial(MODELS[model], params), surfaces


def test_coordinate_surfaces_evaluated_together_equal_one_evaluation_each():
    make, surfaces = _catalog(
        SpaceParams(1.0, 1.0), "hopf:circle", "graph:bowl:a=0.2", "vgraph:saddle:a=0.15"
    )
    assert all(_assert_grouped_equals_per_surface(make, surfaces))


def test_both_berger_helicoids_evaluated_together_equal_one_evaluation_each():
    make, surfaces = _catalog(
        SpaceParams(1.0, 1.0),
        "berger-helicoid:alpha=0.5,variant=space",
        "berger-helicoid:alpha=0.5,variant=time",
    )
    assert all(_assert_grouped_equals_per_surface(make, surfaces))


def test_grouped_evaluation_with_a_surface_all_stencil_errors_and_one_without_samples():
    """Beside a catalog surface: a plane whose every sample's stencil leaves the disk, and
    a plane whose every sample lies outside it, so that it has no sample to evaluate."""
    params = SpaceParams(-1.0, 0.5)
    make, (bowl,) = _catalog(params, "graph:bowl:a=0.2")
    edge = (_timelike_plane_at_the_edge, [(0.0, 0.0), (0.0, 0.02), (0.0, -0.02)])
    outside = (lambda ambient: _plane(1.0), [(-9.0, -9.0), (9.0, 0.0)])
    groups = _assert_grouped_equals_per_surface(make, [edge, bowl, outside])
    assert groups[0] and all(d.stencil_error() is not None for d in groups[0])
    assert groups[1] and groups[2] == []


def test_a_join_builds_the_row_stages_that_one_of_its_surfaces_lacks(monkeypatch):
    """Every sample of the edge plane has a stencil error, so its draw plan builds no shape
    operators.  The join with the bowl, whose batch holds them, builds them itself, with the
    normals' stencil components and the tables they need, over all its samples, and the
    T-fields' components, and gives the bits of one evaluation per surface.  It copies only
    the fields of the surfaces' centers and stencil rows that it reads."""
    make, (bowl,) = _catalog(SpaceParams(-1.0, 0.5), "graph:bowl:a=0.2")
    edge = (_timelike_plane_at_the_edge, [(0.0, 0.0), (0.0, 0.02), (0.0, -0.02)])
    joined_rows = surfaces.SampleBatch._joined_rows
    joins, taken = [], {}

    def spy(self, key, rows):
        out = joined_rows(self, key, rows)
        if self._parts is not None:
            joins.append(self)
            taken[key] = out is not None
        return out

    monkeypatch.setattr(surfaces.SampleBatch, "_joined_rows", spy)
    edge_samples, bowl_samples = _assert_grouped_equals_per_surface(make, [edge, bowl])
    assert all(d.stencil_error() is not None for d in edge_samples)
    assert ("shapes", Signature.R) not in edge_samples[0]._batch._stages
    assert ("shapes", Signature.R) in bowl_samples[0]._batch._stages
    rows = [("_components", fields) for fields in (NORMAL_FIELDS, T_FIELDS)]
    rows += [(name, sig) for name in ("tables", "shapes") for sig in SIGS]
    assert taken == dict.fromkeys(rows, False)
    join = joins[0]
    # the invariants stage reads wedge_agreement (normal_routes); nothing reads sign_ambiguous
    assert "sign_ambiguous" not in vars(join.center) and "wedge_agreement" in vars(join.center)
    unread = {"g_r", "g_l", "gram_r", "gram_l", "eps", "omega_r", "omega_l"}
    assert unread.isdisjoint(vars(join.stencil())) and "n_r" in vars(join.stencil())


@pytest.mark.parametrize(
    "keep", [slice(1, None, 2), slice(None, None, -1)], ids=["odd", "reversed"]
)
def test_grouped_evaluation_of_some_samples_of_each_batch(keep):
    """As the suite leaves out ill-conditioned samples: an evaluation of some samples of each
    surface's batch, or of all in another order, gives the bits of batches of those samples.

    The folded plane's center at u = 0.3 passes the chart and fails later, so its
    samples' rows in the center arrays are not their indices."""
    params = SpaceParams(-1.0, 0.0)
    make, (bowl,) = _catalog(params, "graph:bowl:a=0.2")
    edge = (lambda ambient: _plane(ambient.params.disk_radius), _edge_uvs(make()))
    folded = (
        lambda ambient: _folded_plane({0.3, 0.5 + ambient.steps.second}),
        [(0.1, 0.2), (0.3, 0.2), (0.5, 0.2), (0.7, 0.1)],
    )
    groups = _assert_grouped_equals_per_surface(make, [edge, folded, bowl], keep=keep)
    assert any(d.stencil_error() is not None for d in groups[0] + groups[1])
    assert all(groups)
    # and of one surface alone, whose join is a new batch too
    assert _assert_grouped_equals_per_surface(make, [folded], keep=keep)[0]


def test_skip_precedence_at_a_singular_pair_with_a_stencil_error():
    """PARAMETER_SINGULARITY comes before NULL_DIRECTION, which comes before the stencil error."""
    ambient = CoordinateAmbient(SpaceParams(-4.0, 1.0))
    (data,) = frame_batch(ambient, _timelike_plane_at_the_edge(ambient), [(0.0, 0.0)])
    with pytest.raises(GeometryError) as raised:
        data.shape(Signature.R)
    assert raised.value.code == "DOMAIN_VIOLATION"
    with pytest.raises(SampleSkip) as null:
        curvature_suite(data)
    assert null.value.reason == "NULL_DIRECTION"
    out = run_identities(IDENTITY_NAMES, data, np.random.default_rng(0))
    skipped = {name: o["skipped"] for name, o in out.items() if "skipped" in o}
    for name in ("SECTIONAL_REL", "EXTRINSIC_REL", "COMBINED_516"):
        assert skipped[name] == "PARAMETER_SINGULARITY"
    for name in ("GAUSS_R", "GAUSS_L"):
        assert skipped[name] == "NULL_DIRECTION"
    for name in ("MEANCURV_R", "MEANCURV_L", "INT1_R", "INT2_R", "INT1_L", "INT2_L"):
        assert skipped[name] == "DOMAIN_VIOLATION"


# -- where a sample's draws stop ------------------------------------------------


def _draws_taken(run, seed: int = 3) -> int:
    """How many normals ``run(rng)`` takes from a generator, found by replaying the stream."""
    rng = np.random.default_rng(seed)
    run(rng)
    for count in range(200):
        ref = np.random.default_rng(seed)
        ref.normal(size=count)
        if ref.bit_generator.state == rng.bit_generator.state:
            return count
    raise AssertionError("no count of normals reproduces the stream")


def test_draws_stop_at_a_stencil_error_before_shape_and_bilinear():
    """SHAPE stops after its first 2 draws and BILINEAR after its first 4."""
    ambient = CoordinateAmbient(SpaceParams(-1.0, 0.0))
    chart = _plane(ambient.params.disk_radius)
    names = ["BILINEAR_L", "SHAPE_R", "METRIC_SUM", "SHAPE_L", "BILINEAR_R"]
    outcomes = _assert_identities_equal_singles(ambient, chart, _edge_uvs(ambient), names=names)
    for name in ("SHAPE_R", "SHAPE_L", "BILINEAR_R", "BILINEAR_L"):
        assert {"skipped": "DOMAIN_VIOLATION"} in [sample[name] for sample in outcomes]
        assert any("residuals" in sample[name] for sample in outcomes)
    # the first sample's stencil leaves the disk, the second's does not
    at_edge, inside = frame_batch(ambient, chart, _edge_uvs(ambient)[1:3])
    assert at_edge.stencil_error() is not None and inside.stencil_error() is None
    for d, shape, bilinear in ((at_edge, 2, 4), (inside, 4, 8)):
        for name, count in (("SHAPE_R", shape), ("BILINEAR_L", bilinear)):
            assert _draws_taken(lambda rng: run_identities([name], d, rng)) == count


def _leaving_curves(ambient, monkeypatch):
    """Make every curve whose velocity has a first coordinate above 0.3 leave the model.

    Both the draw step's check (``curve_error``) and the evaluators' stacked
    curves (``curve_stencils``) see it.
    """
    error, stencils = ambient.curve_error, ambient.curve_stencils

    def leaving(vel):
        return CurveSingular("curve leaves the model at t=0.0") if vel[0] > 0.3 else None

    def curve_error(p, vel, h):
        return leaving(vel) or error(p, vel, h)

    def curve_stencils(points, velocities, h):
        out, errors = stencils(points, velocities, h)
        return out, [
            [leaving(vel) or e for vel, e in zip(curves, row)]
            for curves, row in zip(velocities, errors)
        ]

    monkeypatch.setattr(ambient, "curve_error", curve_error)
    monkeypatch.setattr(ambient, "curve_stencils", curve_stencils)


@pytest.mark.parametrize(
    "address, pair",
    [("graph:bowl:a=0.2", (1.0, 1.0)), ("su11-helicoid:family=h1,rate=0.35", (-1.0, 1.0))],
)
def test_draws_stop_where_a_killing_curve_leaves_the_model(address, pair, monkeypatch):
    """A first curve that leaves the model stops KILLING after its first 3 draws."""
    built = build_surface(address, SpaceParams(*pair))
    _leaving_curves(built.ambient, monkeypatch)
    uvs = _domain_uvs(built.chart, FRACTIONS)
    for names in (IDENTITY_NAMES, ["KILLING_L", "NORMCURV", "METRIC_SUM", "KILLING_R"]):
        outcomes = _assert_identities_equal_singles(built.ambient, built.chart, uvs, names=names)
        for name in ("KILLING_R", "KILLING_L"):
            assert {"skipped": "CURVE_SINGULAR"} in [sample[name] for sample in outcomes]
            assert any("residuals" in sample[name] for sample in outcomes)
    batch = frame_batch(built.ambient, built.chart, uvs)
    d = next(d for d in batch if not isinstance(d, GeometryError))
    seen = set()
    for seed in range(40):
        first = d.to_coord(np.random.default_rng(seed).normal(size=3))
        count = _draws_taken(lambda rng: run_identities(["KILLING_R"], d, rng), seed)
        assert count == (3 if first[0] > 0.3 else 6)
        seen.add(count)
    assert seen == {3, 6}


class _NullDraws:
    """A generator whose stream of normals holds a null direction at each position in ``null``.

    The normals come from the seeded generator underneath, and the normals
    from position p on are ``direction`` for each p in ``null``, however the
    calls split the stream.  ``taken`` counts the normals of the stream so
    far; ``bit_generator.state`` holds it beside the underlying state, so
    that a restore puts each position back where it was in the stream.
    """

    def __init__(self, seed: int, null: set, direction):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self
        self.null, self.direction, self.taken = null, list(direction), 0

    @property
    def state(self) -> dict:
        return {"taken": self.taken, "normals": self._rng.bit_generator.state}

    @state.setter
    def state(self, value: dict) -> None:
        self.taken = value["taken"]
        self._rng.bit_generator.state = value["normals"]

    def normal(self, size):
        out = self._rng.normal(size=size)
        flat = out.reshape(-1)
        for p in self.null:
            for i, x in enumerate(self.direction):
                if 0 <= p + i - self.taken < flat.size:
                    flat[p + i - self.taken] = x
        self.taken += flat.size
        return out


def test_normcurv_redraws_nearly_null_directions_then_skips():
    """Up to 8 draws per sample: a null draw is redrawn, and 8 of them skip NULL_DIRECTION."""
    ambient = CoordinateAmbient(SpaceParams(0.0, 0.0))
    # gram_L is diag(1, -8.96) everywhere, so (sqrt(8.96), 1) is null
    chart = _plane_through((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.2, 3.0))
    uvs = [(0.1, 0.2), (0.3, -0.1), (-0.2, 0.4)]
    # sample 0 redraws three times, sample 1 eight times, sample 2 never: each draw
    # takes 2 normals
    null = {0, 2, 4} | set(range(8, 24, 2))
    made = []

    def make_rng(seed):
        made.append(_NullDraws(seed, null, (math.sqrt(8.96), 1.0)))
        return made[-1]

    outcomes = _assert_identities_equal_singles(
        ambient, chart, uvs, names=["NORMCURV"], make_rng=make_rng
    )
    assert [sample["NORMCURV"].get("skipped") for sample in outcomes] == [
        None, "NULL_DIRECTION", None
    ]
    assert [rng.taken for rng in made] == [26, 26]
    (d,) = frame_batch(ambient, chart, uvs[:1])
    for null, taken, skipped in (
        ({0, 2, 4}, 8, None), (set(range(0, 18, 2)), 16, "NULL_DIRECTION")
    ):
        rng = _NullDraws(0, null, (math.sqrt(8.96), 1.0))
        assert run_identities(["NORMCURV"], d, rng)["NORMCURV"].get("skipped") == skipped
        assert rng.taken == taken


def _per_sample_plan(names, samples, rng) -> DrawPlan:
    """The draw plan as the draw steps take it alone: sample after sample, step after step."""
    steps = [IDENTITIES[name].draw for name in names]
    draws = [None if step is None else [] for step in steps]
    for d in samples:
        for step, taken in zip(steps, draws):
            if step is not None:
                taken.append(step(d, rng))
    return DrawPlan(samples, draws)


def _same_draw(a, b) -> bool:
    """The same draw: arrays and floats bit for bit, skips by class and message."""
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_draw, a, b))
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    return same_bits(a, b)


def _replay_case(case, monkeypatch):
    """(ambient, chart, uvs, names, make_rng, the samples that stop or redraw past their
    stencil errors, or None where the KILLING draws tell) of a replay case."""
    names = list(IDENTITY_NAMES)
    if case == "stencil error":
        ambient = CoordinateAmbient(SpaceParams(-1.0, 0.0))
        h, edge = ambient.steps.second, ambient.params.disk_radius * math.sqrt(1.0 - 1e-6)
        uvs = [(0.3, 0.2), (edge - 1.5 * h, 0.0), (-0.2, 0.1)]
        return ambient, _plane(ambient.params.disk_radius), uvs, names, np.random.default_rng, set()
    if case == "null direction":
        # the plane of the NORMCURV redraw test, on which (sqrt(8.96), 1) is null
        ambient = CoordinateAmbient(SpaceParams(0.0, 0.0))
        chart = _plane_through((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.2, 3.0))
        names = ["METRIC_SUM", "NORMCURV", "KILLING_R"]
        # 18 + 2 + 6 normals per sample: sample 1 draws a null direction twice
        make = functools.partial(_NullDraws, null={44, 46}, direction=(math.sqrt(8.96), 1.0))
        return ambient, chart, [(0.1, 0.2), (0.3, -0.1), (-0.2, 0.4)], names, make, {1}
    address, pair = case
    built = build_surface(address, SpaceParams(*pair))
    _leaving_curves(built.ambient, monkeypatch)
    uvs = _domain_uvs(built.chart, FRACTIONS)
    return built.ambient, built.chart, uvs, names, np.random.default_rng, None


@pytest.mark.parametrize(
    "case",
    [
        "stencil error",
        "null direction",
        ("graph:bowl:a=0.2", (1.0, 1.0)),
        ("su11-helicoid:family=h1,rate=0.35", (-1.0, 1.0)),
    ],
    ids=["stencil-error", "null-direction", "leaving-bowl", "leaving-su11"],
)
def test_the_replay_takes_the_draws_of_the_per_sample_steps(case, monkeypatch):
    """``draw_plan`` takes each sample's draws with the bits of its draw steps run alone.

    A stencil error in the middle of a surface sizes that sample's normals,
    so no sample runs its steps alone.  A null NORMCURV direction in the
    middle of a surface, and KILLING curves that leave the model in both
    models, send the replay back: those samples run their steps alone.  The
    draws, the outcomes and the final generator state are those of the
    per-sample steps.
    """
    ambient, chart, uvs, names, make_rng, alone = _replay_case(case, monkeypatch)
    samples = _samples(ambient, chart, uvs)
    calls = []
    step_call = identities._Draw.__call__

    def spy(self, d, rng):
        calls.append(d)
        return step_call(self, d, rng)

    want_rng, got_rng = make_rng(3), make_rng(3)
    want = _per_sample_plan(names, samples, want_rng)
    monkeypatch.setattr(identities._Draw, "__call__", spy)
    got = draw_plan(names, samples, got_rng)
    monkeypatch.setattr(identities._Draw, "__call__", step_call)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for name, want_draws, got_draws in zip(names, want.draws, got.draws):
        assert (want_draws is None) == (got_draws is None), name
        if want_draws is not None:
            assert len(got_draws) == len(samples), name
            assert all(map(_same_draw, want_draws, got_draws)), name
    assert _same(evaluate_plans(names, [got]), evaluate_plans(names, [want]))
    if alone is None:
        killing = zip(*(got.draws[names.index(n)] for n in ("KILLING_R", "KILLING_L")))
        alone = {
            s for s, draws in enumerate(killing)
            if any(isinstance(draw, CurveSingular) for draw in draws)
        }
        assert max(alone, default=0) > 0
    if case == "stencil error":
        assert [d.stencil_error() is None for d in samples] == [True, False, True]
    # the samples that ran their steps alone, once per step that draws
    assert {samples.index(d) for d in calls} == alone
    assert len(calls) == len(alone) * sum(IDENTITIES[n].draw is not None for n in names)


# -- one read route: the evaluators read the batch stages through the stack ----


@pytest.mark.parametrize(
    "kind, pair",
    [("edge", (-1.0, 0.0)), ("edge", (-4.0, 1.0)), ("null", (-1.0, 0.0)), ("null", (-1.0, 0.5)),
     ("bowl", (1.0, 1.0))],
)
def test_evaluators_read_no_sample_stage(kind, pair, monkeypatch):
    """With the per-sample stage readers raising, the 25 evaluators give the same bits.

    The disk-edge and null-direction planes reach every stencil-error,
    NULL_DIRECTION and PARAMETER_SINGULARITY skip; the bowl has none.
    """
    if kind == "bowl":
        built = build_surface("graph:bowl:a=0.2", SpaceParams(*pair))
        ambient, chart, uvs = built.ambient, built.chart, _domain_uvs(built.chart, FRACTIONS)
    elif kind == "edge":
        ambient = CoordinateAmbient(SpaceParams(*pair))
        chart, uvs = _plane(ambient.params.disk_radius), _edge_uvs(ambient)
    else:
        ambient = CoordinateAmbient(SpaceParams(*pair))
        chart = _timelike_plane_at_the_edge(ambient)
        uvs = [(0.0, 0.0), (-0.3, 0.0), (-0.5, 0.4), (0.0, 0.1)]
    names = list(IDENTITY_NAMES)
    rng = np.random.default_rng(11)
    want = evaluate_plans(names, [draw_plan(names, _samples(ambient, chart, uvs), rng)])
    plan = draw_plan(names, _samples(ambient, chart, uvs), np.random.default_rng(11))

    def refuse(*args, **kwargs):
        raise AssertionError("an evaluator read a sample's stage")

    for name in ("shape", "tangent_derivatives", "mean_curvature"):
        monkeypatch.setattr(TwoMetricFrameData, name, refuse)
    assert _same(evaluate_plans(names, [plan]), want)


def _counted(monkeypatch, owner, name: str, calls: dict) -> None:
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize(
    "address, pair, builds",
    [
        ("graph:bowl:a=0.2", (1.0, 1.0), {"point_tables": 2}),
        ("berger-helicoid:alpha=0.5,variant=space", (1.0, 1.0), {"point_tables": 4}),
        ("graph:bowl:a=0.2", (1.0, 0.0), {"point_tables": 1, "_table_from_metric": 1}),
    ],
)
def test_each_batch_stage_is_built_once(address, pair, builds, monkeypatch):
    """A second evaluation and every per-sample reader reuse the stages of the first.

    At tau = 0 the one finite-difference table of R serves both metrics."""
    built = build_surface(address, SpaceParams(*pair))
    calls: dict = {}
    _counted(monkeypatch, surfaces, "_normal_data", calls)
    for name in ("stencil_components", "cov_deriv_stencils", *builds):
        _counted(monkeypatch, built.ambient, name, calls)
    samples = _samples(built.ambient, built.chart, _domain_uvs(built.chart, FRACTIONS))
    # the curves of CONN_DIFF and KILLING are per evaluation, not batch stages
    names = [n for n in IDENTITY_NAMES if n not in ("CONN_DIFF", "KILLING_R", "KILLING_L")]

    def evaluate_and_read():
        evaluate_samples(names, samples, np.random.default_rng(0))
        for d in samples:
            _readings(d)

    evaluate_and_read()
    # centers and stencil rows, one pass; one stencil_components call for both normals and
    # one for both T-fields; shapes and T-derivatives of each metric, one call for both
    # chart axes
    assert calls == {"_normal_data": 1, "stencil_components": 2, "cov_deriv_stencils": 4,
                     **builds}
    first = dict(calls)
    evaluate_and_read()
    assert calls == first
    d = samples[0]
    assert all(d.shape(sig) is d.shape(sig) for sig in SIGS)
    tables = [d._batch.tables(sig) for sig in SIGS]
    assert (tables[0] is tables[1]) == (pair[1] == 0.0)


@pytest.mark.parametrize("curves", [False, True], ids=["stages", "with-curves"])
@pytest.mark.parametrize(
    "pair, addresses, starts",
    [
        ((1.0, 1.0), ("hopf:circle", "graph:bowl:a=0.2", "vgraph:saddle:a=0.15"), 0),
        ((1.0, 1.0),
         ("berger-helicoid:alpha=0.5,variant=space", "berger-helicoid:alpha=0.5,variant=time"), 2),
        ((1.0, 0.0), ("hopf:circle", "graph:bowl:a=0.2", "vgraph:saddle:a=0.15"), 0),
    ],
    ids=["coordinate", "group", "coordinate-tau0"],
)
def test_one_evaluation_builds_each_later_stage_once_over_its_surfaces(
    pair, addresses, starts, curves, monkeypatch
):
    """The stages after the stencil are built once per evaluation, whatever the number of
    surfaces.  The draw plan builds one of them on each surface's own batch: the Riemannian
    shape operators, whose stencil error stops the draws of SHAPE and BILINEAR.  The join
    takes those, with the normals' stencil components and the Riemannian tables they need,
    as rows of the surfaces' own, and builds none of the three again; it builds the
    T-fields' components once.  At tau = 0 the Riemannian tables serve both metrics, so
    the join builds no table."""
    make, built = _catalog(SpaceParams(*pair), *addresses)
    ambient = make()
    charts = [build(ambient) for build, _ in built]
    calls: dict = {}
    _counted(monkeypatch, surfaces, "_normal_data", calls)
    tau_zero = pair[1] == 0.0
    counted = ["point_tables", "stencil_components", "cov_deriv_stencils"]
    for name in counted + ["_table_from_metric"] * tau_zero:
        _counted(monkeypatch, ambient, name, calls)
    groups = [_samples(ambient, chart, uvs) for chart, (_, uvs) in zip(charts, built)]
    assert all(groups)
    curve_names = ("CONN_DIFF", "KILLING_R", "KILLING_L")
    names = [n for n in IDENTITY_NAMES if curves or n not in curve_names]
    rng = np.random.default_rng(0)
    plans = [draw_plan(names, samples, rng) for samples in groups]
    # per surface: centers and stencil rows, one pass; one stencil_components call for both
    # normals, the tables of R and the shapes of R, one cov_deriv_stencils call for both
    # chart axes
    n = len(groups)
    want = dict.fromkeys(["_normal_data", *counted] + ["_table_from_metric"] * tau_zero, n)
    assert calls == want
    for samples in groups:
        stages = samples[0]._batch._stages
        assert ("shapes", Signature.R) in stages and ("shapes", Signature.L) not in stages
        assert ("_components", NORMAL_FIELDS) in stages
        assert ("_components", T_FIELDS) not in stages
        assert not {key[0] for key in stages} & {"tangent_dts", "curvature", "rotations"}
    calls.update(dict.fromkeys(calls, 0))
    built_starts: list = []
    curve_starts = identities._Stack._curve_starts

    def spy(self, sig):
        # the stack itself, held so that no two stacks share an id
        built_starts.append((self, sig))
        return curve_starts(self, sig)

    monkeypatch.setattr(identities._Stack, "_curve_starts", spy)
    evaluate_plans(names, plans)
    # the Lorentzian shapes and the T-derivatives of each metric, one cov_deriv_stencils
    # call for both chart axes, the Lorentzian tables (none at tau = 0), and one
    # stencil_components call for both T-fields
    want = dict.fromkeys(want, 0)
    want.update(stencil_components=1, cov_deriv_stencils=3, point_tables=1 - tau_zero)
    if curves:
        # each curve identity's field and derivative, and the tables where curves start
        want["stencil_components"] += 3
        want["cov_deriv_stencils"] += 3
        want["point_tables"] += starts
    assert calls == want
    # the starts of each signature are built once per stack: KILLING_R's two curves of R
    # and CONN_DIFF's curves of R and L share them, on the stack of all samples
    assert len({(id(stack), sig) for stack, sig in built_starts}) == len(built_starts)
    assert {sig for _, sig in built_starts} == (set(SIGS) if curves else set())


def _component_builds(monkeypatch) -> list:
    """Spy on ``SampleBatch._components``: the (batch, fields) of each stage it builds.

    A join's stage taken as rows of its parts' own is not built, and not listed.
    """
    stage, joined_rows = surfaces.SampleBatch._components, surfaces.SampleBatch._joined_rows
    builds: list = []
    taken: list = []

    def rows_spy(self, key, rows):
        out = joined_rows(self, key, rows)
        if out is not None:
            taken.append((self, key))
        return out

    def spy(self, fields):
        key = ("_components", fields)
        fresh = key not in self._stages
        out = stage(self, fields)
        if fresh and not any(batch is self and k == key for batch, k in taken):
            builds.append((self, fields))
        return out

    monkeypatch.setattr(surfaces.SampleBatch, "_joined_rows", rows_spy)
    monkeypatch.setattr(surfaces.SampleBatch, "_components", spy)
    return builds


def test_a_tau_zero_report_builds_one_table_per_batch(monkeypatch, tmp_path):
    """At tau = 0 one finite-difference table serves both metrics: each report batch
    builds ``_table_from_metric`` once, over all its rows, and no batch builds another."""
    rows: list = []
    inner = CoordinateAmbient._table_from_metric

    def counted(self, points):
        rows.append(len(points))
        return inner(self, points)

    monkeypatch.setattr(CoordinateAmbient, "_table_from_metric", counted)
    argv = ["report", "graph:bowl:a=0.2", "--params", "1,0", "--grid", "17x17"]
    assert cli.main(argv + ["--csv", str(tmp_path / "out.csv")]) == 0
    # 289 rows in three batches
    assert rows == [128, 128, 33]


def test_a_report_batch_builds_only_the_normals_stencil_components(monkeypatch, tmp_path):
    """The report reads the shape operators, whose stages differentiate only the two unit
    normals: each of its batches passes those two fields, and no other, to
    ``stencil_components``, in one call."""
    builds = _component_builds(monkeypatch)
    widths: list = []
    inner = CoordinateAmbient.stencil_components

    def counted(self, points, vecs, frames=None):
        widths.append(vecs.shape[1])
        return inner(self, points, vecs, frames)

    monkeypatch.setattr(CoordinateAmbient, "stencil_components", counted)
    argv = ["report", "graph:bowl:a=0.2", "--params", "1,1", "--grid", "17x17"]
    assert cli.main(argv + ["--csv", str(tmp_path / "out.csv")]) == 0
    # 289 rows in three batches
    assert [fields for _, fields in builds] == [NORMAL_FIELDS] * 3
    assert len({id(batch) for batch, _ in builds}) == 3
    assert widths == [len(NORMAL_FIELDS)] * 3


@pytest.mark.parametrize(
    "addresses",
    [
        ("graph:bowl:a=0.2", "vgraph:saddle:a=0.15"),
        ("berger-helicoid:alpha=0.5,variant=space", "berger-helicoid:alpha=0.5,variant=time"),
    ],
    ids=["coordinate", "group"],
)
def test_a_verify_join_builds_the_t_components_once(addresses, monkeypatch):
    """Each surface's draw plan builds the normals' components on its own batch; the join
    takes those as rows and builds the T-fields' components once, over all its samples.
    No stage reads the components of du or dv, which are built only when asked for."""
    make, built = _catalog(SpaceParams(1.0, 1.0), *addresses)
    ambient = make()
    builds = _component_builds(monkeypatch)
    groups = [_samples(ambient, build(ambient), uvs) for build, uvs in built]
    rng = np.random.default_rng(0)
    plans = [draw_plan(IDENTITY_NAMES, samples, rng) for samples in groups]
    assert [fields for _, fields in builds] == [NORMAL_FIELDS] * len(groups)
    assert [batch for batch, _ in builds] == [samples[0]._batch for samples in groups]
    del builds[:]
    evaluate_plans(IDENTITY_NAMES, plans)
    ((join, fields),) = builds
    assert fields == T_FIELDS and join._parts is not None
    assert ("_components", NORMAL_FIELDS) in join._stages
    stages = [key for batch in [join] + [s[0]._batch for s in groups] for key in batch._stages]
    assert not any("du" in key[1] or "dv" in key[1] for key in stages if key[0] == "_components")
    # asked for, they are built: one more stage, of exactly those fields
    del builds[:]
    join.stencil_derivs(Signature.R, ("du", "dv"))
    assert [fields for _, fields in builds] == [("du", "dv")]


def _folded_plane(folds) -> SurfaceChart:
    """The plane z = 0, whose u-derivative vanishes where u is one of ``folds``."""

    def jacobian(u, v):
        du = [0.0, 0.0, 0.0] if u in folds else [1.0, 0.0, 0.0]
        return np.array(du), np.array([0.0, 1.0, 0.0])

    return SurfaceChart("folded", lambda u, v: np.array([u, v, 0.0]), ((-1.0, 1.0),) * 2, jacobian)


def _read_raising(samples) -> None:
    """Every per-sample reader that raises a sample's stencil error, on each sample, caught."""
    for d in samples:
        for sig in SIGS:
            for read in (d.shape, d.mean_curvature, d.tangent_derivatives):
                _outcome(functools.partial(read, sig))
        _outcome(functools.partial(curvature_suite, d))


@pytest.mark.parametrize("case", ["edge", "fold"])
def test_caught_chart_errors_leave_no_reference_cycles(case):
    """Errors caught at a center and at stencil rows are kept without their tracebacks.

    At the disk edge the chart's points leave the model (DOMAIN_VIOLATION);
    on the folded plane the chart derivative is rank-deficient at one center
    and at one stencil row (IMMERSION_FAILURE).  A reader that raises a
    sample's stencil error raises a copy, so the batch's stays without one.
    """
    if case == "edge":
        ambient = CoordinateAmbient(SpaceParams(-1.0, 0.0))
        chart, uvs = _plane(ambient.params.disk_radius), _edge_uvs(ambient)
    else:
        ambient = CoordinateAmbient(SpaceParams(1.0, 1.0))
        chart = _folded_plane({0.3, 0.5 + ambient.steps.second})
        uvs = [(0.1, 0.2), (0.3, 0.2), (0.5, 0.2)]
    gc.collect()
    gc.disable()
    try:
        batch = frame_batch(ambient, chart, uvs)
        samples = [d for d in batch if not isinstance(d, GeometryError)]
        assert len(samples) < len(batch)
        assert any(d.stencil_error() is not None for d in samples)
        evaluate_samples(IDENTITY_NAMES, samples, np.random.default_rng(0))
        _read_raising(samples)
        del batch, samples
        assert gc.collect() == 0
    finally:
        gc.enable()
