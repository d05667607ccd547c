"""Stacked primitives, the one-pass stencil and the sample context: per-point bits.

The stencil of each sample (its eight offset rows and their frame
components) is evaluated on stacked arrays, and the identities read the
frame, metrics and connection tables the sample holds.  Every stacked form
and every context method must return exactly the bits of the per-point call,
because FD residuals near 1e-8 move visibly under any change of rounding.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bicausal.ambient import (
    CoordinateAmbient,
    Signature,
    SpaceParams,
    curvature_frame,
    stacked_inner,
    wedge_frame,
)
from bicausal.catalog import build_surface, default_surfaces
from bicausal.errors import DomainViolation, GeometryError
from bicausal.groups import BERGER, SU11, GroupAmbient
from bicausal.identities import _frame_norm
from bicausal.numdiff import STENCIL_STEPS, stencil_values
from bicausal.surfaces import (
    FRAME_FIELDS,
    STENCIL_FIELDS,
    SurfaceChart,
    _normal_data,
    frame_data,
    induced_gram,
    stencil_columns,
    uv_columns,
)

from conftest import WeightedGroupAmbient, interior_grid, random_point, same_bits
from oracles import stencil_uvs

SIGS = (Signature.R, Signature.L)

AMBIENTS = {
    "coord(1,1)": lambda: CoordinateAmbient(SpaceParams(1.0, 1.0)),
    "coord(1,0)": lambda: CoordinateAmbient(SpaceParams(1.0, 0.0)),
    "coord(-1,1)": lambda: CoordinateAmbient(SpaceParams(-1.0, 1.0)),
    "coord(-2,0.7)": lambda: CoordinateAmbient(SpaceParams(-2.0, 0.7)),
    "berger(1,1)": lambda: GroupAmbient(BERGER, SpaceParams(1.0, 1.0)),
    "su11(-1,1)": lambda: GroupAmbient(SU11, SpaceParams(-1.0, 1.0)),
    "su11-weighted(-2,0.7)": lambda: WeightedGroupAmbient(
        SU11, SpaceParams(-2.0, 0.7), extension_weight=1.7
    ),
}


def _points(ambient, gen, n):
    """n points of the model, shape (n, dim)."""
    if isinstance(ambient, CoordinateAmbient):
        return np.array([random_point(ambient, gen) for _ in range(n)])
    pts = []
    while len(pts) < n:
        p = gen.normal(size=4)
        q = ambient.quadric_value(p)
        if q > 0.1:
            pts.append(p / math.sqrt(q))
    return np.array(pts)


def _tangents(ambient, points, gen, k):
    """k tangent vectors per point, (n, k, dim): random frame components mapped out."""
    comps = gen.normal(size=(len(points), k, 3))
    return np.array(
        [[ambient.point_frame(p).to_coord(c) for c in cs] for p, cs in zip(points, comps)]
    )


def _at_one_point(ambient, at, sigs, velocity, f0, fs, h):
    """``cov_deriv_stencils`` of n rows at the PointFrame ``at``, row i under ``sigs[i]``.

    ``velocity`` (n, dim), ``f0`` (n, k, c) and ``fs`` (4, n, k, c); returns (n, k, dim).
    """
    n = len(sigs)
    return ambient.cov_deriv_stencils(
        np.array([at.point] * n),
        np.array([at.frame] * n),
        np.array([at.metric[sig] for sig in sigs]),
        np.array([at.table(sig) for sig in sigs]),
        velocity, f0, fs, h,
    )


def _one_row(ambient, sig, at, velocity, f0, fs, h):
    """``cov_deriv_stencils`` of one row: k fields, f0 (k, c) and fs (4, k, c) -> (k, dim)."""
    return _at_one_point(ambient, at, (sig,), velocity[None], f0[None], fs[:, None], h)[0]


def test_stacked_numpy_forms_round_like_per_item_calls(rng):
    """The array forms the stacked primitives rest on, against a loop of per-item calls.

    NumPy and its BLAS do not promise this; other forms do round differently
    here (``einsum``, ``(n, 3) @ (3,)``, several right-hand sides in one
    ``solve``), so a NumPy or BLAS upgrade that breaks one shows up here first.
    """
    n = 64
    for d in (3, 4):
        g, m = rng.normal(size=(n, d, d)), rng.normal(size=(d, d))
        f, u, v = rng.normal(size=(n, d, 3)), rng.normal(size=(n, d)), rng.normal(size=(n, d))
        c, w = rng.normal(size=(n, 3)), rng.normal(size=(d, d, d))
        forms = [
            ((u[:, None, :] @ g)[:, 0], lambda i: u[i] @ g[i]),
            ((u[:, None, :] @ g @ v[:, :, None])[:, 0, 0], lambda i: u[i] @ g[i] @ v[i]),
            ((g @ v[:, :, None])[..., 0], lambda i: g[i] @ v[i]),
            ((m @ v[:, :, None])[..., 0], lambda i: m @ v[i]),
            ((f @ c[..., None])[..., 0], lambda i: f[i] @ c[i]),
            ((np.swapaxes(f, 1, 2) @ g @ v[..., None])[..., 0], lambda i: f[i].T @ g[i] @ v[i]),
            ((u[:, None, :] @ m[0][:, None])[:, 0, 0], lambda i: np.dot(u[i], m[0])),
            # numdiff.christoffels: one inverse metric against every (a, b)
            ((m @ w[..., None])[..., 0].reshape(d * d, d), lambda i: m @ w[divmod(i, d)]),
        ]
        for stacked, item in forms:
            assert all(same_bits(stacked[i], item(i)) for i in range(len(stacked)))
    a = rng.normal(size=(n, 3, 3)) + 3.0 * np.eye(3)
    b = rng.normal(size=(n, 5, 3))
    solved = np.linalg.solve(a[:, None], b[..., None])[..., 0]
    for i in range(n):
        assert all(same_bits(solved[i, j], np.linalg.solve(a[i], b[i, j])) for j in range(5))
    dets = np.linalg.det(a[:, :2, :2])
    assert all(same_bits(dets[i], np.linalg.det(a[i, :2, :2])) for i in range(n))


def _metric_by_arrays(ambient, sig, p):
    """The metric as per-point array algebra, in each model's own formula."""
    k, t = ambient.params.kappa, ambient.params.tau
    if isinstance(ambient, GroupAmbient):
        # (4 / kappa) (pairing + m_sig u u^T), u the paired fiber field
        m = 4.0 * t**2 / k - 1.0 if sig is Signature.R else -(4.0 * t**2 / k + 1.0)
        u = ambient.pairing @ (ambient.fields[2] @ p)
        g = (4.0 / k) * (ambient.pairing + m * np.outer(u, u))
        if isinstance(ambient, WeightedGroupAmbient):
            g = g * float(p @ ambient.pairing @ p) ** ambient.extension_weight
        return g
    # diag(lam^2, lam^2, 0) + eps3 theta theta^T
    lam = 1.0 / (1.0 + 0.25 * k * (p[0] ** 2 + p[1] ** 2))
    theta = np.array([t * lam * p[1], -t * lam * p[0], 1.0])
    return np.diag([lam * lam, lam * lam, 0.0]) + sig.eps3 * np.outer(theta, theta)


def _frame_by_arrays(ambient, p):
    k, t, s = ambient.params.kappa, ambient.params.tau, ambient.params.twist_rate
    if isinstance(ambient, GroupAmbient):
        r = 0.5 * math.sqrt(abs(k))
        f1 = r * (ambient.fields[0] @ p)
        f2 = ambient.frame_flip * r * (ambient.fields[1] @ p)
        return np.column_stack([f1, f2, (k / (4.0 * t)) * (ambient.fields[2] @ p)])
    li = 1.0 + 0.25 * k * (p[0] ** 2 + p[1] ** 2)
    c, sn = math.cos(s * p[2]), math.sin(s * p[2])
    x, y = p[0], p[1]
    return np.array(
        [
            [li * c, -li * sn, 0.0],
            [li * sn, li * c, 0.0],
            [t * (x * sn - y * c), t * (x * c + y * sn), 1.0],
        ]
    )


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_metric_and_frame_round_like_their_array_formulas(name, rng):
    """``metrics``/``frames``, stacked and one row at a time, against per-point array formulas.

    The stacked forms are each model's only formula; these oracles keep an
    independent reference for their bits.
    """
    ambient = AMBIENTS[name]()
    points = _points(ambient, rng, 200)
    frames = ambient.frames(points)
    for i, p in enumerate(points):
        assert same_bits(frames[i], _frame_by_arrays(ambient, p))
        assert same_bits(ambient.frame(p), _frame_by_arrays(ambient, p))
    for sig in SIGS:
        metrics = ambient.metrics(sig, points)
        for i, p in enumerate(points):
            assert same_bits(metrics[i], _metric_by_arrays(ambient, sig, p))
            assert same_bits(ambient.metric(sig, p), _metric_by_arrays(ambient, sig, p))


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_stacked_primitives_equal_per_point_calls(name, rng):
    """A stack of n rows gives, row by row, the bits of the one-point calls."""
    ambient = AMBIENTS[name]()
    n, k = 9, 4
    points = _points(ambient, rng, n)
    vecs = _tangents(ambient, points, rng, k)
    comps = rng.normal(size=(n, k, 3))
    frames = ambient.frames(points)
    assert all(same_bits(frames[i], ambient.frame(p)) for i, p in enumerate(points))
    for sig in SIGS:
        metrics = ambient.metrics(sig, points)
        assert all(same_bits(metrics[i], ambient.metric(sig, p)) for i, p in enumerate(points))
        flat = stacked_inner(metrics, vecs[:, 0], vecs[:, 1])
        stacked = stacked_inner(metrics, vecs, vecs[:, ::-1])
        for i, p in enumerate(points):
            at = ambient.point_frame(p)
            assert same_bits(flat[i], at.inner(sig, vecs[i, 0], vecs[i, 1]))
            for j in range(k):
                want = at.inner(sig, vecs[i, j], vecs[i, k - 1 - j])
                assert same_bits(stacked[i, j], want)

    flat = ambient.to_frames(points, vecs[:, 2])
    stacked = ambient.to_frames(points, vecs)
    coords = ambient.to_coords(points, comps)
    # arrays a caller already has give the same bits
    given_arrays = ambient.to_frames(
        points, vecs, frames=frames, metric_r=ambient.metrics(Signature.R, points)
    )
    assert same_bits(given_arrays, stacked)
    assert same_bits(ambient.to_coords(points, comps, frames=frames), coords)
    for i, p in enumerate(points):
        assert same_bits(flat[i], ambient.to_frame(p, vecs[i, 2]))
        for j in range(k):
            assert same_bits(stacked[i, j], ambient.to_frame(p, vecs[i, j]))
            assert same_bits(coords[i, j], ambient.point_frame(p).to_coord(comps[i, j]))


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_stencil_derivative_core_is_independent_of_field_count(name, rng):
    """k fields at once give the bits of k single-field calls and of the curve sampler."""
    ambient = AMBIENTS[name]()
    h = ambient.steps.second
    p0 = _points(ambient, rng, 1)[0]
    velocity = _tangents(ambient, p0[None], rng, 1)[0, 0]
    curve = ambient.curve_through(p0, velocity)
    ts = [0.0] + [k * h for k in STENCIL_STEPS]
    points = np.array([curve(t) for t in ts])
    fields = _tangents(ambient, points, rng, 3)
    comps = ambient.stencil_components(points, fields)
    at = ambient.point_frame(p0)
    for sig in SIGS:
        together = _one_row(ambient, sig, at, velocity, comps[0], comps[1:], h)
        for j in range(3):
            one = slice(j, j + 1)
            alone = _one_row(ambient, sig, at, velocity, comps[0, one], comps[1:, one], h)
            assert same_bits(together[j], alone[0])
            sampled = ambient.cov_deriv_on_curve(
                sig, curve, lambda t, j=j: fields[ts.index(t), j], h, velocity=velocity
            )
            assert same_bits(together[j], sampled)
    # n rows at one point, each under its own metric and velocity, give the one-row bits
    other = _tangents(ambient, p0[None], rng, 1)[0, 0]
    rows = _at_one_point(
        ambient, at, SIGS + (Signature.R,), np.array([velocity, velocity, other]),
        np.array([comps[0]] * 3), np.stack([comps[1:]] * 3, axis=1), h,
    )
    for row, sig, vel in zip(rows, SIGS + (Signature.R,), (velocity, velocity, other)):
        assert same_bits(row, _one_row(ambient, sig, at, vel, comps[0], comps[1:], h))


def test_stencil_columns_equal_the_rows_of_each_uv(rng):
    """The stencil rows built as arrays have the bits of the rows built one uv at a time,
    with signed zeros kept, and in the same order: eight per uv row, axis 0 then 1."""
    uvs = [(0.0, -0.0), (-0.0, 0.0), (0.1, 0.2), (-1.3, 2.7e-9), (1e6, -3.3), (5e-324, 7.0)]
    uvs += [tuple(row) for row in rng.normal(scale=2.0, size=(40, 2)).tolist()]
    for h in (1e-3, 3.7e-4, 0.1):
        got = stencil_columns(*uv_columns(uvs), h)
        want = uv_columns([uv for center in uvs for uv in stencil_uvs(center, h)])
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    empty = stencil_columns(*uv_columns([]), 1e-3)
    assert [a.shape for a in empty] == [(0,), (0,)]


_ROW_FIELDS = ("point", "du", "dv", "gram_r", "gram_l", "eps", "angle_l", "angle_r", "omega_l")
_ROW_FIELDS += tuple(f for f in STENCIL_FIELDS if f not in _ROW_FIELDS)


def _assert_same_row(data, i, one, i_one):
    """Row i of NormalData ``data`` and row i_one of ``one``: same error, else same bits."""
    err, one_err = data.errors[i], one.errors[i_one]
    assert type(err) is type(one_err) and str(err) == str(one_err)
    if err is None:
        j, k = data.rows.index(i), one.rows.index(i_one)
        for name in _ROW_FIELDS:
            assert same_bits(getattr(data, name)[j], getattr(one, name)[k]), name


def _assert_rows_match_singletons(ambient, chart, uvs):
    """One pass over all centers against one pass per center: the same errors and bits at
    each center and at each of its eight stencil rows.  Returns the pass's NormalData of the
    centers and of the stencil rows."""
    center, stencil = _normal_data(ambient, chart, uvs, ambient.steps)
    for i, uv in enumerate(uvs):
        one_center, one_stencil = _normal_data(ambient, chart, [uv], ambient.steps)
        _assert_same_row(center, i, one_center, 0)
        assert (i in center.rows) == (0 in one_center.rows)
        if i in center.rows:
            j = center.rows.index(i)
            for r in range(8):
                _assert_same_row(stencil, 8 * j + r, one_stencil, r)
    return center, stencil


FRACTIONS = [(0.2, 0.2), (0.37, 0.61), (0.71, 0.44)]


@pytest.mark.parametrize(
    "address, pair",
    [
        ("graph:bowl:a=0.2", (1.0, 1.0)),
        ("graph:bowl:a=0.2", (1.0, 0.0)),
        ("hopf:circle:r=0.45", (-1.0, 1.0)),
        ("berger-helicoid:alpha=0.5,variant=space", (1.0, 1.0)),
        ("su11-helicoid:family=h1,rate=0.35,variant=time", (-1.0, 1.0)),
    ],
)
def test_stencil_rows_do_not_depend_on_batch_size(address, pair):
    """The centers and stencil rows of one pass over three centers, against one pass each."""
    built = build_surface(address, SpaceParams(*pair))
    (u0, u1), (v0, v1) = built.chart.domain
    uvs = [(u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)) for fu, fv in FRACTIONS]
    data = frame_data(built.ambient, built.chart, uvs[1], validate=False)
    center, stack = _assert_rows_match_singletons(built.ambient, built.chart, uvs)
    assert all(err is None for err in center.errors + stack.errors)
    # the sample is its batch's only one, so the batch's stencil rows are its eight
    assert same_bits(data._batch.stencil().n_r, stack.n_r[8:16])
    for j in range(len(stack.rows)):
        for sig, gram in ((Signature.R, stack.gram_r[j]), (Signature.L, stack.gram_l[j])):
            want = induced_gram(built.ambient, sig, stack.point[j], stack.du[j], stack.dv[j])
            assert same_bits(gram, want)


def _plane_chart(ambient):
    """The horizontal slice z = 0 over the model's disk, as a chart (x, y)."""
    return SurfaceChart(
        name="plane",
        chart=lambda u, v: np.array([u, v, 0.0]),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
    )


def test_stencil_offset_leaving_the_disk_raises_domain_violation():
    ambient = CoordinateAmbient(SpaceParams(-1.0, 0.0))
    chart = _plane_chart(ambient)
    h = ambient.steps.second
    # The center and its +h offset lie inside the disk of radius 2; +2h lies outside.
    edge = 2.0 * math.sqrt(1.0 - 1e-6)
    uv = (edge - 1.5 * h, 0.0)
    data = frame_data(ambient, chart, uv, validate=False)
    uvs = stencil_uvs(data.uv, h)
    assert ambient.contains(chart.point(*uvs[0])) and not ambient.contains(chart.point(*uvs[1]))
    # the stencil rows of the second center are rows 8 .. 15
    _, stack = _assert_rows_match_singletons(ambient, chart, [(0.3, 0.2), uv])
    errors = stack.errors[8:]
    codes = [None if e is None else e.code for e in errors]
    assert codes[1] == DomainViolation.code and codes[0] is None
    for call in (lambda: data.shape(Signature.R), lambda: data.tangent_derivatives(Signature.L)):
        with pytest.raises(DomainViolation) as raised:
            call()
        assert str(raised.value) == str(errors[1])
    # the error is raised again on every use, and nothing was cached
    with pytest.raises(DomainViolation):
        data.shape(Signature.R)


def test_first_stencil_error_in_row_order_wins():
    """Row (0, +1) failing a late check beats row (0, +2) failing the first one."""
    ambient = CoordinateAmbient(SpaceParams(-1.0, 0.0))
    inner = _plane_chart(ambient)
    h = ambient.steps.second
    edge = 2.0 * math.sqrt(1.0 - 1e-6)
    uv = (edge - 1.5 * h, 0.0)

    def jacobian(u, v):
        # the chart folds at row (0, +1): its u-derivative vanishes there
        du = [0.0, 0.0, 0.0] if u == uv[0] + h else [1.0, 0.0, 0.0]
        return np.array(du), np.array([0.0, 1.0, 0.0])

    chart = SurfaceChart(name="folded", chart=inner.chart, domain=inner.domain, jacobian=jacobian)
    data = frame_data(ambient, chart, uv, validate=False)
    _, stack = _assert_rows_match_singletons(ambient, chart, [uv])
    assert stack.errors[0] is not None and stack.errors[0].code == "IMMERSION_FAILURE"
    assert stack.errors[1].code == DomainViolation.code
    with pytest.raises(GeometryError) as raised:
        data.shape(Signature.L)
    assert raised.value.code == "IMMERSION_FAILURE"


# kappa + 4 tau^2 = 0 at (-4, 1) and (-1, 0.5)
FUZZ_PARAMS = [(1.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (4.0, 1.0), (1.0, 0.5),
               (-4.0, 1.0), (-1.0, 0.5)]


@functools.lru_cache(maxsize=None)
def _built(pair, address):
    return build_surface(address, SpaceParams(*pair))


@st.composite
def _catalog_sample(draw):
    pair = draw(st.sampled_from(FUZZ_PARAMS))
    address = draw(st.sampled_from(default_surfaces(SpaceParams(*pair))))
    # well past the chart domain, where kappa < 0 surfaces leave the disk
    fu = draw(st.floats(-1.5, 2.5))
    fv = draw(st.floats(-1.5, 2.5))
    return pair, address, fu, fv


@given(_catalog_sample())
def test_fuzz_batched_rows_equal_per_row_and_fail_with_codes(sample):
    pair, address, fu, fv = sample
    built = _built(pair, address)
    ambient, chart = built.ambient, built.chart
    (u0, u1), (v0, v1) = chart.domain
    uv = (u0 + fu * (u1 - u0), v0 + fv * (v1 - v0))
    # the sample's stencil rows as centers, and the stencil rows of each
    uvs = [uv] + stencil_uvs(uv, ambient.steps.second)
    _assert_rows_match_singletons(ambient, chart, uvs)
    try:
        data = frame_data(ambient, chart, uv, validate=False)
        for sig in SIGS:
            shape = data.shape(sig)
            derivs = data.tangent_derivatives(sig)
            assert np.all(np.isfinite(shape))
            assert np.all(np.isfinite(derivs["dt"])) and np.all(np.isfinite(derivs["dangle"]))
    except GeometryError as exc:
        assert isinstance(exc.code, str) and exc.code


# -- the sample's point context -------------------------------------------------


def _chart_through(ambient, p, a, b):
    """A chart with value p and partials a, b at (0, 0), kept on the quadric in the group models."""
    if isinstance(ambient, CoordinateAmbient):
        return SurfaceChart(
            "plane", lambda u, v: p + u * a + v * b, ((-1.0, 1.0), (-1.0, 1.0)), lambda u, v: (a, b)
        )

    def point(u, v):
        q = p + u * a + v * b
        return q / math.sqrt(ambient.quadric_value(q))

    return SurfaceChart("plane", point, ((-1.0, 1.0), (-1.0, 1.0)))


def _contexts(ambient, gen, n):
    """n sample contexts (frame data) at random points of the model."""
    out = []
    while len(out) < n:
        p = _points(ambient, gen, 1)[0]
        a, b = _tangents(ambient, p[None], gen, 2)[0]
        try:
            chart = _chart_through(ambient, p, a, b)
            out.append(frame_data(ambient, chart, (0.0, 0.0), validate=False))
        except GeometryError:
            pass
    return out


def _to_frame(ambient, p, v):
    """Frame components by each model's formula: a solve, or the Riemannian projection."""
    if isinstance(ambient, GroupAmbient):
        return ambient.frame(p).T @ ambient.metric(Signature.R, p) @ v
    return np.linalg.solve(ambient.frame(p), v)


def _frame_row(d, name):
    """The frame components of a sample's named ``FRAME_FIELDS`` vector, from its batch."""
    return d._batch.frame_components()[d._k, FRAME_FIELDS.index(name)]


def _table(ambient, sig, p):
    if isinstance(ambient, GroupAmbient):
        return ambient.christoffels(sig, p)
    return ambient.connection_table(sig, p)


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_sample_context_equals_per_point_calls(name, rng):
    ambient = AMBIENTS[name]()
    h = ambient.steps.second
    for d in _contexts(ambient, rng, 5):
        p = d.point
        u, v, w = _tangents(ambient, p[None], rng, 3)[0]
        uf, vf, wf = (_to_frame(ambient, p, x) for x in (u, v, w))
        c = rng.normal(size=3)
        assert same_bits(d.frame, ambient.frame(p))
        assert same_bits(d.xi, ambient.fiber_direction(p))
        assert same_bits(d.to_frame(u), uf)
        assert same_bits(ambient.to_frame(p, u), uf)
        assert same_bits(d.to_coord(c), ambient.frame(p) @ c)
        for field in STENCIL_FIELDS + ("xi",):
            assert same_bits(_frame_row(d, field), _to_frame(ambient, p, getattr(d, field)))
        f0, fs = rng.normal(size=(2, 3)), rng.normal(size=(4, 2, 3))
        if isinstance(ambient, GroupAmbient):
            f0, fs = _tangents(ambient, p[None], rng, 2)[0], _tangents(ambient, p[None], rng, 8)[0]
            fs = fs.reshape(4, 2, -1)
        for sig in SIGS:
            assert same_bits(d.metric[sig], ambient.metric(sig, p))
            assert same_bits(d.inner(sig, u, v), float(u @ ambient.metric(sig, p) @ v))
            u_d, v_d, w_d = d.to_frame(u), d.to_frame(v), d.to_frame(w)
            want = ambient.frame(p) @ wedge_frame(sig, uf, vf)
            assert same_bits(d.to_coord(wedge_frame(sig, u_d, v_d)), want)
            want = ambient.frame(p) @ curvature_frame(ambient.params, sig, uf, vf, wf)
            assert same_bits(d.to_coord(curvature_frame(ambient.params, sig, u_d, v_d, w_d)), want)
            assert same_bits(
                curvature_frame(ambient.params, sig, u_d, v_d, u_d),
                curvature_frame(ambient.params, sig, u_d, v_d, d.to_frame(u.copy())),
            )
            assert same_bits(d.table(sig), _table(ambient, sig, p))
            n_name = "n_r" if sig is Signature.R else "n_l"
            n_f = _to_frame(ambient, p, getattr(d, n_name))
            rotated = d.to_coord(wedge_frame(sig, _frame_row(d, n_name), uf))
            assert same_bits(rotated, ambient.frame(p) @ wedge_frame(sig, n_f, uf))
            assert same_bits(
                _one_row(ambient, sig, d, u, f0, fs, h),
                _one_row(ambient, sig, ambient.point_frame(p.copy()), u, f0, fs, h),
            )


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_curve_stencils_equal_stencil_values_of_each_curve(name, rng):
    """Each curve's row has the bits of ``stencil_values(curve_through(p, v), h)``.

    A group-model curve that leaves the quadric carries the error class and
    message that call raises, at its first parameter in ``stencil_params``
    order, and so does ``curve_error`` of that curve alone.
    """
    ambient = AMBIENTS[name]()
    h = 2.0**-10
    points = _points(ambient, rng, 6)
    vels = _tangents(ambient, points, rng, 3) * np.exp(rng.uniform(-3.0, 6.0, size=(6, 3, 1)))
    if isinstance(ambient, GroupAmbient):
        # through the origin of R^4 at t = h; and, on the su11 quadric, a curve whose
        # first point off the chart is the one at t = 2h
        vels[0, 0] = -points[0] / h
        points[1] = [1.0, 0.0, 0.0, 0.0]
        vels[1, 0] = [0.0, 0.0, 0.75 / h, 0.0]
    out, errors = ambient.curve_stencils(points, vels, h)
    assert out.shape == (6, 3, 5, ambient.dim)
    seen = set()
    for i, p in enumerate(points):
        for j, vel in enumerate(vels[i]):
            try:
                want = stencil_values(ambient.curve_through(p, vel), h)
            except GeometryError as exc:
                raised = (type(exc), str(exc))
                for got in (errors[i][j], ambient.curve_error(p, vel, h)):
                    assert (type(got), str(got)) == raised
                seen.add(str(exc))
                continue
            assert errors[i][j] is None and ambient.curve_error(p, vel, h) is None
            assert same_bits(out[i, j], want)
    if isinstance(ambient, GroupAmbient):
        assert f"curve leaves the quadric chart at t={h}" in seen
        assert ambient.kind == BERGER or f"curve leaves the quadric chart at t={2 * h}" in seen
    else:
        assert not seen


def _curve_start(d):
    """The PointFrame where a curve through the sample starts: its ``curve_starts`` row, or d."""
    return d._batch.curve_starts()[d._k] or d


def _assert_curve_frame_is_curve_start(d, rng):
    ambient = d.ambient
    x = _tangents(ambient, d.point[None], rng, 1)[0, 0]
    start = ambient.curve_through(d.point, x)(0.0)
    at = _curve_start(d)
    assert at is _curve_start(d)
    assert same_bits(at.point, start)
    assert isinstance(ambient, GroupAmbient) or at is d
    for sig in SIGS:
        assert same_bits(at.metric[sig], ambient.metric(sig, start))
        assert same_bits(at.table(sig), _table(ambient, sig, start))
    return at is not d


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_curve_frame_sits_where_curves_through_the_sample_start(name, rng):
    ambient = AMBIENTS[name]()
    for d in _contexts(ambient, rng, 6):
        _assert_curve_frame_is_curve_start(d, rng)


@pytest.mark.parametrize(
    "address, pair",
    [
        ("berger-helicoid:alpha=0.5,variant=space", (1.0, 1.0)),
        ("su11-helicoid:family=h1,rate=0.35,variant=time", (-1.0, 1.0)),
    ],
)
def test_group_helicoid_curves_start_off_the_sample_point(address, pair, rng):
    """A group-model curve starts at p / sqrt(quadric(p)), which is often not bitwise p."""
    built = build_surface(address, SpaceParams(*pair))
    moved = 0
    for uv in interior_grid(built.chart.domain, 3, 3):
        data = frame_data(built.ambient, built.chart, uv, validate=False)
        moved += _assert_curve_frame_is_curve_start(data, rng)
    assert moved > 0


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_frame_norm_of_signed_zero_vectors_is_the_solved_zero(name, rng):
    ambient = AMBIENTS[name]()
    d = _contexts(ambient, rng, 1)[0]
    zero = np.zeros(ambient.dim)
    mixed = np.where(rng.random(ambient.dim) < 0.5, zero, -zero)
    for vec in (zero, -zero, mixed):
        solved = float(np.max(np.abs(ambient.to_frame(d.point, vec))))
        assert same_bits(_frame_norm(d, vec), solved)
        assert same_bits(_frame_norm(d, vec), 0.0)
