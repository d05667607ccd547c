"""Matrix-group backends: quadric models, invariant frames, ruled minimal surfaces."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bicausal.ambient import PointFrame, Signature, SpaceParams, wedge_frame
from bicausal.catalog import build_surface
from bicausal.errors import CurveSingular, DomainViolation, ModelMismatch
from bicausal.groups import (
    BERGER,
    QUADRIC_TOL,
    SU11,
    GroupAmbient,
    berger_helicoid_chart,
    su11_helicoid_chart,
)
from bicausal.identities import ruling_defect
from bicausal.surfaces import frame_data

from conftest import WeightedGroupAmbient, interior_grid, same_bits

SIGS = (Signature.R, Signature.L)

HELICOID_CONFIGS = [
    ("berger-helicoid:alpha=0.5", (1.0, 1.0)),
    ("berger-helicoid:alpha=2", (4.0, 1.0)),
    ("su11-helicoid:family=e,rate=0.25", (-1.0, 1.0)),
    ("su11-helicoid:family=h1,rate=0.35", (-1.0, 1.0)),
    ("su11-helicoid:family=p1,rate=0.3", (-1.0, 1.0)),
    ("su11-helicoid:family=p,rate=0.3", (-1.0, 1.0)),
    ("su11-helicoid:family=h1,rate=0.4,t_rate=0.8", (-2.0, 0.7)),
]


def _sphere_point(gen: np.random.Generator) -> np.ndarray:
    p = gen.normal(size=4)
    return p / np.linalg.norm(p)


def _quadric_point(gen: np.random.Generator) -> np.ndarray:
    z = gen.normal(size=2)
    w = 0.5 * gen.normal(size=2)
    s = float(z @ z - w @ w)
    while s <= 0.1:
        z = z * 1.5
        s = float(z @ z - w @ w)
    return np.concatenate([z, w]) / math.sqrt(s)


def _model_point(kind: str, gen: np.random.Generator) -> np.ndarray:
    return _sphere_point(gen) if kind == BERGER else _quadric_point(gen)


# -- model admission -----------------------------------------------------------


def test_model_parameter_admission():
    with pytest.raises(ModelMismatch):
        GroupAmbient(BERGER, SpaceParams(-1.0, 1.0))
    with pytest.raises(ModelMismatch):
        GroupAmbient(BERGER, SpaceParams(1.0, 0.0))
    with pytest.raises(ModelMismatch):
        GroupAmbient(SU11, SpaceParams(1.0, 1.0))
    with pytest.raises(ModelMismatch):
        GroupAmbient(SU11, SpaceParams(-1.0, 0.0))
    with pytest.raises(ModelMismatch):
        GroupAmbient("heisenberg", SpaceParams(0.0, 1.0))


def test_quadric_membership_and_validation(rng):
    sphere = GroupAmbient(BERGER, SpaceParams(1.0, 1.0))
    hyper = GroupAmbient(SU11, SpaceParams(-1.0, 1.0))
    for _ in range(20):
        assert sphere.contains(_sphere_point(rng))
        assert hyper.contains(_quadric_point(rng))
    assert not sphere.contains(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(DomainViolation, match="not on the model quadric$"):
        hyper.validate_point(np.array([0.2, 0.0, 1.0, 0.0]))


@pytest.mark.parametrize("kind, pair", [(BERGER, (1.0, 1.0)), (SU11, (-1.0, 1.0))])
def test_contains_rows_is_contains_of_each_row(kind, pair, rng):
    """One stacked domain check gives each row's ``contains``, also at the tolerance's edge."""
    ambient = GroupAmbient(kind, SpaceParams(*pair))
    on = [_model_point(kind, rng) for _ in range(40)]
    # scaled to land within a few ulps of 1 +- QUADRIC_TOL, on either side
    edge = [
        p * math.sqrt(1.0 + sign * QUADRIC_TOL * (1.0 + k * 1e-7))
        for p in on
        for sign in (1.0, -1.0)
        for k in (-2, -1, 0, 1, 2)
    ]
    off = [2.0 * on[0], 0.5 * on[1], np.zeros(4), np.array([1.0, 1.0, 1.0, 1.0])]
    nonfinite = [np.where(np.arange(4) == k, bad, on[k]) for k in range(4)
                 for bad in (math.nan, math.inf, -math.inf)]
    points = np.array(on + edge + off + nonfinite)
    got = ambient.contains_rows(points)
    assert got == [ambient.contains(p) for p in points]
    assert got == [
        bool(np.all(np.isfinite(p))) and abs(ambient.quadric_value(p) - 1.0) <= QUADRIC_TOL
        for p in points
    ]
    assert all(got[: len(on)]) and not any(got[len(on) + len(edge):])
    assert 0 < sum(got[len(on): len(on) + len(edge)]) < len(edge)
    assert ambient.contains_rows(points[:0]) == []


# -- invariant frame -------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,kappa,tau",
    [(BERGER, 4.0, 1.0), (BERGER, 1.0, 0.7), (SU11, -1.0, 1.0), (SU11, -2.0, 0.5)],
)
def test_invariant_field_normalizations(kind, kappa, tau, rng):
    """|<X1, X1>_R| = |4 / kappa| and xi = (kappa / 4 tau) X3 is unit for both metrics.

    For the hyperbolic model 4 / kappa is negative; the Riemannian metric uses
    its modulus so the frame stays positive definite.
    """
    ambient = GroupAmbient(kind, SpaceParams(kappa, tau))
    for _ in range(12):
        p = _model_point(kind, rng)
        x1, at = ambient.fields[0] @ p, ambient.point_frame(p)
        n1 = at.inner(Signature.R, x1, x1)
        assert abs(n1 - abs(4.0 / kappa)) < 1e-12
        xi = ambient.fiber_direction(p)
        x3 = ambient.fields[2] @ p
        assert np.max(np.abs(xi - (kappa / (4.0 * tau)) * x3)) < 1e-12
        assert abs(at.inner(Signature.R, xi, xi) - 1.0) < 1e-12
        assert abs(at.inner(Signature.L, xi, xi) + 1.0) < 1e-12


@pytest.mark.parametrize("kind,kappa,tau", [(BERGER, 1.0, 1.0), (SU11, -1.5, 0.8)])
def test_frame_orthonormal_and_tangent(kind, kappa, tau, rng):
    ambient = GroupAmbient(kind, SpaceParams(kappa, tau))
    gram_expect = {Signature.R: np.eye(3), Signature.L: np.diag([1.0, 1.0, -1.0])}
    for _ in range(10):
        p = _model_point(kind, rng)
        f, at = ambient.frame(p), ambient.point_frame(p)
        grad = 2.0 * (ambient.pairing @ p)
        for i in range(3):
            assert abs(float(grad @ f[:, i])) < 1e-12
        for sig in SIGS:
            gram = np.array(
                [[at.inner(sig, f[:, i], f[:, j]) for j in range(3)] for i in range(3)]
            )
            assert np.max(np.abs(gram - gram_expect[sig])) < 1e-12


def test_frame_component_roundtrip(rng):
    ambient = GroupAmbient(SU11, SpaceParams(-1.0, 1.0))
    for _ in range(10):
        p = _quadric_point(rng)
        comps = rng.normal(size=3)
        at = ambient.point_frame(p)
        back = at.to_frame(at.to_coord(comps))
        assert np.max(np.abs(back - comps)) < 1e-10


# -- geodesics on the round case -------------------------------------------------


def test_round_case_great_circles_are_geodesic(rng):
    """At kappa = 4 tau^2 the Riemannian model is the round sphere; great
    circles must be geodesics of the extended-metric backend."""
    ambient = GroupAmbient(BERGER, SpaceParams(4.0, 1.0))
    worst = 0.0
    for _ in range(6):
        p = _sphere_point(rng)
        v = rng.normal(size=4)
        v -= (v @ p) * p
        v /= np.linalg.norm(v)

        def curve(t, p=p, v=v):
            return p * math.cos(t) + v * math.sin(t)

        def vel(t, p=p, v=v):
            return -p * math.sin(t) + v * math.cos(t)

        acc = ambient.cov_deriv_on_curve(Signature.R, curve, vel, 1e-4, velocity=vel(0.0))
        worst = max(worst, float(np.linalg.norm(acc)))
    assert worst < 1e-4


def test_curve_through_leaves_quadric():
    ambient = GroupAmbient(SU11, SpaceParams(-1.0, 1.0))
    p = np.array([1.0, 0.0, 0.0, 0.0])
    curve = ambient.curve_through(p, np.array([0.0, 0.0, 1.0, 0.0]))
    assert ambient.contains(curve(0.5))
    with pytest.raises(CurveSingular):
        curve(1.0)


# -- ruled minimal helicoids ------------------------------------------------------


@pytest.mark.parametrize("address,params_pair", HELICOID_CONFIGS)
def test_helicoids_minimal_for_both_metrics(address, params_pair):
    params = SpaceParams(*params_pair)
    built = build_surface(address, params)
    for uv in interior_grid(built.chart.domain, 4, 4):
        data = frame_data(built.ambient, built.chart, uv, validate=False)
        assert abs(data.h_r) < 1e-4, (address, uv)
        assert abs(data.h_l) < 1e-4, (address, uv)


@pytest.mark.parametrize("address,params_pair", HELICOID_CONFIGS[:6])
def test_helicoid_rulings_are_geodesic(address, params_pair):
    """The second chart direction parametrizes geodesic rulings; the first
    (the screw direction) is not a ruling and serves as a negative control."""
    params = SpaceParams(*params_pair)
    built = build_surface(address, params)
    for uv in interior_grid(built.chart.domain, 2, 2):
        data = frame_data(built.ambient, built.chart, uv, validate=False)
        along = ruling_defect(data, direction=(0.0, 1.0))
        assert along["R"] < 1e-3, (address, uv)
        assert along["L"] < 1e-3, (address, uv)
    generic = frame_data(
        built.ambient,
        built.chart,
        interior_grid(built.chart.domain, 4, 4)[5],
        validate=False,
    )
    across = ruling_defect(generic, direction=(1.0, 0.0))
    assert max(across["R"], across["L"]) > 1e-2


@pytest.mark.parametrize("address,params_pair", HELICOID_CONFIGS)
def test_helicoid_pivot_invariant(address, params_pair):
    """<A_R T_R, T_R>_R = 0: the tangential vertical direction is asymptotic."""
    params = SpaceParams(*params_pair)
    built = build_surface(address, params)
    for uv in interior_grid(built.chart.domain, 4, 4):
        data = frame_data(built.ambient, built.chart, uv, validate=False)
        t_coeff = data.coeffs(Signature.R, data.t_r)
        val = data.coeff_inner(
            Signature.R, data.shape(Signature.R) @ t_coeff, t_coeff
        )
        assert abs(val) < 1e-4, (address, uv)


def test_su11_chart_stays_on_quadric():
    params = SpaceParams(-1.0, 1.0)
    for family, rate in [("e", 0.25), ("h1", 0.35), ("p1", 0.3), ("p", 0.3)]:
        chart = su11_helicoid_chart(params, family, rate, ((-1.2, 1.2), (-0.6, 0.6)))
        for u in np.linspace(-1.2, 1.2, 5):
            for v in np.linspace(-0.6, 0.6, 5):
                q = chart.point(u, v)
                z2 = q[0] ** 2 + q[1] ** 2
                w2 = q[2] ** 2 + q[3] ** 2
                assert abs(z2 - w2 - 1.0) < 1e-12


def test_su11_chart_identity_at_origin():
    chart = su11_helicoid_chart(SpaceParams(-1.0, 1.0), "h1", 0.0, ((-1.0, 1.0), (-1.0, 1.0)))
    assert np.max(np.abs(chart.point(0.0, 0.0) - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-15


def test_su11_unknown_family_rejected():
    with pytest.raises(ModelMismatch):
        su11_helicoid_chart(SpaceParams(-1.0, 1.0), "q", 0.3, ((-1.0, 1.0), (-1.0, 1.0)))


@pytest.mark.parametrize(
    "maker",
    [
        lambda: berger_helicoid_chart(0.7, ((-1.0, 1.0), (0.2, 1.2))),
        lambda: su11_helicoid_chart(
            SpaceParams(-1.0, 1.0), "p1", 0.3, ((-1.0, 1.0), (-0.6, 0.6))
        ),
    ],
)
def test_chart_jacobian_matches_fd(maker, rng):
    chart = maker()
    for _ in range(6):
        u = rng.uniform(-0.9, 0.9)
        v = rng.uniform(0.3, 0.9)
        h = 1e-5
        ju, jv = chart.partials(u, v, h)
        fd_u = (chart.point(u + h, v) - chart.point(u - h, v)) / (2 * h)
        fd_v = (chart.point(u, v + h) - chart.point(u, v - h)) / (2 * h)
        assert np.max(np.abs(ju - fd_u)) < 1e-8
        assert np.max(np.abs(jv - fd_v)) < 1e-8


def test_su11_congruence_by_right_factor():
    """Multiplying the chart by a fixed group element on the right keeps the
    surface on the quadric and keeps it minimal for both metrics."""
    params = SpaceParams(-1.0, 1.0)
    base = np.array([[np.cosh(0.3), np.sinh(0.3)], [np.sinh(0.3), np.cosh(0.3)]], dtype=complex)
    chart = su11_helicoid_chart(params, "h1", 0.35, ((-1.0, 1.0), (-0.5, 0.5)), base=base)
    ambient = GroupAmbient(SU11, params)
    for uv in interior_grid(chart.domain, 3, 3):
        q = chart.point(*uv)
        assert abs(ambient.quadric_value(q) - 1.0) < 1e-12
        data = frame_data(ambient, chart, uv, validate=False)
        assert abs(data.h_r) < 1e-4
        assert abs(data.h_l) < 1e-4


def test_metric_extension_weight_does_not_change_surface_data():
    """The off-quadric extension is a gauge choice; intrinsic surface outputs
    must not feel a different radial weighting."""
    for kind, params_pair, address in [
        (BERGER, (1.0, 1.0), "berger-helicoid:alpha=0.5"),
        (SU11, (-1.0, 1.0), "su11-helicoid:family=h1,rate=0.35"),
    ]:
        params = SpaceParams(*params_pair)
        built = build_surface(address, params)
        weighted = WeightedGroupAmbient(kind, params, extension_weight=1.7)
        for uv in [(0.33, 0.41), (-0.4, 0.2)]:
            d0 = frame_data(built.ambient, built.chart, uv, validate=False)
            d1 = frame_data(weighted, built.chart, uv, validate=False)
            assert abs(d0.h_r - d1.h_r) < 1e-8
            assert abs(d0.h_l - d1.h_l) < 1e-8
            assert abs(d0.omega_l - d1.omega_l) < 1e-10
            for sig in SIGS:
                k0, k1 = (float(np.linalg.det(d.shape(sig))) for d in (d0, d1))
                assert abs(k0 - k1) < 1e-8


# -- the per-point context -------------------------------------------------------

MODELS = [(BERGER, 1.0, 1.0), (SU11, -1.5, 0.8)]


def _primitive_calls(ambient, visits, vectors):
    """Each visit is (point, at): at is the point itself, or its kept PointFrame."""
    out = []
    for i, (p, at) in enumerate(visits):
        u, v = (ambient.point_frame(p).to_coord(c) for c in vectors)
        for sig in SIGS if i % 2 else SIGS[::-1]:
            if isinstance(at, PointFrame):
                uf, vf, g = at.to_frame(u), at.to_frame(v), at.metric[sig]
                out += [g, at.frame, uf, at.table(sig), at.to_coord(wedge_frame(sig, uf, vf))]
            else:
                uf, vf, g = ambient.to_frame(p, u), ambient.to_frame(p, v), ambient.metric(sig, p)
                out += [
                    g,
                    ambient.frame(p),
                    uf,
                    ambient.christoffels(sig, p),
                    ambient.frame(p) @ wedge_frame(sig, uf, vf),
                ]
            # u + p without its part along p, which is normal to the quadric under g
            w = u + p
            out.append(w - (float(w @ g @ p) / float(p @ g @ p)) * p)
    return out


@pytest.mark.parametrize("kind,kappa,tau", MODELS)
def test_memoized_primitives_match_unmemoized(kind, kappa, tau, rng):
    """A point's context, revisited in any order, gives the bits fresh per-point calls give."""
    params = SpaceParams(kappa, tau)
    ambient = GroupAmbient(kind, params)
    points = [_model_point(kind, rng) for _ in range(40)]
    contexts = [ambient.point_frame(p) for p in points]
    order = list(range(40)) + list(range(39, -1, -1)) + list(range(0, 40, 3)) + list(range(5))
    vectors = [rng.normal(size=3), rng.normal(size=3)]
    got = _primitive_calls(ambient, [(points[k], contexts[k]) for k in order], vectors)
    fresh = GroupAmbient(kind, params)
    want = _primitive_calls(fresh, [(points[k].copy(),) * 2 for k in order], vectors)
    assert len(got) == len(want)
    assert all(same_bits(a, b) for a, b in zip(got, want))
    for at in contexts:
        for sig in SIGS:
            assert at.table(sig) is at.table(sig)
