"""Surface engine: normals, causal characters, shape operators, T-fields."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bicausal.ambient import CoordinateAmbient, Signature, SpaceParams
from bicausal.catalog import CATALOG, build_surface, default_surfaces, validate_address
from bicausal.errors import DegenerateInput, GeometryError, ImmersionFailure
from bicausal.surfaces import (
    DEGENERATE,
    INVARIANT_KEYS,
    SPACELIKE,
    TIMELIKE,
    SampleBatch,
    SurfaceChart,
    _characters,
    _classify,
    causal_character,
    frame_batch,
    frame_data,
    mean_curvatures,
)

from conftest import catalog_samples, interior_grid, same_bits
from oracles import invariants_row

PARAM_GRID = [(1.0, 1.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]
SIGS = (Signature.R, Signature.L)


@pytest.fixture(scope="module")
def samples():
    return catalog_samples(PARAM_GRID, n_u=2, n_v=2, validate=True)


def test_catalog_covers_both_causal_characters(samples):
    chars = {data.character for _, _, data in samples}
    assert chars == {SPACELIKE, TIMELIKE}


def test_internal_consistency_residuals(samples):
    """Dual-route normals, unit norms, angle/branch relations at every sample."""
    for address, params, data in samples:
        res = data.invariants
        context = f"{address} @ ({params.kappa:g},{params.tau:g}) uv={data.uv}"
        assert res["normal_routes"] < 1e-9, context
        assert res["unit_normal_R"] < 1e-10, context
        assert res["unit_normal_L"] < 1e-10, context
        for key in (
            "angle_transform",
            "omega_product",
            "t_split_R",
            "t_split_L",
            "t_relation",
            "t_tangency_R",
            "t_tangency_L",
            "branch",
        ):
            assert res[key] < 1e-9, f"{key}: {context}"


INVARIANT_PAIRS = [(1.0, 1.0), (1.0, 0.0), (-1.0, 1.0)]


def _invariant_surfaces():
    """Every default surface at (1,1) and (1,0), with the Berger helicoids, and the SU(1,1)
    helicoids at (-1,1): the surfaces of each pair and model on one ambient."""
    for kappa, tau in INVARIANT_PAIRS:
        params = SpaceParams(kappa, tau)
        ambients = {}
        for address in default_surfaces(params):
            if kappa < 0 and not address.startswith("su11-helicoid"):
                continue
            model = CATALOG[validate_address(address).family].model
            built = build_surface(address, params, ambient=ambients.get(model))
            ambients[model] = built.ambient
            yield address, params, built


def test_invariants_stage_gives_the_bits_of_the_per_sample_formula():
    """``SampleBatch.invariants`` holds every sample's 11 consistency residuals as columns,
    of its batch and of a join of several surfaces' samples, with the bits of the per-sample
    formula (``oracles.invariants_row``)."""
    joined = {}
    n_checked = 0
    for address, params, built in _invariant_surfaces():
        uvs = interior_grid(built.chart.domain, 3, 3)
        batch = frame_batch(built.ambient, built.chart, uvs)
        samples = [d for d in batch if not isinstance(d, GeometryError)]
        joined.setdefault((params.label(), id(built.ambient)), []).extend(samples)
        for data in samples:
            expected = invariants_row(data)
            assert list(data.invariants) == list(INVARIANT_KEYS) == list(expected)
            for key in INVARIANT_KEYS:
                assert same_bits(data.invariants[key], expected[key]), (address, data.uv, key)
            n_checked += 1
    assert n_checked > 90
    assert len(joined) == 4 and max(len(samples) for samples in joined.values()) > 36
    for samples in joined.values():
        rows = SampleBatch.join(samples).invariants()
        for row, data in zip(rows.tolist(), samples):
            assert same_bits(row, list(invariants_row(data).values()))


@pytest.mark.parametrize("angle_r", [0.9, -0.9, math.nan])
def test_omega_product_is_infinite_without_a_positive_argument(angle_r):
    """omega_L * sqrt(eps (1 - 2 angle_R^2)) has no value when its argument is not positive."""
    params = SpaceParams(1.0, 1.0)
    built = build_surface("hopf:circle:r=0.9", params)
    batch = SampleBatch(built.ambient, built.chart, [(0.3, 0.45), (0.6, 0.2)])
    # a timelike cylinder: 1 - 2 angle_R^2 < 0 at |angle_R| = 0.9
    batch.center.angle_r[1] = angle_r
    first, second = batch.sample(0), batch.sample(1)
    assert second.eps == 1.0
    assert second.invariants["omega_product"] == math.inf
    assert invariants_row(second)["omega_product"] == math.inf
    assert same_bits(first.invariants["omega_product"], invariants_row(first)["omega_product"])


def test_normal_orientation_signs(samples):
    """Branch choice: the Riemannian normal points up, the Lorentzian one down."""
    for address, params, data in samples:
        assert data.angle_r >= -1e-12, address
        assert data.angle_l <= 1e-12, address


def test_omega_functions_are_reciprocal(samples):
    for _, _, data in samples:
        assert data.omega_l * data.omega_r == pytest.approx(1.0, abs=1e-12)
        assert data.omega_l >= 1.0 - 1e-12


def test_unit_normals_against_ambient_metric(samples):
    for _, _, data in samples:
        at = data.ambient.point_frame(data.point)
        assert abs(at.inner(Signature.R, data.n_r, data.n_r) - 1.0) < 1e-10
        assert abs(at.inner(Signature.L, data.n_l, data.n_l) - data.eps) < 1e-10


def test_t_fields_are_tangential_projections(samples):
    """T = xi - <N, xi> N stays tangent and reproduces the vertical split."""
    for _, _, data in samples:
        amb, p = data.ambient, data.point
        xi, at = amb.fiber_direction(p), amb.point_frame(p)
        recon_r = xi - data.angle_r * data.n_r
        assert np.max(np.abs(recon_r - data.t_r)) < 1e-10
        # tangency against both chart directions
        for base in (data.du, data.dv):
            lhs = at.inner(Signature.R, data.t_r, base)
            rhs = at.inner(Signature.R, xi, base) - data.angle_r * at.inner(
                Signature.R, data.n_r, base
            )
            assert abs(lhs - rhs) < 1e-10


def test_shape_operator_routes_and_symmetry(samples):
    """Weingarten map: stencil route vs bilinear-form route, and self-adjointness.

    The bilinear route differentiates the chart partials along each axis and
    pairs them with the normal: b[axis] = <d du, N>, <d dv, N>.
    """
    gen = np.random.default_rng(7)
    for address, params, data in samples:
        for sig in SIGS:
            shape = data.shape(sig)
            n_name = "n_r" if sig is Signature.R else "n_l"
            normal = getattr(data, n_name)
            b = np.empty((2, 2))
            # the sample is its batch's only one: row 0 of the stacked derivatives
            derivs = data._batch.stencil_derivs(sig, (n_name, "du", "dv"))[0]
            for axis in (0, 1):
                dn, d_du, d_dv = derivs[axis]
                assert same_bits(-data.coeffs(sig, dn), shape[:, axis]), address
                b[axis] = [data.inner(sig, d_du, normal), data.inner(sig, d_dv, normal)]
            symmetry_residual = abs(b[0, 1] - b[1, 0]) / max(1.0, float(np.max(np.abs(b))))
            from_bilinear = np.linalg.solve(data.gram[sig], 0.5 * (b + b.T))
            route_deviation = float(np.max(np.abs(shape - from_bilinear)))
            route_deviation /= max(1.0, float(np.max(np.abs(shape))))
            assert route_deviation < 1e-4, address
            assert symmetry_residual < 1e-4, address
            a, b = gen.normal(size=2), gen.normal(size=2)
            lhs = data.coeff_inner(sig, shape @ a, b)
            rhs = data.coeff_inner(sig, a, shape @ b)
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) < 1e-4 * scale, address


def test_mean_curvature_of_flat_space_graph_matches_classical_formula():
    """Independent oracle: at (0, 0) the Riemannian metric is Euclidean, so the
    mean curvature of a graph z = f(x, y) has the textbook divergence form."""
    a = 0.2
    built = build_surface(f"graph:bowl:a={a}", SpaceParams(0.0, 0.0))

    def classical(u, v):
        fx, fy = 2 * a * u, 2 * a * v
        fxx = fyy = 2 * a
        fxy = 0.0
        w2 = 1.0 + fx * fx + fy * fy
        return (fxx * (1 + fy * fy) - 2 * fx * fy * fxy + fyy * (1 + fx * fx)) / (
            2.0 * w2 ** 1.5
        )

    for uv in [(0.3, 0.4), (-0.5, 0.2), (0.8, -0.6)]:
        data = frame_data(built.ambient, built.chart, uv)
        assert data.h_r == pytest.approx(classical(*uv), abs=1e-8)


@pytest.mark.parametrize("diagonal", [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.3, -0.7)])
def test_mean_curvatures_take_the_bits_of_half_the_trace(diagonal):
    """One matrix or a stack, the signs of zero traces included, as ``np.trace`` gives them."""
    shape = np.array([[diagonal[0], 1.5], [-2.0, diagonal[1]]])
    for eps in (1.0, -1.0):
        tr = float(np.trace(shape))
        want = {Signature.R: 0.5 * tr, Signature.L: 0.5 * eps * tr}
        for sig in SIGS:
            assert same_bits(float(mean_curvatures(sig, shape, eps)), want[sig])
            stacked = mean_curvatures(sig, np.stack([shape, shape]), np.array([eps, eps]))
            assert same_bits(stacked, np.array([want[sig]] * 2))


def test_slices_are_vertical_normal_and_totally_geodesic():
    for kappa in (1.0, -1.0):
        params = SpaceParams(kappa, 0.0)
        built = build_surface("slice:t0=0.1", params)
        for uv in interior_grid(built.chart.domain, 3, 3):
            data = frame_data(built.ambient, built.chart, uv)
            xi = built.ambient.fiber_direction(data.point)
            assert np.max(np.abs(data.n_r - xi)) < 1e-12
            assert data.angle_r == pytest.approx(1.0, abs=1e-12)
            assert data.angle_l == pytest.approx(-1.0, abs=1e-12)
            assert data.omega_l == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(data.t_r)) < 1e-12
            assert np.max(np.abs(data.t_l)) < 1e-12
            assert abs(data.h_r) < 1e-9
            assert abs(data.h_l) < 1e-9
            for sig in SIGS:
                assert np.max(np.abs(data.shape(sig))) < 1e-9


def test_hopf_cylinders_have_constant_zero_angle():
    for kappa, tau in [(1.0, 1.0), (-1.0, 1.0), (1.0, 0.0)]:
        params = SpaceParams(kappa, tau)
        for address in default_surfaces(params):
            if not address.startswith("hopf:"):
                continue
            built = build_surface(address, params)
            for uv in interior_grid(built.chart.domain, 4, 3):
                data = frame_data(built.ambient, built.chart, uv)
                assert data.character == TIMELIKE
                assert abs(data.angle_l) < 1e-12, address
                assert abs(data.angle_r) < 1e-12, address
                assert data.omega_l == pytest.approx(1.0, abs=1e-12)


def test_character_matches_catalog_hint():
    for kappa, tau in PARAM_GRID:
        params = SpaceParams(kappa, tau)
        for address in default_surfaces(params):
            built = build_surface(address, params)
            if built.character_hint is None:
                continue
            for uv in interior_grid(built.chart.domain, 3, 3):
                data = frame_data(built.ambient, built.chart, uv, validate=False)
                assert data.character == built.character_hint, (address, uv)


def test_causal_character_classification():
    params = SpaceParams(1.0, 1.0)
    built = build_surface("graph:bowl:a=0.2", params)
    jet_u, jet_v = built.chart.partials(0.3, 0.2, 1e-4)
    char, _ = causal_character(built.ambient, built.chart.point(0.3, 0.2), jet_u, jet_v)
    assert char == SPACELIKE


def test_degenerate_tangent_plane_raises():
    """The induced Lorentzian metric degenerates where the twisted helicoid
    crosses its light cone; the exact locus is hit at v = 1/2 for pitch 3/4."""
    built = build_surface("helicoid:c=0.75", SpaceParams(0.0, 1.0))
    with pytest.raises(DegenerateInput) as err:
        frame_data(built.ambient, built.chart, (0.3, 0.5))
    assert err.value.code == "DEGENERATE_INPUT"
    # nearby, on each side, the character differs
    inner = frame_data(built.ambient, built.chart, (0.3, 0.4), validate=False)
    outer = frame_data(built.ambient, built.chart, (0.3, 0.6), validate=False)
    assert {inner.character, outer.character} == {TIMELIKE, SPACELIKE}
    assert built.chart.name == "helicoid"
    assert DEGENERATE == "degenerate"


EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1e-12, -1e-12, 1e308)
edge_floats = st.one_of(
    st.sampled_from(EDGES),
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@given(st.lists(st.tuples(edge_floats, edge_floats), min_size=1, max_size=8))
def test_the_stacked_classification_is_classify_row_by_row(rows):
    """``_characters`` rejects exactly the rows on which ``_classify`` raises or finds
    DEGENERATE, and marks SPACELIKE exactly the rows it calls so."""
    scale, det_l = (np.array(column) for column in zip(*rows))
    with np.errstate(all="ignore"):
        rejected, spacelike = _characters(scale, det_l)
    for (sc, dl), bad, space in zip(rows, rejected.tolist(), spacelike.tolist()):
        try:
            char, _ = _classify(sc, dl, None)
        except GeometryError:
            assert bad
            continue
        assert bad == (char == DEGENERATE)
        if not bad:
            assert space == (char == SPACELIKE)


def test_rank_deficient_chart_raises_immersion_failure():
    ambient = CoordinateAmbient(SpaceParams(0.0, 0.0))
    chart = SurfaceChart(
        "collapsed",
        lambda u, v: np.array([u + v, u + v, 0.0]),
        ((-1.0, 1.0), (-1.0, 1.0)),
    )
    with pytest.raises(ImmersionFailure):
        frame_data(ambient, chart, (0.1, 0.2))


def test_frame_data_caches_shape_operators():
    built = build_surface("graph:bowl:a=0.2", SpaceParams(1.0, 1.0))
    data = frame_data(built.ambient, built.chart, (0.3, 0.2))
    assert data.shape(Signature.R) is data.shape(Signature.R)
