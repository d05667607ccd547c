"""Ambient-space engine: frames, metrics, connections, curvature.

Everything here is checked either against closed-form algebra that the frame
construction must satisfy exactly, or against finite-difference oracles that
recompute the same object from the metric alone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bicausal.ambient import (
    DOMAIN_MARGIN,
    CoordinateAmbient,
    Signature,
    SpaceParams,
    connection_gap_frame,
    curvature_frame,
    frame_gram,
    split_frame,
    wedge_frame,
)
from bicausal.errors import ConfigInvalid, DomainViolation
from bicausal.groups import BERGER, SU11, GroupAmbient
from bicausal.numdiff import FDSteps

from conftest import (
    ALL_PARAMS,
    TWISTED_PARAMS,
    UNTWISTED_PARAMS,
    gap_tensor,
    random_params,
    random_point,
    same_bits,
)
from oracles import (
    coordinate_frame_partial_rows,
    coordinate_frame_rows,
    coordinate_metric_rows,
    curvature_fd,
    curvature_from_tables,
    frame_orthonormality_defect,
    koszul_table,
    lie_bracket_fd,
    table_loop,
)

SIGS = (Signature.R, Signature.L)


# -- frame and metric axioms --------------------------------------------------


def test_frame_gram_constants():
    assert np.array_equal(frame_gram(Signature.R), np.eye(3))
    assert np.array_equal(frame_gram(Signature.L), np.diag([1.0, 1.0, -1.0]))


def test_frame_orthonormal_for_both_metrics(rng):
    worst = 0.0
    for _ in range(250):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        for sig in SIGS:
            worst = max(worst, frame_orthonormality_defect(ambient, sig, p))
    assert worst < 1e-12


def test_vertical_direction_is_unit_and_sign_split(rng):
    for _ in range(100):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        xi, at = ambient.fiber_direction(p), ambient.point_frame(p)
        assert abs(at.inner(Signature.R, xi, xi) - 1.0) < 1e-12
        assert abs(at.inner(Signature.L, xi, xi) + 1.0) < 1e-12
        # vertical components of an arbitrary vector have opposite signs
        v = rng.normal(size=3)
        vr = at.inner(Signature.R, v, xi)
        vl = at.inner(Signature.L, v, xi)
        assert abs(vr + vl) < 1e-12


def test_metric_sum_and_difference_split(rng):
    """The two inner products differ only in the vertical-vertical block.

    Their sum is twice the horizontal pairing; their difference is twice the
    product of the vertical components.
    """
    worst = 0.0
    for _ in range(200):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        xi, at = ambient.fiber_direction(p), ambient.point_frame(p)
        x, y = rng.normal(size=3), rng.normal(size=3)
        xr = at.inner(Signature.R, x, xi)
        yr = at.inner(Signature.R, y, xi)
        xh = x - xr * xi
        yh = y - yr * xi
        s = at.inner(Signature.R, x, y) + at.inner(Signature.L, x, y)
        d = at.inner(Signature.R, x, y) - at.inner(Signature.L, x, y)
        worst = max(worst, abs(s - 2.0 * at.inner(Signature.R, xh, yh)))
        worst = max(worst, abs(d - 2.0 * xr * yr))
    assert worst < 1e-12


def test_metric_signatures(rng):
    for _ in range(60):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        gr = ambient.metric(Signature.R, p)
        gl = ambient.metric(Signature.L, p)
        assert np.linalg.det(gr) > 0.0
        assert np.all(np.linalg.eigvalsh(gr) > 0.0)
        eig = np.sort(np.linalg.eigvalsh(gl))
        assert eig[0] < 0.0 < eig[1]
        assert np.linalg.det(gl) < 0.0


@given(
    kappa=st.floats(-3.0, 3.0),
    tau=st.floats(-1.5, 1.5),
    comps=st.tuples(*(st.floats(-2.0, 2.0) for _ in range(3))),
)
def test_to_frame_roundtrip(kappa, tau, comps):
    ambient = CoordinateAmbient(SpaceParams(kappa, tau))
    p = np.array([0.21, -0.13, 0.4])
    if not ambient.contains(p):  # pragma: no cover - domain always contains p here
        return
    v, at = np.array(comps), ambient.point_frame(p)
    back = at.to_coord(at.to_frame(v))
    assert np.max(np.abs(back - v)) < 1e-10 * max(1.0, np.max(np.abs(v)))
    # frame components compute inner products through the constant gram matrix
    w = np.array([0.3, -0.8, 0.5])
    for sig in SIGS:
        direct = at.inner(sig, v, w)
        framed = at.to_frame(v) @ frame_gram(sig) @ at.to_frame(w)
        assert abs(direct - framed) < 1e-10 * max(1.0, abs(direct))


def test_domain_disk_for_negative_base_curvature():
    params = SpaceParams(-1.0, 0.3)
    ambient = CoordinateAmbient(params)
    assert params.disk_radius == pytest.approx(2.0)
    assert ambient.contains(np.array([1.0, 1.0, 5.0]))
    assert not ambient.contains(np.array([2.0, 0.1, 0.0]))
    with pytest.raises(DomainViolation, match="outside the model domain for kappa=-1.0$"):
        ambient.validate_point(np.array([2.5, 0.0, 0.0]))
    # the horizontal scale lam^2 is 1 at the origin, and the metric positive definite inside
    assert ambient.metric(Signature.R, np.zeros(3))[0, 0] == pytest.approx(1.0)
    assert np.all(np.linalg.eigvalsh(ambient.metric(Signature.R, np.array([1.2, 0.7, 0.0]))) > 0.0)


def test_wedge_frame_basis_table():
    e = np.eye(3)
    # Riemannian: cyclic right-handed products
    assert np.allclose(wedge_frame(Signature.R, e[0], e[1]), e[2])
    assert np.allclose(wedge_frame(Signature.R, e[1], e[2]), e[0])
    assert np.allclose(wedge_frame(Signature.R, e[2], e[0]), e[1])
    # Lorentzian: vertical component flips sign
    assert np.allclose(wedge_frame(Signature.L, e[0], e[1]), -e[2])
    assert np.allclose(wedge_frame(Signature.L, e[1], e[2]), e[0])
    assert np.allclose(wedge_frame(Signature.L, e[2], e[0]), e[1])


def test_wedge_orthogonality_and_triple_product(rng):
    for _ in range(60):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        u, v, w = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        at = ambient.point_frame(p)
        uf, vf, wf = at.to_frame(u), at.to_frame(v), at.to_frame(w)
        for sig in SIGS:
            uv = at.to_coord(wedge_frame(sig, uf, vf))
            assert abs(at.inner(sig, uv, u)) < 1e-10
            assert abs(at.inner(sig, uv, v)) < 1e-10
            # antisymmetry
            assert np.max(np.abs(uv + at.to_coord(wedge_frame(sig, vf, uf)))) < 1e-12
            # triple product equals the determinant of frame components
            det = np.linalg.det(np.column_stack([uf, vf, wf]))
            assert abs(at.inner(sig, uv, w) - det) < 1e-9 * max(1.0, abs(det))


# -- connection tables --------------------------------------------------------


def test_connection_tables_match_fd_koszul(rng):
    """Frame-field connection coefficients against the Koszul finite-difference oracle."""
    worst = 0.0
    neg_seen = 0
    for i in range(100):
        params = random_params(rng)
        if i % 4 == 0:  # force negative base curvature into the mix
            params = SpaceParams(-abs(params.kappa) - 0.1, params.tau)
        if params.kappa < 0:
            neg_seen += 1
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        for sig in SIGS:
            table = ambient.connection_table(sig, p)
            oracle = koszul_table(ambient, sig, p, 1e-4)
            worst = max(worst, float(np.max(np.abs(table - oracle))))
    assert neg_seen >= 25
    assert worst < 1e-5


def test_connection_tables_metric_compatible(rng):
    """<nabla_i e_j, e_k> + <e_j, nabla_i e_k> = 0 in frame components, exactly."""
    for _ in range(40):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        # twisted tables are exact constants; untwisted ones are FD-built
        tol = 1e-12 if params.tau != 0.0 else 1e-8
        for sig in SIGS:
            g = frame_gram(sig)
            table = ambient.connection_table(sig, p)
            for i in range(3):
                m = np.array([[table[i, j] @ g[:, k] for k in range(3)] for j in range(3)])
                assert np.max(np.abs(m + m.T)) < tol


def test_connection_tables_torsion_free_against_fd_brackets(rng):
    """nabla_i e_j - nabla_j e_i equals the Lie bracket of the frame fields."""
    worst = 0.0
    for _ in range(15):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)

        def field(idx):
            return lambda qs: ambient.frames(qs)[:, :, idx]

        for sig in SIGS:
            table = ambient.connection_table(sig, p)
            for i in range(3):
                for j in range(i + 1, 3):
                    bracket = lie_bracket_fd(field(i), field(j), p, 1e-4)
                    bracket_f = ambient.to_frame(p, bracket)
                    worst = max(worst, float(np.max(np.abs(table[i, j] - table[j, i] - bracket_f))))
    assert worst < 1e-6


def test_frame_twist_bracket(rng):
    """The rotating frame satisfies [E3, E1] = sigma E2, [E3, E2] = -sigma E1."""
    for kappa, tau in TWISTED_PARAMS:
        params = SpaceParams(kappa, tau)
        sigma = params.twist_rate
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)

        def field(idx):
            return lambda qs: ambient.frames(qs)[:, :, idx]

        b31 = ambient.to_frame(p, lie_bracket_fd(field(2), field(0), p, 1e-4))
        b32 = ambient.to_frame(p, lie_bracket_fd(field(2), field(1), p, 1e-4))
        assert np.max(np.abs(b31 - np.array([0.0, sigma, 0.0]))) < 1e-6
        assert np.max(np.abs(b32 - np.array([-sigma, 0.0, 0.0]))) < 1e-6


def _product_christoffels(kappa: float, p: np.ndarray) -> np.ndarray:
    """Gamma[c, a, b] of lam^2 (dx^2 + dy^2) +- dz^2, lam = 1 / (1 + kappa r^2 / 4), in closed form."""
    lam = 1.0 / (1.0 + 0.25 * kappa * (p[0] ** 2 + p[1] ** 2))
    gx, gy = -0.5 * kappa * p[0] * lam, -0.5 * kappa * p[1] * lam
    gam = np.zeros((3, 3, 3))
    gam[0, 0, 0] = gam[1, 0, 1] = gam[1, 1, 0] = gx
    gam[0, 1, 1] = -gx
    gam[1, 1, 1] = gam[0, 0, 1] = gam[0, 1, 0] = gy
    gam[1, 0, 0] = -gy
    return gam


def test_christoffels_match_fd_oracle(rng):
    """The FD Christoffel route against closed forms it does not use.

    At tau = 0 the symbols themselves have a closed form; at tau != 0 the
    frame table assembled from them (``table_loop``, which takes the
    symbols of ``sig``'s own metric) must give the constant twisted table.
    """
    worst = 0.0
    for kappa, tau in [(1.0, 1.0), (-1.0, 1.0), (4.0, 1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)]:
        ambient = CoordinateAmbient(SpaceParams(kappa, tau))
        for _ in range(5):
            p = random_point(ambient, rng)
            for sig in SIGS:
                if tau == 0.0:
                    got, oracle = ambient.christoffels(sig, p), _product_christoffels(kappa, p)
                else:
                    got = table_loop(ambient, sig, p[None])[0]
                    oracle = ambient.connection_table(sig, p)
                worst = max(worst, float(np.max(np.abs(got - oracle))))
    assert worst < 1e-6


# -- connection gap between the two metrics -----------------------------------


def test_connection_gap_on_frame_fields(rng):
    """The gap tensor on frame fields equals the difference of the tables."""
    worst = 0.0
    for _ in range(30):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        diff = ambient.connection_table(Signature.R, p) - ambient.connection_table(Signature.L, p)
        e = np.eye(3)
        for i in range(3):
            for j in range(3):
                gap_f = connection_gap_frame(params.tau, e[i], e[j])
                worst = max(worst, float(np.max(np.abs(gap_f - diff[i, j]))))
                # coordinate-level route through to_frame/to_coord
                f = ambient.frame(p)
                gap_c = gap_tensor(ambient, p, f[:, i], f[:, j])
                worst = max(worst, float(np.max(np.abs(ambient.to_frame(p, gap_c) - diff[i, j]))))
    assert worst < 1e-10


def test_connection_gap_matches_fd_difference(rng):
    """W(X, Y) via the closed form vs an FD covariant-derivative difference.

    Both connections are applied to the same coordinate-constant extension of
    Y along a curve with velocity X; their difference is tensorial.
    """
    worst = 0.0
    for _ in range(10):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        x, y = rng.normal(size=3), rng.normal(size=3)
        curve = ambient.curve_through(p, x)
        derivs = {
            sig: ambient.cov_deriv_on_curve(sig, curve, lambda t: y, 1e-4, velocity=x)
            for sig in SIGS
        }
        fd_gap = derivs[Signature.R] - derivs[Signature.L]
        closed = gap_tensor(ambient, p, x, y)
        worst = max(worst, float(np.max(np.abs(fd_gap - closed))))
    assert worst < 1e-5


def test_connection_gap_vanishes_untwisted(rng):
    """With tau = 0 the two Levi-Civita connections coincide."""
    worst = 0.0
    for kappa, tau in UNTWISTED_PARAMS:
        ambient = CoordinateAmbient(SpaceParams(kappa, tau))
        for _ in range(20):
            p = random_point(ambient, rng)
            x, y = rng.normal(size=3), rng.normal(size=3)
            worst = max(worst, float(np.max(np.abs(gap_tensor(ambient, p, x, y)))))
            tables = [ambient.connection_table(sig, p) for sig in SIGS]
            worst = max(worst, float(np.max(np.abs(tables[0] - tables[1]))))
    assert worst < 1e-12


def test_killing_property_of_vertical_field(rng):
    """<nabla_X xi, Y> + <nabla_Y xi, X> = 0 for both metrics (FD route)."""
    worst = 0.0
    for _ in range(8):
        params = random_params(rng)
        ambient = CoordinateAmbient(params)
        p = random_point(ambient, rng)
        x, y = rng.normal(size=3), rng.normal(size=3)
        at = ambient.point_frame(p)
        for sig in SIGS:
            def d_along(vec):
                curve = ambient.curve_through(p, vec)
                return ambient.cov_deriv_on_curve(
                    sig, curve, lambda t: ambient.fiber_direction(curve(t)), 1e-4, velocity=vec
                )
            s = at.inner(sig, d_along(x), y) + at.inner(sig, d_along(y), x)
            worst = max(worst, abs(s))
    assert worst < 1e-6


# -- curvature ----------------------------------------------------------------


def test_curvature_operator_matches_fd(rng):
    """Frame-algebra curvature against the coordinate finite-difference tensor."""
    worst = 0.0
    for kappa, tau in [(1.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]:
        ambient = CoordinateAmbient(SpaceParams(kappa, tau))
        p = random_point(ambient, rng)
        at = ambient.point_frame(p)
        for sig in SIGS:
            riem = curvature_fd(lambda qs, s=sig: ambient.metrics(s, qs), p, 1e-3, 1e-3)
            for _ in range(3):
                x, y, z = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
                fd_val = np.einsum("rsmn,s,m,n->r", riem, z, x, y)
                xf, yf, zf = at.to_frame(x), at.to_frame(y), at.to_frame(z)
                direct = at.to_coord(curvature_frame(ambient.params, sig, xf, yf, zf))
                scale = max(1.0, float(np.max(np.abs(direct))))
                worst = max(worst, float(np.max(np.abs(fd_val - direct))) / scale)
    assert worst < 1e-4


def test_curvature_frame_matches_tables_route(rng):
    for kappa, tau in TWISTED_PARAMS:
        params = SpaceParams(kappa, tau)
        ambient = CoordinateAmbient(params)
        for sig in SIGS:
            riem = curvature_from_tables(ambient, sig)
            for _ in range(5):
                x, y, z = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
                via_table = np.einsum("kijr,k,i,j->r", riem, z, x, y)
                direct = curvature_frame(params, sig, x, y, z)
                assert np.max(np.abs(via_table - direct)) < 1e-12 * max(
                    1.0, float(np.max(np.abs(direct)))
                )


def test_round_case_has_constant_sectional_curvature(rng):
    """When the base curvature is four times the squared twist, the Riemannian
    space is a round sphere: every tangent plane has curvature kappa / 4."""
    for kappa in (4.0, 2.0):
        tau = 0.5 * math.sqrt(kappa)
        params = SpaceParams(kappa, tau)
        for _ in range(20):
            x, y = rng.normal(size=3), rng.normal(size=3)
            # sign convention: <R(X, Y)Y, X> = -K |X ^ Y|^2
            rxy = curvature_frame(params, Signature.R, x, y, y)
            num = -float(rxy @ x)
            denom = float(x @ x) * float(y @ y) - float(x @ y) ** 2
            assert abs(num / denom - kappa / 4.0) < 1e-10


def test_fd_step_env_validation(monkeypatch):
    monkeypatch.setenv("BICAUSAL_FD_STEP", "not-a-number")
    with pytest.raises(ConfigInvalid):
        FDSteps.from_env()
    monkeypatch.setenv("BICAUSAL_FD_STEP", "-0.5")
    with pytest.raises(ConfigInvalid):
        FDSteps.from_env()
    monkeypatch.setenv("BICAUSAL_FD_STEP", "1.5")
    with pytest.raises(ConfigInvalid):
        FDSteps.from_env()
    monkeypatch.setenv("BICAUSAL_FD_STEP", "2e-4")
    steps = FDSteps.from_env()
    assert steps.first == pytest.approx(2e-4)
    assert steps.second == pytest.approx(2e-3)


# -- the per-point context -------------------------------------------------------


def _primitive_calls(visits, vectors, tau):
    """Each visit is (point, primitives); a primitives object is the ambient or a PointFrame."""
    u, v = vectors
    out = []
    for i, (p, at) in enumerate(visits):
        for sig in SIGS if i % 2 else SIGS[::-1]:
            if isinstance(at, CoordinateAmbient):
                uf, vf = at.to_frame(p, u), at.to_frame(p, v)
                out += [
                    at.metric(sig, p),
                    at.frame(p),
                    uf,
                    vf,
                    at.connection_table(sig, p),
                    at.frame(p) @ wedge_frame(sig, uf, vf),
                    at.frame(p) @ connection_gap_frame(tau, uf, vf),
                ]
            else:
                uf, vf = at.to_frame(u), at.to_frame(v)
                out += [
                    at.metric[sig],
                    at.frame,
                    uf,
                    vf,
                    at.table(sig),
                    at.to_coord(wedge_frame(sig, uf, vf)),
                    at.to_coord(connection_gap_frame(tau, uf, vf)),
                ]
    return out


@pytest.mark.parametrize("pair", [(1.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (-1.0, 0.0)])
def test_memoized_primitives_match_unmemoized(pair, rng):
    """A point's context, revisited in any order, gives the bits fresh per-point calls give."""
    params = SpaceParams(*pair)
    ambient = CoordinateAmbient(params)
    points = [random_point(ambient, rng) for _ in range(40)]
    contexts = [ambient.point_frame(p) for p in points]
    # revisit contexts after others were used, and interleave repeats
    order = list(range(40)) + list(range(39, -1, -1)) + list(range(0, 40, 3)) + list(range(5))
    vectors = [rng.normal(size=3), rng.normal(size=3)]
    got = _primitive_calls([(points[k], contexts[k]) for k in order], vectors, params.tau)
    fresh = CoordinateAmbient(params)
    want = _primitive_calls([(points[k].copy(), fresh) for k in order], vectors, params.tau)
    assert len(got) == len(want)
    assert all(same_bits(a, b) for a, b in zip(got, want))
    # a context builds each table once and hands out that table on every use
    for at in contexts:
        for sig in SIGS:
            assert at.table(sig) is at.table(sig)


def test_frame_products_match_numpy_cross_bitwise(rng):
    pairs = []
    for _ in range(100):
        u = rng.normal(size=3)
        u[rng.integers(3)] = 0.0
        # parallel pairs make equal products, whose difference has a signed zero
        pairs += [(u, rng.normal(size=3)), (u, u), (u, -2.0 * u)]
    for u, v in pairs:
        assert same_bits(wedge_frame(Signature.R, u, v), np.cross(u, v))
        flipped = np.cross(u, v)
        flipped[2] = -flipped[2]
        assert same_bits(wedge_frame(Signature.L, u, v), flipped)
        tau = float(rng.uniform(-2.0, 2.0))
        (uh, uv), (vh, vv) = split_frame(u), split_frame(v)
        expect = 2.0 * tau * (np.cross(uh, vv) - np.cross(uv, vh))
        assert same_bits(connection_gap_frame(tau, u, v), expect)


def _exactly_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values, shapes and signs of zeros (np.array_equal treats -0.0 == 0.0)."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _rows_for(ambient, rng) -> np.ndarray:
    """Random points plus rows on the axes x = 0 and y = 0, and just inside the disk edge."""
    r = ambient.params.disk_radius
    reach = 0.9 * r if r is not None else 3.0
    points = rng.uniform(-1.0, 1.0, size=(300, 3)) * [reach, reach, 4.0]
    points[:40, 0] = 0.0
    points[40:80, 1] = 0.0
    # on the axes, coordinates whose libm square x**2 is not the product x * x
    # (about 1 in 1000 here; none where libm squares exactly)
    cand = rng.uniform(-reach, reach, size=100_000).tolist()
    odd = [v for v in cand if v**2 != v * v][:40]
    points[: len(odd), 1] = odd
    points[40 : 40 + len(odd), 0] = odd
    points[80:100, :2] = -0.0
    points[100:120, 2] = -0.0
    if r is not None:
        # 1e-7 inside the domain's edge, at angles all round the disk
        edge = r * math.sqrt(1.0 - DOMAIN_MARGIN) * (1.0 - 1e-7)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=60)
        points[200:260, 0], points[200:260, 1] = edge * np.cos(phi), edge * np.sin(phi)
        points[260:270, :2] = [edge, 0.0]
        points[270:280, :2] = [0.0, -edge]
        assert all(ambient.contains(p) for p in points[200:280])
    return points


@pytest.mark.parametrize("tau", [1.0, 1e-3, 0.0])
@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0, -4.0])
def test_stacked_primitives_match_per_row_python_floats(kappa, tau, rng):
    """The array code of ``metrics``, ``frames`` and ``frame_partials`` has the per-row bits."""
    ambient = CoordinateAmbient(SpaceParams(kappa, tau))
    points = _rows_for(ambient, rng)
    for sig in SIGS:
        want = coordinate_metric_rows(ambient, sig, points)
        assert _exactly_equal(ambient.metrics(sig, points), want)
    assert _exactly_equal(ambient.frames(points), coordinate_frame_rows(ambient, points))
    assert _exactly_equal(
        ambient.frame_partials(points), coordinate_frame_partial_rows(ambient, points)
    )
    # a stack of one row has the same bits
    for one in points[:, None]:
        for sig in SIGS:
            want = coordinate_metric_rows(ambient, sig, one)
            assert _exactly_equal(ambient.metrics(sig, one), want)
        assert _exactly_equal(ambient.frames(one), coordinate_frame_rows(ambient, one))
        want = coordinate_frame_partial_rows(ambient, one)
        assert _exactly_equal(ambient.frame_partials(one), want)
    assert ambient.metrics(Signature.R, points[:0]).shape == (0, 3, 3)


def _quadric_rows(ambient, rng) -> np.ndarray:
    """Points of a group model: random rows scaled onto its quadric, and signed zeros."""
    p = rng.normal(size=(200, 4))
    p[:20, 1] = 0.0
    p[20:40, 3] = -0.0
    q = np.einsum("ni,ij,nj->n", p, ambient.pairing, p)
    p = p[q > 0.1] / np.sqrt(q[q > 0.1])[:, None]
    return np.concatenate([p, [[1.0, -0.0, 0.0, -0.0], [-1.0, 0.0, -0.0, 0.0]]])


@pytest.mark.parametrize(
    "model, pair",
    [("coordinate", (1.0, 1.0)), ("coordinate", (1.0, 0.0)), ("coordinate", (-1.0, 0.0)),
     ("coordinate", (0.0, 0.0)), ("coordinate", (-4.0, 1.0)), (BERGER, (1.0, 1.0)),
     (SU11, (-1.0, 1.0))],
)
def test_frames_and_metrics_equal_the_three_calls(model, pair, rng):
    """``frames_and_metrics`` has the bits of ``frames``, ``metrics(R)`` and ``metrics(L)``.

    The coordinate model builds all three from one pass over the points; the
    rows include signed zeros and, in the disk, points 1e-7 inside its edge.
    Stacks of all rows, of one row and of none.
    """
    params = SpaceParams(*pair)
    if model == "coordinate":
        ambient = CoordinateAmbient(params)
        points = _rows_for(ambient, rng)
        ones = [points[80:81], points[110:111], points[200:201], points[270:271]]
    else:
        ambient = GroupAmbient(model, params)
        points = _quadric_rows(ambient, rng)
        ones = [points[:1], points[-1:]]
    for stack in [points, points[:0]] + ones:
        frame, g_r, g_l = ambient.frames_and_metrics(stack)
        assert _exactly_equal(frame, ambient.frames(stack))
        assert _exactly_equal(g_r, ambient.metrics(Signature.R, stack))
        assert _exactly_equal(g_l, ambient.metrics(Signature.L, stack))
        assert frame.shape == (len(stack), ambient.dim, 3)
        assert g_r.shape == g_l.shape == (len(stack), ambient.dim, ambient.dim)


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0, -4.0])
def test_tau_zero_tables_match_the_loop_bitwise(kappa, rng):
    """The one tau = 0 table has the bits of each metric's own table, by a loop over (i, j, a).

    ``table_loop`` builds the table of L from ``metrics(L)``, so the one
    table that serves both metrics is checked against both.  Stacks of 1, 8
    and 128 rows, with rows on the axes, at signed zeros, where the terms'
    zeros carry signs, and 1e-7 inside the disk edge.
    """
    ambient = CoordinateAmbient(SpaceParams(kappa, 0.0))
    points = _rows_for(ambient, rng)
    stacks = [points[80:81], points[150:151], points[::37][:8], points[30:38], points[:128]]
    if ambient.params.disk_radius is not None:
        stacks += [points[200:201], points[270:271], points[200:280:10], points[152:280]]
    for stack in stacks:
        got = ambient._table_from_metric(stack)
        assert got.shape == (len(stack), 3, 3, 3)
        for sig in SIGS:
            assert ambient.table_sig(sig) is Signature.R
            assert _exactly_equal(got, table_loop(ambient, sig, stack))
            assert _exactly_equal(ambient.point_tables(sig, stack), got)

