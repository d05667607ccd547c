"""Curvature pipeline: intrinsic oracle, Gauss equations, model values.

The vertical-cylinder values asserted here are the package's own, frozen
after computing them three ways (constant frame tables analytically, the
coordinate finite-difference pipeline, and the matrix-group backend): for a
vertical cylinder the twisted-frame shape operators send the vertical
direction to -tau u and +tau u respectively, so the two extrinsic curvatures
are -tau^2 and +tau^2, and the Gauss-equation values are 0 and 2 tau^2.
They are regression anchors for the classification checks.  K_L = 2 tau^2
rests on a convention that the three ways share: kbar_L = <R(e1, e2) e1, e2>
on the adapted pair, not divided by the Gram determinant of the plane (-1 on
a timelike plane).  The Gauss curvature of the induced Lorentzian metric of
a vertical cylinder is 0, since its coefficients are constant; so these
anchors lock the convention, not that curvature.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bicausal.ambient import SpaceParams
from bicausal.catalog import build_surface
from bicausal.identities import curvature_suite, intrinsic_curvature_r
from bicausal.numdiff import brioschi_curvature
from bicausal.surfaces import frame_data

from conftest import interior_grid


def _data(address, kappa, tau, frac=(0.4, 0.6)):
    params = SpaceParams(kappa, tau)
    built = build_surface(address, params)
    (u0, u1), (v0, v1) = built.chart.domain
    uv = (u0 + (u1 - u0) * frac[0], v0 + (v1 - v0) * frac[1])
    return frame_data(built.ambient, built.chart, uv, validate=False)


# -- the intrinsic oracle on classical surfaces --------------------------------


def test_brioschi_on_unit_sphere():
    def first_form(u, v):
        return 1.0, 0.0, math.sin(u) ** 2

    assert brioschi_curvature(first_form, (1.1, 0.3), 1e-3) == pytest.approx(1.0, abs=1e-5)
    assert brioschi_curvature(first_form, (0.7, -0.2), 1e-3) == pytest.approx(1.0, abs=1e-5)


def test_brioschi_on_flat_plane_polar():
    def first_form(u, v):
        return 1.0, 0.0, u * u

    assert abs(brioschi_curvature(first_form, (1.3, 0.4), 1e-3)) < 1e-8


def test_brioschi_on_hyperbolic_half_plane():
    def first_form(u, v):
        return 1.0 / (v * v), 0.0, 1.0 / (v * v)

    assert brioschi_curvature(first_form, (0.2, 1.5), 1e-3) == pytest.approx(-1.0, abs=1e-5)


# -- Gauss-equation curvature against the intrinsic oracle ----------------------


@pytest.mark.parametrize(
    "address,kappa,tau",
    [
        ("graph:bowl:a=0.2", 1.0, 1.0),
        ("graph:bowl:a=0.2", -1.0, 1.0),
        ("vgraph:saddle:a=0.15", 1.0, 1.0),
        ("hopf:circle:r=0.9", 1.0, 1.0),
        ("graph:bowl:a=0.2", 1.0, 0.0),
    ],
)
def test_gauss_equation_matches_intrinsic_oracle(address, kappa, tau):
    data = _data(address, kappa, tau)
    intrinsic = intrinsic_curvature_r(data)
    via_gauss = curvature_suite(data)["k_R"]
    assert abs(intrinsic - via_gauss) < 1e-3


def test_closed_form_ambient_plane_curvatures_match_fd():
    """kbar from the curvature operator against its closed form in the angle."""
    for address, kappa, tau in [
        ("graph:bowl:a=0.2", 1.0, 1.0),
        ("vgraph:saddle:a=0.15", -1.0, 1.0),
        ("hopf:ellipse:a=0.9,b=0.55", 1.0, 0.5),
    ]:
        suite = curvature_suite(_data(address, kappa, tau))
        assert abs(suite["kbar_R"] - suite["kbar_R_closed"]) < 1e-6
        assert abs(suite["kbar_L"] - suite["kbar_L_closed"]) < 1e-6


# -- doubly flat parameters ------------------------------------------------------


def test_flat_parameters_reduce_to_extrinsic_curvature():
    """At kappa = tau = 0 both ambients are flat, so the Gauss curvature is
    purely extrinsic: K_R = det A_R and K_L = eps det A_L."""
    for address in ("graph:bowl:a=0.2", "vgraph:saddle:a=0.15"):
        data = _data(address, 0.0, 0.0)
        suite = curvature_suite(data)
        assert abs(suite["kbar_R"]) < 1e-8
        assert abs(suite["kbar_L"]) < 1e-8
        assert suite["k_R"] == pytest.approx(suite["ke_R"], abs=1e-8)
        assert suite["k_L"] == pytest.approx(data.eps * suite["ke_L"], abs=1e-8)


def test_flat_bowl_gauss_curvature_positive_spherical_cap():
    """Euclidean check: the paraboloid z = a r^2 has K = 4 a^2 / (1 + 4 a^2 r^2)^2."""
    a = 0.2
    data = _data(f"graph:bowl:a={a}", 0.0, 0.0)
    x, y = data.point[0], data.point[1]
    r2 = x * x + y * y
    expected = 4 * a * a / (1.0 + 4 * a * a * r2) ** 2
    assert curvature_suite(data)["k_R"] == pytest.approx(expected, abs=1e-8)


# -- horizontal slices -----------------------------------------------------------


@pytest.mark.parametrize("kappa", [1.0, -1.0])
def test_slices_carry_base_curvature(kappa):
    """Untwisted horizontal slices are totally geodesic copies of the base
    surface: K_R = K_L = kappa and both extrinsic curvatures vanish."""
    params = SpaceParams(kappa, 0.0)
    built = build_surface("slice:t0=0.1", params)
    for uv in interior_grid(built.chart.domain, 3, 3):
        data = frame_data(built.ambient, built.chart, uv)
        suite = curvature_suite(data)
        assert abs(suite["ke_R"]) < 1e-9
        assert abs(suite["ke_L"]) < 1e-9
        assert suite["k_R"] == pytest.approx(kappa, abs=1e-9)
        assert suite["k_L"] == pytest.approx(kappa, abs=1e-9)
        assert intrinsic_curvature_r(data) == pytest.approx(kappa, abs=1e-3)


# -- vertical cylinders (frozen two-route values) --------------------------------


@pytest.mark.parametrize(
    "address,kappa,tau",
    [
        ("hopf:circle:r=0.9", 1.0, 1.0),
        ("hopf:circle:r=0.81", -1.0, 1.0),
        ("hopf:ellipse:a=0.9,b=0.55", 1.0, 1.0),
        ("hopf:circle:r=0.9", 1.0, 0.5),
    ],
)
def test_vertical_cylinder_curvatures(address, kappa, tau):
    """Frozen values for twisted vertical cylinders:

    K_e^R = -tau^2, K_e^L = +tau^2, K_R = 0, K_L = 2 tau^2 (the Gauss-equation
    value of the module docstring), omega_L = 1, and the two mean curvatures
    are opposite.  The extrinsic curvatures have
    opposite signs because the shape operators act on the vertical direction
    by A_R(xi) = -tau u and A_L(xi) = +tau u.
    """
    data = _data(address, kappa, tau, frac=(0.3, 0.45))
    suite = curvature_suite(data)
    assert data.omega_l == pytest.approx(1.0, abs=1e-12)
    assert suite["ke_R"] == pytest.approx(-tau * tau, abs=1e-6)
    assert suite["ke_L"] == pytest.approx(tau * tau, abs=1e-6)
    assert suite["k_R"] == pytest.approx(0.0, abs=1e-6)
    assert suite["k_L"] == pytest.approx(2.0 * tau * tau, abs=1e-6)
    assert data.h_r == pytest.approx(-data.h_l, abs=1e-6)


def test_untwisted_cylinders_are_flat():
    """With tau = 0, vertical cylinders have K_e = 0 and K = 0 (both metrics)."""
    for kappa in (1.0, -1.0):
        for address in (f"hopf:circle:r={0.9 * (2.0 / math.sqrt(abs(kappa))) if kappa < 0 else 0.9:g}",):
            data = _data(address if kappa > 0 else "hopf:circle:r=0.81", kappa, 0.0)
            suite = curvature_suite(data)
            for key in ("ke_R", "ke_L", "k_R", "k_L"):
                assert abs(suite[key]) < 1e-8, (kappa, key)


def test_group_backend_agrees_with_coordinate_cylinder_values():
    """The sphere-model vertical torus reproduces the frozen cylinder values."""
    from bicausal.groups import BERGER, GroupAmbient
    from bicausal.surfaces import SurfaceChart

    kappa, tau = 1.0, 1.0
    ambient = GroupAmbient(BERGER, SpaceParams(kappa, tau))
    c = math.cos(0.6)
    s = math.sin(0.6)

    def point(u, v):
        return np.array([c * math.cos(u), c * math.sin(u), s * math.cos(v), s * math.sin(v)])

    chart = SurfaceChart("vertical-torus", point, ((0.0, 2 * math.pi), (0.0, 2 * math.pi)))
    data = frame_data(ambient, chart, (0.8, 1.3), validate=False)
    suite = curvature_suite(data)
    assert data.omega_l == pytest.approx(1.0, abs=1e-10)
    assert suite["ke_R"] == pytest.approx(-tau * tau, abs=1e-6)
    assert suite["ke_L"] == pytest.approx(tau * tau, abs=1e-6)
    assert suite["k_R"] == pytest.approx(0.0, abs=1e-6)
    assert suite["k_L"] == pytest.approx(2.0 * tau * tau, abs=1e-6)
