"""Shared fixtures and samplers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from bicausal.ambient import CoordinateAmbient, SpaceParams, connection_gap_frame
from bicausal.catalog import build_surface, default_surfaces
from bicausal.groups import GroupAmbient
from bicausal.surfaces import frame_data

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Parameter pairs exercised throughout: twisted (tau != 0) across all base
# curvature signs, and untwisted (tau = 0) including the doubly-flat case.
TWISTED_PARAMS = [(1.0, 1.0), (-1.0, 1.0), (4.0, 1.0), (1.0, 0.5), (0.0, 1.0), (-2.0, 0.7)]
UNTWISTED_PARAMS = [(1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)]
ALL_PARAMS = TWISTED_PARAMS + UNTWISTED_PARAMS


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


def random_point(ambient: CoordinateAmbient, gen: np.random.Generator) -> np.ndarray:
    """A coordinate point well inside the ambient domain."""
    radius = ambient.params.disk_radius
    planar = 0.6 * radius if radius is not None and np.isfinite(radius) else 1.5
    while True:
        p = np.array(
            [
                gen.uniform(-planar, planar),
                gen.uniform(-planar, planar),
                gen.uniform(-1.5, 1.5),
            ]
        )
        if ambient.contains(p):
            return p


def random_params(gen: np.random.Generator) -> SpaceParams:
    """A random parameter pair covering positive, negative and zero base curvature.

    Nonzero twists are kept away from zero: the frame twist rate kappa/(2 tau)
    diverges as tau -> 0, and finite-difference oracles cannot resolve an
    arbitrarily fast rotation at a fixed step.  tau = 0 itself (untwisted,
    no rotation at all) stays in the mix.
    """
    kappa = float(gen.uniform(-3.0, 3.0))
    if gen.uniform() < 0.15:
        kappa = 0.0
    if gen.uniform() < 0.15:
        tau = 0.0
    else:
        tau = float(gen.uniform(0.05, 1.5)) * (1.0 if gen.uniform() < 0.5 else -1.0)
    return SpaceParams(kappa, tau)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: stricter than np.array_equal (signed zeros)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def gap_tensor(ambient, p: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The difference tensor of the two connections on coordinate vectors at p, in coordinates."""
    at = ambient.point_frame(p)
    return at.to_coord(connection_gap_frame(ambient.params.tau, at.to_frame(x), at.to_frame(y)))


def interior_grid(domain, n_u: int, n_v: int, margin: float = 0.12):
    """Deterministic interior sample points of a chart rectangle."""
    (u0, u1), (v0, v1) = domain
    du, dv = u1 - u0, v1 - v0
    us = np.linspace(u0 + margin * du, u1 - margin * du, n_u)
    vs = np.linspace(v0 + margin * dv, v1 - margin * dv, n_v)
    return [(float(u), float(v)) for u in us for v in vs]


def catalog_samples(params_pairs, n_u=2, n_v=2, validate=False):
    """(address, params, frame_data) triples across catalog defaults."""
    out = []
    for kappa, tau in params_pairs:
        params = SpaceParams(kappa, tau)
        for address in default_surfaces(params):
            built = build_surface(address, params)
            for uv in interior_grid(built.chart.domain, n_u, n_v):
                data = frame_data(built.ambient, built.chart, uv, validate=validate)
                out.append((address, params, data))
    return out


class WeightedGroupAmbient(GroupAmbient):
    """A group model whose metric off the quadric is scaled by quadric_value ** extension_weight.

    The extension of the metric off the quadric is a gauge choice, which no
    surface output may feel.
    """

    def __init__(self, kind, params, extension_weight: float, steps=None):
        super().__init__(kind, params, steps)
        self.extension_weight = extension_weight

    def metrics(self, sig, points):
        p = np.asarray(points, dtype=float)
        quad = (p[:, None, :] @ self.pairing @ p[..., None])[:, 0, 0]
        weight = np.array([q**self.extension_weight for q in quad.tolist()])
        return super().metrics(sig, p) * weight[:, None, None]
