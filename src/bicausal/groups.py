"""Matrix-group models of the twisted spaces, embedded in R^4.

For positive base curvature the model is the unit sphere in C^2 with a
one-parameter family of left-invariant metrics; for negative base curvature
it is the quadric |z|^2 - |w|^2 = 1 with the analogous invariant metrics
built on the signature-(2, 2) pairing.  Both carry a Riemannian and a
Lorentzian metric distinguished only by the squared norm of the fiber
direction, exactly as in the coordinate model.

The backend extends the metrics off the 3-manifold by the same algebraic
formula (the defining fields are restrictions of linear maps), computes
ambient Christoffel symbols by finite differences and projects covariant
derivatives back to the tangent spaces; the projection is along the position
vector, which is normal to the manifold for both extended metrics.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .ambient import (
    Ambient,
    SpaceParams,
    Signature,
    _per_row,
    _vectors,
    stacked_inner,
)
from .errors import CurveSingular, DomainViolation, ModelMismatch
from .numdiff import FDSteps, stencil_derivative
from .surfaces import SurfaceChart

BERGER = "berger"
SU11 = "su11"

# Subgroup families of the hyperbolic-model helicoid's s-factor.
HELICOID_FAMILIES = ("e", "h1", "p1", "p")

# Real 4x4 matrices of the three invariant fields, acting on (re z, im z, re w, im w).
_BERGER_FIELDS = (
    np.array(
        [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float
    ),
    np.array(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float
    ),
    np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    ),
)
_SU11_FIELDS = (
    np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
    ),
    np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float
    ),
    np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float
    ),
)

QUADRIC_TOL = 1e-9


class GroupAmbient(Ambient):
    """Ambient backend for the matrix-group models, with the interface of the coordinate one.

    Points are unit vectors of the relevant quadric in R^4; tangent vectors
    are R^4 vectors tangent to it.  ``kind`` selects the sphere model
    ("berger", kappa > 0) or the hyperbolic one ("su11", kappa < 0); both
    need tau != 0.
    """

    dim = 4

    def __init__(self, kind: str, params: SpaceParams, steps: FDSteps | None = None):
        if kind == BERGER:
            if not (params.kappa > 0.0 and params.tau != 0.0):
                raise ModelMismatch(
                    f"sphere model needs kappa > 0 and tau != 0, got {params.key()}"
                )
            self.pairing = np.diag([1.0, 1.0, 1.0, 1.0])
            self.fields = _BERGER_FIELDS
            self.frame_flip = 1.0
        elif kind == SU11:
            if not (params.kappa < 0.0 and params.tau != 0.0):
                raise ModelMismatch(
                    f"hyperbolic model needs kappa < 0 and tau != 0, got {params.key()}"
                )
            self.pairing = np.diag([1.0, 1.0, -1.0, -1.0])
            self.fields = _SU11_FIELDS
            self.frame_flip = -1.0
        else:
            raise ModelMismatch(f"unknown group model kind {kind!r}")
        self.kind = kind
        self.params = params
        self.steps = steps if steps is not None else FDSteps.from_env()
        self._modifier = {
            Signature.R: 4.0 * params.tau**2 / params.kappa - 1.0,
            Signature.L: -(4.0 * params.tau**2 / params.kappa + 1.0),
        }

    # -- domain ------------------------------------------------------------

    def quadric_value(self, p: np.ndarray) -> float:
        p = np.asarray(p, dtype=float)
        return float(p @ self.pairing @ p)

    def contains(self, p: np.ndarray) -> bool:
        p = np.asarray(p, dtype=float)
        if p.shape != (4,) or not np.all(np.isfinite(p)):
            return False
        return abs(self.quadric_value(p) - 1.0) <= QUADRIC_TOL

    def validate_point(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if not self.contains(p):
            raise DomainViolation(f"point {p!r} not on the model quadric")
        return p

    # -- metric ------------------------------------------------------------

    def metrics(self, sig: Signature, points: np.ndarray) -> np.ndarray:
        """(4 / kappa) (pairing + m_sig u u^T) at each point, u the paired fiber field."""
        p = np.asarray(points, dtype=float)
        u = (self.pairing @ (self.fields[2] @ p[..., None]))[..., 0]
        return (4.0 / self.params.kappa) * (
            self.pairing + self._modifier[sig] * (u[:, :, None] * u[:, None, :])
        )

    # -- frame -------------------------------------------------------------

    def frames(self, points: np.ndarray) -> np.ndarray:
        """Columns: the oriented orthonormal frame of both metrics at each point (on the quadric)."""
        p = np.asarray(points, dtype=float)[..., None]
        r = 0.5 * math.sqrt(abs(self.params.kappa))
        f1 = r * (self.fields[0] @ p)
        f2 = self.frame_flip * r * (self.fields[1] @ p)
        fiber = (self.params.kappa / (4.0 * self.params.tau)) * (self.fields[2] @ p)
        return np.concatenate([f1, f2, fiber], axis=-1)

    def to_frames(
        self, points: np.ndarray, vecs: np.ndarray, frames=None, metric_r=None
    ) -> np.ndarray:
        v = _vectors(vecs)
        f = self.frames(points) if frames is None else frames
        g = self.metrics(Signature.R, points) if metric_r is None else metric_r
        return (np.swapaxes(_per_row(f, v), -1, -2) @ _per_row(g, v) @ v[..., None])[..., 0]

    def stencil_components(self, points: np.ndarray, vecs: np.ndarray, frames=None) -> np.ndarray:
        """Coordinates: the extended ambient derivative differences them as they are."""
        return np.asarray(vecs, dtype=float)

    # -- connection ----------------------------------------------------------

    def point_tables(self, sig: Signature, points: np.ndarray) -> np.ndarray:
        """Coordinate Christoffel symbols at each point, (n, 4, 4, 4), in one stack."""
        return self.christoffels(sig, points)

    def curve_through(self, p: np.ndarray, vel: np.ndarray) -> Callable[[float], np.ndarray]:
        """Curve on the quadric through p with initial velocity vel (radial renormalization)."""
        p = np.asarray(p, dtype=float)
        vel = np.asarray(vel, dtype=float)

        def curve(t: float) -> np.ndarray:
            q = p + t * vel
            s = self.quadric_value(q)
            if s <= 0.0:
                raise CurveSingular(f"curve leaves the quadric chart at t={t}")
            return q / math.sqrt(s)

        return curve

    def cov_deriv_stencils(
        self,
        points: np.ndarray,
        frames: np.ndarray,
        metric: np.ndarray,
        tables: np.ndarray,
        velocity: np.ndarray,
        f0: np.ndarray,
        fs: np.ndarray,
        h: float,
    ) -> np.ndarray:
        """Covariant derivatives at n points of k fields each, from coordinates on the stencil.

        Same contract as ``CoordinateAmbient.cov_deriv_stencils``, with the
        fields given in coordinates (n, k, 4) at p0 and (4, n, k, 4) on the
        stencil (and no use for ``frames``).  The connection term is one
        ``einsum`` over all points and fields, and ``metric`` projects the
        result to the quadric: each row loses its component along the
        position vector p0, which is normal to the quadric under that metric.
        """
        dv = stencil_derivative(fs, h)
        gam, vel, v0, p = (np.ascontiguousarray(a) for a in (tables, velocity, f0, points))
        vec = dv + np.einsum("ncab,na,nkb->nkc", gam, vel, v0)
        along = stacked_inner(metric, vec, np.broadcast_to(p[:, None], vec.shape))
        return vec - (along / stacked_inner(metric, p, p)[:, None])[..., None] * p[:, None]


# -- helicoid charts ---------------------------------------------------------


def _row_to_r4(mat: np.ndarray) -> np.ndarray:
    z, w = mat[0, 0], mat[0, 1]
    return np.array([z.real, z.imag, w.real, w.imag])


def berger_helicoid_chart(alpha: float, domain) -> SurfaceChart:
    """Ruled surface in the sphere model: rotation rates alpha and 1 on the two circles."""

    def point(s: float, t: float) -> np.ndarray:
        return np.array(
            [
                math.cos(alpha * s) * math.cos(t),
                math.sin(alpha * s) * math.cos(t),
                math.cos(s) * math.sin(t),
                math.sin(s) * math.sin(t),
            ]
        )

    def jacobian(s: float, t: float):
        ds = np.array(
            [
                -alpha * math.sin(alpha * s) * math.cos(t),
                alpha * math.cos(alpha * s) * math.cos(t),
                -math.sin(s) * math.sin(t),
                math.cos(s) * math.sin(t),
            ]
        )
        dt = np.array(
            [
                -math.cos(alpha * s) * math.sin(t),
                -math.sin(alpha * s) * math.sin(t),
                math.cos(s) * math.cos(t),
                math.sin(s) * math.cos(t),
            ]
        )
        return ds, dt

    return SurfaceChart(
        name=f"berger-helicoid:alpha={alpha:g}",
        chart=point,
        domain=domain,
        jacobian=jacobian,
    )


def _subgroup_factors(family: str, rate: float):
    """Matrix curve and derivative for the s-factor of the hyperbolic-model helicoid."""

    def lam_e(x: float) -> np.ndarray:
        return np.array([[np.exp(1j * x), 0.0], [0.0, np.exp(-1j * x)]])

    def lam_e_d(x: float) -> np.ndarray:
        return np.array([[1j * np.exp(1j * x), 0.0], [0.0, -1j * np.exp(-1j * x)]])

    def lam_h1(x: float) -> np.ndarray:
        return np.array(
            [[np.cosh(x), 1j * np.sinh(x)], [-1j * np.sinh(x), np.cosh(x)]]
        )

    def lam_h1_d(x: float) -> np.ndarray:
        return np.array(
            [[np.sinh(x), 1j * np.cosh(x)], [-1j * np.cosh(x), np.sinh(x)]]
        )

    def lam_p(x: float) -> np.ndarray:
        return np.array([[1.0 + 1j * x, -1j * x], [1j * x, 1.0 - 1j * x]])

    lam_p_d = np.array([[1j, -1j], [1j, -1j]])

    def lam_p1(x: float) -> np.ndarray:
        return np.array([[1.0 + 1j * x, 1j * x], [-1j * x, 1.0 - 1j * x]])

    lam_p1_d = np.array([[1j, 1j], [-1j, -1j]])

    if family == "e":
        return (lambda s: lam_e(-2.0 * rate * s)), (
            lambda s: -2.0 * rate * lam_e_d(-2.0 * rate * s)
        )
    if family == "h1":
        return (lambda s: lam_h1(2.0 * rate * s)), (
            lambda s: 2.0 * rate * lam_h1_d(2.0 * rate * s)
        )
    if family == "p1":
        return (lambda s: lam_p1(rate * s)), (lambda s: rate * lam_p1_d.copy())
    if family == "p":
        return (lambda s: lam_p(-rate * s)), (lambda s: -rate * lam_p_d.copy())
    raise ModelMismatch(f"unknown helicoid family {family!r}; use e, h1, p1 or p")


def su11_helicoid_chart(
    params: SpaceParams,
    family: str,
    rate: float,
    domain,
    t_rate: float | None = None,
    base: np.ndarray | None = None,
) -> SurfaceChart:
    """Ruled surface in the hyperbolic model: product of three subgroup curves.

    The ruling parameter t moves along a hyperbolic subgroup at rate
    kappa^2 / 2 unless ``t_rate`` overrides it.  The invariant fields of this
    model commute with multiplication on the right, so the twisting factor
    goes on the left and the congruence factor ``base`` on the right; this
    ordering is the one that makes every family minimal for both metrics at
    every parameter choice, which we verify numerically in the tests.
    """
    lam, lam_d = _subgroup_factors(family, rate)
    ct = 0.5 * params.kappa**2 if t_rate is None else float(t_rate)
    a_mat = np.eye(2, dtype=complex) if base is None else np.asarray(base, dtype=complex)

    def lam_h(x: float) -> np.ndarray:
        return np.array(
            [[np.cosh(x), np.sinh(x)], [np.sinh(x), np.cosh(x)]], dtype=complex
        )

    def lam_h_d(x: float) -> np.ndarray:
        return np.array(
            [[np.sinh(x), np.cosh(x)], [np.cosh(x), np.sinh(x)]], dtype=complex
        )

    def lam_e_half(s: float) -> np.ndarray:
        return np.array(
            [[np.exp(0.5j * s), 0.0], [0.0, np.exp(-0.5j * s)]]
        )

    def lam_e_half_d(s: float) -> np.ndarray:
        return np.array(
            [[0.5j * np.exp(0.5j * s), 0.0], [0.0, -0.5j * np.exp(-0.5j * s)]]
        )

    def matrices(s: float, t: float):
        return lam_e_half(s), lam_h(ct * t), lam(s) @ a_mat

    def point(s: float, t: float) -> np.ndarray:
        left, mid, right = matrices(s, t)
        return _row_to_r4(left @ mid @ right)

    def jacobian(s: float, t: float):
        left, mid, right = matrices(s, t)
        d_s = lam_e_half_d(s) @ mid @ right + left @ mid @ (lam_d(s) @ a_mat)
        d_t = left @ (ct * lam_h_d(ct * t)) @ right
        return _row_to_r4(d_s), _row_to_r4(d_t)

    label = f"su11-helicoid:family={family},rate={rate:g}"
    if t_rate is not None:
        label += f",t_rate={t_rate:g}"
    return SurfaceChart(
        name=label,
        chart=point,
        domain=domain,
        jacobian=jacobian,
    )
