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
    _cos_sin,
    _filled,
    _per_row,
    _vectors,
    stacked_inner,
)
from .errors import CurveSingular, ModelMismatch
from .numdiff import FDSteps, stencil_derivative, stencil_params
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
    outside = "not on the model quadric"

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
        super().__init__(params, steps)
        self._modifier = {
            Signature.R: 4.0 * params.tau**2 / params.kappa - 1.0,
            Signature.L: -(4.0 * params.tau**2 / params.kappa + 1.0),
        }

    # -- domain ------------------------------------------------------------

    def quadric_value(self, p: np.ndarray) -> float:
        p = np.asarray(p, dtype=float)
        return float(p @ self.pairing @ p)

    def contains_rows(self, points) -> list:
        """``contains`` of each of n points (4,), checked as one stack: n booleans.

        The point must be finite and ``quadric_value`` within QUADRIC_TOL of
        1.  Each row's value is the matmul chain of ``quadric_value`` with a
        row axis in front, so every row makes the vector-matrix and dot
        product calls of that chain and keeps its bits.
        """
        p = np.ascontiguousarray(points, dtype=float).reshape(-1, 4)
        q = self._quadric_rows(p)
        return (np.isfinite(p).all(axis=1) & (np.abs(q - 1.0) <= QUADRIC_TOL)).tolist()

    def _quadric_rows(self, p: np.ndarray) -> np.ndarray:
        """``quadric_value`` of each row of p (n, 4), C-contiguous, with its bits."""
        with np.errstate(all="ignore"):
            return (p[:, None, :] @ self.pairing @ p[:, :, None])[:, 0, 0]

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

    def curve_stencils(self, points: np.ndarray, velocities: np.ndarray, h: float):
        """The stencil points of r curves through each of m points, and each curve's error.

        Curve j through points[i] is ``curve_through(points[i], velocities[i, j])``,
        velocities (m, r, 4); its row (m, r, 5, 4) is ``stencil_values`` of it
        with step h, with the bits of that call.  Entry [i][j] of the error
        lists is the CurveSingular that call raises at its first parameter
        whose point leaves the quadric chart, or None; that curve's row then
        holds NaN or unread numbers.
        """
        ts, q, s = self._stencil_quadrics(points, velocities, h)
        with np.errstate(all="ignore"):
            out = q / np.sqrt(s)[..., None]
        errors = [[None] * q.shape[1] for _ in range(len(q))]
        # in C order: each curve's parameters in the order ``stencil_values`` takes them
        for i, j, k in zip(*np.nonzero(s <= 0.0)):
            if errors[i][j] is None:
                errors[i][j] = CurveSingular(f"curve leaves the quadric chart at t={ts[k]}")
        return out, errors

    def _stencil_quadrics(self, points, velocities, h: float):
        """The ``stencil_params``, the unscaled stencil points q (m, r, 5, 4) of
        ``curve_stencils`` and their ``quadric_value`` (m, r, 5)."""
        ts = stencil_params(h)
        p, vel = np.asarray(points, dtype=float), np.asarray(velocities, dtype=float)
        q = p[:, None, None] + np.array(ts)[:, None] * vel[:, :, None]
        s = self._quadric_rows(np.ascontiguousarray(q).reshape(-1, 4)).reshape(q.shape[:-1])
        return ts, q, s

    def curve_error(self, p: np.ndarray, vel: np.ndarray, h: float):
        """The error of one curve of ``curve_stencils``, or None: its one-row case,
        which leaves out the points."""
        ts, _, s = self._stencil_quadrics(np.asarray(p)[None], np.asarray(vel)[None, None], h)
        for t, value in zip(ts, s[0, 0].tolist()):
            if value <= 0.0:
                return CurveSingular(f"curve leaves the quadric chart at t={t}")
        return None

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


def _mat2(n: int, a, b, c, d) -> np.ndarray:
    """The complex matrices [[a, b], [c, d]], (n, 2, 2); each entry a column (n,) or a number."""
    out = np.empty((n, 2, 2), dtype=complex)
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, d
    return out


def _rows_to_r4(mats: np.ndarray) -> np.ndarray:
    """(re z, im z, re w, im w) of the first row (z, w) of each matrix, (n, 4)."""
    return np.ascontiguousarray(mats[:, 0]).view(float)


def berger_helicoid_chart(alpha: float, domain) -> SurfaceChart:
    """Ruled surface in the sphere model: rotation rates alpha and 1 on the two circles."""

    def point(ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        (ca, sa), (ct, st), (cs, sn) = _cos_sin(alpha * ss), _cos_sin(ts), _cos_sin(ss)
        return _filled(len(ss), (ca * ct, sa * ct, cs * st, sn * st), (4,))

    def jacobian(ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        (ca, sa), (ct, st), (cs, sn) = _cos_sin(alpha * ss), _cos_sin(ts), _cos_sin(ss)
        entries = (
            -alpha * sa * ct, alpha * ca * ct, -sn * st, cs * st,
            -ca * st, -sa * st, cs * ct, sn * ct,
        )
        return _filled(len(ss), entries, (2, 4))

    return SurfaceChart(
        name=f"berger-helicoid:alpha={alpha:g}",
        chart=point,
        domain=domain,
        jacobian=jacobian,
        stacked=True,
    )


def _subgroup_factors(family: str, rate: float):
    """Matrix curve and derivative of the hyperbolic helicoid's s-factor: s (n,) -> (n, 2, 2)."""

    def lam_e(x):
        return _mat2(len(x), np.exp(1j * x), 0.0, 0.0, np.exp(-1j * x))

    def lam_e_d(x):
        return _mat2(len(x), 1j * np.exp(1j * x), 0.0, 0.0, -1j * np.exp(-1j * x))

    def lam_h1(x):
        ch, sh = np.cosh(x), np.sinh(x)
        return _mat2(len(x), ch, 1j * sh, -1j * sh, ch)

    def lam_h1_d(x):
        ch, sh = np.cosh(x), np.sinh(x)
        return _mat2(len(x), sh, 1j * ch, -1j * ch, sh)

    def lam_p(x):
        return _mat2(len(x), 1.0 + 1j * x, -1j * x, 1j * x, 1.0 - 1j * x)

    def lam_p1(x):
        return _mat2(len(x), 1.0 + 1j * x, 1j * x, -1j * x, 1.0 - 1j * x)

    def constant(s, mat):
        return np.broadcast_to(mat, (len(s), 2, 2))

    if family == "e":
        return (lambda s: lam_e(-2.0 * rate * s)), (
            lambda s: -2.0 * rate * lam_e_d(-2.0 * rate * s)
        )
    if family == "h1":
        return (lambda s: lam_h1(2.0 * rate * s)), (
            lambda s: 2.0 * rate * lam_h1_d(2.0 * rate * s)
        )
    if family == "p1":
        lam_p1_d = rate * np.array([[1j, 1j], [-1j, -1j]])
        return (lambda s: lam_p1(rate * s)), (lambda s: constant(s, lam_p1_d))
    if family == "p":
        lam_p_d = -rate * np.array([[1j, -1j], [1j, -1j]])
        return (lambda s: lam_p(-rate * s)), (lambda s: constant(s, lam_p_d))
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
    every parameter choice, which we verify numerically in the tests.  The
    chart is stacked: each factor is a stack of complex 2x2 matrices, one
    per uv row, and the products are stacked matmuls.
    """
    lam, lam_d = _subgroup_factors(family, rate)
    ct = 0.5 * params.kappa**2 if t_rate is None else float(t_rate)
    a_mat = np.eye(2, dtype=complex) if base is None else np.asarray(base, dtype=complex)

    def lam_h(x):
        ch, sh = np.cosh(x), np.sinh(x)
        return _mat2(len(x), ch, sh, sh, ch)

    def lam_h_d(x):
        ch, sh = np.cosh(x), np.sinh(x)
        return _mat2(len(x), sh, ch, ch, sh)

    def lam_e_half(s):
        return _mat2(len(s), np.exp(0.5j * s), 0.0, 0.0, np.exp(-0.5j * s))

    def lam_e_half_d(s):
        return _mat2(len(s), 0.5j * np.exp(0.5j * s), 0.0, 0.0, -0.5j * np.exp(-0.5j * s))

    def point(ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return _rows_to_r4(lam_e_half(ss) @ lam_h(ct * ts) @ (lam(ss) @ a_mat))

    def jacobian(ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        left, mid, right = lam_e_half(ss), lam_h(ct * ts), lam(ss) @ a_mat
        d_s = lam_e_half_d(ss) @ mid @ right + left @ mid @ (lam_d(ss) @ a_mat)
        d_t = left @ (ct * lam_h_d(ct * ts)) @ right
        return np.stack([_rows_to_r4(d_s), _rows_to_r4(d_t)], axis=1)

    label = f"su11-helicoid:family={family},rate={rate:g}"
    if t_rate is not None:
        label += f",t_rate={t_rate:g}"
    return SurfaceChart(
        name=label,
        chart=point,
        domain=domain,
        jacobian=jacobian,
        stacked=True,
    )
