"""Immersed surfaces carrying data for both metrics at once.

The entry point is :func:`frame_data`, which evaluates a parametrized surface
at one parameter pair and returns a :class:`TwoMetricFrameData` holding the
tangent basis, both unit normals, both shape operators and the derived scalar
invariants, together with the residuals of the internal consistency checks
that every accepted sample must satisfy.

Vectors tangent to the surface are represented two ways: as ambient
coordinate components, and as coefficient pairs with respect to the chart
basis (partial_u, partial_v).  Conversion goes through the induced Gram
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ambient import Signature
from .errors import (
    DegenerateInput,
    ImmersionFailure,
    NullDirection,
    NumericFailure,
    OrientationFlip,
)
from .numdiff import FDSteps

CausalCharacter = str
SPACELIKE: CausalCharacter = "spacelike"
TIMELIKE: CausalCharacter = "timelike"
DEGENERATE: CausalCharacter = "degenerate"

DEGENERACY_TOL = 1e-9
SIGN_TIE_TOL = 1e-12
IMMERSION_TOL = 1e-12


@dataclass
class SurfaceChart:
    """A parametrized surface: chart into ambient coordinates plus metadata.

    ``jacobian``, when given, must return the pair of first partials; without
    it the partials come from central differences of ``chart``.  ``domain``
    is the parameter box used by samplers and exporters, not a hard bound.
    """

    name: str
    chart: Callable[[float, float], np.ndarray]
    domain: tuple[tuple[float, float], tuple[float, float]]
    jacobian: Callable[[float, float], tuple[np.ndarray, np.ndarray]] | None = None
    expected: dict = field(default_factory=dict)

    def point(self, u: float, v: float) -> np.ndarray:
        return np.asarray(self.chart(u, v), dtype=float)

    def partials(self, u: float, v: float, h: float) -> tuple[np.ndarray, np.ndarray]:
        if self.jacobian is not None:
            du, dv = self.jacobian(u, v)
            return np.asarray(du, dtype=float), np.asarray(dv, dtype=float)
        du = (self.point(u + h, v) - self.point(u - h, v)) / (2.0 * h)
        dv = (self.point(u, v + h) - self.point(u, v - h)) / (2.0 * h)
        return du, dv


def induced_gram(ambient, sig: Signature, point: np.ndarray, du: np.ndarray, dv: np.ndarray):
    g = ambient.metric(sig, point)
    return np.array(
        [
            [du @ g @ du, du @ g @ dv],
            [dv @ g @ du, dv @ g @ dv],
        ]
    )


def causal_character(ambient, point, du, dv) -> tuple[CausalCharacter, float]:
    """Classify the tangent plane under the Lorentzian metric.

    Returns the character and the normalized Gram determinant used for the
    decision (positive: spacelike, negative: timelike).
    """
    gram_l = induced_gram(ambient, Signature.L, point, du, dv)
    gram_r = induced_gram(ambient, Signature.R, point, du, dv)
    scale = float(gram_r[0, 0] * gram_r[1, 1])
    if scale <= 0.0 or not np.isfinite(scale):
        raise ImmersionFailure(f"chart derivative degenerate at {point!r}")
    ratio = float(np.linalg.det(gram_l)) / scale
    if abs(ratio) <= DEGENERACY_TOL:
        return DEGENERATE, ratio
    return (SPACELIKE if ratio > 0.0 else TIMELIKE), ratio


@dataclass
class NormalData:
    """Pointwise normal package shared by the center and stencil evaluations."""

    point: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    eps: float
    n_l: np.ndarray
    n_r: np.ndarray
    angle_l: float
    angle_r: float
    omega_l: float
    t_l: np.ndarray
    t_r: np.ndarray
    sign_ambiguous: bool
    wedge_agreement: float


def _normal_data(
    ambient,
    chart: SurfaceChart,
    uv: tuple[float, float],
    h_jet: float,
    orientation: int,
    reference: np.ndarray | None,
) -> NormalData:
    u, v = uv
    point = ambient.validate_point(chart.point(u, v))
    du, dv = chart.partials(u, v, h_jet)

    gram_r = induced_gram(ambient, Signature.R, point, du, dv)
    det_r = float(np.linalg.det(gram_r))
    scale_r = float(gram_r[0, 0] * gram_r[1, 1])
    if det_r <= IMMERSION_TOL * max(scale_r, 1e-300):
        raise ImmersionFailure(f"rank-deficient chart derivative at uv={uv!r}")

    char, _ = causal_character(ambient, point, du, dv)
    if char == DEGENERATE:
        raise DegenerateInput(f"degenerate tangent plane at uv={uv!r}")
    eps = 1.0 if char == TIMELIKE else -1.0

    xi = ambient.fiber_direction(point)

    w_l = ambient.wedge(Signature.L, point, du, dv)
    nn = ambient.inner(Signature.L, point, w_l, w_l)
    if abs(nn) <= 0.0:
        raise DegenerateInput(f"null Lorentzian normal direction at uv={uv!r}")
    n_l = w_l / math.sqrt(abs(nn))
    angle_l = ambient.inner(Signature.L, point, n_l, xi)

    sign_ambiguous = False
    if reference is not None:
        if float(np.dot(n_l, reference)) < 0.0:
            n_l = -n_l
            angle_l = -angle_l
    elif abs(angle_l) <= SIGN_TIE_TOL:
        sign_ambiguous = True
        if orientation < 0:
            n_l = -n_l
            angle_l = -angle_l
    elif angle_l > 0.0:
        n_l = -n_l
        angle_l = -angle_l

    omega_sq = eps + 2.0 * angle_l * angle_l
    if omega_sq <= 0.0:
        raise NumericFailure(f"invalid normal stretch at uv={uv!r}: {omega_sq}")
    omega_l = math.sqrt(omega_sq)

    n_r = (-2.0 * angle_l * xi - n_l) / omega_l
    angle_r = ambient.inner(Signature.R, point, n_r, xi)

    w_r = ambient.wedge(Signature.R, point, du, dv)
    n_r_wedge = w_r / math.sqrt(ambient.inner(Signature.R, point, w_r, w_r))
    dev = min(
        float(np.max(np.abs(n_r - n_r_wedge))),
        float(np.max(np.abs(n_r + n_r_wedge))),
    )

    t_l = xi - eps * angle_l * n_l
    t_r = xi - angle_r * n_r

    return NormalData(
        point=point,
        du=du,
        dv=dv,
        eps=eps,
        n_l=n_l,
        n_r=n_r,
        angle_l=angle_l,
        angle_r=angle_r,
        omega_l=omega_l,
        t_l=t_l,
        t_r=t_r,
        sign_ambiguous=sign_ambiguous,
        wedge_agreement=dev,
    )


@dataclass
class ShapeData:
    """One metric's shape operator in the chart basis, with route diagnostics."""

    weingarten: np.ndarray
    bilinear: np.ndarray
    from_bilinear: np.ndarray
    route_deviation: float
    projection_residual: float
    symmetry_residual: float


class TwoMetricFrameData:
    """All pointwise data of an immersed surface for both metrics.

    Construct through :func:`frame_data`.  Shape operators and stencil-based
    derivatives are computed lazily and cached; scalar invariants are exposed
    as properties.
    """

    def __init__(
        self,
        ambient,
        chart: SurfaceChart,
        uv: tuple[float, float],
        steps: FDSteps,
        orientation: int,
    ):
        self.ambient = ambient
        self.chart = chart
        self.uv = (float(uv[0]), float(uv[1]))
        self.steps = steps
        self.orientation = orientation
        self.flags: list[str] = []

        center = _normal_data(ambient, chart, self.uv, steps.first, orientation, None)
        self.center = center
        self.point = center.point
        self.du = center.du
        self.dv = center.dv
        self.eps = center.eps
        self.character = TIMELIKE if center.eps > 0 else SPACELIKE
        self.n_l = center.n_l
        self.n_r = center.n_r
        self.angle_l = center.angle_l
        self.angle_r = center.angle_r
        self.omega_l = center.omega_l
        self.omega_r = 1.0 / center.omega_l
        self.t_l = center.t_l
        self.t_r = center.t_r
        if center.sign_ambiguous:
            self.flags.append("SIGN_AMBIGUOUS")

        self.gram = {
            Signature.R: induced_gram(ambient, Signature.R, self.point, self.du, self.dv),
            Signature.L: induced_gram(ambient, Signature.L, self.point, self.du, self.dv),
        }
        self._shape: dict[Signature, ShapeData] = {}
        self._stencil: dict[tuple[int, int], NormalData] = {}
        self._tangent_derivs: dict = {}
        self.invariants = self._invariant_residuals()

    # -- tangent algebra ----------------------------------------------------

    def inner(self, sig: Signature, a: np.ndarray, b: np.ndarray) -> float:
        return self.ambient.inner(sig, self.point, a, b)

    def coeffs(self, sig: Signature, vec: np.ndarray) -> np.ndarray:
        """Chart-basis coefficients of a tangent vector (Gram projection)."""
        rhs = np.array([self.inner(sig, vec, self.du), self.inner(sig, vec, self.dv)])
        return np.linalg.solve(self.gram[sig], rhs)

    def embed(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs[0] * self.du + coeffs[1] * self.dv

    def coeff_inner(self, sig: Signature, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.asarray(a) @ self.gram[sig] @ np.asarray(b))

    def normal(self, sig: Signature) -> np.ndarray:
        return self.n_r if sig is Signature.R else self.n_l

    def tangential(self, sig: Signature, vec: np.ndarray) -> np.ndarray:
        """Tangential part of an ambient vector, as chart coefficients."""
        return self.coeffs(sig, vec)

    def rotation(self, sig: Signature) -> np.ndarray:
        """Matrix of X -> N ^ X on the tangent plane, chart basis."""
        cols = []
        for base in (self.du, self.dv):
            w = self.ambient.wedge(sig, self.point, self.normal(sig), base)
            cols.append(self.coeffs(sig, w))
        return np.column_stack(cols)

    def tangent_part_t(self, sig: Signature) -> np.ndarray:
        return self.t_r if sig is Signature.R else self.t_l

    # -- stencil ------------------------------------------------------------

    def stencil_normals(self, axis: int, step: int) -> NormalData:
        """Normal data at uv shifted by ``step`` times the stencil step along ``axis``.

        Signs are continued from the center; a material sign change of the
        Lorentzian normal angle across the stencil raises OrientationFlip.
        """
        key = (axis, step)
        hit = self._stencil.get(key)
        if hit is not None:
            return hit
        if step == 0:
            self._stencil[key] = self.center
            return self.center
        h = self.steps.second
        uv = list(self.uv)
        uv[axis] += step * h
        nd = _normal_data(
            self.ambient,
            self.chart,
            (uv[0], uv[1]),
            self.steps.first,
            self.orientation,
            self.n_l,
        )
        if (
            abs(nd.angle_l) > SIGN_TIE_TOL
            and abs(self.angle_l) > SIGN_TIE_TOL
            and nd.angle_l * self.angle_l < 0.0
        ):
            raise OrientationFlip(
                f"normal angle changes sign across stencil at uv={self.uv!r}"
            )
        self._stencil[key] = nd
        return nd

    def _curve(self, axis: int):
        u0, v0 = self.uv
        if axis == 0:
            return lambda t: self.chart.point(u0 + t, v0)
        return lambda t: self.chart.point(u0, v0 + t)

    def _stencil_field(self, axis: int, extract) -> Callable[[float], np.ndarray]:
        h = self.steps.second

        def field(t: float) -> np.ndarray:
            step = int(round(t / h))
            if abs(step * h - t) > 1e-15 + 1e-9 * h:
                raise NumericFailure("stencil field sampled off-grid")
            return extract(self.stencil_normals(axis, step))

        return field

    # -- shape operators ------------------------------------------------------

    def shape(self, sig: Signature) -> ShapeData:
        hit = self._shape.get(sig)
        if hit is not None:
            return hit
        h = self.steps.second
        velocity = (self.du, self.dv)
        pick = (lambda nd: nd.n_r) if sig is Signature.R else (lambda nd: nd.n_l)

        cols = []
        proj_res = 0.0
        for axis in (0, 1):
            dn = self.ambient.cov_deriv_on_curve(
                sig, self._curve(axis), self._stencil_field(axis, pick), h,
                velocity=velocity[axis],
            )
            normal_part = abs(self.inner(sig, dn, self.normal(sig)))
            size = float(np.max(np.abs(dn)))
            proj_res = max(proj_res, normal_part / max(1.0, size))
            cols.append(-self.coeffs(sig, dn))
        weingarten = np.column_stack(cols)

        b = np.empty((2, 2))
        for i in (0, 1):
            for j in (0, 1):
                dd = self.ambient.cov_deriv_on_curve(
                    sig,
                    self._curve(i),
                    self._stencil_field(i, lambda nd, j=j: nd.du if j == 0 else nd.dv),
                    h,
                    velocity=velocity[i],
                )
                b[i, j] = self.inner(sig, dd, self.normal(sig))
        sym_res = abs(b[0, 1] - b[1, 0]) / max(1.0, float(np.max(np.abs(b))))
        b_sym = 0.5 * (b + b.T)
        from_bilinear = np.linalg.solve(self.gram[sig], b_sym)
        dev = float(np.max(np.abs(weingarten - from_bilinear)))
        dev /= max(1.0, float(np.max(np.abs(weingarten))))
        data = ShapeData(
            weingarten=weingarten,
            bilinear=b_sym,
            from_bilinear=from_bilinear,
            route_deviation=dev,
            projection_residual=proj_res,
            symmetry_residual=sym_res,
        )
        self._shape[sig] = data
        return data

    def mean_curvature(self, sig: Signature) -> float:
        tr = float(np.trace(self.shape(sig).weingarten))
        if sig is Signature.L:
            return 0.5 * self.eps * tr
        return 0.5 * tr

    def extrinsic_curvature(self, sig: Signature) -> float:
        return float(np.linalg.det(self.shape(sig).weingarten))

    @property
    def h_r(self) -> float:
        return self.mean_curvature(Signature.R)

    @property
    def h_l(self) -> float:
        return self.mean_curvature(Signature.L)

    # -- derivatives of the tangential fiber data -----------------------------

    def tangent_derivatives(self, sig: Signature) -> dict:
        """Surface covariant derivative of T and the derivative of the angle.

        Returns ``{"dt": [coeff pair per axis], "dangle": [per axis]}`` where
        the covariant derivative is projected to the tangent plane of ``sig``.
        """
        hit = self._tangent_derivs.get(sig)
        if hit is not None:
            return hit
        h = self.steps.second
        velocity = (self.du, self.dv)
        pick_t = (lambda nd: nd.t_r) if sig is Signature.R else (lambda nd: nd.t_l)
        pick_a = (lambda nd: nd.angle_r) if sig is Signature.R else (lambda nd: nd.angle_l)

        dts = []
        dangles = []
        for axis in (0, 1):
            dt_amb = self.ambient.cov_deriv_on_curve(
                sig, self._curve(axis), self._stencil_field(axis, pick_t), h,
                velocity=velocity[axis],
            )
            dts.append(self.coeffs(sig, dt_amb))
            a1 = pick_a(self.stencil_normals(axis, 1))
            a2 = pick_a(self.stencil_normals(axis, 2))
            am1 = pick_a(self.stencil_normals(axis, -1))
            am2 = pick_a(self.stencil_normals(axis, -2))
            dangles.append((am2 - a2 + 8.0 * (a1 - am1)) / (12.0 * h))
        out = {"dt": dts, "dangle": dangles}
        self._tangent_derivs[sig] = out
        return out

    # -- normal curvature ------------------------------------------------------

    def normal_curvature(self, sig: Signature, coeffs: np.ndarray) -> float:
        """Normal curvature along a tangent direction given in chart coefficients.

        The direction is normalized with the metric of ``sig``; for the
        Lorentzian metric the sign of its squared length multiplies the
        quotient, and null directions are rejected.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        qq = self.coeff_inner(sig, coeffs, coeffs)
        scale = float(np.max(np.abs(self.gram[sig]))) * float(np.max(np.abs(coeffs)) ** 2)
        if sig is Signature.L:
            if abs(qq) <= 1e-12 * max(scale, 1e-300):
                raise NullDirection("null direction has no normal curvature")
            unit = coeffs / math.sqrt(abs(qq))
            sgn = 1.0 if qq > 0 else -1.0
            a_unit = self.shape(sig).weingarten @ unit
            return sgn * self.coeff_inner(sig, a_unit, unit)
        if qq <= 0.0:
            raise NumericFailure("Riemannian direction with nonpositive square")
        unit = coeffs / math.sqrt(qq)
        a_unit = self.shape(sig).weingarten @ unit
        return self.coeff_inner(sig, a_unit, unit)

    # -- consistency ------------------------------------------------------------

    def _invariant_residuals(self) -> dict[str, float]:
        amb, p = self.ambient, self.point
        xi = amb.fiber_direction(p)
        res = {}
        res["unit_normal_L"] = abs(amb.inner(Signature.L, p, self.n_l, self.n_l) - self.eps)
        res["unit_normal_R"] = abs(amb.inner(Signature.R, p, self.n_r, self.n_r) - 1.0)
        res["normal_routes"] = self.center.wedge_agreement
        res["angle_transform"] = abs(self.angle_r + self.angle_l / self.omega_l)
        arg = self.eps * (1.0 - 2.0 * self.angle_r**2)
        res["omega_product"] = (
            abs(self.omega_l * math.sqrt(arg) - 1.0) if arg > 0.0 else float("inf")
        )
        res["t_split_R"] = abs(
            amb.inner(Signature.R, p, self.t_r, self.t_r) + self.angle_r**2 - 1.0
        )
        res["t_split_L"] = abs(
            amb.inner(Signature.L, p, self.t_l, self.t_l) + self.eps * self.angle_l**2 + 1.0
        )
        res["t_relation"] = float(
            np.max(np.abs(self.t_r - (self.eps / self.omega_l**2) * self.t_l))
        )
        res["t_tangency_R"] = abs(amb.inner(Signature.R, p, self.t_r, self.n_r))
        res["t_tangency_L"] = abs(amb.inner(Signature.L, p, self.t_l, self.n_l))
        res["branch"] = max(0.0, 1.0 - self.omega_l)
        return res

    def validate(self, tol: float = 1e-9, unit_tol: float = 1e-10) -> None:
        """Raise NumericFailure if any internal consistency residual is too large."""
        bad = {}
        for key, val in self.invariants.items():
            limit = unit_tol if key.startswith("unit_normal") else tol
            if not (val <= limit):
                bad[key] = val
        if bad:
            raise NumericFailure(f"frame data inconsistent at uv={self.uv!r}: {bad}")


def frame_data(
    ambient,
    chart: SurfaceChart,
    uv: tuple[float, float],
    steps: FDSteps | None = None,
    orientation: int = 1,
    validate: bool = True,
) -> TwoMetricFrameData:
    """Evaluate the two-metric surface data at one parameter pair."""
    steps = steps if steps is not None else getattr(ambient, "steps", None) or FDSteps.from_env()
    data = TwoMetricFrameData(ambient, chart, uv, steps, orientation)
    if validate:
        data.validate()
    return data
