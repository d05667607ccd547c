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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ambient import PointFrame, Signature, stacked_inner, wedge_frame
from .errors import (
    DegenerateInput,
    GeometryError,
    ImmersionFailure,
    NullDirection,
    NumericFailure,
    OrientationFlip,
)
from .numdiff import STENCIL_STEPS, stencil_derivative

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
    return _classify(float(gram_r[0, 0] * gram_r[1, 1]), float(np.linalg.det(gram_l)), point)


def _classify(scale: float, det_l: float, point) -> tuple[CausalCharacter, float]:
    """``causal_character`` from gram_R[0, 0] * gram_R[1, 1] and det(gram_L)."""
    if scale <= 0.0 or not np.isfinite(scale):
        raise ImmersionFailure(f"chart derivative degenerate at {point!r}")
    ratio = det_l / scale
    if abs(ratio) <= DEGENERACY_TOL:
        return DEGENERATE, ratio
    return (SPACELIKE if ratio > 0.0 else TIMELIKE), ratio


# Vectors of the normal package that the stencil differentiates, by position
# in the stacked components.
STENCIL_FIELDS = ("n_r", "n_l", "du", "dv", "t_r", "t_l")


@dataclass
class NormalData:
    """Normal package of a stack of uv rows; array fields have a leading row axis.

    ``errors[i]`` is the GeometryError that row i raised, or None.  The
    arrays hold the rows that got past the chart (``rows`` are their
    indices); their values are meaningful only for rows without an error.
    """

    errors: list
    rows: list
    point: np.ndarray
    frame: np.ndarray
    g_r: np.ndarray
    g_l: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    gram_r: np.ndarray
    gram_l: np.ndarray
    eps: np.ndarray
    n_l: np.ndarray
    n_r: np.ndarray
    angle_l: np.ndarray
    angle_r: np.ndarray
    omega_l: np.ndarray
    t_l: np.ndarray
    t_r: np.ndarray
    sign_ambiguous: np.ndarray
    wedge_agreement: np.ndarray | None

    def first_error(self) -> GeometryError | None:
        return next((err for err in self.errors if err is not None), None)


def _grams(g: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Stacked ``induced_gram`` from metrics g (n, dim, dim) and (du, dv) pairs (n, 2, dim).

    Entry [a, b] is (pair[a] @ g) @ pair[b], the products ``stacked_inner`` forms.
    """
    rows = pair[:, :, None, None, :] @ g[:, None, None]
    return (rows @ pair[:, None, :, :, None])[..., 0, 0]


def _charted(ambient, chart: SurfaceChart, uvs: list[tuple[float, float]], h_jet: float):
    """Points, chart partials, each uv row's GeometryError (or None) and the rows kept."""
    errors: list[GeometryError | None] = [None] * len(uvs)
    rows, charted = [], []
    for i, (u, v) in enumerate(uvs):
        try:
            point = ambient.validate_point(chart.point(u, v))
            charted.append((point, *chart.partials(u, v, h_jet)))
        except GeometryError as exc:
            errors[i] = exc
            continue
        rows.append(i)
    point = np.array([c[0] for c in charted]).reshape(-1, ambient.dim)
    pair = np.array([c[1:] for c in charted]).reshape(-1, 2, ambient.dim)
    return point, pair, errors, rows


def _normal_data(
    ambient,
    chart: SurfaceChart,
    uvs: list[tuple[float, float]],
    h_jet: float,
    orientation: int,
    reference: np.ndarray | None = None,
    routes: bool = False,
) -> NormalData:
    """Unit normals, normal angles and T-fields of a stack of uv rows, in one array pass.

    Only the chart is evaluated row by row.  Each row meets the checks of a
    single-point evaluation in the same order, and the first one it fails
    becomes its error; a row that failed computes on, unread, which is why
    floating-point warnings are off.  With ``reference`` the Lorentzian
    normal takes the sign closer to it, otherwise the sign rule of the
    orientation.  ``routes`` adds the agreement of the Riemannian normal with
    its own wedge route.
    """
    point, pair, errors, rows = _charted(ambient, chart, uvs, h_jet)
    du, dv = pair[:, 0], pair[:, 1]
    frame = ambient.frames(point)
    g_r, g_l = ambient.metrics(Signature.R, point), ambient.metrics(Signature.L, point)
    alive = [True] * len(rows)

    def fail(j: int, error: GeometryError) -> None:
        if alive[j]:
            errors[rows[j]] = error
            alive[j] = False

    def at(j: int) -> str:
        return f"uv={uvs[rows[j]]!r}"

    with np.errstate(all="ignore"):
        gram_r = _grams(g_r, pair)
        gram_l = _grams(g_l, pair)
        scale = (gram_r[:, 0, 0] * gram_r[:, 1, 1]).tolist()
        dets = zip(np.linalg.det(gram_r).tolist(), scale, np.linalg.det(gram_l).tolist())
        eps = np.ones(len(rows))
        for j, (det_r, sc, det_l) in enumerate(dets):
            try:
                if det_r <= IMMERSION_TOL * max(sc, 1e-300):
                    raise ImmersionFailure(f"rank-deficient chart derivative at {at(j)}")
                char, _ = _classify(sc, det_l, point[j])
                if char == DEGENERATE:
                    raise DegenerateInput(f"degenerate tangent plane at {at(j)}")
            except GeometryError as exc:
                fail(j, exc)
                continue
            eps[j] = 1.0 if char == TIMELIKE else -1.0

        # The unit fiber direction is the third frame leg in both models.
        xi = frame[:, :, 2]
        pair_f = ambient.to_frames(point, pair, frames=frame, metric_r=g_r)
        w_l = ambient.to_coords(
            point, wedge_frame(Signature.L, pair_f[:, 0], pair_f[:, 1]), frames=frame
        )
        nn = stacked_inner(g_l, w_l, w_l)
        for j, q in enumerate(nn.tolist()):
            if abs(q) <= 0.0:
                fail(j, DegenerateInput(f"null Lorentzian normal direction at {at(j)}"))
        n_l = w_l / np.sqrt(np.abs(nn))[:, None]
        angle_l = stacked_inner(g_l, n_l, xi)

        if reference is not None:
            flip = (n_l[:, None, :] @ reference[:, None])[:, 0, 0] < 0.0
            sign_ambiguous = np.zeros(len(rows), dtype=bool)
        else:
            sign_ambiguous = np.abs(angle_l) <= SIGN_TIE_TOL
            flip = np.where(sign_ambiguous, orientation < 0, angle_l > 0.0)
        n_l = np.where(flip[:, None], -n_l, n_l)
        angle_l = np.where(flip, -angle_l, angle_l)

        omega_sq = eps + 2.0 * angle_l * angle_l
        for j, w in enumerate(omega_sq.tolist()):
            if w <= 0.0:
                fail(j, NumericFailure(f"invalid normal stretch at {at(j)}: {w}"))
        omega_l = np.sqrt(omega_sq)
        n_r = (-2.0 * angle_l[:, None] * xi - n_l) / omega_l[:, None]
        angle_r = stacked_inner(g_r, n_r, xi)

        agreement = None
        if routes:
            w_r = ambient.to_coords(
                point, wedge_frame(Signature.R, pair_f[:, 0], pair_f[:, 1]), frames=frame
            )
            n_r_wedge = w_r / np.sqrt(stacked_inner(g_r, w_r, w_r))[:, None]
            apart = np.max(np.abs(n_r - n_r_wedge), axis=1).tolist()
            opposed = np.max(np.abs(n_r + n_r_wedge), axis=1).tolist()
            agreement = np.array([min(a, b) for a, b in zip(apart, opposed)])

        t_l = xi - (eps * angle_l)[:, None] * n_l
        t_r = xi - angle_r[:, None] * n_r

    return NormalData(
        errors=errors,
        rows=rows,
        point=point,
        frame=frame,
        g_r=g_r,
        g_l=g_l,
        du=du,
        dv=dv,
        gram_r=gram_r,
        gram_l=gram_l,
        eps=eps,
        n_l=n_l,
        n_r=n_r,
        angle_l=angle_l,
        angle_r=angle_r,
        omega_l=omega_l,
        t_l=t_l,
        t_r=t_r,
        sign_ambiguous=sign_ambiguous,
        wedge_agreement=agreement,
    )


class TwoMetricFrameData(PointFrame):
    """All pointwise data of an immersed surface for both metrics.

    Construct through :func:`frame_data`.  It is the PointFrame of the sample
    point, with the frame and metrics of the stacked center evaluation.
    Shape operators and stencil-based derivatives are computed lazily and
    cached; scalar invariants are exposed as properties.
    """

    def __init__(
        self,
        ambient,
        chart: SurfaceChart,
        uv: tuple[float, float],
        orientation: int,
    ):
        self.ambient = ambient
        self.chart = chart
        self.uv = (float(uv[0]), float(uv[1]))
        self.steps = ambient.steps
        self.orientation = orientation
        self.flags: list[str] = []

        center = _normal_data(ambient, chart, [self.uv], self.steps.first, orientation, routes=True)
        if center.errors[0] is not None:
            raise center.errors[0]
        metric = {Signature.R: center.g_r[0], Signature.L: center.g_l[0]}
        super().__init__(ambient, center.point[0], center.frame[0], metric)
        self.center = center
        self.xi = ambient.fiber_direction(self.point)
        self.du = center.du[0]
        self.dv = center.dv[0]
        self.eps = float(center.eps[0])
        self.character = TIMELIKE if self.eps > 0 else SPACELIKE
        self.n_l = center.n_l[0]
        self.n_r = center.n_r[0]
        self.angle_l = float(center.angle_l[0])
        self.angle_r = float(center.angle_r[0])
        self.omega_l = float(center.omega_l[0])
        self.omega_r = 1.0 / self.omega_l
        self.t_l = center.t_l[0]
        self.t_r = center.t_r[0]
        if center.sign_ambiguous[0]:
            self.flags.append("SIGN_AMBIGUOUS")

        self.gram = {Signature.R: center.gram_r[0], Signature.L: center.gram_l[0]}
        self._shape: dict[Signature, np.ndarray] = {}
        self._stencil_rows: NormalData | None = None
        self._stencil_comps: np.ndarray | None = None
        self._tangent_derivs: dict = {}
        self._frame_of: dict[str, np.ndarray] = {}
        # Curvature scalars, filled and reused by identities.curvature_suite.
        self.curvature_scalars: dict | None = None
        self.invariants = self._invariant_residuals()

    # -- tangent algebra ----------------------------------------------------

    def frame_of(self, name: str) -> np.ndarray:
        """Frame components of a named vector (one of ``STENCIL_FIELDS`` or "xi"), kept."""
        hit = self._frame_of.get(name)
        if hit is None:
            hit = self._frame_of[name] = self.to_frame(getattr(self, name))
        return hit

    def curve_frame(self) -> PointFrame:
        """The PointFrame where ``ambient.curve_through(point, x)`` starts, for any x.

        A group-model curve starts at point / sqrt(quadric(point)), which is
        not always bitwise the point; elsewhere this is the point itself.
        """
        return self._curve_start or self

    @functools.cached_property
    def _curve_start(self) -> PointFrame | None:
        # None for this point itself: holding self would make a reference cycle.
        start = self.ambient.curve_through(self.point, np.zeros(self.ambient.dim))(0.0)
        return None if np.array_equal(start, self.point) else PointFrame(self.ambient, start)

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

    def rotate(self, sig: Signature, vf: np.ndarray) -> np.ndarray:
        """N ^ X for X given by its frame components, in coordinates."""
        n_name = "n_r" if sig is Signature.R else "n_l"
        return self.to_coord(wedge_frame(sig, self.frame_of(n_name), vf))

    def rotation(self, sig: Signature) -> np.ndarray:
        """Matrix of X -> N ^ X on the tangent plane, chart basis."""
        cols = [self.coeffs(sig, self.rotate(sig, self.frame_of(b))) for b in ("du", "dv")]
        return np.column_stack(cols)

    def tangent_part_t(self, sig: Signature) -> np.ndarray:
        return self.t_r if sig is Signature.R else self.t_l

    # -- stencil ------------------------------------------------------------

    def stencil(self) -> NormalData:
        """Normal data of the eight stencil rows, computed in one pass on first use.

        Rows run along chart axis 0, then 1, at ``STENCIL_STEPS`` times the
        stencil step.  Signs are continued from the center; a material sign
        change of the Lorentzian normal angle across the stencil is that
        row's OrientationFlip.  The first row error in this order is raised
        on every call, as evaluating the rows one by one would raise it.
        """
        st = self._stencil_rows
        if st is None:
            h = self.steps.second
            uvs = []
            for axis in (0, 1):
                for k in STENCIL_STEPS:
                    uv = list(self.uv)
                    uv[axis] += k * h
                    uvs.append((uv[0], uv[1]))
            st = _normal_data(
                self.ambient, self.chart, uvs, self.steps.first, self.orientation, self.n_l
            )
            for i, angle in zip(st.rows, st.angle_l.tolist()):
                if (
                    st.errors[i] is None
                    and abs(angle) > SIGN_TIE_TOL
                    and abs(self.angle_l) > SIGN_TIE_TOL
                    and angle * self.angle_l < 0.0
                ):
                    st.errors[i] = OrientationFlip(
                        f"normal angle changes sign across stencil at uv={self.uv!r}"
                    )
            self._stencil_rows = st
        err = st.first_error()
        if err is not None:
            raise err.with_traceback(None)
        return st

    def _stencil_derivs(self, sig: Signature, axis: int, names: tuple[str, ...]) -> np.ndarray:
        """Covariant derivatives along chart axis ``axis`` of named STENCIL_FIELDS, (k, dim).

        The first call converts all six fields at the center and the stencil
        rows to the ambient's stencil components in one stacked call.
        """
        comps = self._stencil_comps
        if comps is None:
            st = self.stencil()
            points = np.concatenate([self.center.point, st.point])
            vecs = np.stack(
                [np.concatenate([getattr(self.center, f), getattr(st, f)]) for f in STENCIL_FIELDS],
                axis=1,
            )
            frames = np.concatenate([self.center.frame, st.frame])
            comps = self._stencil_comps = self.ambient.stencil_components(points, vecs, frames)
        which = [STENCIL_FIELDS.index(name) for name in names]
        along = ("du", "dv")[axis]
        return self.ambient.cov_deriv_stencil(
            sig,
            self,
            getattr(self, along),
            comps[0, which],
            comps[1 + 4 * axis : 5 + 4 * axis][:, which],
            self.steps.second,
            vel_f=self.frame_of(along),
        )

    # -- shape operators ------------------------------------------------------

    def shape(self, sig: Signature) -> np.ndarray:
        """The 2x2 Weingarten matrix of ``sig`` in the chart basis, kept.

        Column ``axis`` is minus the chart coefficients of the covariant
        derivative of the unit normal along that chart axis.
        """
        hit = self._shape.get(sig)
        if hit is None:
            n_name = "n_r" if sig is Signature.R else "n_l"
            cols = []
            for axis in (0, 1):
                (dn,) = self._stencil_derivs(sig, axis, (n_name,))
                cols.append(-self.coeffs(sig, dn))
            hit = self._shape[sig] = np.column_stack(cols)
        return hit

    def mean_curvature(self, sig: Signature) -> float:
        tr = float(np.trace(self.shape(sig)))
        if sig is Signature.L:
            return 0.5 * self.eps * tr
        return 0.5 * tr

    def extrinsic_curvature(self, sig: Signature) -> float:
        return float(np.linalg.det(self.shape(sig)))

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
        t_name = "t_r" if sig is Signature.R else "t_l"
        st = self.stencil()
        angles = (st.angle_r if sig is Signature.R else st.angle_l).tolist()

        dts = []
        dangles = []
        for axis in (0, 1):
            (dt_amb,) = self._stencil_derivs(sig, axis, (t_name,))
            dts.append(self.coeffs(sig, dt_amb))
            dangles.append(stencil_derivative(angles[4 * axis : 4 * axis + 4], h))
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
            a_unit = self.shape(sig) @ unit
            return sgn * self.coeff_inner(sig, a_unit, unit)
        if qq <= 0.0:
            raise NumericFailure("Riemannian direction with nonpositive square")
        unit = coeffs / math.sqrt(qq)
        a_unit = self.shape(sig) @ unit
        return self.coeff_inner(sig, a_unit, unit)

    # -- consistency ------------------------------------------------------------

    def _invariant_residuals(self) -> dict[str, float]:
        res = {}
        res["unit_normal_L"] = abs(self.inner(Signature.L, self.n_l, self.n_l) - self.eps)
        res["unit_normal_R"] = abs(self.inner(Signature.R, self.n_r, self.n_r) - 1.0)
        res["normal_routes"] = float(self.center.wedge_agreement[0])
        res["angle_transform"] = abs(self.angle_r + self.angle_l / self.omega_l)
        arg = self.eps * (1.0 - 2.0 * self.angle_r**2)
        res["omega_product"] = (
            abs(self.omega_l * math.sqrt(arg) - 1.0) if arg > 0.0 else float("inf")
        )
        res["t_split_R"] = abs(self.inner(Signature.R, self.t_r, self.t_r) + self.angle_r**2 - 1.0)
        res["t_split_L"] = abs(
            self.inner(Signature.L, self.t_l, self.t_l) + self.eps * self.angle_l**2 + 1.0
        )
        res["t_relation"] = float(
            np.max(np.abs(self.t_r - (self.eps / self.omega_l**2) * self.t_l))
        )
        res["t_tangency_R"] = abs(self.inner(Signature.R, self.t_r, self.n_r))
        res["t_tangency_L"] = abs(self.inner(Signature.L, self.t_l, self.n_l))
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
    orientation: int = 1,
    validate: bool = True,
) -> TwoMetricFrameData:
    """Evaluate the two-metric surface data at one parameter pair, with the ambient's steps."""
    data = TwoMetricFrameData(ambient, chart, uv, orientation)
    if validate:
        data.validate()
    return data
