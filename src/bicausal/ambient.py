"""Coordinate model of the shared homogeneous 3-space and its two metrics.

One parameter pair (kappa, tau) fixes a domain in R^3 and two metrics on it:
a Riemannian one ("R") and a Lorentzian one ("L") that differ only in the
sign of the square of the fiber 1-form.  Both admit the same canonical
orthonormal frame whose third leg is the unit fiber direction; frame
components are therefore the common currency of every computation here.

Conventions fixed in this module:

* ``Signature.R`` / ``Signature.L`` select the metric; the frame Gram matrix
  is diag(1, 1, +1) resp. diag(1, 1, -1).
* The vector product ``wedge_frame`` of either metric is defined by
  <u ^ v, w> = det(u, v, w) in positively oriented frame components.
* The curvature operator ``curvature_frame`` uses the convention in which
  the sectional curvature of a plane spanned by suitable unit vectors u, v
  is <R(u, v)u, v> with a plus sign.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigInvalid, DomainViolation
from .numdiff import (
    FDSteps,
    christoffels,
    stencil_derivative,
    stencil_params,
    stencil_values,
)

DOMAIN_MARGIN = 1e-6


class Signature(str, enum.Enum):
    """Which of the two metrics on the shared domain is meant."""

    R = "R"
    L = "L"

    @property
    def eps3(self) -> float:
        """Sign of the squared norm of the unit fiber direction."""
        return 1.0 if self is Signature.R else -1.0

    @property
    def other(self) -> "Signature":
        """The opposite signature: the mirror side of each transformation law."""
        return Signature.L if self is Signature.R else Signature.R


SIGNATURES = (Signature.R, Signature.L)


def frame_gram(sig: Signature) -> np.ndarray:
    return np.diag([1.0, 1.0, sig.eps3])


@dataclass(frozen=True)
class SpaceParams:
    """Curvature parameters of the model: base curvature kappa, bundle twist tau."""

    kappa: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.tau)):
            raise ConfigInvalid(f"parameters must be finite, got {self.kappa}, {self.tau}")

    @property
    def twist_rate(self) -> float:
        """Rotation rate of the horizontal frame legs along the fiber.

        Equals kappa / (2 tau) when tau != 0.  In the product case tau = 0 the
        frame does not rotate, which the value 0 encodes.
        """
        if self.tau == 0.0:
            return 0.0
        return self.kappa / (2.0 * self.tau)

    @property
    def disk_radius(self) -> float | None:
        """Radius of the base disk when kappa < 0, else None (all of R^2)."""
        if self.kappa < 0.0:
            return 2.0 / math.sqrt(-self.kappa)
        return None

    def key(self) -> tuple[float, float]:
        return (self.kappa, self.tau)

    def label(self) -> str:
        return f"{self.kappa:g},{self.tau:g}"


def wedge_frame(sig: Signature, uf: np.ndarray, vf: np.ndarray) -> np.ndarray:
    """Vector product in frame components, defined by <u^v, w>_sig = det(u, v, w).

    For the Riemannian metric this is the ordinary cross product; for the
    Lorentzian one the third component acquires the sign of the fiber leg.
    Leading batch axes are kept.
    """
    c = _cross(uf, vf)
    if sig is Signature.L:
        c[..., 2] = -c[..., 2]
    return c


def _cross(a, b) -> np.ndarray:
    """Cross product over the last axis of two stacks of 3-vectors.

    Same products and differences, in the same order, as ``np.cross``, so the
    same bits, without its per-call axis handling.
    """
    a, b = np.asarray(a), np.asarray(b)
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    out = np.empty(a.shape)
    last = out.T
    last[0] = a1 * b2 - a2 * b1
    last[1] = a2 * b0 - a0 * b2
    last[2] = a0 * b1 - a1 * b0
    return out


def split_frame(vf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split frame components (..., 3) into horizontal and vertical (fiber) parts."""
    h = np.array(vf, dtype=float)
    h[..., 2] = 0.0
    v = np.zeros(h.shape)
    v[..., 2] = np.asarray(vf, dtype=float)[..., 2]
    return h, v


def connection_gap_frame(tau: float, xf: np.ndarray, yf: np.ndarray) -> np.ndarray:
    """Difference of the two Levi-Civita connections as a tensor, frame components.

    Bilinear in the two arguments; vanishes identically when tau = 0 and
    whenever both arguments are horizontal or both are vertical.  Leading
    batch axes are kept.
    """
    xh, xv = split_frame(np.asarray(xf, dtype=float))
    yh, yv = split_frame(np.asarray(yf, dtype=float))
    return 2.0 * tau * (_cross(xh, yv) - _cross(xv, yh))


def curvature_frame(
    params: SpaceParams, sig: Signature, xf: np.ndarray, yf: np.ndarray, zf: np.ndarray
) -> np.ndarray:
    """Curvature operator R(x, y)z of the chosen metric, in frame components.

    Valid at every point of the model because the coefficients are constant in
    the canonical frame.  Sign convention: <R(u, v)u, v> is the sectional
    curvature of a nondegenerate plane spanned by an adapted pair u, v.
    Leading batch axes are kept, and each row rounds as it would alone.
    """
    k, t = params.kappa, params.tau
    g = frame_gram(sig)
    x = np.asarray(xf, dtype=float)
    y = np.asarray(yf, dtype=float)
    z = np.asarray(zf, dtype=float)
    fiber = np.array([0.0, 0.0, 1.0])
    e3 = sig.eps3

    def ip(a, b):
        # (a @ g) @ b per vector, kept as a trailing axis of one
        return ((a[..., None, :] @ g) @ b[..., None])[..., 0]

    xz, yz = ip(x, z), ip(y, z)
    xv, yv, zv = e3 * x[..., 2:], e3 * y[..., 2:], e3 * z[..., 2:]

    if sig is Signature.R:
        c0, c1 = k - 3.0 * t * t, k - 4.0 * t * t
        out = c0 * (xz * y - yz * x)
        out = out + c1 * (zv * (yv * x - xv * y) + (yz * xv - xz * yv) * fiber)
    else:
        c0, c1 = k + 3.0 * t * t, k + 4.0 * t * t
        out = c0 * (xz * y - yz * x)
        out = out - c1 * (zv * (yv * x - xv * y) + (yz * xv - xz * yv) * fiber)
    return out


def _twisted_table(params: SpaceParams, sig: Signature) -> np.ndarray:
    """The connection table of one metric when tau != 0: constant, read-only."""
    k, t, e = params.kappa, params.tau, sig.eps3
    a = (k - e * 2.0 * t * t) / (2.0 * t)
    gam = np.zeros((3, 3, 3))
    gam[0, 1] = [0.0, 0.0, t]
    gam[0, 2] = [0.0, -e * t, 0.0]
    gam[1, 0] = [0.0, 0.0, -t]
    gam[1, 2] = [e * t, 0.0, 0.0]
    gam[2, 0] = [0.0, a, 0.0]
    gam[2, 1] = [-a, 0.0, 0.0]
    gam.flags.writeable = False
    return gam


def _filled(n: int, entries, shape: tuple) -> np.ndarray:
    """An array (n, *shape) whose row-major entry j is entries[j]: a float or a column (n,)."""
    out = np.empty((n, len(entries)))
    for j, value in enumerate(entries):
        out[:, j] = value
    return out.reshape(n, *shape)


def _cos_sin(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine and sine of each entry of a column, taken per entry with ``math``.

    NumPy's sin and cos need not equal libm's on every CPU, so array code
    that must give the bits of a per-point formula takes them from here.
    """
    xs = xs.tolist()
    return np.array([math.cos(a) for a in xs]), np.array([math.sin(a) for a in xs])


def _per_row(a: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """View per-point arrays (n, ...) so they broadcast over vectors (n, [k,] dim)."""
    return a.reshape(a.shape[:1] + (1,) * (vecs.ndim - 2) + a.shape[1:])


def _vectors(vecs) -> np.ndarray:
    """Vectors as a C-contiguous float array.

    A strided column operand sends ``matmul`` down another loop than the
    per-point call takes, with other roundings.
    """
    return np.ascontiguousarray(vecs, dtype=float)


def stacked_inner(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u @ g @ v row by row, for metrics g (n, dim, dim) and vectors (n, [k,] dim)."""
    u, v = _vectors(u), _vectors(v)
    return (u[..., None, :] @ _per_row(g, u) @ v[..., None])[..., 0, 0]


class PointFrame:
    """The frame, both metrics and the connection tables (given, or built on first use) at a point.

    The per-point algebra at ``point``, without building the frame or a
    metric again; ``wedge_frame`` and ``curvature_frame`` act on its frame
    components.
    """

    def __init__(self, ambient, point: np.ndarray, frame=None, metric=None, tables=None):
        self.ambient = ambient
        self.point = point
        self.frame = ambient.frame(point) if frame is None else frame
        self.metric = metric or {sig: ambient.metric(sig, point) for sig in SIGNATURES}
        self._tables: dict[Signature, np.ndarray] = dict(tables or {})

    def table(self, sig: Signature) -> np.ndarray:
        hit = self._tables.get(sig)
        if hit is None:
            hit = self._tables[sig] = self.ambient.point_table(sig, self.point)
        return hit

    def inner(self, sig: Signature, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.asarray(u, dtype=float) @ self.metric[sig] @ np.asarray(v, dtype=float))

    def to_frame(self, v: np.ndarray) -> np.ndarray:
        """Components of the vector v in the frame here: the one-row ``to_frames``."""
        return self.to_frames(np.asarray(v, dtype=float)[None])[0]

    def to_frames(self, vecs: np.ndarray) -> np.ndarray:
        """Frame components of a stack of vectors (k, dim), in one call, each with its own bits."""
        return self.ambient.to_frames(
            self.point[None],
            np.asarray(vecs, dtype=float)[None],
            frames=self.frame[None],
            metric_r=self.metric[Signature.R][None],
        )[0]

    def to_coord(self, vf: np.ndarray) -> np.ndarray:
        return self.frame @ np.asarray(vf, dtype=float)


class Ambient:
    """Frame algebra shared by the coordinate and the group model.

    Subclasses supply ``steps`` and one formula per primitive, in stacked
    form for points of shape (n, dim): ``frames``, ``metrics`` and
    ``to_frames``, with vectors of shape (n, dim) or (n, k, dim); ``frames=``
    (and in the group models ``metric_r=``) pass arrays a caller already has.
    ``frames_and_metrics`` gives the frames and both metrics of one stack at
    once, which the coordinate model builds from one pass over the points.
    ``frame`` and ``metric`` of one point are their one-row case, and
    ``christoffels`` (one point or a stack) differentiates ``metrics``.
    ``fiber_direction`` is the third leg of ``frame``, and ``to_frame`` the
    one-row ``to_frames`` at the ``PointFrame`` that ``point_frame`` gives.
    The domain check ``contains_rows`` is stacked too, and ``contains`` is
    its one-row case.  Subclasses also supply the stacked connection tables
    ``point_tables`` (what ``cov_deriv_stencils`` reads; both models build
    them from ``christoffels``) and the stacked stencil derivative:
    ``stencil_components`` and ``cov_deriv_stencils``, which reads stacks of
    the points and their frames, metric and tables.  ``point_table`` is
    their one-row case, and ``cov_deriv_on_curve`` samples a field on a
    curve for one row.  ``curve_stencils`` gives the stencil points of
    stacks of ``curve_through`` curves, with each curve's error, and
    ``curve_error`` the error of one curve, without its points.
    ``validate_point`` raises where ``contains`` fails, with the subclass's
    ``outside`` text.
    """

    def __init__(self, params: SpaceParams, steps: FDSteps | None = None):
        self.params = params
        self.steps = steps if steps is not None else FDSteps.from_env()
        # The causal-character bands of each surface built on this ambient with
        # a ``variant``, by its address without the variant (``catalog.build_surface``).
        self.bands: dict[str, list] = {}

    def frame(self, p: np.ndarray) -> np.ndarray:
        """Matrix whose columns are the canonical frame at p, in coordinates."""
        return self.frames(np.asarray(p, dtype=float)[None])[0]

    def metric(self, sig: Signature, p: np.ndarray) -> np.ndarray:
        """Coordinate matrix of the metric ``sig`` at p."""
        return self.metrics(sig, np.asarray(p, dtype=float)[None])[0]

    def to_frame(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Components of a vector in the canonical frame at p."""
        return self.point_frame(p).to_frame(v)

    def fiber_direction(self, p: np.ndarray) -> np.ndarray:
        """The unit vertical field at p, the third leg of the frame in both models."""
        return np.ascontiguousarray(self.frame(p)[:, 2])

    def christoffels(self, sig: Signature, p: np.ndarray) -> np.ndarray:
        """Coordinate Christoffel symbols Gamma[c, a, b] of ``sig`` at p, from ``metrics``.

        ``p`` is one point (dim,) or a stack (n, dim), whose leading axis the
        result keeps: ``numdiff.christoffels`` over the stack, with the step
        ``steps.first``.
        """
        h = self.steps.first
        p = np.asarray(p, dtype=float)
        gam = christoffels(lambda q: self.metrics(sig, q), p.reshape(-1, p.shape[-1]), h)
        return gam.reshape(p.shape[:-1] + gam.shape[1:])

    def frames_and_metrics(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``frames(points)``, ``metrics(R, points)`` and ``metrics(L, points)``, as one call."""
        return self.frames(points), *(self.metrics(sig, points) for sig in SIGNATURES)

    def point_table(self, sig: Signature, p: np.ndarray) -> np.ndarray:
        """The connection table of ``sig`` at one point: one-row ``point_tables``."""
        return self.point_tables(sig, np.asarray(p, dtype=float)[None])[0]

    def contains(self, p: np.ndarray) -> bool:
        """Whether the point p lies in the model: the one-row ``contains_rows``."""
        p = np.asarray(p, dtype=float)
        return p.shape == (self.dim,) and self.contains_rows(p[None])[0]

    def validate_point(self, p: np.ndarray) -> np.ndarray:
        """The point p as an array, or DomainViolation where it is not ``contains``."""
        p = np.asarray(p, dtype=float)
        if not self.contains(p):
            raise DomainViolation(f"point {p!r} {self.outside}")
        return p

    def point_frame(self, p: np.ndarray) -> PointFrame:
        """The PointFrame at the point p."""
        return PointFrame(self, np.asarray(p, dtype=float))

    def cov_deriv_on_curve(
        self,
        sig: Signature,
        curve: Callable[[float], np.ndarray],
        field: Callable[[float], np.ndarray],
        h: float,
        velocity: np.ndarray,
    ) -> np.ndarray:
        """Covariant derivative of a vector field along a curve at parameter 0.

        ``field(t)`` gives coordinate components at curve(t), and ``velocity``
        is the curve's velocity there.  Returns coordinate components at
        curve(0): the one-row ``cov_deriv_stencils``.
        """
        at = self.point_frame(curve(0.0))
        comps = self.stencil_components(stencil_values(curve, h), stencil_values(field, h))
        return self.cov_deriv_stencils(
            np.array([at.point]),
            np.array([at.frame]),
            np.array([at.metric[sig]]),
            np.array([at.table(sig)]),
            np.asarray(velocity, dtype=float)[None],
            comps[None, :1],
            comps[1:, None, None],
            h,
        )[0, 0]

    # -- stacked forms ---------------------------------------------------------

    def to_coords(self, points: np.ndarray, comps: np.ndarray, frames=None) -> np.ndarray:
        """Stacked ``PointFrame.to_coord``: frame components (n, [k,] 3) -> (n, [k,] dim)."""
        f = self.frames(points) if frames is None else frames
        c = _vectors(comps)
        return (_per_row(f, c) @ c[..., None])[..., 0]


class CoordinateAmbient(Ambient):
    """The coordinate chart of the model: R^3, or a solid cylinder over a disk.

    Provides metric evaluation, the canonical frame with analytic first
    derivatives, frame/coordinate conversion, vector products, connection
    coefficient tables and covariant differentiation along curves, for both
    metrics at once.
    """

    dim = 3
    kind = "coordinate"

    def __init__(self, params: SpaceParams, steps: FDSteps | None = None):
        super().__init__(params, steps)
        self.outside = f"outside the model domain for kappa={params.kappa}"
        self._twisted_tables = (
            {sig: _twisted_table(params, sig) for sig in SIGNATURES} if params.tau != 0.0 else None
        )

    # -- domain ------------------------------------------------------------

    def contains_rows(self, points) -> list:
        """``contains`` of each of n points (3,), checked as one stack: n booleans.

        The point must be finite, and inside the disk when kappa < 0.  There
        x^2 + y^2 is summed per row from NumPy scalars: their ``**`` is libm
        ``pow``, which NumPy's array square differs from on some inputs, and
        it overflows to inf where a Python float's would raise.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        ok = np.isfinite(points).all(axis=1)
        r = self.params.disk_radius
        if r is not None:
            r2 = np.array([x**2 + y**2 for x, y in zip(points[:, 0], points[:, 1])])
            ok &= r2 < (1.0 - DOMAIN_MARGIN) * r * r
        return ok.tolist()

    # -- per-row columns ---------------------------------------------------

    def _columns(self, points: np.ndarray, twist: bool = True):
        """n, then x, y, 1 + kappa (x^2 + y^2) / 4, cos(s z) and sin(s z) of each row.

        s is the twist rate; without ``twist`` (the metric reads no z) the
        last two are None.  The square and the two transcendentals are
        taken per row as Python floats, one list per column: ``x**2`` is libm
        ``pow``, which NumPy's square differs from on about 0.07% of inputs,
        and NumPy's sin and cos need not equal libm's on every CPU.  The
        formulas built on the columns are array code, whose sums and products
        round as the per-row Python ones do.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        k4, s = 0.25 * self.params.kappa, self.params.twist_rate
        x, y, z = pts.T
        li = 1.0 + k4 * np.array([a**2 + b**2 for a, b in zip(x.tolist(), y.tolist())])
        if not twist:
            return len(pts), x, y, li, None, None
        return len(pts), x, y, li, *_cos_sin(s * z)

    # -- metric ------------------------------------------------------------

    def metrics(self, sig: Signature, points: np.ndarray) -> np.ndarray:
        """diag(lam^2, lam^2, 0) + eps3 theta theta^T at each point, as array code.

        theta is the fiber 1-form, whose kernel is the horizontal distribution
        and whose value on the fiber is 1, and lam = 1 / (1 + kappa (x^2 + y^2) / 4).
        The diagonal is added to every entry of the outer product, zeros
        included, which keeps the signs of its zeros.
        """
        return self._metrics(self._columns(points, twist=False), (sig,))[0]

    def _metrics(self, columns: tuple, sigs: tuple) -> list[np.ndarray]:
        """``metrics`` of each of ``sigs`` from the ``_columns`` of the points."""
        t = self.params.tau
        n, x, y, li = columns[:4]
        lam = 1.0 / li
        theta = _filled(n, ((t * lam) * y, (-t * lam) * x, 1.0), (3,))
        outer = theta[:, :, None] * theta[:, None, :]
        out = []
        for sig in sigs:
            g = np.zeros((n, 3, 3))
            g[:, 0, 0] = g[:, 1, 1] = lam * lam
            g += sig.eps3 * outer
            out.append(g)
        return out

    def frames_and_metrics(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``frames`` and ``metrics`` of R and of L at each point, from one ``_columns`` pass."""
        columns = self._columns(points)
        return self._frames(columns), *self._metrics(columns, SIGNATURES)

    # -- canonical frame ---------------------------------------------------

    def frames(self, points: np.ndarray) -> np.ndarray:
        """Matrices whose columns are the canonical frame at each point, in coordinates."""
        return self._frames(self._columns(points))

    def _frames(self, columns: tuple) -> np.ndarray:
        """``frames`` from the ``_columns`` of the points."""
        t = self.params.tau
        n, x, y, li, c, sn = columns
        entries = (
            li * c, -li * sn, 0.0,
            li * sn, li * c, 0.0,
            t * (x * sn - y * c), t * (x * c + y * sn), 1.0,
        )
        return _filled(n, entries, (3, 3))

    def frame_partials(self, points: np.ndarray) -> np.ndarray:
        """Analytic coordinate partials of the frame matrices, shape (n, 3, 3, 3).

        Entry [n, a] is the partial derivative of frames(points)[n] along
        coordinate a.
        """
        k, t = self.params.kappa, self.params.tau
        s = self.params.twist_rate
        n, x, y, li, c, sn = self._columns(points)
        dx_li, dy_li = (0.5 * k) * x, (0.5 * k) * y
        entries = (
            dx_li * c, -dx_li * sn, 0.0,
            dx_li * sn, dx_li * c, 0.0,
            t * sn, t * c, 0.0,
            dy_li * c, -dy_li * sn, 0.0,
            dy_li * sn, dy_li * c, 0.0,
            -t * c, t * sn, 0.0,
            -li * s * sn, -li * s * c, 0.0,
            li * s * c, -li * s * sn, 0.0,
            (t * s) * (x * c + y * sn), (t * s) * (y * c - x * sn), 0.0,
        )
        return _filled(n, entries, (3, 3, 3))

    def to_frames(
        self, points: np.ndarray, vecs: np.ndarray, frames=None, metric_r=None
    ) -> np.ndarray:
        f = self.frames(points) if frames is None else frames
        v = _vectors(vecs)
        return np.linalg.solve(_per_row(f, v), v[..., None])[..., 0]

    # The stencil derivative differences frame components.
    stencil_components = to_frames

    # -- connection --------------------------------------------------------

    def point_tables(self, sig: Signature, points: np.ndarray) -> np.ndarray:
        """Frame components of the covariant derivatives of the frame legs, (n, 3, 3, 3).

        Entry [n, i, j] is the derivative of leg j along leg i at points[n].
        Constant in the point for tau != 0; in the product case tau = 0 the
        coefficients depend on the base point, so they are assembled from
        finite differences of the metric, all points in one stack.
        """
        points = np.asarray(points, dtype=float)
        if self._twisted_tables is not None:
            return np.broadcast_to(self._twisted_tables[sig], (len(points), 3, 3, 3))
        return self._table_from_metric(sig, points)

    connection_table = Ambient.point_table

    def _table_from_metric(self, sig: Signature, points: np.ndarray) -> np.ndarray:
        n = len(points)
        gam_c = self.christoffels(sig, points)
        m = self.frames(points)
        dm = self.frame_partials(points)
        # gam_m[a][j] = gam_c[:, a, :] @ m[:, j] at each point, a (3, 3) @ (3,) product
        gam_m = [
            [(gam_c[:, :, a, :] @ m[:, :, j, None])[..., 0] for j in range(3)] for a in range(3)
        ]
        # terms[:, a, i, j] = m[:, a, i] * (dm[:, a, :, j] + gam_m[a][j]), summed over a
        # in order from zeros, as a loop over (i, j, a) would round
        inner = dm.transpose(0, 1, 3, 2) + np.array(gam_m).transpose(2, 0, 1, 3)
        terms = m[:, :, :, None, None] * inner[:, :, None]
        vec = np.zeros((n, 3, 3, 3))
        for a in range(3):
            vec += terms[:, a]
        # one right-hand side per (point, i, j), as nine solves per point round
        return np.linalg.solve(m[:, None, None], vec[..., None])[..., 0]

    def curve_through(self, p: np.ndarray, vel: np.ndarray) -> Callable[[float], np.ndarray]:
        """A curve in the model through p with the given initial velocity."""
        p = np.asarray(p, dtype=float)
        vel = np.asarray(vel, dtype=float)
        return lambda t: p + t * vel

    def curve_stencils(self, points: np.ndarray, velocities: np.ndarray, h: float):
        """The stencil points of r curves through each of m points, and each curve's error.

        Curve j through points[i] is ``curve_through(points[i], velocities[i, j])``,
        velocities (m, r, 3); its row (m, r, 5, 3) is ``stencil_values`` of it
        with step h, with the bits of that call.  A line never leaves the
        model, so every error of the (m, r) lists is None.
        """
        p, vel = np.asarray(points, dtype=float), np.asarray(velocities, dtype=float)
        out = p[:, None, None] + np.array(stencil_params(h))[:, None] * vel[:, :, None]
        return out, [[None] * vel.shape[1] for _ in range(len(p))]

    def curve_error(self, p: np.ndarray, vel: np.ndarray, h: float) -> None:
        """The error of the one curve of ``curve_stencils``: always None, lines stay inside."""
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
        """Covariant derivatives of k fields along curves through n points, in one stack.

        ``points`` (n, 3) are the points p0, ``frames``, ``metric`` and
        ``tables`` theirs (each row's metric and table of one signature,
        which rows need not share), and ``velocity`` (n, 3) the curves'
        velocities there.  ``f0`` (n, k, 3) holds the fields'
        ``stencil_components`` (frame components) at p0 and ``fs``
        (4, n, k, 3) those at the curve parameters ``STENCIL_STEPS`` times h.
        The derivative part is taken on frame components, so only the
        connection table at p0 is needed (and not the metric).  Returns
        coordinate components (n, k, 3) at p0.
        """
        vel_f = self.to_frames(points, velocity, frames=frames)
        df = stencil_derivative(fs, h)
        # terms[:, i, j] = vel_f[i] * f0[:, j] * table[i, j], summed over (i, j) in order
        f0_t = np.swapaxes(f0, 1, 2)[:, None]
        terms = (vel_f[:, :, None, None] * f0_t)[..., None] * tables[:, :, :, None, :]
        terms = terms.reshape(len(points), 9, *f0.shape[1:])
        corr = np.zeros(f0.shape)
        for k in range(9):
            corr += terms[:, k]
        return (frames[:, None] @ (df + corr)[..., None])[..., 0]
