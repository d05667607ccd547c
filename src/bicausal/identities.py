"""Residual evaluation for the transformation laws linking the two metrics.

Each identity is a named check with a default tolerance reflecting how many
finite-difference layers its inputs traverse: purely algebraic consequences
of the metric definitions sit at 1e-12/1e-9, quantities one derivative deep
at 1e-5, and anything built on shape operators or stencil derivatives at
1e-4.  The suite aggregates the residuals that the evaluators return.

The identities that draw random numbers are evaluated sample by sample: each
takes an :class:`IdentityContext` and returns the residuals of that sample,
or raises :class:`SampleSkip` or a ``GeometryError``.  The others are
*stacked*: each takes the samples of one surface and returns, per sample,
its residual list or the skip it met, in the order one sample's evaluation
would meet it.  Their arrays are stacks over the samples, and each row
rounds as it would alone.

Residual normalization divides by max(1, size of the participating terms) so
that tolerances are meaningful for both tiny and large geometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .ambient import SIGNATURES, Signature, connection_gap_frame, stacked_inner, wedge_frame
from .errors import ConfigInvalid, GeometryError, NullDirection
from .numdiff import brioschi_curvature, stencil_values
from .surfaces import TwoMetricFrameData


class SampleSkip(Exception):
    """An identity does not apply to this sample; carries the reason code."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class IdentityContext:
    data: TwoMetricFrameData
    rng: np.random.Generator


def _frame_sizes(data, vecs) -> list[float]:
    """Sizes of ambient vectors (k, dim) at one point, in orthonormal frame components.

    One stacked conversion; each size has the bits of its own conversion.
    """
    return np.max(np.abs(data.to_frames(vecs)), axis=-1).tolist()


def _frame_norm(data, vec: np.ndarray) -> float:
    """Size of an ambient vector measured in orthonormal frame components."""
    return _frame_sizes(data, [vec])[0]


def _vec_residual(data: TwoMetricFrameData, lhs: np.ndarray, *terms: np.ndarray) -> float:
    size = _frame_sizes(data, [lhs, *terms])
    return _sized_residual(size)


def _sized_residual(size: list[float]) -> float:
    """The residual of sizes [lhs, *terms]."""
    return size[0] / max([1.0] + size[1:])


def _scalar_residual(lhs: float, *terms: float) -> float:
    scale = max([1.0] + [abs(t) for t in terms])
    return abs(lhs) / scale


def _random_frame_vector(ctx: IdentityContext) -> np.ndarray:
    return ctx.rng.normal(size=3)


def _random_ambient_vector(ctx: IdentityContext) -> np.ndarray:
    return ctx.data.to_coord(_random_frame_vector(ctx))


def _random_tangent_coeffs(ctx: IdentityContext) -> np.ndarray:
    d = ctx.data
    c = ctx.rng.normal(size=2)
    n = math.sqrt(max(d.coeff_inner(Signature.R, c, c), 1e-300))
    return c / n


def _apply_shape(data: TwoMetricFrameData, sig: Signature, coeffs: np.ndarray) -> np.ndarray:
    return data.embed(data.shape(sig) @ np.asarray(coeffs, dtype=float))


# -- stacked evaluation ------------------------------------------------------------


def _split(samples: list, read: Callable) -> tuple[list, list[int], list]:
    """``read(d)`` per sample, split by whether it raised.

    Returns the outcome list, which holds the SampleSkip or GeometryError of
    each sample that raised one and None for the others; the indices of the
    others; and what ``read`` returned for them.
    """
    out, ok, values = [], [], []
    for s, d in enumerate(samples):
        try:
            values.append(read(d))
        except (SampleSkip, GeometryError) as exc:
            out.append(exc)
            continue
        out.append(None)
        ok.append(s)
    return out, ok, values


class _Stack:
    """Per-sample arrays of some samples of one surface, each stacked on first use."""

    def __init__(self, samples: list):
        self.samples = samples
        self.ambient = samples[0].ambient
        self._arrays: dict[str, np.ndarray] = {}

    def of(self, key: str, read: Callable | None = None) -> np.ndarray:
        """The stack of ``read(d)`` over the samples, by default of the attribute ``key``."""
        hit = self._arrays.get(key)
        if hit is None:
            read = read or (lambda d: getattr(d, key))
            hit = self._arrays[key] = np.array([read(d) for d in self.samples])
        return hit

    def floats(self, name: str) -> list[float]:
        """The float attribute ``name`` of each sample."""
        return [getattr(d, name) for d in self.samples]

    def metric(self, sig: Signature) -> np.ndarray:
        return self.of(f"metric {sig.value}", lambda d: d.metric[sig])

    def embed(self, coeffs: np.ndarray) -> np.ndarray:
        """``embed`` of chart coefficients (m, ..., 2) at each sample, (m, ..., dim)."""
        du, dv = (
            a.reshape(a.shape[:1] + (1,) * (coeffs.ndim - 2) + a.shape[1:])
            for a in (self.of("du"), self.of("dv"))
        )
        return coeffs[..., :1] * du + coeffs[..., 1:] * dv

    def frame_sizes(self, vecs: np.ndarray) -> np.ndarray:
        """Sizes (m, ...) of ambient vectors (m, ..., dim), each in its sample's frame, one call."""
        comps = self.ambient.to_frames(
            self.of("point"), vecs, frames=self.of("frame"), metric_r=self.metric(Signature.R)
        )
        return np.max(np.abs(comps), axis=-1)

    def shape_of_t(self, sig: Signature) -> np.ndarray:
        """A_sig T_sig at each sample, in coordinates: ``_apply_shape`` of T's coefficients."""
        shape = self.of(f"shape {sig.value}", lambda d: d.shape(sig))
        coeffs = self.of(f"t_coeffs {sig.value}", lambda d: d.t_coeffs(sig))
        return self.embed((shape @ coeffs[..., None])[..., 0])

    def rotate(self, sig: Signature, vf: np.ndarray) -> np.ndarray:
        """``rotate`` of frame components (m, 3) at each sample."""
        n_name = "n_r" if sig is Signature.R else "n_l"
        normal = self.of(f"frame_of {n_name}", lambda d: d.frame_of(n_name))
        return self.ambient.to_coords(
            self.of("point"), wedge_frame(sig, normal, vf), frames=self.of("frame")
        )


# -- pointwise metric identities ------------------------------------------------


def _metric_sum(ctx: IdentityContext) -> list[float]:
    d = ctx.data
    out = []
    for _ in range(3):
        uf, vf = _random_frame_vector(ctx), _random_frame_vector(ctx)
        u, v = d.to_coord(uf), d.to_coord(vf)
        r = d.inner(Signature.R, u, v)
        l = d.inner(Signature.L, u, v)
        horiz = uf[0] * vf[0] + uf[1] * vf[1]
        out.append(_scalar_residual(r + l - 2.0 * horiz, r, l, horiz))
    return out


def _metric_diff(ctx: IdentityContext) -> list[float]:
    d = ctx.data
    xi = d.xi
    out = []
    for _ in range(3):
        u = _random_ambient_vector(ctx)
        v = _random_ambient_vector(ctx)
        r = d.inner(Signature.R, u, v)
        l = d.inner(Signature.L, u, v)
        ur, vr = d.inner(Signature.R, u, xi), d.inner(Signature.R, v, xi)
        ul, vl = d.inner(Signature.L, u, xi), d.inner(Signature.L, v, xi)
        out.append(_scalar_residual(r - l - 2.0 * ur * vr, r, l))
        out.append(_scalar_residual(r - l - 2.0 * ul * vl, r, l))
        out.append(_scalar_residual(ur + ul, ur))
    return out


# -- normal transformation ------------------------------------------------------


def _invariants(samples: list, keys: tuple[str, ...]) -> list:
    """The named consistency residuals of every sample (NORMAL_TRANSFORM and the like)."""
    return [[d.invariants[key] for key in keys] for d in samples]


def _normal_pairing(ctx: IdentityContext) -> list[float]:
    d = ctx.data
    out = []
    for _ in range(3):
        v = _random_ambient_vector(ctx)
        pr = d.inner(Signature.R, d.n_r, v)
        pl = d.inner(Signature.L, d.n_l, v)
        out.append(_scalar_residual(pr + pl / d.omega_l, pr, pl))
    return out


# -- connection-level identities -------------------------------------------------


def _linear_frame_comps(ctx: IdentityContext, base: np.ndarray):
    """Frame components of a random field, affine in the point; and its value at ``base``."""
    a = ctx.rng.normal(size=3)
    b = ctx.rng.normal(size=(3, ctx.data.ambient.dim))

    def comps(q: np.ndarray) -> np.ndarray:
        return a + b @ (np.asarray(q, dtype=float) - base)

    return comps, a


def _conn_diff(ctx: IdentityContext) -> list[float]:
    d = ctx.data
    amb, p = d.ambient, d.point
    h = d.steps.first
    x_comps, x0f = _linear_frame_comps(ctx, p)
    y_comps, y0f = _linear_frame_comps(ctx, p)
    vel = d.to_coord(y_comps(p))
    # The field on the five stencil points, from one stack of their frames.
    points = stencil_values(amb.curve_through(p, vel), h)
    frames = amb.frames(points)
    field = amb.to_coords(points, np.array([x_comps(q) for q in points]), frames=frames)
    comps = amb.stencil_components(points, field, frames)
    # One row per metric: one sampling of the field serves both.
    d_r, d_l = amb.cov_deriv_stencils_at(
        d.curve_frame(),
        SIGNATURES,
        np.array([vel, vel]),
        np.array([comps[:1], comps[:1]]),
        np.stack([comps[1:, None], comps[1:, None]], axis=1),
        h,
    )[:, 0]
    gap = d.to_coord(connection_gap_frame(amb.params.tau, x0f, y0f))
    return [_vec_residual(d, d_r - d_l - gap, d_r, d_l, gap)]


def _killing(ctx: IdentityContext, sig: Signature) -> list[float]:
    d = ctx.data
    amb, p = d.ambient, d.point
    h = d.steps.first
    tau = amb.params.tau
    xs, points = [], []
    for _ in range(2):
        xs.append(_random_ambient_vector(ctx))
        # A curve that leaves the model raises here, before the next draw.
        points.append(stencil_values(amb.curve_through(p, xs[-1]), h))
    # Both curves' stencils in one stack: the fiber field's components, then
    # one row per curve.
    points = np.concatenate(points)
    comps = amb.stencil_components(points, np.array([amb.fiber_direction(q) for q in points]))
    comps = comps.reshape(2, 5, -1)
    fs = np.moveaxis(comps[:, 1:, None], 1, 0)
    derivs = amb.cov_deriv_stencils_at(
        d.curve_frame(), (sig, sig), np.array(xs), comps[:, :1], fs, h
    )[:, 0]
    out = []
    for x, deriv in zip(xs, derivs):
        w = d.to_coord(wedge_frame(sig, d.to_frame(x), d.frame_of("xi")))
        rhs = (sig.eps3 * tau) * w
        out.append(_vec_residual(d, deriv - rhs, deriv, rhs))
    return out


# -- shape operator transformation ------------------------------------------------


def _shape(ctx: IdentityContext, sig: Signature) -> list[float]:
    d = ctx.data
    tau = d.ambient.params.tau
    # s * x negates exactly, so each flipped tau or eps term has the mirror formula's bits
    o, s = sig.other, sig.eps3
    w = d.omega(o)
    t_o = d.tangent_part_t(o)
    out = []
    for i in range(2):
        c = _random_tangent_coeffs(ctx)
        x = d.embed(c)
        a_x = {g: _apply_shape(d, g, c) for g in SIGNATURES}
        if i == 0:
            # Independent of the draws, but built after the first one: the shape
            # operators may raise, and the draws made before a raise decide the
            # random numbers of the identities that follow.
            a_o_t = _apply_shape(d, o, d.t_coeffs(o))
            j_o_t = d.rotate(o, d.frame_of(f"t_{o.value.lower()}"))
        coeff = d.inner(o, a_o_t - (s * tau) * j_o_t, x)
        a_o_x = a_x[o] / w
        lhs = (
            a_x[sig]
            + a_o_x
            + (s * 2.0 * d.eps / w**3) * coeff * t_o
            + (2.0 * tau / w) * d.inner(o, t_o, x) * j_o_t
        )
        out.append(_vec_residual(d, lhs, a_x[sig], a_o_x))
    return out


def _bilinear(ctx: IdentityContext, sig: Signature) -> list[float]:
    d = ctx.data
    tau = d.ambient.params.tau
    o = sig.other
    out = []
    for _ in range(2):
        cx, cy = _random_tangent_coeffs(ctx), _random_tangent_coeffs(ctx)
        x, y = d.embed(cx), d.embed(cy)
        a = d.inner(sig, _apply_shape(d, sig, cx), y)
        a_o = d.inner(o, _apply_shape(d, o, cx), y)
        jx = d.inner(sig, d.rotate(o, d.to_frame(x)), y)
        jy = d.inner(sig, d.rotate(o, d.to_frame(y)), x)
        lhs = a + (a_o - (sig.eps3 * tau) * (jx + jy)) / d.omega(o)
        out.append(_scalar_residual(lhs, a, a_o))
    return out


def _meancurv(samples: list, sig: Signature) -> list:
    o = sig.other
    out, ok, _ = _split(samples, lambda d: d.shape(o))
    if not ok:
        return out
    st = _Stack([samples[s] for s in ok])
    t_o = st.of("t", lambda d: d.tangent_part_t(o))
    quads = stacked_inner(st.metric(o), st.shape_of_t(o), t_o).tolist()
    scalars = zip(
        ok, st.floats("eps"), st.floats("omega_l"), st.floats("h_r"), st.floats("h_l"), quads
    )
    # The two laws stay apart: (eps / w**3) * q and -q / w**3 round differently.
    for s, e, w_l, h_r, h_l, q in scalars:
        if sig is Signature.R:
            lhs = h_r + (e / w_l) * h_l + (e / w_l**3) * q
            out[s] = [_scalar_residual(lhs, h_r, h_l, q)]
        else:
            w_r = samples[s].omega_r
            lhs = h_l + (e / w_r) * h_r - q / w_r**3
            out[s] = [_scalar_residual(lhs, h_l, h_r, q)]
    return out


# -- integrability --------------------------------------------------------------


def _int_residuals(samples: list, sig: Signature, which: int) -> list:
    out, ok, derivs = _split(samples, lambda d: d.tangent_derivatives(sig))
    if not ok:
        return out
    st = _Stack([samples[s] for s in ok])
    tau = st.ambient.params.tau
    shape = st.of(f"shape {sig.value}", lambda d: d.shape(sig))
    rot = st.of("rot", lambda d: d.rotation(sig))
    sign = -sig.eps3
    bases = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    if which == 1:
        angle = st.floats("angle_l" if sig is Signature.L else "angle_r")
        factor = [e * a for e, a in zip(st.floats("eps"), angle)] if sig is Signature.L else angle
        scaled = np.array(factor)[:, None, None] * (shape + sign * tau * rot)
        rhs = np.stack([scaled @ basis for basis in bases], axis=1)
        dt = np.array([der["dt"] for der in derivs])
        # [lhs, dt, rhs] per sample and chart axis, sized in one call
        sizes = st.frame_sizes(st.embed(np.stack([dt - rhs, dt, rhs], axis=2))).tolist()
        for s, per_axis in zip(ok, sizes):
            out[s] = [_sized_residual(size) for size in per_axis]
        return out
    # derivative of the angle along the chart direction
    coeffs = st.of(f"t_coeffs {sig.value}", lambda d: d.t_coeffs(sig))
    a_term = ((shape - sign * tau * rot) @ coeffs[..., None])[..., 0]
    pairs = a_term[:, None, :] @ st.of("gram", lambda d: d.gram[sig])
    rhs = np.stack([-(pairs @ basis)[:, 0] for basis in bases], axis=1).tolist()
    for s, der, rhs_s in zip(ok, derivs, rhs):
        out[s] = [
            _scalar_residual(der["dangle"][axis] - rhs_s[axis], der["dangle"][axis], rhs_s[axis])
            for axis in (0, 1)
        ]
    return out


# -- normal curvature ------------------------------------------------------------


def _normcurv(ctx: IdentityContext) -> list[float]:
    d = ctx.data
    tau = d.ambient.params.tau
    for _ in range(8):
        c = _random_tangent_coeffs(ctx)
        q_r = d.coeff_inner(Signature.R, c, c)
        q_l = d.coeff_inner(Signature.L, c, c)
        if abs(q_l) > 1e-6 * q_r:
            break
    else:
        raise SampleSkip(NullDirection.code)
    lam_r = d.normal_curvature(Signature.R, c)
    lam_l = d.normal_curvature(Signature.L, c)
    eps_v = 1.0 if q_l > 0 else -1.0
    t_unit = d.embed(c) / math.sqrt(q_r)
    twist = d.inner(Signature.L, t_unit, d.rotate(Signature.R, d.to_frame(t_unit)))
    lhs = eps_v * lam_l + (q_r / (d.omega_r * abs(q_l))) * (lam_r + 2.0 * tau * twist)
    return [_scalar_residual(lhs, lam_r, lam_l)]


# -- curvature relations ----------------------------------------------------------


def curvature_suite(data: TwoMetricFrameData) -> dict:
    """All curvature scalars of one sample, via independent routes.

    The ambient sectional curvatures come from the curvature tensor evaluated
    on adapted tangent bases; the closed forms in terms of the normal angles
    are reported alongside for cross-checking.  Intrinsic curvatures follow
    the Gauss equation with the tensor-route ambient part.  The first call on
    any sample of a batch builds every sample's scalars as one stack
    (``SampleBatch.curvature``).  Raises SampleSkip(NULL_DIRECTION) when the
    Lorentzian adapted basis does not exist, else the sample's stencil error.
    """
    entry = data.curvature_scalars()
    if isinstance(entry, str):
        raise SampleSkip(entry)
    if isinstance(entry, GeometryError):
        raise entry.with_traceback(None)
    return entry


def _singular_ratio(params) -> float:
    return params.kappa + 4.0 * params.tau**2


def _require_regular(data: TwoMetricFrameData) -> None:
    params = data.ambient.params
    scale = max(1.0, abs(params.kappa), 4.0 * params.tau**2)
    if abs(_singular_ratio(params)) <= 1e-12 * scale:
        raise SampleSkip("PARAMETER_SINGULARITY")


def _regular_suite(data: TwoMetricFrameData) -> dict:
    """``curvature_suite`` of a sample whose parameters are regular, else the skip."""
    _require_regular(data)
    return curvature_suite(data)


def _sectional_rel(samples: list) -> list:
    out, ok, suites = _split(samples, _regular_suite)
    for s, suite in zip(ok, suites):
        d = samples[s]
        params = d.ambient.params
        t = params.tau
        a = (params.kappa - 4.0 * t * t) / _singular_ratio(params)
        w2 = d.omega_l**2
        rhs = (t * t * (w2 - d.eps * a) + a * suite["kbar_L"]) / w2
        out[s] = [_scalar_residual(suite["kbar_R"] - rhs, suite["kbar_R"], rhs)]
    return out


def _extrinsic_rel(samples: list) -> list:
    out, ok, suites = _split(samples, _regular_suite)
    if not ok:
        return out
    st = _Stack([samples[s] for s in ok])
    t = st.ambient.params.tau
    t_r = st.of("t_r")
    j_r_t = st.rotate(Signature.R, st.of("t_r frame", lambda d: d.frame_of("t_r")))
    g_r = st.metric(Signature.R)
    mixed = stacked_inner(g_r, st.shape_of_t(Signature.R), j_r_t).tolist()
    t_norm2 = stacked_inner(g_r, t_r, t_r).tolist()
    for i, (s, suite) in enumerate(zip(ok, suites)):
        d = samples[s]
        w4 = d.omega_r**4
        rhs = -(d.eps / w4) * suite["ke_R"] + (4.0 * t * d.eps / w4) * (
            mixed[i] + t * t_norm2[i] ** 2
        )
        out[s] = [_scalar_residual(suite["ke_L"] - rhs, suite["ke_L"], rhs)]
    return out


def _gauss(samples: list, sig: Signature) -> list:
    out, ok, suites = _split(samples, curvature_suite)
    v = sig.value
    for s, suite in zip(ok, suites):
        # the extrinsic term carries the square of the unit normal
        unit = 1.0 if sig is Signature.R else samples[s].eps
        rhs = suite[f"kbar_{v}_closed"] + unit * suite[f"ke_{v}"]
        out[s] = [_scalar_residual(suite[f"k_{v}"] - rhs, suite[f"k_{v}"], rhs)]
    return out


def _combined_516(samples: list) -> list:
    out, ok, suites = _split(samples, _regular_suite)
    for s, suite in zip(ok, suites):
        d = samples[s]
        params = d.ambient.params
        t = params.tau
        a = (params.kappa - 4.0 * t * t) / _singular_ratio(params)
        w2 = d.omega_l**2
        lhs = w2 * suite["k_R"] - a * suite["k_L"]
        rhs = (w2 - d.eps * a) * t * t - d.eps * a * suite["ke_L"] + w2 * suite["ke_R"]
        out[s] = [_scalar_residual(lhs - rhs, lhs, rhs)]
    return out


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityInfo:
    """A named identity and its evaluator.

    ``stacked`` evaluators draw no random numbers and take the samples of one
    surface (see the module docstring); the others take an IdentityContext.
    """

    name: str
    tolerance: float
    evaluate: Callable
    stacked: bool = False


def _stacked(name: str, tolerance: float, evaluate: Callable) -> IdentityInfo:
    return IdentityInfo(name, tolerance, evaluate, stacked=True)


_REGISTRY: list[IdentityInfo] = [
    IdentityInfo("METRIC_SUM", 1e-12, _metric_sum),
    IdentityInfo("METRIC_DIFF", 1e-12, _metric_diff),
    _stacked(
        "NORMAL_TRANSFORM", 1e-9, partial(_invariants, keys=("normal_routes", "angle_transform"))
    ),
    IdentityInfo("NORMAL_PAIRING", 1e-9, _normal_pairing),
    _stacked("OMEGA_PRODUCT", 1e-9, partial(_invariants, keys=("omega_product",))),
    _stacked(
        "T_RELATION", 1e-9, partial(_invariants, keys=("t_relation", "t_split_R", "t_split_L"))
    ),
    IdentityInfo("CONN_DIFF", 1e-5, _conn_diff),
    IdentityInfo("KILLING_R", 1e-5, partial(_killing, sig=Signature.R)),
    IdentityInfo("KILLING_L", 1e-5, partial(_killing, sig=Signature.L)),
    IdentityInfo("SHAPE_R", 1e-4, partial(_shape, sig=Signature.R)),
    IdentityInfo("SHAPE_L", 1e-4, partial(_shape, sig=Signature.L)),
    IdentityInfo("BILINEAR_R", 1e-4, partial(_bilinear, sig=Signature.R)),
    IdentityInfo("BILINEAR_L", 1e-4, partial(_bilinear, sig=Signature.L)),
    _stacked("MEANCURV_R", 1e-4, partial(_meancurv, sig=Signature.R)),
    _stacked("MEANCURV_L", 1e-4, partial(_meancurv, sig=Signature.L)),
    _stacked("INT1_L", 1e-4, partial(_int_residuals, sig=Signature.L, which=1)),
    _stacked("INT2_L", 1e-4, partial(_int_residuals, sig=Signature.L, which=2)),
    _stacked("INT1_R", 1e-4, partial(_int_residuals, sig=Signature.R, which=1)),
    _stacked("INT2_R", 1e-4, partial(_int_residuals, sig=Signature.R, which=2)),
    IdentityInfo("NORMCURV", 1e-5, _normcurv),
    _stacked("SECTIONAL_REL", 1e-4, _sectional_rel),
    _stacked("EXTRINSIC_REL", 1e-4, _extrinsic_rel),
    _stacked("GAUSS_R", 1e-4, partial(_gauss, sig=Signature.R)),
    _stacked("GAUSS_L", 1e-4, partial(_gauss, sig=Signature.L)),
    _stacked("COMBINED_516", 1e-4, _combined_516),
]

IDENTITIES: dict[str, IdentityInfo] = {info.name: info for info in _REGISTRY}
IDENTITY_NAMES: list[str] = [info.name for info in _REGISTRY]


# -- extra checks beyond the pointwise identities ---------------------------------


def intrinsic_curvature_r(data: TwoMetricFrameData) -> float:
    """Gauss curvature of the induced Riemannian metric, from its coefficients only."""
    amb, chart = data.ambient, data.chart
    h_jet = data.steps.first

    def first_form(u: float, v: float):
        du, dv = chart.partials(u, v, h_jet)
        p = chart.point(u, v)
        g = amb.metric(Signature.R, p)
        return (du @ g @ du, du @ g @ dv, dv @ g @ dv)

    return brioschi_curvature(first_form, data.uv, data.steps.second)


def indefiniteness_check(data: TwoMetricFrameData, h_tol: float = 1e-6) -> dict:
    """Consequences of equal mean curvatures for the Riemannian shape operator.

    When |H_R - H_L| < h_tol the Riemannian shape operator cannot be definite,
    and the normal curvatures along the tangential fiber direction and its
    rotation satisfy a fixed ratio depending only on the normal stretch.
    Returns raw values; ``asserted`` states whether the claim is part of this
    package's guarantees for the sample (spacelike, or timelike with both
    mean curvatures zero).
    """
    d = data
    gap = abs(d.h_r - d.h_l)
    out: dict = {"h_gap": gap, "applies": bool(gap < h_tol)}
    a_r = d.shape(Signature.R)
    scale = max(1.0, float(np.max(np.abs(a_r)))) ** 2
    out["det_ratio"] = float(np.linalg.det(a_r)) / scale
    out["asserted"] = bool(
        out["applies"] and (d.eps < 0 or max(abs(d.h_r), abs(d.h_l)) < h_tol)
    )
    t_norm = math.sqrt(max(d.inner(Signature.R, d.t_r, d.t_r), 0.0))
    if abs(d.omega_l - 1.0) <= 1e-6:
        out["ratio_skipped"] = "omega_near_one"
        return out
    if t_norm <= 1e-6:
        out["ratio_skipped"] = "T_R_VANISHES"
        return out
    v = d.coeffs(Signature.R, d.t_r)
    w = d.rotation(Signature.R) @ v
    lam_v = d.normal_curvature(Signature.R, v)
    lam_w = d.normal_curvature(Signature.R, w)
    denom = 1.0 + d.omega_l + d.omega_l**2
    out["ratio_residual"] = _scalar_residual(lam_v * denom + lam_w, lam_v, lam_w)
    out["lambda_t"] = lam_v
    out["lambda_rot"] = lam_w
    return out


def ruling_defect(data: TwoMetricFrameData, direction=(0.0, 1.0)) -> dict[str, float]:
    """Geodesic defect of the chart curve through the sample in a fixed direction.

    For ruled surfaces whose rulings are ambient geodesics the defect vanishes
    for both metrics.  Returns normalized defect sizes keyed by signature.
    """
    d = data
    amb, chart = d.ambient, d.chart
    u0, v0 = d.uv
    c0, c1 = float(direction[0]), float(direction[1])
    h = d.steps.second
    h_jet = d.steps.first

    def curve(t: float) -> np.ndarray:
        return chart.point(u0 + t * c0, v0 + t * c1)

    def vel_field(t: float) -> np.ndarray:
        du, dv = chart.partials(u0 + t * c0, v0 + t * c1, h_jet)
        return c0 * du + c1 * dv

    vel0 = vel_field(0.0)
    speed2 = max(1.0, abs(d.inner(Signature.R, vel0, vel0)))
    out = {}
    for sig in (Signature.R, Signature.L):
        defect = amb.cov_deriv_on_curve(sig, curve, vel_field, h, velocity=vel0)
        out[sig.value] = _frame_norm(d, defect) / speed2
    return out


def evaluate_samples(
    names: list[str],
    samples: list[TwoMetricFrameData],
    rng: np.random.Generator,
) -> list[dict[str, dict]]:
    """Evaluate named identities on the samples of one surface.

    The samples must share one ambient (one model and parameter pair), as
    the samples of one ``frame_batch`` do; ConfigInvalid otherwise.
    Returns, per sample, per identity either {"residuals": [...]} or
    {"skipped": reason}; a SampleSkip or GeometryError becomes a skip with
    its reason or error code.  The identities that draw random numbers run
    sample by sample, each sample's in the order of ``names``, so ``rng`` is
    consumed exactly as by one ``run_identities`` call per sample.  The
    stacked identities draw nothing and run once, over all samples.
    """
    if any(d.ambient is not samples[0].ambient for d in samples):
        raise ConfigInvalid("evaluate_samples takes samples of one ambient")
    infos = [IDENTITIES[name] for name in names]
    outs: list[dict[str, dict]] = [{} for _ in samples]
    for data, out in zip(samples, outs):
        ctx = IdentityContext(data=data, rng=rng)
        for name, info in zip(names, infos):
            if not info.stacked:
                try:
                    out[name] = {"residuals": info.evaluate(ctx)}
                except (SampleSkip, GeometryError) as exc:
                    out[name] = _skipped(exc)
    for name, info in zip(names, infos):
        if info.stacked and samples:
            for out, got in zip(outs, info.evaluate(samples)):
                out[name] = _skipped(got) if isinstance(got, Exception) else {"residuals": got}
    return [{name: out[name] for name in names} for out in outs]


def _skipped(exc: Exception) -> dict:
    return {"skipped": exc.reason if isinstance(exc, SampleSkip) else exc.code}


def run_identities(
    names: list[str],
    data: TwoMetricFrameData,
    rng: np.random.Generator,
) -> dict[str, dict]:
    """Evaluate named identities on one sample: ``evaluate_samples`` of one sample."""
    return evaluate_samples(names, [data], rng)[0]
