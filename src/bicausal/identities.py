"""Residual evaluation for the transformation laws linking the two metrics.

Each identity is a named check with a default tolerance reflecting how many
finite-difference layers its inputs traverse: purely algebraic consequences
of the metric definitions sit at 1e-12/1e-9, quantities one derivative deep
at 1e-5, and anything built on shape operators or stencil derivatives at
1e-4.  Evaluators return a list of normalized residuals for one surface
sample; the suite aggregates them.

Residual normalization divides by max(1, size of the participating terms) so
that tolerances are meaningful for both tiny and large geometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .ambient import SIGNATURES, Signature, connection_gap_frame, wedge_frame
from .errors import GeometryError, NullDirection
from .numdiff import brioschi_curvature
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


def _frame_norm(data: TwoMetricFrameData, vec: np.ndarray) -> float:
    """Size of an ambient vector measured in orthonormal frame components."""
    if not vec.any():  # what the conversion gives, without one
        return 0.0
    return float(np.max(np.abs(data.to_frame(vec))))


def _vec_residual(data: TwoMetricFrameData, lhs: np.ndarray, *terms: np.ndarray) -> float:
    # lhs often equals a term bit for bit (the other parts vanish): size it once
    vecs = {v.tobytes(): v for v in (lhs, *terms)}
    size = {key: _frame_norm(data, v) for key, v in vecs.items()}
    scale = max([1.0] + [size[t.tobytes()] for t in terms])
    return size[lhs.tobytes()] / scale


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


def _normal_transform(ctx: IdentityContext) -> list[float]:
    inv = ctx.data.invariants
    return [inv["normal_routes"], inv["angle_transform"]]


def _normal_pairing(ctx: IdentityContext) -> list[float]:
    d = ctx.data
    out = []
    for _ in range(3):
        v = _random_ambient_vector(ctx)
        pr = d.inner(Signature.R, d.n_r, v)
        pl = d.inner(Signature.L, d.n_l, v)
        out.append(_scalar_residual(pr + pl / d.omega_l, pr, pl))
    return out


def _omega_product(ctx: IdentityContext) -> list[float]:
    return [ctx.data.invariants["omega_product"]]


def _t_relation(ctx: IdentityContext) -> list[float]:
    inv = ctx.data.invariants
    return [inv["t_relation"], inv["t_split_R"], inv["t_split_L"]]


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
    curve = amb.curve_through(p, vel)

    def along(t: float) -> np.ndarray:
        q = curve(t)
        return amb.frame(q) @ x_comps(q)

    # One sampling of the field and one conversion of the velocity serve both metrics.
    comps = amb.sample_stencil(curve, along, h)
    at = d.curve_frame()
    vel_f = at.to_frame(vel)
    d_r, d_l = (
        amb.cov_deriv_stencil(sig, at, vel, comps[:1], comps[1:, None], h, vel_f=vel_f)[0]
        for sig in SIGNATURES
    )
    gap = d.to_coord(connection_gap_frame(amb.params.tau, x0f, y0f))
    return [_vec_residual(d, d_r - d_l - gap, d_r, d_l, gap)]


def _killing(ctx: IdentityContext, sig: Signature) -> list[float]:
    d = ctx.data
    amb, p = d.ambient, d.point
    h = d.steps.first
    tau = amb.params.tau
    at = d.curve_frame()
    out = []
    for _ in range(2):
        x = _random_ambient_vector(ctx)
        curve = amb.curve_through(p, x)
        deriv = amb.cov_deriv_on_curve(
            sig, curve, lambda t: amb.fiber_direction(curve(t)), h, velocity=x, at=at
        )
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
            a_o_t = _apply_shape(d, o, d.coeffs(o, t_o))
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


# The two mean-curvature laws stay apart: (eps / w**3) * q and -q / w**3 round differently.


def _meancurv_r(ctx: IdentityContext) -> list[float]:
    d = ctx.data
    a_l_t = _apply_shape(d, Signature.L, d.coeffs(Signature.L, d.t_l))
    quad = d.inner(Signature.L, a_l_t, d.t_l)
    lhs = d.h_r + (d.eps / d.omega_l) * d.h_l + (d.eps / d.omega_l**3) * quad
    return [_scalar_residual(lhs, d.h_r, d.h_l, quad)]


def _meancurv_l(ctx: IdentityContext) -> list[float]:
    d = ctx.data
    a_r_t = _apply_shape(d, Signature.R, d.coeffs(Signature.R, d.t_r))
    quad = d.inner(Signature.R, a_r_t, d.t_r)
    lhs = d.h_l + (d.eps / d.omega_r) * d.h_r - quad / d.omega_r**3
    return [_scalar_residual(lhs, d.h_l, d.h_r, quad)]


# -- integrability --------------------------------------------------------------


def _int_residuals(ctx: IdentityContext, sig: Signature, which: int) -> list[float]:
    d = ctx.data
    tau = d.ambient.params.tau
    derivs = d.tangent_derivatives(sig)
    shape = d.shape(sig)
    rot = d.rotation(sig)
    t_vec = d.tangent_part_t(sig)
    t_coeffs = d.coeffs(sig, t_vec)
    angle = d.angle_l if sig is Signature.L else d.angle_r
    factor = d.eps * angle if sig is Signature.L else angle
    sign = -sig.eps3
    out = []
    for axis in (0, 1):
        basis = np.array([1.0, 0.0]) if axis == 0 else np.array([0.0, 1.0])
        if which == 1:
            rhs = factor * (shape + sign * tau * rot) @ basis
            lhs = derivs["dt"][axis] - rhs
            out.append(_vec_residual(d, d.embed(lhs), d.embed(derivs["dt"][axis]), d.embed(rhs)))
        else:
            # derivative of the angle along the chart direction
            a_term = (shape - sign * tau * rot) @ t_coeffs
            rhs = -d.coeff_inner(sig, a_term, basis)
            lhs = derivs["dangle"][axis] - rhs
            out.append(_scalar_residual(lhs, derivs["dangle"][axis], rhs))
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


def adapted_tangent_basis(
    data: TwoMetricFrameData, sig: Signature
) -> tuple[np.ndarray, np.ndarray]:
    """Tangent basis normalized for sectional curvature evaluation.

    Riemannian: an orthonormal pair.  Lorentzian: first vector of square +1,
    second of square -eps (so +1 on a spacelike plane, -1 on a timelike one).
    """
    d = data
    if sig is Signature.R or d.eps < 0:
        e1 = d.du / math.sqrt(d.inner(sig, d.du, d.du))
        w = d.dv - d.inner(sig, d.dv, e1) * e1
        return e1, w / math.sqrt(d.inner(sig, w, w))
    candidates = [
        d.du,
        d.dv,
        d.du + d.dv,
        d.du - d.dv,
    ]
    best = max(candidates, key=lambda x: d.inner(Signature.L, x, x) / d.inner(Signature.R, x, x))
    q = d.inner(Signature.L, best, best)
    if q <= 0:
        raise SampleSkip(NullDirection.code)
    e1 = best / math.sqrt(q)
    others = []
    for cand in (d.du, d.dv):
        w = cand - d.inner(Signature.L, cand, e1) * e1
        others.append((d.inner(Signature.L, w, w), w))
    qw, w = min(others, key=lambda item: item[0])
    if qw >= 0:
        raise SampleSkip(NullDirection.code)
    return e1, w / math.sqrt(-qw)


def curvature_suite(data: TwoMetricFrameData) -> dict:
    """All curvature scalars of one sample, via independent routes.

    The ambient sectional curvatures come from the curvature tensor evaluated
    on adapted tangent bases; the closed forms in terms of the normal angles
    are reported alongside for cross-checking.  Intrinsic curvatures follow
    the Gauss equation with the tensor-route ambient part.
    """
    if data.curvature_scalars is not None:
        return data.curvature_scalars
    d = data
    k, t = d.ambient.params.kappa, d.ambient.params.tau

    e1, e2 = adapted_tangent_basis(d, Signature.R)
    kbar_r = d.inner(Signature.R, d.curvature(Signature.R, e1, e2, e1), e2)
    f1, f2 = adapted_tangent_basis(d, Signature.L)
    kbar_l = d.inner(Signature.L, d.curvature(Signature.L, f1, f2, f1), f2)

    kbar_r_closed = t * t + (k - 4.0 * t * t) * d.angle_r**2
    kbar_l_closed = d.eps * t * t + (k + 4.0 * t * t) * d.angle_l**2

    ke_r = d.extrinsic_curvature(Signature.R)
    ke_l = d.extrinsic_curvature(Signature.L)
    out = {
        "kbar_R": kbar_r,
        "kbar_L": kbar_l,
        "kbar_R_closed": kbar_r_closed,
        "kbar_L_closed": kbar_l_closed,
        "ke_R": ke_r,
        "ke_L": ke_l,
        "k_R": kbar_r + ke_r,
        "k_L": kbar_l + d.eps * ke_l,
    }
    data.curvature_scalars = out
    return out


def _singular_ratio(params) -> float:
    return params.kappa + 4.0 * params.tau**2


def _require_regular(ctx: IdentityContext) -> None:
    params = ctx.data.ambient.params
    scale = max(1.0, abs(params.kappa), 4.0 * params.tau**2)
    if abs(_singular_ratio(params)) <= 1e-12 * scale:
        raise SampleSkip("PARAMETER_SINGULARITY")


def _sectional_rel(ctx: IdentityContext) -> list[float]:
    _require_regular(ctx)
    d = ctx.data
    params = d.ambient.params
    t = params.tau
    suite = curvature_suite(d)
    a = (params.kappa - 4.0 * t * t) / _singular_ratio(params)
    w2 = d.omega_l**2
    rhs = (t * t * (w2 - d.eps * a) + a * suite["kbar_L"]) / w2
    return [_scalar_residual(suite["kbar_R"] - rhs, suite["kbar_R"], rhs)]


def _extrinsic_rel(ctx: IdentityContext) -> list[float]:
    _require_regular(ctx)
    d = ctx.data
    t = d.ambient.params.tau
    suite = curvature_suite(d)
    a_r_t = _apply_shape(d, Signature.R, d.coeffs(Signature.R, d.t_r))
    j_r_t = d.rotate(Signature.R, d.frame_of("t_r"))
    mixed = d.inner(Signature.R, a_r_t, j_r_t)
    t_norm2 = d.inner(Signature.R, d.t_r, d.t_r)
    w4 = d.omega_r**4
    rhs = -(d.eps / w4) * suite["ke_R"] + (4.0 * t * d.eps / w4) * (mixed + t * t_norm2**2)
    return [_scalar_residual(suite["ke_L"] - rhs, suite["ke_L"], rhs)]


def _gauss(ctx: IdentityContext, sig: Signature) -> list[float]:
    d = ctx.data
    suite = curvature_suite(d)
    v = sig.value
    # the extrinsic term carries the square of the unit normal
    rhs = suite[f"kbar_{v}_closed"] + (1.0 if sig is Signature.R else d.eps) * suite[f"ke_{v}"]
    return [_scalar_residual(suite[f"k_{v}"] - rhs, suite[f"k_{v}"], rhs)]


def _combined_516(ctx: IdentityContext) -> list[float]:
    _require_regular(ctx)
    d = ctx.data
    params = d.ambient.params
    t = params.tau
    suite = curvature_suite(d)
    a = (params.kappa - 4.0 * t * t) / _singular_ratio(params)
    w2 = d.omega_l**2
    lhs = w2 * suite["k_R"] - a * suite["k_L"]
    rhs = (w2 - d.eps * a) * t * t - d.eps * a * suite["ke_L"] + w2 * suite["ke_R"]
    return [_scalar_residual(lhs - rhs, lhs, rhs)]


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityInfo:
    name: str
    tolerance: float
    evaluate: Callable[[IdentityContext], list[float]]


_REGISTRY: list[IdentityInfo] = [
    IdentityInfo("METRIC_SUM", 1e-12, _metric_sum),
    IdentityInfo("METRIC_DIFF", 1e-12, _metric_diff),
    IdentityInfo("NORMAL_TRANSFORM", 1e-9, _normal_transform),
    IdentityInfo("NORMAL_PAIRING", 1e-9, _normal_pairing),
    IdentityInfo("OMEGA_PRODUCT", 1e-9, _omega_product),
    IdentityInfo("T_RELATION", 1e-9, _t_relation),
    IdentityInfo("CONN_DIFF", 1e-5, _conn_diff),
    IdentityInfo("KILLING_R", 1e-5, partial(_killing, sig=Signature.R)),
    IdentityInfo("KILLING_L", 1e-5, partial(_killing, sig=Signature.L)),
    IdentityInfo("SHAPE_R", 1e-4, partial(_shape, sig=Signature.R)),
    IdentityInfo("SHAPE_L", 1e-4, partial(_shape, sig=Signature.L)),
    IdentityInfo("BILINEAR_R", 1e-4, partial(_bilinear, sig=Signature.R)),
    IdentityInfo("BILINEAR_L", 1e-4, partial(_bilinear, sig=Signature.L)),
    IdentityInfo("MEANCURV_R", 1e-4, _meancurv_r),
    IdentityInfo("MEANCURV_L", 1e-4, _meancurv_l),
    IdentityInfo("INT1_L", 1e-4, partial(_int_residuals, sig=Signature.L, which=1)),
    IdentityInfo("INT2_L", 1e-4, partial(_int_residuals, sig=Signature.L, which=2)),
    IdentityInfo("INT1_R", 1e-4, partial(_int_residuals, sig=Signature.R, which=1)),
    IdentityInfo("INT2_R", 1e-4, partial(_int_residuals, sig=Signature.R, which=2)),
    IdentityInfo("NORMCURV", 1e-5, _normcurv),
    IdentityInfo("SECTIONAL_REL", 1e-4, _sectional_rel),
    IdentityInfo("EXTRINSIC_REL", 1e-4, _extrinsic_rel),
    IdentityInfo("GAUSS_R", 1e-4, partial(_gauss, sig=Signature.R)),
    IdentityInfo("GAUSS_L", 1e-4, partial(_gauss, sig=Signature.L)),
    IdentityInfo("COMBINED_516", 1e-4, _combined_516),
]

IDENTITIES: dict[str, IdentityInfo] = {info.name: info for info in _REGISTRY}
IDENTITY_NAMES: list[str] = [info.name for info in _REGISTRY]


def evaluate_identity(name: str, ctx: IdentityContext) -> list[float]:
    """Residuals of one named identity at one sample; SampleSkip when inapplicable."""
    return IDENTITIES[name].evaluate(ctx)


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


def run_identities(
    names: list[str],
    data: TwoMetricFrameData,
    rng: np.random.Generator,
) -> dict[str, dict]:
    """Evaluate named identities on one sample.

    Returns per identity either {"residuals": [...]} or {"skipped": reason}.
    Geometry errors raised by an individual identity are converted to skips
    with the error code as reason.
    """
    ctx = IdentityContext(data=data, rng=rng)
    out: dict[str, dict] = {}
    for name in names:
        try:
            out[name] = {"residuals": evaluate_identity(name, ctx)}
        except SampleSkip as skip:
            out[name] = {"skipped": skip.reason}
        except GeometryError as exc:
            out[name] = {"skipped": exc.code}
    return out
