"""Independent numerical routes used to cross-check the primary formulas.

Everything in this module recomputes geometric quantities from raw metric
evaluations and finite differences only, deliberately avoiding the closed
forms and analytic derivatives used by the primary code paths.  Tests compare
the two routes; production code should not depend on this module.

The exception is the per-row references of the coordinate primitives
(``coordinate_metric_rows``, ``coordinate_frame_rows``,
``coordinate_frame_partial_rows``), the looped sum of the tau = 0 tables
(``table_loop``) and the per-row references of the catalog charts
(``coordinate_chart_rows``, ``berger_helicoid_rows``, ``su11_helicoid_rows``):
the closed forms, evaluated one point at a time in Python floats and NumPy
scalars, against which the stacked array code must agree bit for bit.  So
are the per-point draws of the sample grid (``sample_points_loop``), the
per-row residual formulas (``scalar_residual_row``,
``sized_residual_row``, ``worst_row``) and the per-sample consistency
invariants (``invariants_row``), which the stacked residuals and
``SampleBatch.invariants`` replace; and the two-pass normal data of a
batch's centers and stencil rows (``normal_data_two_pass``), which the one
pass of ``surfaces._normal_data`` replaces.
"""

from __future__ import annotations

import math

import numpy as np

from bicausal import surfaces
from bicausal.ambient import Signature, frame_gram, stacked_inner, wedge_frame
from bicausal.errors import (
    DegenerateInput,
    GeometryError,
    ImmersionFailure,
    NumericFailure,
    OrientationFlip,
)
from bicausal.numdiff import STENCIL_STEPS, central_diff, christoffels, gradient


def lie_bracket_fd(fields_x, fields_y, p: np.ndarray, h: float) -> np.ndarray:
    """[X, Y] at p from central differences of the component functions.

    The fields are stacked, points (n, dim) -> components (n, dim).
    """
    p = np.asarray(p, dtype=float)
    jx = gradient(fields_x, p[None], h)[0]
    jy = gradient(fields_y, p[None], h)[0]
    x0 = fields_x(p[None])[0]
    y0 = fields_y(p[None])[0]
    return x0 @ jy - y0 @ jx


def koszul_table(ambient, sig: Signature, p: np.ndarray, h: float) -> np.ndarray:
    """Connection coefficients of the frame legs straight from the Koszul formula.

    Uses only metric evaluations, finite-difference directional derivatives of
    inner products and finite-difference Lie brackets of the frame fields.
    Returns the same (3, 3, 3) layout as the primary connection table.
    """
    p = np.asarray(p, dtype=float)
    m0 = ambient.frame(p)
    g = ambient.metric(sig, p)

    def leg(i):
        return lambda qs: ambient.frames(qs)[:, :, i]

    # the frame and metric at each stencil point q, built once for all (j, k)
    at: dict[bytes, tuple] = {}

    def ip(j, k, q):
        key = q.tobytes()
        if key not in at:
            at[key] = (ambient.frame(q), ambient.metric(sig, q))
        m, g_q = at[key]
        return float(m[:, j] @ g_q @ m[:, k])

    def dirderiv(i, j, k):
        # derivative of <leg_j, leg_k> along leg_i, following the straight
        # coordinate line through p with velocity leg_i(p)
        return central_diff(lambda t: ip(j, k, p + t * m0[:, i]), 0.0, h)

    brackets = [[lie_bracket_fd(leg(i), leg(j), p, h) for j in range(3)] for i in range(3)]

    def bk(i, j, k):
        return float(brackets[i][j] @ g @ m0[:, k])

    eps = np.array([1.0, 1.0, sig.eps3])
    table = np.empty((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                two = (
                    dirderiv(i, j, k)
                    + dirderiv(j, k, i)
                    - dirderiv(k, i, j)
                    + bk(i, j, k)
                    - bk(j, k, i)
                    + bk(k, i, j)
                )
                table[i, j, k] = eps[k] * 0.5 * two
    return table


def curvature_fd(metrics_fn, p: np.ndarray, h_outer: float, h_inner: float) -> np.ndarray:
    """Curvature tensor components R[rho, sigma, mu, nu] from nested differences.

    ``metrics_fn`` is a stacked metric, points (n, dim) -> (n, dim, dim).
    Sign convention matches the package's curvature operator: contracting as
    ``R[:, s, m, n] z^s x^m y^n`` yields the operator applied to (x, y, z).
    """
    p = np.asarray(p, dtype=float)
    n = p.size

    def gams(qs):
        return christoffels(metrics_fn, qs, h_inner)

    dgam = gradient(gams, p[None], h_outer)[0]
    g0 = christoffels(metrics_fn, p[None], h_inner)[0]
    riem = np.zeros((n, n, n, n))
    for rho in range(n):
        for s in range(n):
            for m in range(n):
                for nu in range(n):
                    val = dgam[m][rho, nu, s] - dgam[nu][rho, m, s]
                    val += float(g0[rho, m] @ g0[:, nu, s]) - float(g0[rho, nu] @ g0[:, m, s])
                    riem[rho, s, m, nu] = -val
    return riem


def curvature_from_tables(ambient, sig: Signature) -> np.ndarray:
    """Frame curvature components from the constant connection tables (twisted case).

    Valid only when the connection coefficients are position independent,
    i.e. for tau != 0.  Returns R[k, i, j, :] = operator on (leg_i, leg_j,
    leg_k) in frame components.
    """
    table = ambient.connection_table(sig, np.zeros(3))
    out = np.empty((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            bracket = table[i, j] - table[j, i]
            for k in range(3):
                nab_j_k = table[j, k]
                nab_i_k = table[i, k]
                first = sum(nab_j_k[m] * table[i, m] for m in range(3))
                second = sum(nab_i_k[m] * table[j, m] for m in range(3))
                third = sum(bracket[m] * table[m, k] for m in range(3))
                out[k, i, j] = third - (first - second)
    return out


def frame_orthonormality_defect(ambient, sig: Signature, p: np.ndarray) -> float:
    """Largest deviation of the frame Gram matrix from its required constant value."""
    m = ambient.frame(p)
    g = ambient.metric(sig, p)
    return float(np.max(np.abs(m.T @ g @ m - frame_gram(sig))))


# -- per-row references of the coordinate primitives ----------------------------


def _horizontal(ambient, x: float, y: float, z: float) -> tuple[float, float, float]:
    """1 + kappa (x^2 + y^2) / 4, cos(s z) and sin(s z) at one point, as Python floats."""
    li = 1.0 + 0.25 * ambient.params.kappa * (x**2 + y**2)
    s = ambient.params.twist_rate
    return li, math.cos(s * z), math.sin(s * z)


def coordinate_metric_rows(ambient, sig: Signature, points) -> np.ndarray:
    """diag(lam^2, lam^2, 0) + eps3 theta theta^T, entry by entry, one point at a time."""
    t, e = ambient.params.tau, sig.eps3
    out = []
    for x, y, z in np.asarray(points, dtype=float).tolist():
        lam = 1.0 / _horizontal(ambient, x, y, z)[0]
        theta = (t * lam * y, -t * lam * x, 1.0)
        diag = (lam * lam, lam * lam, 0.0)
        out.append(
            [
                [(diag[i] if i == j else 0.0) + e * (theta[i] * theta[j]) for j in range(3)]
                for i in range(3)
            ]
        )
    return np.array(out).reshape(-1, 3, 3)


def coordinate_frame_rows(ambient, points) -> np.ndarray:
    """The canonical frame matrices, one point at a time."""
    t = ambient.params.tau
    out = []
    for x, y, z in np.asarray(points, dtype=float).tolist():
        li, c, sn = _horizontal(ambient, x, y, z)
        out.append(
            [
                [li * c, -li * sn, 0.0],
                [li * sn, li * c, 0.0],
                [t * (x * sn - y * c), t * (x * c + y * sn), 1.0],
            ]
        )
    return np.array(out).reshape(-1, 3, 3)


def coordinate_frame_partial_rows(ambient, points) -> np.ndarray:
    """The coordinate partials of the frame matrices, (n, 3, 3, 3), one point at a time."""
    k, t = ambient.params.kappa, ambient.params.tau
    s = ambient.params.twist_rate
    out = []
    for x, y, z in np.asarray(points, dtype=float).tolist():
        li, c, sn = _horizontal(ambient, x, y, z)
        dx_li, dy_li = 0.5 * k * x, 0.5 * k * y
        out.append(
            [
                [
                    [dx_li * c, -dx_li * sn, 0.0],
                    [dx_li * sn, dx_li * c, 0.0],
                    [t * sn, t * c, 0.0],
                ],
                [
                    [dy_li * c, -dy_li * sn, 0.0],
                    [dy_li * sn, dy_li * c, 0.0],
                    [-t * c, t * sn, 0.0],
                ],
                [
                    [-li * s * sn, -li * s * c, 0.0],
                    [li * s * c, -li * s * sn, 0.0],
                    [t * s * (x * c + y * sn), t * s * (y * c - x * sn), 0.0],
                ],
            ]
        )
    return np.array(out).reshape(-1, 3, 3, 3)


def table_loop(ambient, sig: Signature, points) -> np.ndarray:
    """The tau = 0 connection tables of ``_table_from_metric``, summed by a loop over (i, j, a).

    The nine Christoffel products are the stacked ones; each term is added
    to its (i, j) entry in turn, starting from zeros.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    gam_c = ambient.christoffels(sig, points)
    m = ambient.frames(points)
    dm = ambient.frame_partials(points)
    gam_m = [
        [(gam_c[:, :, a, :] @ m[:, :, j, None])[..., 0] for j in range(3)] for a in range(3)
    ]
    vec = np.zeros((n, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for a in range(3):
                vec[:, i, j] += m[:, a, i, None] * (dm[:, a, :, j] + gam_m[a][j])
    return np.linalg.solve(m[:, None, None], vec[..., None])[..., 0]


# -- per-row references of the catalog charts ----------------------------------
#
# Each returns the pair (point, jacobian) of functions of one uv row.


def coordinate_chart_rows(family: str, label, options: dict):
    """The coordinate-model chart ``family`` with its resolved label and options, per row."""
    if family == "hopf":
        ax, ay = (options["r"],) * 2 if label == "circle" else (options["a"], options["b"])
        return (
            lambda u, v: np.array([ax * math.cos(u), ay * math.sin(u), v]),
            lambda u, v: (
                np.array([-ax * math.sin(u), ay * math.cos(u), 0.0]),
                np.array([0.0, 0.0, 1.0]),
            ),
        )
    if family == "slice":
        t0 = options["t0"]
        return (
            lambda u, v: np.array([u, v, t0]),
            lambda u, v: (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
        )
    if family == "graph":
        a = options["a"]
        return (
            lambda u, v: np.array([u, v, a * (u * u + v * v)]),
            lambda u, v: (np.array([1.0, 0.0, 2.0 * a * u]), np.array([0.0, 1.0, 2.0 * a * v])),
        )
    if family == "vgraph":
        a = options["a"]
        return (
            lambda u, v: np.array([a * u * v, u, v]),
            lambda u, v: (np.array([a * v, 1.0, 0.0]), np.array([a * u, 0.0, 1.0])),
        )
    if family == "helicoid":
        c = options["c"]
        return (
            lambda u, v: np.array([v * math.cos(u), v * math.sin(u), c * u]),
            lambda u, v: (
                np.array([-v * math.sin(u), v * math.cos(u), c]),
                np.array([math.cos(u), math.sin(u), 0.0]),
            ),
        )
    raise ValueError(f"no per-row chart for {family!r}")


def berger_helicoid_rows(alpha: float):
    """The sphere-model helicoid, per row."""

    def point(s, t):
        return np.array([
            math.cos(alpha * s) * math.cos(t),
            math.sin(alpha * s) * math.cos(t),
            math.cos(s) * math.sin(t),
            math.sin(s) * math.sin(t),
        ])

    def jacobian(s, t):
        ds = np.array([
            -alpha * math.sin(alpha * s) * math.cos(t),
            alpha * math.cos(alpha * s) * math.cos(t),
            -math.sin(s) * math.sin(t),
            math.cos(s) * math.sin(t),
        ])
        dt = np.array([
            -math.cos(alpha * s) * math.sin(t),
            -math.sin(alpha * s) * math.sin(t),
            math.cos(s) * math.cos(t),
            math.sin(s) * math.cos(t),
        ])
        return ds, dt

    return point, jacobian


def _row_to_r4(mat: np.ndarray) -> np.ndarray:
    z, w = mat[0, 0], mat[0, 1]
    return np.array([z.real, z.imag, w.real, w.imag])


def su11_helicoid_rows(params, family: str, rate: float, t_rate=None, base=None):
    """The hyperbolic-model helicoid, per row: three 2x2 complex factors per uv row."""
    factors = {
        "e": (
            lambda x: np.array([[np.exp(1j * x), 0.0], [0.0, np.exp(-1j * x)]]),
            lambda x: np.array([[1j * np.exp(1j * x), 0.0], [0.0, -1j * np.exp(-1j * x)]]),
            -2.0 * rate,
        ),
        "h1": (
            lambda x: np.array([[np.cosh(x), 1j * np.sinh(x)], [-1j * np.sinh(x), np.cosh(x)]]),
            lambda x: np.array([[np.sinh(x), 1j * np.cosh(x)], [-1j * np.cosh(x), np.sinh(x)]]),
            2.0 * rate,
        ),
        "p1": (
            lambda x: np.array([[1.0 + 1j * x, 1j * x], [-1j * x, 1.0 - 1j * x]]),
            lambda x: np.array([[1j, 1j], [-1j, -1j]]),
            rate,
        ),
        "p": (
            lambda x: np.array([[1.0 + 1j * x, -1j * x], [1j * x, 1.0 - 1j * x]]),
            lambda x: np.array([[1j, -1j], [1j, -1j]]),
            -rate,
        ),
    }
    lam0, lam0_d, r = factors[family]
    ct = 0.5 * params.kappa**2 if t_rate is None else float(t_rate)
    a_mat = np.eye(2, dtype=complex) if base is None else np.asarray(base, dtype=complex)

    def lam_h(x, d=False):
        c, s = np.cosh(x), np.sinh(x)
        return np.array([[s, c], [c, s]] if d else [[c, s], [s, c]], dtype=complex)

    def lam_e_half(s, d=False):
        m = np.array([[np.exp(0.5j * s), 0.0], [0.0, np.exp(-0.5j * s)]])
        return np.array([[0.5j * m[0, 0], 0.0], [0.0, -0.5j * m[1, 1]]]) if d else m

    def point(s, t):
        return _row_to_r4(lam_e_half(s) @ lam_h(ct * t) @ (lam0(r * s) @ a_mat))

    def jacobian(s, t):
        left, mid, right = lam_e_half(s), lam_h(ct * t), lam0(r * s) @ a_mat
        d_s = lam_e_half(s, d=True) @ mid @ right + left @ mid @ (r * lam0_d(r * s) @ a_mat)
        d_t = left @ (ct * lam_h(ct * t, d=True)) @ right
        return _row_to_r4(d_s), _row_to_r4(d_t)

    return point, jacobian


# -- the sample grid, one point at a time --------------------------------------------


def sample_points_loop(chart, n: int, rng, step: float) -> list:
    """``suite.sample_points``, drawing each point's jitter with its own ``rng.random()``."""
    (ulo, uhi), (vlo, vhi) = chart.domain
    nu = max(1, int(np.ceil(np.sqrt(n))))
    nv = max(1, int(np.ceil(n / nu)))
    du, dv = uhi - ulo, vhi - vlo
    inset_u = max(0.05 * du, 5.0 * step)
    inset_v = max(0.05 * dv, 5.0 * step)
    us = np.linspace(ulo + inset_u, uhi - inset_u, nu)
    vs = np.linspace(vlo + inset_v, vhi - inset_v, nv)
    cell_u = (du - 2 * inset_u) / max(nu - 1, 1)
    cell_v = (dv - 2 * inset_v) / max(nv - 1, 1)
    pts = []
    for u in us:
        for v in vs:
            if len(pts) >= n:
                break
            ju = 0.3 * cell_u * (rng.random() - 0.5) if nu > 1 else 0.0
            jv = 0.3 * cell_v * (rng.random() - 0.5) if nv > 1 else 0.0
            pts.append((float(np.clip(u + ju, ulo + inset_u, uhi - inset_u)),
                        float(np.clip(v + jv, vlo + inset_v, vhi - inset_v))))
    return pts


# -- per-row residuals ------------------------------------------------------------


def scalar_residual_row(lhs: float, *terms: float) -> float:
    """|lhs| / max(1, |term| for each term), in Python floats."""
    scale = max([1.0] + [abs(t) for t in terms])
    return abs(lhs) / scale


def sized_residual_row(size: list[float]) -> float:
    """The residual of sizes [lhs, *terms]: lhs / max(1, *terms), in Python floats."""
    return size[0] / max([1.0] + size[1:])


def worst_row(residuals: list[float]) -> float:
    """Largest residual, or the first non-finite one; 0.0 for none, by a scan."""
    for r in residuals:
        if not math.isfinite(r):
            return r
    return max(residuals, default=0.0)


def invariants_row(data) -> dict[str, float]:
    """The internal consistency residuals of one sample, from its own readers."""
    res = {}
    res["unit_normal_L"] = abs(data.inner(Signature.L, data.n_l, data.n_l) - data.eps)
    res["unit_normal_R"] = abs(data.inner(Signature.R, data.n_r, data.n_r) - 1.0)
    res["normal_routes"] = float(data._batch.center.wedge_agreement[data._j])
    res["angle_transform"] = abs(data.angle_r + data.angle_l / data.omega_l)
    arg = data.eps * (1.0 - 2.0 * data.angle_r**2)
    res["omega_product"] = abs(data.omega_l * math.sqrt(arg) - 1.0) if arg > 0.0 else math.inf
    res["t_split_R"] = abs(data.inner(Signature.R, data.t_r, data.t_r) + data.angle_r**2 - 1.0)
    res["t_split_L"] = abs(
        data.inner(Signature.L, data.t_l, data.t_l) + data.eps * data.angle_l**2 + 1.0
    )
    res["t_relation"] = float(np.max(np.abs(data.t_r - (data.eps / data.omega_l**2) * data.t_l)))
    res["t_tangency_R"] = abs(data.inner(Signature.R, data.t_r, data.n_r))
    res["t_tangency_L"] = abs(data.inner(Signature.L, data.t_l, data.n_l))
    res["branch"] = max(0.0, 1.0 - data.omega_l)
    return res


def normal_pass(ambient, chart, uvs, h_jet: float, reference=None, routes: bool = False):
    """The NormalData of a stack of uv rows, as one pass computed it before centers and
    stencil rows shared one.

    With ``reference`` (one vector per uv row) the Lorentzian normal takes
    the sign closer to it; otherwise its normal angle is made nonpositive,
    and a tie (``SIGN_TIE_TOL``) keeps the wedge sign.  ``routes`` adds the
    agreement of the Riemannian normal with its own wedge route.
    """
    point, pair, errors, rows = surfaces._charted(ambient, chart, *surfaces.uv_columns(uvs), h_jet)
    du, dv = pair[:, 0], pair[:, 1]
    frame = ambient.frames(point)
    g_r, g_l = ambient.metrics(Signature.R, point), ambient.metrics(Signature.L, point)
    alive = [True] * len(rows)

    def fail(j, error):
        if alive[j]:
            errors[rows[j]] = error
            alive[j] = False

    def at(j):
        return f"uv={uvs[rows[j]]!r}"

    with np.errstate(all="ignore"):
        gram_r = surfaces._grams(g_r, pair)
        gram_l = surfaces._grams(g_l, pair)
        scale = gram_r[:, 0, 0] * gram_r[:, 1, 1]
        det_r, det_l = np.linalg.det(gram_r), np.linalg.det(gram_l)
        rejected, spacelike = surfaces._characters(scale, det_l)
        flagged = (det_r <= surfaces.IMMERSION_TOL * np.maximum(scale, 1e-300)) | rejected
        eps = np.where(spacelike, -1.0, 1.0)
        eps[flagged] = 1.0
        for j in np.flatnonzero(flagged).tolist():
            sc = scale[j].item()
            try:
                if det_r[j].item() <= surfaces.IMMERSION_TOL * max(sc, 1e-300):
                    raise ImmersionFailure(f"rank-deficient chart derivative at {at(j)}")
                char, _ = surfaces._classify(sc, det_l[j].item(), point[j])
                if char == surfaces.DEGENERATE:
                    raise DegenerateInput(f"degenerate tangent plane at {at(j)}")
            except GeometryError as exc:
                fail(j, exc.with_traceback(None))
                continue
            eps[j] = 1.0 if char == surfaces.TIMELIKE else -1.0

        xi = frame[:, :, 2]
        pair_f = ambient.to_frames(point, pair, frames=frame, metric_r=g_r)
        w_l = ambient.to_coords(
            point, wedge_frame(Signature.L, pair_f[:, 0], pair_f[:, 1]), frames=frame
        )
        nn = stacked_inner(g_l, w_l, w_l)
        for j in np.flatnonzero(np.abs(nn) <= 0.0).tolist():
            fail(j, DegenerateInput(f"null Lorentzian normal direction at {at(j)}"))
        n_l = w_l / np.sqrt(np.abs(nn))[:, None]
        angle_l = stacked_inner(g_l, n_l, xi)

        if reference is not None:
            ref = reference[rows]
            flip = (n_l[:, None, :] @ ref[..., None])[..., 0, 0] < 0.0
            sign_ambiguous = np.zeros(len(rows), dtype=bool)
        else:
            sign_ambiguous = np.abs(angle_l) <= surfaces.SIGN_TIE_TOL
            flip = ~sign_ambiguous & (angle_l > 0.0)
        n_l = np.where(flip[:, None], -n_l, n_l)
        angle_l = np.where(flip, -angle_l, angle_l)

        omega_sq = eps + 2.0 * angle_l * angle_l
        for j in np.flatnonzero(omega_sq <= 0.0).tolist():
            fail(j, NumericFailure(f"invalid normal stretch at {at(j)}: {omega_sq[j].item()}"))
        omega_l = np.sqrt(omega_sq)
        omega_r = 1.0 / omega_l
        n_r = (-2.0 * angle_l[:, None] * xi - n_l) / omega_l[:, None]
        angle_r = stacked_inner(g_r, n_r, xi)

        agreement = None
        if routes:
            w_r = ambient.to_coords(
                point, wedge_frame(Signature.R, pair_f[:, 0], pair_f[:, 1]), frames=frame
            )
            n_r_wedge = w_r / np.sqrt(stacked_inner(g_r, w_r, w_r))[:, None]
            apart = np.max(np.abs(n_r - n_r_wedge), axis=1)
            opposed = np.max(np.abs(n_r + n_r_wedge), axis=1)
            agreement = np.where(opposed < apart, opposed, apart)

        t_l = xi - (eps * angle_l)[:, None] * n_l
        t_r = xi - angle_r[:, None] * n_r

    return surfaces.NormalData(
        errors=errors, rows=rows, point=point, frame=frame, g_r=g_r, g_l=g_l, du=du, dv=dv,
        gram_r=gram_r, gram_l=gram_l, eps=eps, n_l=n_l, n_r=n_r, angle_l=angle_l,
        angle_r=angle_r, omega_l=omega_l, omega_r=omega_r, t_l=t_l, t_r=t_r,
        sign_ambiguous=sign_ambiguous, wedge_agreement=agreement,
    )


def stencil_uvs(uv: tuple[float, float], h: float) -> list[tuple[float, float]]:
    """The eight stencil rows of uv, one tuple at a time: along chart axis 0, then 1, at
    ``STENCIL_STEPS`` times h."""
    out = []
    for axis in (0, 1):
        for k in STENCIL_STEPS:
            shifted = list(uv)
            shifted[axis] += k * h
            out.append((shifted[0], shifted[1]))
    return out


def normal_data_two_pass(ambient, chart, uvs, steps):
    """A batch's centers and its samples' stencil rows, in two passes and a loop.

    The center pass first; then one pass over the eight stencil rows of each
    sample (a center without an error), each referenced to its center's
    Lorentzian normal; then each row's OrientationFlip, one row at a time.
    Returns the NormalData of the centers and of the stencil rows, rows
    8k .. 8k + 7 for sample k.
    """
    c = normal_pass(ambient, chart, uvs, steps.first, routes=True)
    centers = [j for j, i in enumerate(c.rows) if c.errors[i] is None]
    sample_uvs = [uvs[c.rows[j]] for j in centers]
    h = steps.second
    rows = [uv for center in sample_uvs for uv in stencil_uvs(center, h)]
    reference = np.repeat(c.n_l[centers], 8, axis=0)
    st = normal_pass(ambient, chart, rows, steps.first, reference)
    center_angles = c.angle_l[centers].tolist()
    for i, angle in zip(st.rows, st.angle_l.tolist()):
        a0 = center_angles[i // 8]
        tie = surfaces.SIGN_TIE_TOL
        if st.errors[i] is None and abs(angle) > tie and abs(a0) > tie and angle * a0 < 0.0:
            st.errors[i] = OrientationFlip(
                f"normal angle changes sign across stencil at uv={sample_uvs[i // 8]!r}"
            )
    return c, st
