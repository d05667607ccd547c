"""Independent numerical routes used to cross-check the primary formulas.

Everything in this module recomputes geometric quantities from raw metric
evaluations and finite differences only, deliberately avoiding the closed
forms and analytic derivatives used by the primary code paths.  Tests compare
the two routes; production code should not depend on this module.

The exception is the per-row references of the coordinate primitives
(``coordinate_metric_rows``, ``coordinate_frame_rows``,
``coordinate_frame_partial_rows``): the closed forms, evaluated one point at a
time in Python floats, against which the stacked array code must agree bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

from bicausal.ambient import Signature, frame_gram
from bicausal.numdiff import central_diff, christoffels, gradient


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

    def ip(j, k, q):
        m = ambient.frame(q)
        return float(m[:, j] @ ambient.metric(sig, q) @ m[:, k])

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
