"""Finite-difference helpers and step-size policy.

All derivatives in the package go through the central-difference routines in
this module so that step sizes are controlled in one place.  The environment
variable ``BICAUSAL_FD_STEP`` overrides the base first-derivative step; each
ambient reads it once and owns the resulting ``FDSteps``.

Besides the difference rules, the module holds two routines built on them:
``christoffels``, the one FD Christoffel routine in the package, which both
ambient models call (as do the oracles in ``tests/oracles.py``), and
``brioschi_curvature``.
``gradient`` and ``christoffels`` take a stack of points (n, dim) and
differentiate stacked functions (points (n, dim) -> values (n, ...)), so every
axis at every point of a stencil offset is one call; one point is the
one-row case.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid

ENV_STEP = "BICAUSAL_FD_STEP"

DEFAULT_FIRST_STEP = 1e-4
DEFAULT_SECOND_STEP = 1e-3


@dataclass(frozen=True)
class FDSteps:
    """Step sizes for the finite-difference layers.

    first: metric/frame first derivatives (Christoffel assembly).
    second: anything that differences a quantity that is itself one FD deep
        (curvature tensors, Weingarten stencils, intrinsic curvature).
    """

    first: float = DEFAULT_FIRST_STEP
    second: float = DEFAULT_SECOND_STEP

    @staticmethod
    def from_env() -> "FDSteps":
        raw = os.environ.get(ENV_STEP)
        if raw is None:
            return FDSteps()
        try:
            h = float(raw)
        except ValueError as exc:
            raise ConfigInvalid(f"{ENV_STEP} must be a float, got {raw!r}") from exc
        if not (0.0 < h < 1.0):
            raise ConfigInvalid(f"{ENV_STEP} must lie in (0, 1), got {h}")
        # Keep the two layers in their default ratio.
        return FDSteps(first=h, second=h * (DEFAULT_SECOND_STEP / DEFAULT_FIRST_STEP))


# Offsets of the five-point rule, in units of the step, in the order every
# stencil in the package is evaluated (and its first error raised).
STENCIL_STEPS = (1, 2, -1, -2)


def stencil_params(h: float) -> tuple[float, ...]:
    """0, then ``STENCIL_STEPS`` times h: the parameters of a stencil's five values."""
    return (0.0,) + tuple(k * h for k in STENCIL_STEPS)


def stencil_values(f, h: float) -> np.ndarray:
    """f at each of the ``stencil_params``, as one array: a stencil's five values."""
    return np.array([f(t) for t in stencil_params(h)])


def stencil_derivative(values, h: float):
    """The five-point first derivative from values at ``STENCIL_STEPS`` times h.

    ``values`` is indexable by position in ``STENCIL_STEPS``; an array with
    the stencil on axis 0 gives the derivative of every trailing entry.
    """
    f1, f2, fm1, fm2 = values[0], values[1], values[2], values[3]
    return (fm2 - f2 + 8.0 * (f1 - fm1)) / (12.0 * h)


def central_diff(f, x: float, h: float):
    """d/dt f at t = x by the symmetric fourth-order rule; f may return arrays.

    The five-point formula keeps truncation error at h^4 scale, which matters
    when the derivative later passes through an ill-conditioned Gram solve.
    """
    return stencil_derivative([np.asarray(f(x + k * h), dtype=float) for k in STENCIL_STEPS], h)


def gradient(f, points: np.ndarray, h: float) -> np.ndarray:
    """All partial derivatives of a stacked function at each point, (n, dim, ...).

    ``f`` maps points (n, dim) to values (n, ...); it is called on the n * dim
    points ``p + t e_a`` at once, once per stencil offset t.  Entry [i, a] is
    the partial along axis a at points[i].
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    eye = np.eye(dim)

    def values(t: float) -> np.ndarray:
        out = f((points[:, None, :] + t * eye).reshape(n * dim, dim))
        return out.reshape(n, dim, *out.shape[1:])

    return central_diff(values, 0.0, h)


def christoffels(metrics_fn, points: np.ndarray, h: float) -> np.ndarray:
    """Coordinate Christoffel symbols Gamma[i, c, a, b] of a metric field at each point.

    ``metrics_fn`` is a stacked metric, points (n, dim) -> (n, dim, dim).
    Its partials come from ``gradient``; the contraction with the inverse
    metric is one stacked matmul over all points and (a, b), which rounds
    like ``ginv @ vec`` per point and pair.
    """
    points = np.asarray(points, dtype=float)
    dg = gradient(metrics_fn, points, h)
    ginv = np.linalg.inv(metrics_fn(points))
    # vec[i, a, b, c] = d_a g_bc + d_b g_ac - d_c g_ab at points[i]
    vec = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return np.moveaxis(0.5 * (ginv[:, None, None] @ vec[..., None])[..., 0], 3, 1)


def brioschi_curvature(first_form, uv: tuple[float, float], h: float) -> float:
    """Gauss curvature of a 2D metric from its coefficients alone.

    ``first_form(u, v)`` returns the triple (E, F, G).  All derivatives come
    from a 3x3 central stencil of spacing h.
    """
    u, v = float(uv[0]), float(uv[1])
    vals = {}
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            vals[(i, j)] = np.asarray(first_form(u + i * h, v + j * h), dtype=float)

    e0, f0, g0 = vals[(0, 0)]
    du = (vals[(1, 0)] - vals[(-1, 0)]) / (2.0 * h)
    dv = (vals[(0, 1)] - vals[(0, -1)]) / (2.0 * h)
    dvv = (vals[(0, 1)] - 2.0 * vals[(0, 0)] + vals[(0, -1)]) / (h * h)
    duu = (vals[(1, 0)] - 2.0 * vals[(0, 0)] + vals[(-1, 0)]) / (h * h)
    duv = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) / (4.0 * h * h)

    e_u, f_u, g_u = du
    e_v, f_v, g_v = dv
    e_vv = dvv[0]
    g_uu = duu[2]
    f_uv = duv[1]

    m1 = np.array(
        [
            [-0.5 * e_vv + f_uv - 0.5 * g_uu, 0.5 * e_u, f_u - 0.5 * e_v],
            [f_v - 0.5 * g_u, e0, f0],
            [0.5 * g_v, f0, g0],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.5 * e_v, 0.5 * g_u],
            [0.5 * e_v, e0, f0],
            [0.5 * g_u, f0, g0],
        ]
    )
    det_form = e0 * g0 - f0 * f0
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det_form * det_form))
