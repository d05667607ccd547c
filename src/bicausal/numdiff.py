"""Finite-difference helpers and step-size policy.

All derivatives in the package go through the central-difference routines in
this module so that step sizes are controlled in one place.  The environment
variable ``BICAUSAL_FD_STEP`` overrides the base first-derivative step.
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


def central_diff(f, x: float, h: float):
    """d/dt f at t = x by the symmetric fourth-order rule; f may return arrays.

    The five-point formula keeps truncation error at h^4 scale, which matters
    when the derivative later passes through an ill-conditioned Gram solve.
    """
    f1 = np.asarray(f(x + h), dtype=float)
    f2 = np.asarray(f(x + 2.0 * h), dtype=float)
    fm1 = np.asarray(f(x - h), dtype=float)
    fm2 = np.asarray(f(x - 2.0 * h), dtype=float)
    return (fm2 - f2 + 8.0 * (f1 - fm1)) / (12.0 * h)


def partial_diff(f, p: np.ndarray, axis: int, h: float):
    """Partial derivative of f along coordinate ``axis`` at point p."""
    e = np.zeros_like(np.asarray(p, dtype=float))
    e[axis] = 1.0

    def along(t: float):
        return f(np.asarray(p, dtype=float) + t * e)

    return central_diff(along, 0.0, h)


def gradient(f, p: np.ndarray, h: float) -> np.ndarray:
    """All partial derivatives of f (scalar or array valued), stacked on axis 0."""
    p = np.asarray(p, dtype=float)
    return np.stack([partial_diff(f, p, a, h) for a in range(p.size)], axis=0)
