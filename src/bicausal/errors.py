"""Exception types shared across the package.

Every exception carries a short machine-readable ``code`` so the CLI and the
verification suite can report failures uniformly.  Functions raise the most
specific type that applies; ``GeometryError`` is the catch-all base.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all package-specific errors."""

    code = "GEOMETRY_ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.__doc__ or self.code)


class DomainViolation(GeometryError):
    """Point lies outside the model domain (e.g. outside the open disk for kappa < 0)."""

    code = "DOMAIN_VIOLATION"


class NumericFailure(GeometryError):
    """A numerical invariant that must hold failed beyond tolerance."""

    code = "NUMERIC_FAILURE"


class DegenerateInput(GeometryError):
    """Tangent plane is degenerate for the Lorentzian metric; no unit normal exists."""

    code = "DEGENERATE_INPUT"


class ImmersionFailure(GeometryError):
    """Chart derivative is rank-deficient at the requested parameters."""

    code = "IMMERSION_FAILURE"


class OrientationFlip(GeometryError):
    """Normal sign convention changed across a finite-difference stencil."""

    code = "ORIENTATION_FLIP"


class NullDirection(GeometryError):
    """Requested direction is null for the Lorentzian metric; normal curvature undefined."""

    code = "NULL_DIRECTION"


class CurveSingular(GeometryError):
    """Base curve has vanishing speed at the requested parameter."""

    code = "CURVE_SINGULAR"


class ModelMismatch(GeometryError):
    """Parameters are outside the validity range of the requested model."""

    code = "MODEL_MISMATCH"


class ConfigInvalid(GeometryError):
    """Suite or CLI configuration is malformed."""

    code = "CONFIG_INVALID"


class SurfaceUnavailable(ConfigInvalid):
    """A well-formed catalog surface does not exist at the requested (kappa, tau).

    The suite spans parameter pairs, so it skips such a surface; every other
    ConfigInvalid from a surface address is an error.
    """


class UnsupportedFormat(GeometryError):
    """Requested export format cannot represent the object (e.g. OBJ for an R^4 model)."""

    code = "UNSUPPORTED_FORMAT"
