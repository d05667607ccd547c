"""Two-metric numerical geometry on the twisted homogeneous three-spaces.

One coordinate domain carries a Riemannian and a Lorentzian metric built from
the same parameter pair.  The package evaluates surfaces against both metrics
simultaneously: orthonormal frames, connections, normals, shape operators,
curvatures, and the algebraic identities tying the two sides together.
"""

from .ambient import (
    CoordinateAmbient,
    Signature,
    SpaceParams,
    connection_gap_frame,
    curvature_frame,
    frame_gram,
    wedge_frame,
)
from .catalog import (
    CATALOG,
    BuiltSurface,
    build_surface,
    default_surfaces,
    parse_surface,
    resolve_address,
    validate_address,
)
from .errors import (
    ConfigInvalid,
    CurveSingular,
    DegenerateInput,
    DomainViolation,
    GeometryError,
    ImmersionFailure,
    ModelMismatch,
    NullDirection,
    NumericFailure,
    OrientationFlip,
    SurfaceUnavailable,
    UnsupportedFormat,
)
from .groups import GroupAmbient, berger_helicoid_chart, su11_helicoid_chart
from .identities import (
    IDENTITIES,
    IDENTITY_NAMES,
    SampleSkip,
    DrawPlan,
    curvature_suite,
    draw_plan,
    evaluate_plans,
    evaluate_samples,
    indefiniteness_check,
    intrinsic_curvature_r,
    ruling_defect,
    run_identities,
)
from .numdiff import FDSteps
from .suite import DEFAULT_PARAMS, SCHEMA_VERSION, SuiteConfig, run_suite
from .surfaces import (
    DEGENERATE,
    SPACELIKE,
    TIMELIKE,
    SurfaceChart,
    TwoMetricFrameData,
    causal_character,
    frame_batch,
    frame_data,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "DEFAULT_PARAMS",
    "DEGENERATE",
    "IDENTITIES",
    "IDENTITY_NAMES",
    "SCHEMA_VERSION",
    "SPACELIKE",
    "TIMELIKE",
    "BuiltSurface",
    "ConfigInvalid",
    "CoordinateAmbient",
    "DrawPlan",
    "CurveSingular",
    "DegenerateInput",
    "DomainViolation",
    "FDSteps",
    "GeometryError",
    "GroupAmbient",
    "ImmersionFailure",
    "ModelMismatch",
    "NullDirection",
    "NumericFailure",
    "OrientationFlip",
    "SampleSkip",
    "Signature",
    "SpaceParams",
    "SuiteConfig",
    "SurfaceChart",
    "SurfaceUnavailable",
    "TwoMetricFrameData",
    "UnsupportedFormat",
    "berger_helicoid_chart",
    "build_surface",
    "causal_character",
    "connection_gap_frame",
    "curvature_frame",
    "curvature_suite",
    "default_surfaces",
    "draw_plan",
    "evaluate_plans",
    "evaluate_samples",
    "frame_batch",
    "frame_data",
    "frame_gram",
    "indefiniteness_check",
    "intrinsic_curvature_r",
    "parse_surface",
    "resolve_address",
    "ruling_defect",
    "run_identities",
    "run_suite",
    "su11_helicoid_chart",
    "validate_address",
    "wedge_frame",
]
