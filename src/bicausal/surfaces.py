"""Immersed surfaces carrying data for both metrics at once.

The entry point is :func:`frame_batch`, which evaluates a parametrized
surface at a list of parameter pairs and returns, per pair, a
:class:`TwoMetricFrameData` or the :class:`GeometryError` that excluded it.
The frame data holds the tangent basis, both unit normals, both shape
operators and the derived scalar invariants, together with the residuals of
the internal consistency checks that every accepted sample must satisfy.
The samples of one call share one :class:`SampleBatch`: each stage (centers,
frame components, rotations, stencil rows and errors, connection tables,
shape operators, T-derivatives, curvature scalars) is one stack over all its
samples, built once on first use, and gives each sample the bits its own
evaluation would.  Each sample is :func:`frame_data` of the shared batch;
without a batch, :func:`frame_data` evaluates a batch of one.
``SampleBatch.join`` makes one batch of samples of several batches, so
that an evaluation of them builds each later stage once, and takes the
stages that all those batches already hold as rows of theirs.

Vectors tangent to the surface are represented two ways: as ambient
coordinate components, and as coefficient pairs with respect to the chart
basis (partial_u, partial_v).  Conversion goes through the induced Gram
matrices.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ambient import (
    SIGNATURES,
    PointFrame,
    Signature,
    _per_row,
    curvature_frame,
    stacked_inner,
    wedge_frame,
)
from .errors import (
    DegenerateInput,
    GeometryError,
    ImmersionFailure,
    NullDirection,
    NumericFailure,
    OrientationFlip,
)
from .numdiff import STENCIL_STEPS, FDSteps, stencil_derivative

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

    A ``stacked`` chart maps uv columns us, vs (n,) to points (n, dim), and
    its ``jacobian``, when given, to the partials (n, 2, dim); its
    ``point`` and ``partials`` are the one-row case.  Otherwise ``chart``
    maps one uv row to a point and ``jacobian`` to the pair of first
    partials, and ``points`` and ``pairs`` loop over the rows, keeping each
    row's GeometryError.  Without a jacobian the partials are central
    differences of the chart, four stacked calls.  ``domain`` is the
    parameter box used by samplers and exporters, not a hard bound.
    """

    name: str
    chart: Callable
    domain: tuple[tuple[float, float], tuple[float, float]]
    jacobian: Callable | None = None
    stacked: bool = False

    def point(self, u: float, v: float) -> np.ndarray:
        if self.stacked:
            return self.chart(np.array([u], dtype=float), np.array([v], dtype=float))[0]
        return np.asarray(self.chart(u, v), dtype=float)

    def partials(self, u: float, v: float, h: float) -> tuple[np.ndarray, np.ndarray]:
        if self.stacked:
            (pair,), _ = self.pairs(np.array([u], dtype=float), np.array([v], dtype=float), h)
            return pair[0], pair[1]
        if self.jacobian is not None:
            du, dv = self.jacobian(u, v)
            return np.asarray(du, dtype=float), np.asarray(dv, dtype=float)
        du = (self.point(u + h, v) - self.point(u - h, v)) / (2.0 * h)
        dv = (self.point(u, v + h) - self.point(u, v - h)) / (2.0 * h)
        return du, dv

    def points(self, us: np.ndarray, vs: np.ndarray, dim: int | None = None):
        """The points (n, dim) at uv columns, and each row's GeometryError or None.

        ``dim``, the length of a point, is needed unless the chart is
        stacked: a row that raised, or whose point is of another shape, is
        NaN.
        """
        if self.stacked:
            return self.chart(us, vs), [None] * len(us)
        return _rows(self.point, us, vs, (dim,))

    def pairs(self, us: np.ndarray, vs: np.ndarray, h: float, dim: int | None = None):
        """The partials (n, 2, dim) at uv columns, and each row's GeometryError or None.

        A row's error is the first one that its ``partials`` would raise.
        """
        if self.jacobian is None:
            steps = ((us + h, vs), (us - h, vs), (us, vs + h), (us, vs - h))
            (pu, e1), (mu, e2), (pv, e3), (mv, e4) = (self.points(a, b, dim) for a, b in steps)
            pair = np.stack([(pu - mu) / (2.0 * h), (pv - mv) / (2.0 * h)], axis=1)
            errors = [next((e for e in es if e is not None), None) for es in zip(e1, e2, e3, e4)]
            return pair, errors
        if self.stacked:
            return self.jacobian(us, vs), [None] * len(us)
        return _rows(self.partials, us, vs, (2, dim), h)


def uv_columns(uvs) -> np.ndarray:
    """The u and v columns, each (n,), of n uv rows."""
    return np.array(uvs, dtype=float).reshape(-1, 2).T.copy()


def _rows(f: Callable, us: np.ndarray, vs: np.ndarray, shape: tuple, *args):
    """``f(u, v, *args)`` of each uv row, stacked (n, *shape), and each row's GeometryError.

    A row that raised is NaN, and so is a row of another shape.
    """
    out = np.full((len(us),) + shape, np.nan)
    errors: list[GeometryError | None] = [None] * len(us)
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        try:
            value = np.asarray(f(u, v, *args), dtype=float)
        except GeometryError as exc:
            # kept without its traceback, whose frames would make a reference cycle
            errors[i] = exc.with_traceback(None)
            continue
        if value.shape == shape:
            out[i] = value
    return out, errors


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


def _characters(scale: np.ndarray, det_l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``_classify``: the rows it raises on or finds DEGENERATE, and the SPACELIKE rows.

    Its tests are comparisons, which masks make bit for bit (a NaN ratio
    is TIMELIKE in both); the caller silences the division's warnings.
    """
    ratio = det_l / scale
    rejected = (scale <= 0.0) | ~np.isfinite(scale) | (np.abs(ratio) <= DEGENERACY_TOL)
    return rejected, ratio > 0.0


# Vectors of the normal package that the stencil can differentiate.
STENCIL_FIELDS = ("n_r", "n_l", "du", "dv", "t_r", "t_l")

# The fields whose stencil components one stage builds for both metrics: the
# unit normals, which ``shapes`` reads, and the T-fields, which ``tangent_dts`` reads.
NORMAL_FIELDS = ("n_r", "n_l")
T_FIELDS = ("t_r", "t_l")

# Vectors whose frame components a batch keeps (``frame_components``), by position.
FRAME_FIELDS = STENCIL_FIELDS + ("xi",)

# A sample's internal consistency residuals, by column of ``SampleBatch.invariants``.
INVARIANT_KEYS = (
    "unit_normal_L",
    "unit_normal_R",
    "normal_routes",
    "angle_transform",
    "omega_product",
    "t_split_R",
    "t_split_L",
    "t_relation",
    "t_tangency_R",
    "t_tangency_L",
    "branch",
)

# A sample's curvature scalars (``identities.curvature_suite``), by column of
# ``SampleBatch.curvature``.
CURVATURE_KEYS = (
    "kbar_R",
    "kbar_L",
    "kbar_R_closed",
    "kbar_L_closed",
    "ke_R",
    "ke_L",
    "k_R",
    "k_L",
)


def _powers(values: np.ndarray, n: int) -> np.ndarray:
    """values ** n, one Python float at a time.

    Python's ``**`` is libm ``pow``, whose bits NumPy's square and power do
    not always give.
    """
    return np.array([v**n for v in values.tolist()])


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
    omega_r: np.ndarray
    t_l: np.ndarray
    t_r: np.ndarray
    sign_ambiguous: np.ndarray
    wedge_agreement: np.ndarray | None


def _grams(g: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Stacked ``induced_gram`` from metrics g (n, dim, dim) and (du, dv) pairs (n, 2, dim).

    Entry [a, b] is (pair[a] @ g) @ pair[b], the products ``stacked_inner`` forms.
    """
    rows = pair[:, :, None, None, :] @ g[:, None, None]
    return (rows @ pair[:, None, :, :, None])[..., 0, 0]


def _charted(ambient, chart: SurfaceChart, us: np.ndarray, vs: np.ndarray, h_jet: float):
    """Points, chart partials, each uv row's GeometryError (or None) and the rows kept.

    The chart is one stacked call (``SurfaceChart.points``) over the uv
    columns and the domain is checked once over its points
    (``contains_rows``).  Only a row that fails the check is charted again
    alone and goes through ``validate_point``, which raises the error it
    would raise alone.  The partials are one stacked call over the rows
    inside.
    """
    dim = ambient.dim
    point, errors = chart.points(us, vs, dim)
    for i, inside in enumerate(ambient.contains_rows(point)):
        if not inside and errors[i] is None:
            try:
                ambient.validate_point(chart.point(us[i].item(), vs[i].item()))
            except GeometryError as exc:
                # kept without its traceback, whose frames would make a reference cycle
                errors[i] = exc.with_traceback(None)
    rows = [i for i, e in enumerate(errors) if e is None]
    pair, failed = chart.pairs(us[rows], vs[rows], h_jet, dim)
    kept = [j for j, e in enumerate(failed) if e is None]
    if len(kept) < len(rows):
        for i, e in zip(rows, failed):
            errors[i] = e
        rows, pair = [rows[j] for j in kept], pair[kept]
    return point[rows], pair, errors, rows


def _normal_data(
    ambient,
    chart: SurfaceChart,
    uvs: list[tuple[float, float]],
    steps: FDSteps,
) -> tuple[NormalData, NormalData]:
    """Unit normals, normal angles and T-fields of uv rows and of their stencil rows, in one pass.

    Returns the NormalData of the uv rows (the centers) and of the stencil
    rows: the eight ``stencil_columns`` rows at ``steps.second`` of each
    center that the chart kept, rows 8j .. 8j + 7 for the j-th of them.  The
    chart and its partials (``_charted``) are one stacked call for the
    centers and one for the stencil rows; the frames and both metrics are one
    ``frames_and_metrics`` call over all rows.  Each row meets the checks of
    a single-point evaluation in the same order, and the first one it fails
    becomes its error; a row that failed computes on, unread, which is why
    floating-point warnings are off.
    A center's normal angle is made nonpositive, and a tie
    (``SIGN_TIE_TOL``) keeps the wedge sign; a stencil row's Lorentzian
    normal takes the sign closer to its center's, and a material sign change
    of its normal angle from its center's is its OrientationFlip.  The
    centers add the agreement of the Riemannian normal with its own wedge
    route.
    """
    us, vs = uv_columns(uvs)
    point, pair, errors, rows = _charted(ambient, chart, us, vs, steps.first)
    n, nc = len(uvs), len(rows)
    s_us, s_vs = stencil_columns(us[rows], vs[rows], steps.second)
    s_point, s_pair, s_errors, s_rows = _charted(ambient, chart, s_us, s_vs, steps.first)
    us, vs = np.concatenate([us, s_us]), np.concatenate([vs, s_vs])
    errors, rows = errors + s_errors, rows + [n + i for i in s_rows]
    # the center of each stencil row, by position in the arrays
    owner = (np.array(s_rows, dtype=int) // 8).tolist()
    point, pair = np.concatenate([point, s_point]), np.concatenate([pair, s_pair])
    du, dv = pair[:, 0], pair[:, 1]
    frame, g_r, g_l = ambient.frames_and_metrics(point)
    alive = [True] * len(rows)

    def fail(j: int, error: GeometryError) -> None:
        if alive[j]:
            errors[rows[j]] = error
            alive[j] = False

    def at(j: int) -> str:
        i = rows[j]
        return f"uv={(us[i].item(), vs[i].item())!r}"

    with np.errstate(all="ignore"):
        gram_r = _grams(g_r, pair)
        gram_l = _grams(g_l, pair)
        scale = gram_r[:, 0, 0] * gram_r[:, 1, 1]
        det_r, det_l = np.linalg.det(gram_r), np.linalg.det(gram_l)
        # The checks are comparisons, so masks find the rows that fail one;
        # only those go through the per-row code, for its error.
        rejected, spacelike = _characters(scale, det_l)
        flagged = (det_r <= IMMERSION_TOL * np.maximum(scale, 1e-300)) | rejected
        eps = np.where(spacelike, -1.0, 1.0)
        eps[flagged] = 1.0
        for j in np.flatnonzero(flagged).tolist():
            sc = scale[j].item()
            try:
                if det_r[j].item() <= IMMERSION_TOL * max(sc, 1e-300):
                    raise ImmersionFailure(f"rank-deficient chart derivative at {at(j)}")
                char, _ = _classify(sc, det_l[j].item(), point[j])
                if char == DEGENERATE:
                    raise DegenerateInput(f"degenerate tangent plane at {at(j)}")
            except GeometryError as exc:
                fail(j, exc.with_traceback(None))
                continue
            eps[j] = 1.0 if char == TIMELIKE else -1.0

        # The unit fiber direction is the third frame leg in both models.
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

        sign_ambiguous = np.zeros(len(rows), dtype=bool)
        sign_ambiguous[:nc] = np.abs(angle_l[:nc]) <= SIGN_TIE_TOL
        flip = ~sign_ambiguous & (angle_l > 0.0)
        reference = np.where(flip[:nc, None], -n_l[:nc], n_l[:nc])[owner]
        flip[nc:] = (n_l[nc:, None, :] @ reference[..., None])[..., 0, 0] < 0.0
        n_l = np.where(flip[:, None], -n_l, n_l)
        angle_l = np.where(flip, -angle_l, angle_l)

        omega_sq = eps + 2.0 * angle_l * angle_l
        for j in np.flatnonzero(omega_sq <= 0.0).tolist():
            fail(j, NumericFailure(f"invalid normal stretch at {at(j)}: {omega_sq[j].item()}"))
        omega_l = np.sqrt(omega_sq)
        omega_r = 1.0 / omega_l
        n_r = (-2.0 * angle_l[:, None] * xi - n_l) / omega_l[:, None]
        angle_r = stacked_inner(g_r, n_r, xi)

        # the last check of a stencil row: the sign of its normal angle against its center's
        a, a0 = angle_l[nc:], angle_l[owner]
        changed = (np.abs(a) > SIGN_TIE_TOL) & (np.abs(a0) > SIGN_TIE_TOL) & (a * a0 < 0.0)
        for j in np.flatnonzero(changed).tolist():
            uv = uvs[rows[owner[j]]]
            fail(nc + j, OrientationFlip(f"normal angle changes sign across stencil at uv={uv!r}"))

        w_r = ambient.to_coords(
            point[:nc], wedge_frame(Signature.R, pair_f[:nc, 0], pair_f[:nc, 1]), frames=frame[:nc]
        )
        n_r_wedge = w_r / np.sqrt(stacked_inner(g_r[:nc], w_r, w_r))[:, None]
        apart = np.max(np.abs(n_r[:nc] - n_r_wedge), axis=1)
        opposed = np.max(np.abs(n_r[:nc] + n_r_wedge), axis=1)
        # Python's min(apart, opposed), which keeps a NaN in apart
        agreement = np.where(opposed < apart, opposed, apart)

        t_l = xi - (eps * angle_l)[:, None] * n_l
        t_r = xi - angle_r[:, None] * n_r

    arrays = dict(
        point=point, frame=frame, g_r=g_r, g_l=g_l, du=du, dv=dv, gram_r=gram_r, gram_l=gram_l,
        eps=eps, n_l=n_l, n_r=n_r, angle_l=angle_l, angle_r=angle_r, omega_l=omega_l,
        omega_r=omega_r, t_l=t_l, t_r=t_r, sign_ambiguous=sign_ambiguous,
    )
    center = NormalData(
        errors[:n], rows[:nc], **{k: a[:nc] for k, a in arrays.items()}, wedge_agreement=agreement
    )
    stencil = NormalData(
        errors[n:], s_rows, **{k: a[nc:] for k, a in arrays.items()}, wedge_agreement=None
    )
    return center, stencil


# The array fields of NormalData, which a selection of rows of other NormalData selects.
_NORMAL_ARRAYS = frozenset(f.name for f in dataclasses.fields(NormalData)) - {"errors", "rows"}


class _Selected:
    """The NormalData of ``errors`` and ``rows`` whose arrays are rows of other NormalData.

    ``parts`` lists (data, positions): each array is the concatenation of
    the ``positions`` rows of each part's array, so every row keeps its bits.
    An array is selected on its first read, so a join copies only the
    fields that its later stages read.
    """

    def __init__(self, parts: list, errors: list, rows: list):
        self.errors, self.rows, self._parts = errors, rows, parts

    def __getattr__(self, name: str):
        if name not in _NORMAL_ARRAYS:
            raise AttributeError(name)
        got = [getattr(data, name) for data, _ in self._parts]
        value = None if got[0] is None else np.concatenate(
            [a[pos] for a, (_, pos) in zip(got, self._parts)]
        )
        setattr(self, name, value)
        return value


def mean_curvatures(sig: Signature, shapes: np.ndarray, eps) -> np.ndarray:
    """The mean curvatures of ``sig`` of Weingarten matrices (..., 2, 2) with normal squares eps.

    Half the trace; H_L carries eps, the square of the Lorentzian unit normal.
    """
    # summed from +0.0, as np.trace sums, which gives a zero trace its sign
    tr = 0.0 + shapes[..., 0, 0] + shapes[..., 1, 1]
    return 0.5 * eps * tr if sig is Signature.L else 0.5 * tr


def stencil_columns(us: np.ndarray, vs: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The u and v columns (8n,) of the eight stencil rows of each of n uv rows.

    Rows 8i .. 8i + 7 are those of uv row i: along chart axis 0, then 1, at
    ``STENCIL_STEPS`` times h.  A shifted coordinate is u + k * h, one
    addition, as a Python float would round it.
    """
    shifts = np.array(STENCIL_STEPS, dtype=float) * h
    u, v = us[:, None], vs[:, None]
    shape = (len(us), len(shifts))
    return (
        np.concatenate([u + shifts, np.broadcast_to(u, shape)], axis=1).ravel(),
        np.concatenate([np.broadcast_to(v, shape), v + shifts], axis=1).ravel(),
    )


def _stage(build: Callable | None = None, *, rows: str | None = None) -> Callable:
    """A ``SampleBatch`` stage: built on first use, then kept under its name and arguments.

    A stage of ``rows`` holds one row per sample (``"all"``) or per sample
    of ``_ok`` (``"ok"``), in an array or a tuple of arrays: a join whose
    parts all hold it takes it as their rows of its samples
    (``SampleBatch._joined_rows``), and otherwise builds it.
    """
    if build is None:
        return functools.partial(_stage, rows=rows)
    name = build.__name__

    @functools.wraps(build)
    def stage(self, *args):
        key = (name, *args)
        try:
            return self._stages[key]
        except KeyError:
            pass
        # built outside the handler, so that its errors carry no KeyError context
        out = None if rows is None else self._joined_rows(key, rows)
        if out is None:
            out = build(self, *args)
        self._stages[key] = out
        return out

    return stage


class SampleBatch:
    """The stacked geometry of the samples of one chart, shared by their frame data.

    Every stage is built on the first use by any sample, for all samples at
    once, and kept in one memo under its name and arguments; each sample
    reads its own row:

    * the centers and the eight stencil rows of each center the chart
      kept, one ``_normal_data`` pass on the first ``sample`` call, in
      which each stencil row's sign reference and OrientationFlip check are
      those of its own center; the centers are a prefix of it, the 8n
      stencil rows of the samples the rest or a selection of it, and from
      them comes each sample's first stencil error;
    * the frame components of each sample's ``FRAME_FIELDS``, one
      ``to_frames`` call, and from them the rotation matrices and the
      chart coefficients of T of each metric;
    * the ``stencil_components`` of the fields a stage differentiates, at
      the centers and their stencil rows, one call per tuple of fields
      (``_components``): the shape operators ask for both unit normals
      (``NORMAL_FIELDS``), the T-derivatives for both T-fields
      (``T_FIELDS``), and no other field is built unless asked for;
    * the connection tables of each metric, one ``point_tables`` call;
    * the shape operators, and the T- and normal-angle derivatives, of each
      metric, one ``cov_deriv_stencils`` call over both chart axes and one
      stacked Gram projection, over the samples whose stencil rows raised
      nothing;
    * the internal consistency residuals of each sample, as columns;
    * the curvature scalars of ``identities.curvature_suite``, as columns,
      and each sample's skip;
    * in the group models, the PointFrames where the curves through the
      samples start, with one ``point_tables`` call per metric; the
      identities' stack composes their arrays once per metric.

    Each stage rounds row by row like a batch of one, so a sample's numbers
    do not depend on the batch it is in.  Nothing here draws random numbers.
    The samples hold the batch, and the batch holds no sample, nor any
    traceback: garbage without reference cycles is freed at once, not by the
    cyclic collector.

    ``join`` makes the batch of samples of several batches of one ambient,
    whose centers and stencil rows are row selections of their batches'
    own.  So is each stage of rows (``_stage(rows=...)``: the stencil
    components, tables and shape operators) that all those batches hold;
    every other later stage is built once over all the joined samples.
    """

    def __init__(self, ambient, chart: SurfaceChart | None, uvs):
        self.ambient = ambient
        self.chart = chart
        self.steps = ambient.steps
        self.uvs = [(float(u), float(v)) for u, v in uvs]
        self._stages: dict[tuple, object] = {}
        # of a join: (batch, its samples) per run of samples of one batch
        self._parts: list[tuple[SampleBatch, list[int]]] | None = None

    @classmethod
    def join(cls, samples: list) -> "SampleBatch":
        """The batch of ``samples`` (frame data of one ambient), sample k being ``samples[k]``.

        All the samples of one batch, in order, join to that batch itself.
        Otherwise the joined batch has no chart: it takes its centers and
        stencil rows from the samples' batches, which have built them or
        build them then, and each stage of rows that all those batches hold;
        it builds only the other later stages.
        """
        first = samples[0]._batch
        whole = len(samples) == len(first.centers)
        if whole and all(d._batch is first and d._k == k for k, d in enumerate(samples)):
            return first
        joined = cls(first.ambient, None, [d.uv for d in samples])
        joined._parts = [
            (batch, [d._k for d in run])
            for batch, run in itertools.groupby(samples, key=lambda d: d._batch)
        ]
        return joined

    @_stage
    def _normals(self) -> tuple[NormalData, NormalData]:
        """The centers and the stencil rows of each center the chart kept, one ``_normal_data``."""
        return _normal_data(self.ambient, self.chart, self.uvs, self.steps)

    @property
    @_stage
    def center(self) -> NormalData:
        """Normal data of the uv rows themselves; of a join, its samples' rows."""
        if self._parts is None:
            return self._normals()[0]
        parts = [(batch.center, [batch.centers[k] for k in ks]) for batch, ks in self._parts]
        n = len(self.uvs)
        return _Selected(parts, [None] * n, list(range(n)))

    @property
    @_stage
    def centers(self) -> list[int]:
        """The row of each sample in the center arrays, in uv order."""
        c = self.center
        return [j for j, i in enumerate(c.rows) if c.errors[i] is None]

    @property
    @_stage
    def _sample_of(self) -> dict[int, int]:
        """The sample of each uv row that got past the centers' checks."""
        rows = self.center.rows
        return {rows[j]: k for k, j in enumerate(self.centers)}

    @property
    @_stage
    def xi(self) -> np.ndarray:
        """The fiber direction at every sample: the third leg of its frame, C-contiguous."""
        return np.ascontiguousarray(self._at_centers("frame")[:, :, 2])

    def sample(self, row: int) -> "TwoMetricFrameData":
        """The frame data of uv row ``row``; raises the GeometryError that excluded it."""
        err = self.center.errors[row]
        if err is not None:
            raise copy.copy(err)
        return TwoMetricFrameData(self, self._sample_of[row])

    def _at_centers(self, name: str) -> np.ndarray:
        """A center array of every sample, in sample order."""
        return getattr(self.center, name)[self.centers]

    # -- frame components at the centers -----------------------------------------

    @_stage
    def frame_components(self) -> np.ndarray:
        """Frame components (n, 7, 3) of every sample's ``FRAME_FIELDS``, one ``to_frames`` call."""
        at = self._at_centers
        vecs = np.stack([at(f) for f in STENCIL_FIELDS] + [self.xi], axis=1)
        return self.ambient.to_frames(at("point"), vecs, frames=at("frame"), metric_r=at("g_r"))

    @_stage
    def rotations(self, sig: Signature) -> np.ndarray:
        """Every sample's matrix of X -> N ^ X on the tangent plane, chart basis, (n, 2, 2)."""
        comps = self.frame_components()
        legs = comps[:, [FRAME_FIELDS.index("du"), FRAME_FIELDS.index("dv")]]
        normal = comps[:, FRAME_FIELDS.index("n_r" if sig is Signature.R else "n_l"), None]
        wedged = wedge_frame(sig, np.broadcast_to(normal, legs.shape), legs)
        vecs = self.ambient.to_coords(
            self._at_centers("point"), wedged, frames=self._at_centers("frame")
        )
        cols = self._coeffs(sig, vecs, self.centers)
        return np.ascontiguousarray(np.swapaxes(cols, 1, 2))

    @_stage
    def t_coeffs(self, sig: Signature) -> np.ndarray:
        """Every sample's chart coefficients of T_sig, (n, 2)."""
        t = self._at_centers("t_r" if sig is Signature.R else "t_l")
        return self._coeffs(sig, t, self.centers)

    # -- stencil rows -----------------------------------------------------------

    @_stage
    def stencil(self) -> NormalData:
        """Normal data of the eight stencil rows of every sample, rows 8k .. 8k + 7 for sample k.

        The rows of the centers' ``_normal_data`` pass, whose errors include
        each row's OrientationFlip: all of them when every center the chart
        kept is a sample, else the samples' rows.  Of a join: its samples'
        rows and errors, from their batches' stencils.
        """
        if self._parts is not None:
            return _stencil_blocks([(batch.stencil(), ks) for batch, ks in self._parts])
        every = self._normals()[1]
        if len(self.centers) == len(self.center.rows):
            return every
        return _stencil_blocks([(every, self.centers)])

    @_stage
    def stencil_errors(self) -> list:
        """The first error of each sample's stencil rows, in row order, or None."""
        errors = self.stencil().errors
        return [
            next((err for err in errors[8 * k : 8 * k + 8] if err is not None), None)
            for k in range(len(self.centers))
        ]

    @_stage
    def _ok(self) -> tuple[list[int], list[int], list[int], dict[int, int]]:
        """The samples whose stencil rows raised nothing, whose derivatives are stacked.

        Returns the samples, their rows in the center arrays, their eight
        rows each in the stencil arrays, and the slot of each in these stacks.
        """
        at = {i: pos for pos, i in enumerate(self.stencil().rows)}
        ok = [k for k, err in enumerate(self.stencil_errors()) if err is None]
        rows = [at[8 * k] + r for k in ok for r in range(8)]
        centers = self.centers
        return ok, [centers[k] for k in ok], rows, {k: s for s, k in enumerate(ok)}

    def _slot(self, k: int) -> int:
        return self._ok()[3][k]

    def _joined_rows(self, key: tuple, rows: str):
        """The row stage ``key`` of a join, from its parts' own when all of them hold it.

        Each part gives the rows of its samples in the join, of all of them
        (``rows`` ``"all"``) or of those of ``_ok`` (``"ok"``); None when
        this is no join or a part lacks the stage.
        """
        if self._parts is None:
            return None
        held = [batch._stages.get(key) for batch, _ in self._parts]
        if any(stage is None for stage in held):
            return None
        picks = []
        for batch, ks in self._parts:
            if rows == "ok":
                slots = batch._ok()[3]
                ks = [slots[k] for k in ks if k in slots]
            picks.append(ks)
        tuples = [stage if isinstance(stage, tuple) else (stage,) for stage in held]
        out = tuple(
            np.concatenate([arrays[i][pick] for arrays, pick in zip(tuples, picks)])
            for i in range(len(tuples[0]))
        )
        return out if isinstance(held[0], tuple) else out[0]

    @_stage(rows="ok")
    def _components(self, fields: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """``stencil_components`` of ``fields`` at the centers and at the rows, one call.

        Shapes (m, k, c) and (m, 8, k, c) over the samples of ``_ok``, for k
        fields of ``STENCIL_FIELDS``.
        """
        st, c = self.stencil(), self.center
        _, cj, rj, _ = self._ok()
        points = np.concatenate([c.point[cj], st.point[rj]])
        vecs = np.stack(
            [np.concatenate([getattr(c, f)[cj], getattr(st, f)[rj]]) for f in fields], axis=1
        )
        frames = np.concatenate([c.frame[cj], st.frame[rj]])
        comps = self.ambient.stencil_components(points, vecs, frames)
        m = len(cj)
        return comps[:m], comps[m:].reshape(m, 8, *comps.shape[1:])

    def stencil_derivs(
        self, sig: Signature, names: tuple[str, ...], fields: tuple[str, ...] | None = None
    ) -> np.ndarray:
        """Covariant derivatives along both chart axes of named STENCIL_FIELDS, (m, 2, k, dim).

        One ``cov_deriv_stencils`` call over 2m rows: the samples of ``_ok``
        along chart axis 0, then along axis 1.  The derivatives read the
        ``_components`` stage of ``fields``, which hold the ``names``; by
        default, of the ``names`` alone.
        """
        fields = names if fields is None else fields
        f0, fs = self._components(fields)
        ok, cj, _, _ = self._ok()
        # the tables first, so that none of the copies below is held while they are built
        tables = self.tables(sig)[ok + ok]
        which = [fields.index(name) for name in names]
        m, c = len(ok), self.center
        twice = cj + cj
        each = np.tile(np.arange(m), 2)[:, None]
        # rows[s, a * m + i] is sample i's stencil row s along chart axis a, one copy of fs
        offsets = np.repeat([0, 4], m) + np.arange(4)[:, None]
        out = self.ambient.cov_deriv_stencils(
            c.point[twice],
            c.frame[twice],
            (c.g_r if sig is Signature.R else c.g_l)[twice],
            tables,
            np.concatenate([c.du[cj], c.dv[cj]]),
            f0[each, which],
            fs[each, offsets[..., None], which],
            self.steps.second,
        )
        return np.moveaxis(out.reshape(2, m, *out.shape[1:]), 0, 1)

    def _coeffs(self, sig: Signature, vecs: np.ndarray, cj: list[int]) -> np.ndarray:
        """Chart-basis coefficients (m, [k,] 2) of tangent vectors (m, [k,] dim) at centers ``cj``.

        The stacked Gram projection: the inner products with du and dv, then
        one stacked solve with one right-hand side per vector.
        """
        c = self.center
        g = (c.g_r if sig is Signature.R else c.g_l)[cj]
        gram = (c.gram_r if sig is Signature.R else c.gram_l)[cj]
        du, dv = (np.broadcast_to(_per_row(a[cj], vecs), vecs.shape) for a in (c.du, c.dv))
        rhs = np.stack([stacked_inner(g, vecs, du), stacked_inner(g, vecs, dv)], -1)
        return np.linalg.solve(_per_row(gram, rhs), rhs[..., None])[..., 0]

    def center_rows(self, name: str, ks: list[int]) -> np.ndarray:
        """The center array ``name`` (a ``NormalData`` field, or ``xi``) of the samples ``ks``."""
        if name == "xi":
            return self.xi[ks]
        rows = self.centers
        return getattr(self.center, name)[[rows[k] for k in ks]]

    # -- per-sample stages, stacked ----------------------------------------------

    @_stage(rows="all")
    def tables(self, sig: Signature) -> np.ndarray:
        """Every sample's connection table of ``sig``, (n, ...), one ``point_tables`` call."""
        return self.ambient.point_tables(sig, self._at_centers("point"))

    @_stage(rows="ok")
    def shapes(self, sig: Signature) -> np.ndarray:
        """The Weingarten matrices (m, 2, 2) of the samples of ``_ok``."""
        n_name = "n_r" if sig is Signature.R else "n_l"
        dn = self.stencil_derivs(sig, (n_name,), NORMAL_FIELDS)[:, :, 0]
        # column ``axis`` of each matrix is minus the coefficients of dn along that axis
        return np.ascontiguousarray(np.swapaxes(-self._coeffs(sig, dn, self._ok()[1]), 1, 2))

    @_stage
    def _shape_rows(self, sig: Signature) -> dict:
        """The rows of ``shapes`` by sample, kept so that ``shape`` returns the same array."""
        return dict(zip(self._ok()[0], self.shapes(sig)))

    def shape(self, sig: Signature, k: int) -> np.ndarray:
        """Sample k's Weingarten matrix, the same array on every call."""
        return self._shape_rows(sig)[k]

    def ok_rows(self, stage: np.ndarray, ks: list[int]) -> np.ndarray:
        """The rows of the samples ``ks``, all of ``_ok``, in a stage over those of ``_ok``."""
        slots = self._ok()[3]
        return stage[[slots[k] for k in ks]]

    @_stage
    def tangent_dts(self, sig: Signature) -> tuple[np.ndarray, np.ndarray]:
        """The T-derivatives of ``sig`` of the samples of ``_ok``.

        Returns the chart coefficients (m, axis, 2) of the covariant
        derivatives of T_sig projected to the tangent plane of ``sig``, and
        the derivatives (m, axis) of the normal angle of ``sig``.
        """
        h = self.steps.second
        t_name = "t_r" if sig is Signature.R else "t_l"
        st = self.stencil()
        _, cj, rows, _ = self._ok()
        angles = (st.angle_r if sig is Signature.R else st.angle_l)[rows].reshape(-1, 2, 4)
        dts = self._coeffs(sig, self.stencil_derivs(sig, (t_name,), T_FIELDS)[:, :, 0], cj)
        return dts, stencil_derivative(np.moveaxis(angles, 2, 0), h)

    # -- consistency residuals -------------------------------------------------

    @_stage
    def invariants(self) -> np.ndarray:
        """Every sample's internal consistency residuals (n, 11), in ``INVARIANT_KEYS`` order."""
        at = self._at_centers
        g_r, g_l = at("g_r"), at("g_l")
        n_r, n_l, t_r, t_l = at("n_r"), at("n_l"), at("t_r"), at("t_l")
        eps, angle_r, angle_l, omega_l = at("eps"), at("angle_r"), at("angle_l"), at("omega_l")
        angle_r2, angle_l2 = _powers(angle_r, 2), _powers(angle_l, 2)
        arg = eps * (1.0 - 2.0 * angle_r2)
        # the root of a negative arg is NaN, and np.where puts inf in its place
        with np.errstate(invalid="ignore"):
            product = np.where(arg > 0.0, np.abs(omega_l * np.sqrt(arg) - 1.0), np.inf)
        t_gap = t_r - (eps / _powers(omega_l, 2))[:, None] * t_l
        branch = 1.0 - omega_l
        columns = (
            np.abs(stacked_inner(g_l, n_l, n_l) - eps),
            np.abs(stacked_inner(g_r, n_r, n_r) - 1.0),
            at("wedge_agreement"),
            np.abs(angle_r + angle_l / omega_l),
            product,
            np.abs(stacked_inner(g_r, t_r, t_r) + angle_r2 - 1.0),
            np.abs(stacked_inner(g_l, t_l, t_l) + eps * angle_l2 + 1.0),
            np.max(np.abs(t_gap), axis=1),
            np.abs(stacked_inner(g_r, t_r, n_r)),
            np.abs(stacked_inner(g_l, t_l, n_l)),
            # max(0.0, branch), as ``max`` takes it
            np.where(branch > 0.0, branch, 0.0),
        )
        return np.stack(columns, axis=1)

    # -- curvature scalars --------------------------------------------------------

    @_stage
    def curvature(self) -> tuple[np.ndarray, list]:
        """Every sample's curvature scalars (``identities.curvature_suite``), and its skip.

        Returns the scalars (n, 8), in ``CURVATURE_KEYS`` order, and per
        sample None; or the reason code ``NULL_DIRECTION`` when the
        Lorentzian adapted basis has no direction of the needed sign; or
        else the sample's stencil error, which the extrinsic curvatures
        raise.  That is the order in which one sample's evaluation fails.
        A skipped sample's row is not read.
        """
        params = self.ambient.params
        k, t = params.kappa, params.tau
        eps = self._at_centers("eps")
        bases = {sig: _adapted_bases(self, sig) for sig in SIGNATURES}
        kbar_r, kbar_l = (self._sectional(sig, *bases[sig][:2]) for sig in SIGNATURES)
        ok = self._ok()[0]
        ke_r, ke_l = (np.full(len(eps), np.nan) for _ in SIGNATURES)
        if ok:
            ke_r[ok], ke_l[ok] = (np.linalg.det(self.shapes(sig)) for sig in SIGNATURES)
        angle_r2 = _powers(self._at_centers("angle_r"), 2)
        angle_l2 = _powers(self._at_centers("angle_l"), 2)
        # a skipped sample's row computes on, unread
        with np.errstate(all="ignore"):
            columns = (
                kbar_r,
                kbar_l,
                t * t + (k - 4.0 * t * t) * angle_r2,
                eps * t * t + (k + 4.0 * t * t) * angle_l2,
                ke_r,
                ke_l,
                kbar_r + ke_r,
                kbar_l + eps * ke_l,
            )
        errors = self.stencil_errors()
        skips = [
            err if alive else NullDirection.code
            for err, alive in zip(errors, bases[Signature.L][2])
        ]
        return np.stack(columns, axis=1), skips

    def _sectional(self, sig: Signature, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
        """<R(e1, e2) e1, e2> of ``sig`` per sample; a row without a basis is not read."""
        at = self._at_centers
        points, frames = at("point"), at("frame")
        # rows without a basis compute on, unread
        with np.errstate(all="ignore"):
            pair_f = self.ambient.to_frames(
                points, np.stack([e1, e2], axis=1), frames=frames, metric_r=at("g_r")
            )
            x_f, y_f = pair_f[:, 0], pair_f[:, 1]
            r = self.ambient.to_coords(
                points, curvature_frame(self.ambient.params, sig, x_f, y_f, x_f), frames=frames
            )
            g = at("g_r" if sig is Signature.R else "g_l")
            return stacked_inner(g, r, e2)

    # -- curve starts ---------------------------------------------------------------

    @_stage
    def curve_starts(self) -> list:
        """Where ``ambient.curve_through(point, x)`` starts for each sample, if not the point.

        A group-model curve starts at point / sqrt(quadric(point)), which is
        not always bitwise the point: the first stencil point of the curves
        of ``curve_stencils``, whatever their velocity.  Entry k is the
        PointFrame of sample k's moved start, or None; the tables of all
        moved starts come from one ``point_tables`` call per metric.
        """
        points = self._at_centers("point")
        zero = np.zeros((len(points), 1, self.ambient.dim))
        starts = self.ambient.curve_stencils(points, zero, self.steps.first)[0][:, 0, 0]
        moved = np.flatnonzero(~(starts == points).all(axis=1)).tolist()
        out = [None] * len(points)
        if moved:
            at = starts[moved]
            tables = {sig: self.ambient.point_tables(sig, at) for sig in SIGNATURES}
            for i, s in enumerate(moved):
                out[s] = PointFrame(
                    self.ambient, at[i], tables={sig: tables[sig][i] for sig in SIGNATURES}
                )
        return out


def _stencil_blocks(parts: list) -> _Selected:
    """The stencil rows 8j .. 8j + 7 and their errors of each j of ``js``, of each (data, js).

    ``data`` is the NormalData of stencil rows eight per center (or per
    sample), so each j gives one sample's eight rows, in order.
    """
    selected, errors, rows = [], [], []
    for data, js in parts:
        at = {i: pos for pos, i in enumerate(data.rows)}
        positions = []
        for j in js:
            kept = [r for r in range(8) if 8 * j + r in at]
            positions += [at[8 * j + r] for r in kept]
            rows += [len(errors) + r for r in kept]
            errors += data.errors[8 * j : 8 * j + 8]
        selected.append((data, positions))
    return _Selected(selected, errors, rows)


def _adapted_bases(batch: SampleBatch, sig: Signature) -> tuple[np.ndarray, np.ndarray, list]:
    """Every sample's tangent basis normalized for sectional curvature, and where it exists.

    Riemannian, and on a spacelike plane: the orthonormal pair from du, dv.
    On a timelike plane, Lorentzian: a first vector of square +1, the chart
    direction among du, dv, du + dv, du - dv with the largest ratio of the
    two squares, and a second of square -1; the basis does not exist when
    no direction has the needed sign.
    """
    at = batch._at_centers
    du, dv = at("du"), at("dv")
    g = at("g_r" if sig is Signature.R else "g_l")
    # Each row reads one of the two constructions; the other computes on, unread.
    with np.errstate(all="ignore"):
        e1 = du / np.sqrt(stacked_inner(g, du, du))[:, None]
        w = dv - stacked_inner(g, dv, e1)[:, None] * e1
        e2 = w / np.sqrt(stacked_inner(g, w, w))[:, None]
        timelike = (at("eps") > 0).tolist() if sig is Signature.L else [False] * len(du)
        if not any(timelike):
            return e1, e2, [True] * len(du)
        cands = np.stack([du, dv, du + dv, du - dv], axis=1)
        q_l = stacked_inner(g, cands, cands)
        q_r = stacked_inner(at("g_r"), cands, cands).tolist()
        # the first maximum, as ``max`` picks it
        best = [
            max(range(4), key=lambda i: ql[i] / qr[i]) if tl else 0
            for ql, qr, tl in zip(q_l.tolist(), q_r, timelike)
        ]
        rows = np.arange(len(du))
        q = q_l[rows, best]
        f1 = cands[rows, best] / np.sqrt(q)[:, None]
        legs = np.stack([du, dv], axis=1)
        f1_legs = np.broadcast_to(f1[:, None], legs.shape)
        w = legs - stacked_inner(g, legs, f1_legs)[..., None] * f1_legs
        qw = stacked_inner(g, w, w).tolist()
        # the first minimum, as ``min`` picks it
        second = [1 if q1 < q0 else 0 for q0, q1 in qw]
        q2 = np.array([pair[i] for pair, i in zip(qw, second)])
        f2 = w[rows, second] / np.sqrt(-q2)[:, None]
    alive = [
        not tl or (not q1 <= 0 and not q2 >= 0)
        for tl, q1, q2 in zip(timelike, q.tolist(), q2.tolist())
    ]
    pick = np.array(timelike)[:, None]
    return np.where(pick, f1, e1), np.where(pick, f2, e2), alive


class TwoMetricFrameData(PointFrame):
    """All pointwise data of an immersed surface for both metrics.

    Construct through :func:`frame_batch` or :func:`frame_data`.  It is the
    PointFrame of the sample point, with the frame and metrics of the stacked
    center evaluation.  Shape operators, stencil-based derivatives and
    connection tables are read from the sample's :class:`SampleBatch`, which
    builds them for all its samples on first use; scalar invariants are
    exposed as properties.
    """

    def __init__(self, batch: SampleBatch, k: int):
        center = batch.center
        j = batch.centers[k]
        metric = {Signature.R: center.g_r[j], Signature.L: center.g_l[j]}
        super().__init__(batch.ambient, center.point[j], center.frame[j], metric)
        self._batch, self._k, self._j = batch, k, j
        self.chart = batch.chart
        self.uv = batch.uvs[center.rows[j]]
        self.steps = batch.steps
        self.flags: list[str] = []

        self.xi = batch.xi[k]
        self.du = center.du[j]
        self.dv = center.dv[j]
        self.eps = float(center.eps[j])
        self.character = TIMELIKE if self.eps > 0 else SPACELIKE
        self.n_l = center.n_l[j]
        self.n_r = center.n_r[j]
        self.angle_l = float(center.angle_l[j])
        self.angle_r = float(center.angle_r[j])
        self.omega_l = float(center.omega_l[j])
        self.omega_r = float(center.omega_r[j])
        self.t_l = center.t_l[j]
        self.t_r = center.t_r[j]
        if center.sign_ambiguous[j]:
            self.flags.append("SIGN_AMBIGUOUS")

        self.gram = {Signature.R: center.gram_r[j], Signature.L: center.gram_l[j]}

    def table(self, sig: Signature) -> np.ndarray:
        return self._batch.tables(sig)[self._k]

    # -- tangent algebra ----------------------------------------------------

    def coeffs(self, sig: Signature, vec: np.ndarray) -> np.ndarray:
        """Chart-basis coefficients of a tangent vector (Gram projection)."""
        rhs = np.array([self.inner(sig, vec, self.du), self.inner(sig, vec, self.dv)])
        return np.linalg.solve(self.gram[sig], rhs)

    def coeff_inner(self, sig: Signature, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.asarray(a) @ self.gram[sig] @ np.asarray(b))

    def rotation(self, sig: Signature) -> np.ndarray:
        """Matrix of X -> N ^ X on the tangent plane, chart basis, from the batch."""
        return self._batch.rotations(sig)[self._k]

    # -- stencil ------------------------------------------------------------

    def stencil_error(self) -> GeometryError | None:
        """The first error of this sample's stencil rows, or None.

        Rows run along chart axis 0, then 1, at ``STENCIL_STEPS`` times the
        stencil step; the first row error in this order is the one found,
        as evaluating the rows one by one would raise it.
        """
        return self._batch.stencil_errors()[self._k]

    def _check_stencil(self) -> None:
        """Raise a copy of ``stencil_error``, if any, on every stencil use.

        The batch keeps the error without a traceback; raising it would give
        it one whose frames hold this sample, and so the batch and the error.
        """
        err = self.stencil_error()
        if err is not None:
            raise copy.copy(err)

    # -- shape operators ------------------------------------------------------

    def shape(self, sig: Signature) -> np.ndarray:
        """The 2x2 Weingarten matrix of ``sig`` in the chart basis, kept.

        Column ``axis`` is minus the chart coefficients of the covariant
        derivative of the unit normal along that chart axis.
        """
        self._check_stencil()
        return self._batch.shape(sig, self._k)

    def mean_curvature(self, sig: Signature) -> float:
        return float(mean_curvatures(sig, self.shape(sig), self.eps))

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
        the covariant derivative is projected to the tangent plane of ``sig``:
        this sample's rows of ``SampleBatch.tangent_dts``.
        """
        self._check_stencil()
        dt, dangle = self._batch.tangent_dts(sig)
        s = self._batch._slot(self._k)
        return {"dt": [dt[s, 0], dt[s, 1]], "dangle": dangle[s].tolist()}

    # -- consistency ------------------------------------------------------------

    @property
    def invariants(self) -> dict[str, float]:
        """The internal consistency residuals: this sample's row of ``SampleBatch.invariants``."""
        return dict(zip(INVARIANT_KEYS, self._batch.invariants()[self._k].tolist()))

    def validate(self, tol: float = 1e-9, unit_tol: float = 1e-10) -> None:
        """Raise NumericFailure if any internal consistency residual is too large."""
        bad = {}
        for key, val in self.invariants.items():
            limit = unit_tol if key.startswith("unit_normal") else tol
            if not (val <= limit):
                bad[key] = val
        if bad:
            raise NumericFailure(f"frame data inconsistent at uv={self.uv!r}: {bad}")


def frame_batch(
    ambient,
    chart: SurfaceChart,
    uvs: list[tuple[float, float]],
) -> list[TwoMetricFrameData | GeometryError]:
    """The two-metric surface data at each parameter pair, or the error that excluded it.

    Each entry is :func:`frame_data` of one shared :class:`SampleBatch`, so
    the samples' centers, stencils, tables and shape operators are each built
    as one stack, on first use.  Draws no random numbers.
    """
    batch = SampleBatch(ambient, chart, uvs)
    out: list = []
    for row, uv in enumerate(batch.uvs):
        try:
            data = frame_data(ambient, chart, uv, validate=False, batch=(batch, row))
        except GeometryError as exc:
            # kept without its traceback, whose frames hold the batch
            data = exc.with_traceback(None)
        out.append(data)
    return out


def frame_data(
    ambient,
    chart: SurfaceChart,
    uv: tuple[float, float],
    validate: bool = True,
    batch: tuple[SampleBatch, int] | None = None,
) -> TwoMetricFrameData:
    """Evaluate the two-metric surface data at one parameter pair.

    ``batch`` may pass ``(SampleBatch, row)``: a batch of ``ambient`` and
    ``chart`` whose uv row ``row`` is ``uv``.  The sample then shares that
    batch's stacks, and the first sample read from it builds the batch's
    centers.  Without it, the sample is a batch of one.
    """
    sample_batch, row = batch or (SampleBatch(ambient, chart, [uv]), 0)
    data = sample_batch.sample(row)
    if validate:
        data.validate()
    return data
