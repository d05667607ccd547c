"""Residual evaluation for the transformation laws linking the two metrics.

Each identity is a named check with a default tolerance reflecting how many
finite-difference layers its inputs traverse: purely algebraic consequences
of the metric definitions sit at 1e-12/1e-9, quantities one derivative deep
at 1e-5, and anything built on shape operators or stencil derivatives at
1e-4.  The suite aggregates the residuals that the evaluators return.

Every evaluator takes the stack of an evaluation's samples (``_Stack``),
which may come from several surfaces of one ambient, and returns, per
sample, its residual list or the skip it met, in the order one sample's
evaluation would meet it.  It reads every per-sample value, skips included,
from the batch stages through the stack, and each row rounds as it would
alone.  Eleven identities draw random numbers, all from one generator, in
the order of a sample-by-sample evaluation: sample after sample, and within
a sample the drawing identities in the order asked for.  ``draw_plan``
replays that order for the samples of one surface.  Each drawing
identity's ``draw`` takes one sample's normals, and stops where that
sample's evaluation stops drawing; its evaluator then takes the draws of all
samples as a second argument.  The replay keeps that stream order but takes
a surface's normals in one ``normal`` call, and checks the stops as stacks;
only a sample whose draws stop or redraw runs its ``draw`` alone.  So the
generator must be a NumPy ``Generator``, which fills one call's numbers in
the order of any split of that call.  ``evaluate_plans`` runs each
evaluator once over the samples of several plans, and ``evaluate_samples``
is the two steps for one surface.

Residual normalization divides by max(1, size of the participating terms) so
that tolerances are meaningful for both tiny and large geometries.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable

import numpy as np

from .ambient import (
    SIGNATURES,
    Signature,
    _per_row,
    _vectors,
    connection_gap_frame,
    stacked_inner,
    wedge_frame,
)
from .errors import ConfigInvalid, GeometryError, NullDirection, NumericFailure
from .numdiff import brioschi_curvature
from .surfaces import (
    CURVATURE_KEYS,
    FRAME_FIELDS,
    INVARIANT_KEYS,
    SampleBatch,
    TwoMetricFrameData,
    _powers,
    mean_curvatures,
)


class SampleSkip(Exception):
    """An identity does not apply to this sample; carries the reason code."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _frame_norm(data, vec: np.ndarray) -> float:
    """Size of an ambient vector measured in orthonormal frame components."""
    return np.max(np.abs(data.to_frames([vec])), axis=-1).tolist()[0]


def _scale(*terms):
    """max(1, *terms) elementwise, as Python's ``max`` of [1.0, *terms] takes it.

    ``fmax`` passes over a NaN term as ``max`` does, since the running scale,
    starting at 1.0, is never NaN.
    """
    scale = 1.0
    for t in terms:
        scale = np.fmax(scale, t)
    return scale


def _scalar_residuals(lhs, *terms) -> np.ndarray:
    """|lhs| / max(1, |term| for each term), elementwise over arrays that broadcast.

    An infinite lhs over an infinite scale is NaN, silently, as in Python floats.
    """
    with np.errstate(invalid="ignore"):
        return np.abs(lhs) / _scale(*(np.abs(t) for t in terms))


def _sized_residuals(sizes: np.ndarray) -> np.ndarray:
    """The residuals of sizes (..., [lhs, *terms]): lhs / max(1, *terms), over the last axis."""
    with np.errstate(invalid="ignore"):
        return sizes[..., 0] / _scale(*np.moveaxis(sizes[..., 1:], -1, 0))


# -- stacked evaluation ------------------------------------------------------------


def _reached(draws: list) -> tuple[list, list[int], list]:
    """Each sample's draws (or stage entry) split by whether it is a skip.

    Returns the outcome list (the skip, a SampleSkip or GeometryError, else
    None), the indices of the samples without a skip, and their entries.
    """
    out = [got if isinstance(got, Exception) else None for got in draws]
    ok = [s for s, got in enumerate(out) if got is None]
    return out, ok, [draws[s] for s in ok]


class _Stack:
    """Per-sample arrays of samples of one ambient, each stacked on first use.

    The samples may come from several batches (surfaces); their join
    (``SampleBatch.join``) holds every stage over all of them, and the stack
    reads each array from it as one row selection by the samples' indices
    ``ks`` in the join; a list stage (stencil errors) is read as a
    ``column``, and the curvature scalars are array columns
    (``curvature``).  One stack serves every evaluator of an
    evaluation, so each key names its array whole, with the signature where
    it depends on one.  ``rows`` gives the sub-stack of the samples an
    identity reaches, which reads the same join.
    """

    def __init__(self, samples: list, batch: SampleBatch | None = None, ks: list | None = None):
        self.samples = samples
        self.batch = batch or SampleBatch.join(samples)
        self.ks = list(range(len(samples))) if ks is None else ks
        self.ambient = self.batch.ambient
        self._arrays: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def rows(self, idx: list[int]) -> "_Stack":
        """The sub-stack of the samples ``idx``, increasing; this stack if that is all of them."""
        if len(idx) == len(self.samples):
            return self
        return _Stack([self.samples[i] for i in idx], self.batch, [self.ks[i] for i in idx])

    def of(self, key: str, take: Callable) -> np.ndarray:
        """``take(batch, ks)`` of the join and the samples' indices in it, kept under ``key``."""
        hit = self._arrays.get(key)
        if hit is None:
            hit = self._arrays[key] = take(self.batch, self.ks)
        return hit

    def center(self, name: str) -> np.ndarray:
        """The center array ``name`` (``SampleBatch.center_rows``) of the samples."""
        return self.of(name, lambda batch, ks: batch.center_rows(name, ks))

    def omega(self, sig: Signature) -> np.ndarray:
        return self.center("omega_r" if sig is Signature.R else "omega_l")

    def column(self, stage: str) -> list:
        """Each sample's entry of the batch stage ``stage``, a list over the batch's samples."""
        entries = getattr(self.batch, stage)()
        return [entries[k] for k in self.ks]

    def curvature(self, key: str) -> np.ndarray:
        """The curvature scalar ``key`` (``CURVATURE_KEYS``) of each sample."""
        slot = CURVATURE_KEYS.index(key)
        return self.of(f"curvature {key}", lambda batch, ks: batch.curvature()[0][ks, slot])

    def metric(self, sig: Signature) -> np.ndarray:
        return self.center("g_r" if sig is Signature.R else "g_l")

    def gram(self, sig: Signature) -> np.ndarray:
        return self.center("gram_r" if sig is Signature.R else "gram_l")

    def tangent_t(self, sig: Signature) -> np.ndarray:
        """T_sig, the tangential part of the fiber direction, at each sample."""
        return self.center("t_r" if sig is Signature.R else "t_l")

    def frame_of(self, name: str) -> np.ndarray:
        slot = FRAME_FIELDS.index(name)
        return self.of(f"frame_of {name}", lambda batch, ks: batch.frame_components()[ks, slot])

    def stage(self, name: str, sig: Signature) -> np.ndarray:
        """The rows of the batch stage ``name(sig)`` (``rotations``, ``t_coeffs``, ``tables``)."""
        return self.of(f"{name} {sig.value}", lambda batch, ks: getattr(batch, name)(sig)[ks])

    def inner(self, sig: Signature, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``inner`` of vectors (m, ..., dim) at each sample; either side may broadcast."""
        return stacked_inner(self.metric(sig), *np.broadcast_arrays(u, v))

    def to_coords(self, comps: np.ndarray) -> np.ndarray:
        """``to_coord`` of frame components (m, ..., 3) at each sample."""
        return self.ambient.to_coords(self.center("point"), comps, frames=self.center("frame"))

    def to_frames(self, vecs: np.ndarray) -> np.ndarray:
        """``to_frame`` of ambient vectors (m, ..., dim) at each sample."""
        return self.ambient.to_frames(
            self.center("point"), vecs, frames=self.center("frame"),
            metric_r=self.metric(Signature.R),
        )

    def embed(self, coeffs: np.ndarray) -> np.ndarray:
        """``embed`` of chart coefficients (m, ..., 2) at each sample, (m, ..., dim)."""
        du, dv = (_per_row(self.center(a), coeffs) for a in ("du", "dv"))
        return coeffs[..., :1] * du + coeffs[..., 1:] * dv

    def unit_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Chart coefficients (m, ..., 2) scaled to unit Riemannian length."""
        q = stacked_inner(self.gram(Signature.R), coeffs, coeffs)
        return coeffs / np.sqrt(np.maximum(q, 1e-300))[..., None]

    def frame_sizes(self, vecs: np.ndarray) -> np.ndarray:
        """Sizes (m, ...) of ambient vectors (m, ..., dim), each in its sample's frame, one call."""
        return np.max(np.abs(self.to_frames(vecs)), axis=-1)

    def ok_stage(self, key: str, stage: Callable) -> np.ndarray:
        """The rows of ``stage(batch)``, a stage over the batch's samples whose stencil raised
        nothing; so must every sample's here."""
        return self.of(key, lambda batch, ks: batch.ok_rows(stage(batch), ks))

    def shape(self, sig: Signature) -> np.ndarray:
        return self.ok_stage(f"shape {sig.value}", lambda batch: batch.shapes(sig))

    def mean_curvature(self, sig: Signature) -> np.ndarray:
        return mean_curvatures(sig, self.shape(sig), self.center("eps"))

    def shape_coeffs(self, sig: Signature, coeffs: np.ndarray) -> np.ndarray:
        """A_sig of chart coefficients (m, ..., 2) at each sample, as chart coefficients."""
        c = _vectors(coeffs)
        return (_per_row(self.shape(sig), c) @ c[..., None])[..., 0]

    def apply_shape(self, sig: Signature, coeffs: np.ndarray) -> np.ndarray:
        """A_sig of chart coefficients (m, ..., 2) at each sample, in coordinates."""
        return self.embed(self.shape_coeffs(sig, coeffs))

    def shape_of_t(self, sig: Signature) -> np.ndarray:
        """A_sig T_sig at each sample, in coordinates."""
        return self.apply_shape(sig, self.stage("t_coeffs", sig))

    def rotate(self, sig: Signature, vf: np.ndarray) -> np.ndarray:
        """``rotate`` of frame components (m, ..., 3) at each sample."""
        normal = self.frame_of("n_r" if sig is Signature.R else "n_l")
        normal = np.broadcast_to(_per_row(normal, vf), vf.shape)
        return self.to_coords(wedge_frame(sig, normal, vf))

    def curve_starts(self, sig: Signature) -> list[np.ndarray]:
        """Point, frame, metric and table of ``sig`` where each sample's curves start, kept.

        That is the sample's ``curve_starts`` entry, or else the sample itself.
        """
        return self.of(f"curve_starts {sig.value}", lambda batch, ks: self._curve_starts(sig))

    def _curve_starts(self, sig: Signature) -> list[np.ndarray]:
        arrays = [self.center(name) for name in ("point", "frame")]
        arrays += [self.metric(sig), self.stage("tables", sig)]
        moved = [(s, at) for s, at in enumerate(self.column("curve_starts")) if at is not None]
        if not moved:
            return arrays
        slots = [s for s, _ in moved]
        starts = [(at.point, at.frame, at.metric[sig], at.table(sig)) for _, at in moved]
        out = []
        for a, rows in zip(arrays, zip(*starts)):
            a = a.copy()
            a[slots] = rows
            out.append(a)
        return out

    def curve_derivs(self, sigs: tuple, velocity: np.ndarray, comps: np.ndarray) -> np.ndarray:
        """Covariant derivatives of r fields along r curves from each sample, (m, r, dim).

        Curve j of each sample starts at its ``curve_starts`` point with velocity
        ``velocity[:, j]`` (m, r, dim), and its field is differentiated under
        the metric ``sigs[j]`` from the ``stencil_components`` ``comps[:, j]``
        (m, r, 5, c) at the five ``stencil_values`` parameters.  One
        ``cov_deriv_stencils`` call.
        """
        starts = [self.curve_starts(sig) for sig in sigs]
        # rows sample by sample, and within a sample curve by curve
        point, frame, metric, table = (
            np.stack(parts, axis=1).reshape(-1, *parts[0].shape[1:]) for parts in zip(*starts)
        )
        flat = comps.reshape(len(point), 5, 1, -1)
        out = self.ambient.cov_deriv_stencils(
            point,
            frame,
            metric,
            table,
            velocity.reshape(len(point), -1),
            flat[:, 0],
            np.moveaxis(flat[:, 1:], 1, 0),
            self.ambient.steps.first,
        )
        return out.reshape(velocity.shape)


def _residual_rows(out: list, ok: list[int], residuals: np.ndarray) -> list:
    """``out`` with the residual list of sample ``ok[i]`` set from row i of ``residuals``,
    an array (m,) of one residual per sample or (m, ...) of several."""
    for s, row in zip(ok, residuals.reshape(len(ok), -1).tolist()):
        out[s] = row
    return out


# -- pointwise metric identities ------------------------------------------------


def _metric_sum(st: _Stack, draws: list) -> list:
    frame_vecs = np.reshape(draws, (len(st), 3, 2, 3))
    u, v = np.moveaxis(st.to_coords(frame_vecs), 2, 0)
    uf, vf = np.moveaxis(frame_vecs, 2, 0)
    r, l = st.inner(Signature.R, u, v), st.inner(Signature.L, u, v)
    horiz = uf[..., 0] * vf[..., 0] + uf[..., 1] * vf[..., 1]
    return _scalar_residuals(r + l - 2.0 * horiz, r, l, horiz).tolist()


def _metric_diff(st: _Stack, draws: list) -> list:
    u, v = np.moveaxis(st.to_coords(np.reshape(draws, (len(st), 3, 2, 3))), 2, 0)
    xi = st.center("xi")[:, None]
    r, l = st.inner(Signature.R, u, v), st.inner(Signature.L, u, v)
    ur, vr = st.inner(Signature.R, u, xi), st.inner(Signature.R, v, xi)
    ul, vl = st.inner(Signature.L, u, xi), st.inner(Signature.L, v, xi)
    # per pair of vectors, the three residuals in turn
    residuals = np.stack(
        [
            _scalar_residuals(r - l - 2.0 * ur * vr, r, l),
            _scalar_residuals(r - l - 2.0 * ul * vl, r, l),
            _scalar_residuals(ur + ul, ur),
        ],
        axis=-1,
    )
    return residuals.reshape(len(st), -1).tolist()


# -- normal transformation ------------------------------------------------------


def _invariants(st: _Stack, keys: tuple[str, ...]) -> list:
    """The named consistency residuals of every sample (NORMAL_TRANSFORM and the like)."""
    slots = [INVARIANT_KEYS.index(key) for key in keys]
    return st.of("invariants", lambda batch, ks: batch.invariants()[ks])[:, slots].tolist()


def _normal_pairing(st: _Stack, draws: list) -> list:
    v = st.to_coords(np.reshape(draws, (len(st), 3, 3)))
    pr = st.inner(Signature.R, st.center("n_r")[:, None], v)
    pl = st.inner(Signature.L, st.center("n_l")[:, None], v)
    return _scalar_residuals(pr + pl / st.center("omega_l")[:, None], pr, pl).tolist()


# -- connection-level identities -------------------------------------------------


def _affine_comps(a: np.ndarray, b: np.ndarray, points: np.ndarray, base: np.ndarray):
    """Frame components a + b @ (q - base) of a random field at points q (m, k, dim)."""
    offsets = points - base[:, None]
    return a[:, None] + (b[:, None] @ offsets[..., None])[..., 0]


def _conn_diff(st: _Stack, draws: list) -> list:
    amb = st.ambient
    dim = amb.dim
    a_x, b_x, a_y, b_y = np.split(np.array(draws), [3, 3 + 3 * dim, 6 + 3 * dim], axis=1)
    b_x, b_y = (np.ascontiguousarray(b.reshape(-1, 3, dim)) for b in (b_x, b_y))
    p = st.center("point")
    vel = st.to_coords(_affine_comps(a_y, b_y, p[:, None], p)[:, 0])
    points, errors = amb.curve_stencils(p, vel[:, None], amb.steps.first)
    out, ok, _ = _reached([error for (error,) in errors])
    if not ok:
        return out
    st = st.rows(ok)
    points = points[ok, 0]
    m = len(ok)
    # The field on every sample's five stencil points, from one stack of their frames.
    flat = points.reshape(-1, dim)
    frames = amb.frames(flat)
    field_f = _affine_comps(a_x[ok], b_x[ok], points, p[ok]).reshape(-1, 3)
    field = amb.to_coords(flat, field_f, frames=frames)
    comps = amb.stencil_components(flat, field, frames).reshape(m, 1, 5, -1)
    # One row per metric: one sampling of the field serves both.
    derivs = st.curve_derivs(SIGNATURES, np.stack([vel[ok]] * 2, axis=1), np.repeat(comps, 2, 1))
    d_r, d_l = derivs[:, 0], derivs[:, 1]
    gap = st.to_coords(connection_gap_frame(amb.params.tau, a_x[ok], a_y[ok]))
    sizes = st.frame_sizes(np.stack([d_r - d_l - gap, d_r, d_l, gap], axis=1))
    return _residual_rows(out, ok, _sized_residuals(sizes))


def _draw_killing(d: TwoMetricFrameData, rng: np.random.Generator):
    """Two ambient vectors (2, dim), the velocities of curves through the sample.

    A curve that leaves the model (``curve_error``) stops the draws before
    the next one: its error is returned in their place.
    """
    xs = []
    for _ in range(2):
        xs.append(d.to_coord(rng.normal(size=3)))
        error = d.ambient.curve_error(d.point, xs[-1], d.steps.first)
        if error is not None:
            return error
    return np.array(xs)


def _take_killing(st: _Stack, rows: list, stops: list) -> tuple[list, int]:
    """``_draw_killing`` of every sample from its 6 normals: the velocities in one stack,
    and the first sample one of whose curves leaves the model (``curve_stencils``)."""
    xs = st.to_coords(np.reshape(rows, (len(st), 2, 3)))
    _, errors = st.ambient.curve_stencils(st.center("point"), xs, st.ambient.steps.first)
    return list(xs), _first([any(error is not None for error in row) for row in errors])


def _killing(st: _Stack, draws: list, sig: Signature) -> list:
    out, ok, xs = _reached(draws)
    if not ok:
        return out
    st = st.rows(ok)
    amb = st.ambient
    xs = np.array(xs)
    # the draws stopped at every curve that leaves the model
    points, _ = amb.curve_stencils(st.center("point"), xs, amb.steps.first)
    flat = points.reshape(-1, amb.dim)
    frames = amb.frames(flat)
    # the unit fiber field is the third frame leg in both models
    comps = amb.stencil_components(flat, frames[..., 2], frames)
    derivs = st.curve_derivs((sig, sig), xs, comps.reshape(*points.shape[:3], -1))
    xi = st.frame_of("xi")[:, None]
    w = st.to_coords(wedge_frame(sig, st.to_frames(xs), np.broadcast_to(xi, (len(ok), 2, 3))))
    rhs = (sig.eps3 * amb.params.tau) * w
    sizes = st.frame_sizes(np.stack([derivs - rhs, derivs, rhs], axis=2))
    return _residual_rows(out, ok, _sized_residuals(sizes))


# -- shape operator transformation ------------------------------------------------


def _stop(d: TwoMetricFrameData) -> GeometryError | None:
    """The error that the sample's shape operators raise, or None: where ``_draw_directions``
    stops."""
    try:
        d.shape(Signature.R)
    except GeometryError as err:
        return err.with_traceback(None)
    return None


def _draw_directions(k: int, d: TwoMetricFrameData, rng: np.random.Generator):
    """Two rounds of k raw tangent directions, (2, k, 2) chart coefficients.

    The shape operators raise a sample's stencil error once the first
    round is drawn: then only that round is drawn, and the error returned.
    """
    stop = _stop(d)
    if stop is not None:
        rng.normal(size=2 * k)
        return stop
    return rng.normal(size=(2, k, 2))


def _take_directions(k: int, st: _Stack, rows: list, stops: list) -> tuple[list, int]:
    """``_draw_directions`` of every sample from its normals, which its stop has sized."""
    draws = [row.reshape(2, k, 2) if stop is None else stop for row, stop in zip(rows, stops)]
    return draws, len(rows)


def _shape(st: _Stack, draws: list, sig: Signature) -> list:
    out, ok, got = _reached(draws)
    if not ok:
        return out
    st = st.rows(ok)
    tau = st.ambient.params.tau
    # s * x negates exactly, so each flipped tau or eps term has the mirror formula's bits
    o, s = sig.other, sig.eps3
    c = st.unit_coeffs(np.array(got)[:, :, 0])
    x = st.embed(c)
    a_sig, a_o = st.apply_shape(sig, c), st.apply_shape(o, c)
    j_o_t = st.rotate(o, st.frame_of(f"t_{o.value.lower()}"))
    t_o = st.tangent_t(o)
    coeff = st.inner(o, (st.shape_of_t(o) - (s * tau) * j_o_t)[:, None], x)
    along = st.inner(o, t_o[:, None], x)
    w = st.omega(o)
    w3 = _powers(w, 3)
    k_coeff = s * 2.0 * st.center("eps") / w3
    k_along = 2.0 * tau / w
    a_o_x = a_o / w[:, None, None]
    lhs = (
        a_sig
        + a_o_x
        + (k_coeff[:, None] * coeff)[..., None] * t_o[:, None]
        + (k_along[:, None] * along)[..., None] * j_o_t[:, None]
    )
    sizes = st.frame_sizes(np.stack([lhs, a_sig, a_o_x], axis=2))
    return _residual_rows(out, ok, _sized_residuals(sizes))


def _bilinear(st: _Stack, draws: list, sig: Signature) -> list:
    out, ok, got = _reached(draws)
    if not ok:
        return out
    st = st.rows(ok)
    k = sig.eps3 * st.ambient.params.tau
    o = sig.other
    # (m, round, [x, y], 2)
    c = st.unit_coeffs(np.array(got))
    x, y = st.embed(c[:, :, 0]), st.embed(c[:, :, 1])
    a = st.inner(sig, st.apply_shape(sig, c[:, :, 0]), y)
    a_o = st.inner(o, st.apply_shape(o, c[:, :, 0]), y)
    jx = st.inner(sig, st.rotate(o, st.to_frames(x)), y)
    jy = st.inner(sig, st.rotate(o, st.to_frames(y)), x)
    w = st.omega(o)[:, None]
    residuals = _scalar_residuals(a + (a_o - k * (jx + jy)) / w, a, a_o)
    return _residual_rows(out, ok, residuals)


def _meancurv(st: _Stack, sig: Signature) -> list:
    o = sig.other
    out, ok, _ = _reached(st.column("stencil_errors"))
    if not ok:
        return out
    st = st.rows(ok)
    q = stacked_inner(st.metric(o), st.shape_of_t(o), st.tangent_t(o))
    h_r, h_l = (st.mean_curvature(each) for each in SIGNATURES)
    e, w = st.center("eps"), st.omega(o)
    w3 = _powers(w, 3)
    # The two laws stay apart: (eps / w**3) * q and -q / w**3 round differently.
    if sig is Signature.R:
        residuals = _scalar_residuals(h_r + (e / w) * h_l + (e / w3) * q, h_r, h_l, q)
    else:
        residuals = _scalar_residuals(h_l + (e / w) * h_r - q / w3, h_l, h_r, q)
    return _residual_rows(out, ok, residuals)


# -- integrability --------------------------------------------------------------


def _int_residuals(st: _Stack, sig: Signature, which: int) -> list:
    out, ok, _ = _reached(st.column("stencil_errors"))
    if not ok:
        return out
    st = st.rows(ok)
    tau = st.ambient.params.tau
    shape = st.shape(sig)
    rot = st.stage("rotations", sig)
    sign = -sig.eps3
    bases = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    if which == 1:
        angle = st.center("angle_l" if sig is Signature.L else "angle_r")
        factor = st.center("eps") * angle if sig is Signature.L else angle
        scaled = factor[:, None, None] * (shape + sign * tau * rot)
        rhs = np.stack([scaled @ basis for basis in bases], axis=1)
        dt = st.ok_stage(f"tangent_dts {sig.value}", lambda batch: batch.tangent_dts(sig)[0])
        # [lhs, dt, rhs] per sample and chart axis, sized in one call
        sizes = st.frame_sizes(st.embed(np.stack([dt - rhs, dt, rhs], axis=2)))
        return _residual_rows(out, ok, _sized_residuals(sizes))
    # derivative of the angle along the chart direction
    dangle = st.ok_stage(f"dangle {sig.value}", lambda batch: batch.tangent_dts(sig)[1])
    coeffs = st.stage("t_coeffs", sig)
    a_term = ((shape - sign * tau * rot) @ coeffs[..., None])[..., 0]
    pairs = a_term[:, None, :] @ st.gram(sig)
    rhs = np.stack([-(pairs @ basis)[:, 0] for basis in bases], axis=1)
    return _residual_rows(out, ok, _scalar_residuals(dangle - rhs, dangle, rhs))


# -- normal curvature ------------------------------------------------------------


def _draw_normcurv(d: TwoMetricFrameData, rng: np.random.Generator):
    """A unit direction (2) and its squares q_R, q_L, redrawn while it is nearly null.

    Eight nearly null draws skip the sample with NULL_DIRECTION.
    """
    for _ in range(8):
        c = rng.normal(size=2)
        c = c / math.sqrt(max(d.coeff_inner(Signature.R, c, c), 1e-300))
        q_r = d.coeff_inner(Signature.R, c, c)
        q_l = d.coeff_inner(Signature.L, c, c)
        if abs(q_l) > 1e-6 * q_r:
            return c, q_r, q_l
    return SampleSkip(NullDirection.code)


def _take_normcurv(st: _Stack, rows: list, stops: list) -> tuple[list, int]:
    """``_draw_normcurv``'s first direction of every sample from its 2 normals, in stacks,
    and the first sample whose direction is nearly null, which redraws."""
    c = np.array(rows)
    c = c / np.sqrt(np.maximum(stacked_inner(st.gram(Signature.R), c, c), 1e-300))[:, None]
    q_r, q_l = (stacked_inner(st.gram(sig), c, c) for sig in SIGNATURES)
    return list(zip(c, q_r.tolist(), q_l.tolist())), _first(~(np.abs(q_l) > 1e-6 * q_r))


def _normcurv(st: _Stack, draws: list) -> list:
    out, ok, got = _reached(draws)
    errors = st.column("stencil_errors")
    gram_l = np.max(np.abs(st.gram(Signature.L)), axis=(1, 2)).tolist()
    # the checks of a normal curvature along c, of R then of L, in that order
    for s, (c, q_r, q_l) in zip(ok, got):
        if q_r <= 0.0:
            out[s] = NumericFailure("Riemannian direction with nonpositive square")
        elif errors[s] is not None:
            out[s] = errors[s]
        elif abs(q_l) <= 1e-12 * max(gram_l[s] * float(np.max(np.abs(c)) ** 2), 1e-300):
            out[s] = NullDirection("null direction has no normal curvature")
    ok = [s for s in ok if out[s] is None]
    if not ok:
        return out
    st = st.rows(ok)
    tau = st.ambient.params.tau
    c = np.array([draws[s][0] for s in ok])
    q_r, q_l = np.array([draws[s][1:] for s in ok]).T
    lam = {}
    for sig, q in ((Signature.R, q_r), (Signature.L, np.abs(q_l))):
        unit = c / np.sqrt(q)[:, None]
        lam[sig] = stacked_inner(st.gram(sig), st.shape_coeffs(sig, unit), unit)
    t_unit = st.embed(c) / np.sqrt(q_r)[:, None]
    twist = st.inner(Signature.L, t_unit, st.rotate(Signature.R, st.to_frames(t_unit)))
    eps_v = np.where(q_l > 0, 1.0, -1.0)
    # the Lorentzian normal curvature carries the sign of q_L
    lam_r, lam_l = lam[Signature.R], eps_v * lam[Signature.L]
    w_r = st.omega(Signature.R)
    lhs = eps_v * lam_l + (q_r / (w_r * np.abs(q_l))) * (lam_r + 2.0 * tau * twist)
    return _residual_rows(out, ok, _scalar_residuals(lhs, lam_r, lam_l))


# -- curvature relations ----------------------------------------------------------


def curvature_suite(data: TwoMetricFrameData) -> dict:
    """All curvature scalars of one sample, via independent routes.

    The ambient sectional curvatures come from the curvature tensor evaluated
    on adapted tangent bases; the closed forms in terms of the normal angles
    are reported alongside for cross-checking.  Intrinsic curvatures follow
    the Gauss equation with the tensor-route ambient part.  Reads the
    sample's row of ``SampleBatch.curvature``, keyed by ``CURVATURE_KEYS``:
    raises SampleSkip(NULL_DIRECTION) when the Lorentzian adapted basis does
    not exist, else a copy of the sample's stencil error, which the batch
    keeps.
    """
    values, skips = data._batch.curvature()
    skip = skips[data._k]
    if isinstance(skip, str):
        raise SampleSkip(skip)
    if isinstance(skip, GeometryError):
        raise copy.copy(skip)
    return dict(zip(CURVATURE_KEYS, values[data._k].tolist()))


def _singular_ratio(params) -> float:
    return params.kappa + 4.0 * params.tau**2


def _suites(st: _Stack, regular: bool = False) -> tuple[list, list[int]]:
    """Each sample's skip of ``curvature_suite`` from the batches' stage, and the samples
    without one, as by ``_reached``; with ``regular``, all skip PARAMETER_SINGULARITY first
    at singular parameters."""
    params = st.ambient.params
    scale = max(1.0, abs(params.kappa), 4.0 * params.tau**2)
    if regular and abs(_singular_ratio(params)) <= 1e-12 * scale:
        return [SampleSkip("PARAMETER_SINGULARITY")] * len(st), []
    stage = st.batch.curvature()[1]
    skips = [stage[k] for k in st.ks]
    out, ok, _ = _reached([SampleSkip(e) if isinstance(e, str) else e for e in skips])
    return out, ok


def _ratio(params) -> float:
    """a = (k - 4 t^2) / (k + 4 t^2) of SECTIONAL_REL and COMBINED_516."""
    return (params.kappa - 4.0 * params.tau * params.tau) / _singular_ratio(params)


def _sectional_rel(st: _Stack) -> list:
    out, ok = _suites(st, regular=True)
    if not ok:
        return out
    st = st.rows(ok)
    t, a = st.ambient.params.tau, _ratio(st.ambient.params)
    e, w2 = st.center("eps"), _powers(st.omega(Signature.L), 2)
    kbar_r = st.curvature("kbar_R")
    rhs = (t * t * (w2 - e * a) + a * st.curvature("kbar_L")) / w2
    return _residual_rows(out, ok, _scalar_residuals(kbar_r - rhs, kbar_r, rhs))


def _combined_516(st: _Stack) -> list:
    out, ok = _suites(st, regular=True)
    if not ok:
        return out
    st = st.rows(ok)
    t, a = st.ambient.params.tau, _ratio(st.ambient.params)
    e, w2 = st.center("eps"), _powers(st.omega(Signature.L), 2)
    lhs = w2 * st.curvature("k_R") - a * st.curvature("k_L")
    rhs = (w2 - e * a) * t * t - e * a * st.curvature("ke_L") + w2 * st.curvature("ke_R")
    return _residual_rows(out, ok, _scalar_residuals(lhs - rhs, lhs, rhs))


def _extrinsic_rel(st: _Stack) -> list:
    out, ok = _suites(st, regular=True)
    if not ok:
        return out
    st = st.rows(ok)
    t = st.ambient.params.tau
    e, w4 = st.center("eps"), _powers(st.omega(Signature.R), 4)
    t_r = st.tangent_t(Signature.R)
    j_r_t = st.rotate(Signature.R, st.frame_of("t_r"))
    g_r = st.metric(Signature.R)
    mixed = stacked_inner(g_r, st.shape_of_t(Signature.R), j_r_t)
    t_norm4 = _powers(stacked_inner(g_r, t_r, t_r), 2)
    ke_l = st.curvature("ke_L")
    rhs = -(e / w4) * st.curvature("ke_R") + (4.0 * t * e / w4) * (mixed + t * t_norm4)
    return _residual_rows(out, ok, _scalar_residuals(ke_l - rhs, ke_l, rhs))


def _gauss(st: _Stack, sig: Signature) -> list:
    out, ok = _suites(st)
    if not ok:
        return out
    st = st.rows(ok)
    v = sig.value
    # the extrinsic term carries the square of the unit normal
    unit = 1.0 if sig is Signature.R else st.center("eps")
    rhs = st.curvature(f"kbar_{v}_closed") + unit * st.curvature(f"ke_{v}")
    k = st.curvature(f"k_{v}")
    return _residual_rows(out, ok, _scalar_residuals(k - rhs, k, rhs))


# -- registry ---------------------------------------------------------------------


def _first(stopped) -> int:
    """The index of the first true entry of ``stopped``, or its length."""
    return next((s for s, flag in enumerate(stopped) if flag), len(stopped))


def _as_drawn(st: _Stack, rows: list, stops: list) -> tuple[list, int]:
    return rows, len(rows)


@dataclass(frozen=True)
class _Draw:
    """A draw step: called as ``draw(data, rng)``, it is ``one``, which takes one
    sample's draws from the generator and returns them, or the skip at which
    they stopped.

    ``draw_plan`` takes the normals of many samples in one call and replays
    the step from them: ``size(stop, dim)`` is how many normals ``one``
    takes from a sample when it neither stops nor redraws past ``stop``
    (the sample's ``_stop``, read only with ``reads_stop``, else None), and
    ``take(st, rows, stops)`` returns the draws of the samples of the stack
    ``st`` from their rows of that many normals, with the index of the first
    sample whose ``one`` would stop or redraw past its stop (else their
    number).  Those draws are ``one``'s bits.
    """

    one: Callable
    size: Callable
    take: Callable = _as_drawn
    reads_stop: bool = False

    def __call__(self, data: TwoMetricFrameData, rng: np.random.Generator):
        return self.one(data, rng)


def _normals(count: Callable[[int], int]) -> _Draw:
    """A draw of ``count(dim)`` normals, which never stops."""
    return _Draw(
        lambda d, rng: rng.normal(size=count(d.ambient.dim)), lambda stop, dim: count(dim)
    )


def _directions(k: int) -> _Draw:
    return _Draw(
        partial(_draw_directions, k),
        lambda stop, dim: 4 * k if stop is None else 2 * k,
        partial(_take_directions, k),
        reads_stop=True,
    )


@dataclass(frozen=True)
class IdentityInfo:
    """A named identity and its evaluator, which takes the ``_Stack`` of an evaluation.

    An identity that draws random numbers has ``draw`` (a ``_Draw``):
    ``draw(data, rng)`` takes one sample's draws from the generator and
    returns them, or the skip at which they stopped.  Its evaluator takes
    the list of every sample's draws as a second argument (see the module
    docstring).
    """

    name: str
    tolerance: float
    evaluate: Callable
    draw: _Draw | None = None


_KILLING_DRAW = _Draw(_draw_killing, lambda stop, dim: 6, _take_killing)
_NORMCURV_DRAW = _Draw(_draw_normcurv, lambda stop, dim: 2, _take_normcurv)

_REGISTRY: list[IdentityInfo] = [
    IdentityInfo("METRIC_SUM", 1e-12, _metric_sum, _normals(lambda dim: 18)),
    IdentityInfo("METRIC_DIFF", 1e-12, _metric_diff, _normals(lambda dim: 18)),
    IdentityInfo(
        "NORMAL_TRANSFORM", 1e-9, partial(_invariants, keys=("normal_routes", "angle_transform"))
    ),
    IdentityInfo("NORMAL_PAIRING", 1e-9, _normal_pairing, _normals(lambda dim: 9)),
    IdentityInfo("OMEGA_PRODUCT", 1e-9, partial(_invariants, keys=("omega_product",))),
    IdentityInfo(
        "T_RELATION", 1e-9, partial(_invariants, keys=("t_relation", "t_split_R", "t_split_L"))
    ),
    # two random fields, affine in the point: a (3) and b (3, dim) each
    IdentityInfo("CONN_DIFF", 1e-5, _conn_diff, _normals(lambda dim: 6 + 6 * dim)),
    IdentityInfo("KILLING_R", 1e-5, partial(_killing, sig=Signature.R), _KILLING_DRAW),
    IdentityInfo("KILLING_L", 1e-5, partial(_killing, sig=Signature.L), _KILLING_DRAW),
    IdentityInfo("SHAPE_R", 1e-4, partial(_shape, sig=Signature.R), _directions(1)),
    IdentityInfo("SHAPE_L", 1e-4, partial(_shape, sig=Signature.L), _directions(1)),
    IdentityInfo("BILINEAR_R", 1e-4, partial(_bilinear, sig=Signature.R), _directions(2)),
    IdentityInfo("BILINEAR_L", 1e-4, partial(_bilinear, sig=Signature.L), _directions(2)),
    IdentityInfo("MEANCURV_R", 1e-4, partial(_meancurv, sig=Signature.R)),
    IdentityInfo("MEANCURV_L", 1e-4, partial(_meancurv, sig=Signature.L)),
    IdentityInfo("INT1_L", 1e-4, partial(_int_residuals, sig=Signature.L, which=1)),
    IdentityInfo("INT2_L", 1e-4, partial(_int_residuals, sig=Signature.L, which=2)),
    IdentityInfo("INT1_R", 1e-4, partial(_int_residuals, sig=Signature.R, which=1)),
    IdentityInfo("INT2_R", 1e-4, partial(_int_residuals, sig=Signature.R, which=2)),
    IdentityInfo("NORMCURV", 1e-5, _normcurv, _NORMCURV_DRAW),
    IdentityInfo("SECTIONAL_REL", 1e-4, _sectional_rel),
    IdentityInfo("EXTRINSIC_REL", 1e-4, _extrinsic_rel),
    IdentityInfo("GAUSS_R", 1e-4, partial(_gauss, sig=Signature.R)),
    IdentityInfo("GAUSS_L", 1e-4, partial(_gauss, sig=Signature.L)),
    IdentityInfo("COMBINED_516", 1e-4, _combined_516),
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
    # the Riemannian normal curvatures along v and w
    unit_v = v / math.sqrt(d.coeff_inner(Signature.R, v, v))
    unit_w = w / math.sqrt(d.coeff_inner(Signature.R, w, w))
    lam_v = d.coeff_inner(Signature.R, a_r @ unit_v, unit_v)
    lam_w = d.coeff_inner(Signature.R, a_r @ unit_w, unit_w)
    denom = 1.0 + d.omega_l + d.omega_l**2
    out["ratio_residual"] = float(_scalar_residuals(lam_v * denom + lam_w, lam_v, lam_w))
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


@dataclass
class DrawPlan:
    """The samples of one surface, and per identity their draws in a sample-by-sample order.

    ``draws[i]`` lists each sample's draws of the i-th identity asked for,
    or is None when that identity draws nothing.
    """

    samples: list
    draws: list


def draw_plan(
    names: list[str], samples: list[TwoMetricFrameData], rng: np.random.Generator
) -> DrawPlan:
    """Take the draws of the named identities on the samples of one surface.

    Sample after sample, each identity that draws takes that sample's draws,
    in the order of ``names``; so ``rng`` is consumed exactly as by one
    ``run_identities`` call per sample, and ends in the same state.  Nothing
    is evaluated.

    The stream order is that of the per-sample draw steps, but the normals
    of all the samples are taken in one ``rng.normal`` call while no sample
    stops or redraws (``_replay``); ``rng`` must therefore be a NumPy
    ``Generator``, whose ``normal`` fills one call's numbers in the order of
    any split of it.  Each sample's draws are views of that block, or made
    from it.
    """
    infos = [IDENTITIES[name] for name in names]
    draws = [None if info.draw is None else [] for info in infos]
    drawing = [(info.draw, taken) for info, taken in zip(infos, draws) if taken is not None]
    if drawing and samples:
        _replay(drawing, samples, rng)
    return DrawPlan(samples, draws)


def _replay(drawing: list, samples: list[TwoMetricFrameData], rng: np.random.Generator) -> None:
    """Append each sample's draws of each step of ``drawing`` (step, list) to the list.

    Every sample's stop (``_stop``) is read once, if a step reads it, and
    sizes its normals.  From sample j on, all the normals are drawn in one
    call and each step's ``take`` makes the draws from them as stacks.  At
    the first sample whose draws stop or redraw, the generator's state is
    put back, the normals of the samples before it are drawn again in one
    call, that sample's steps run one by one, and the replay resumes after
    it.
    """
    st = _Stack(samples)
    dim, k = st.ambient.dim, len(drawing)
    stops = [None] * len(samples)
    if any(draw.reads_stop for draw, _ in drawing):
        stops = [_stop(d) for d in samples]
    sizes = [size for stop in stops for size in (draw.size(stop, dim) for draw, _ in drawing)]
    j = 0
    while j < len(samples):
        rest = st.rows(list(range(j, len(samples))))
        # the offset of each (sample, step) of the rest in its block, sample by sample
        at = list(accumulate(sizes[j * k :], initial=0))
        state = rng.bit_generator.state
        block = rng.normal(size=at[-1])
        takes, first = [], len(rest)
        for i, (draw, _) in enumerate(drawing):
            rows = [block[a:b] for a, b in zip(at[i::k], at[i + 1 :: k])]
            got, stopped = draw.take(rest, rows, stops[j:])
            takes.append(got)
            first = min(first, stopped)
        for (_, taken), got in zip(drawing, takes):
            taken += got[:first]
        if first == len(rest):
            return
        rng.bit_generator.state = state
        rng.normal(size=at[first * k])
        j += first
        for draw, taken in drawing:
            taken.append(draw(samples[j], rng))
        j += 1


def evaluate_plans(names: list[str], plans: list[DrawPlan]) -> dict[str, list[list]]:
    """Evaluate named identities on the samples of several draw plans, each evaluator once.

    The plans' samples must share one ambient (one model and parameter
    pair); ConfigInvalid otherwise.  One ``_Stack`` of all their samples,
    plan after plan, over their ``SampleBatch.join``, serves every
    evaluator, so each stage is built once; with no sample, none runs.
    Returns, per identity and plan, each sample's residual list or the
    reason it was skipped: a SampleSkip's reason or a GeometryError's code.
    """
    samples = [d for plan in plans for d in plan.samples]
    if any(d.ambient is not samples[0].ambient for d in samples):
        raise ConfigInvalid("the samples of one evaluation must share one ambient")
    st = _Stack(samples) if samples else None
    ends = list(accumulate(len(plan.samples) for plan in plans))
    out = {}
    for i, name in enumerate(names):
        info = IDENTITIES[name]
        if st is None:
            got = []
        elif info.draw is None:
            got = info.evaluate(st)
        else:
            got = info.evaluate(st, [drawn for plan in plans for drawn in plan.draws[i]])
        got = [_reason(outcome) if isinstance(outcome, Exception) else outcome for outcome in got]
        out[name] = [got[end - len(plan.samples) : end] for plan, end in zip(plans, ends)]
    return out


def _reason(exc: Exception) -> str:
    return exc.reason if isinstance(exc, SampleSkip) else exc.code


def evaluate_samples(
    names: list[str],
    samples: list[TwoMetricFrameData],
    rng: np.random.Generator,
) -> list[dict[str, dict]]:
    """Evaluate named identities on the samples of one surface: ``draw_plan``, ``evaluate_plans``.

    The samples must share one ambient, as the samples of one
    ``frame_batch`` do; ConfigInvalid otherwise.  Returns, per sample, per
    identity either {"residuals": [...]} or {"skipped": reason}.
    """
    got = evaluate_plans(names, [draw_plan(names, samples, rng)])
    return [{name: _outcome(got[name][0][s]) for name in names} for s in range(len(samples))]


def _outcome(value: list | str) -> dict:
    return {"skipped": value} if isinstance(value, str) else {"residuals": value}


def run_identities(
    names: list[str],
    data: TwoMetricFrameData,
    rng: np.random.Generator,
) -> dict[str, dict]:
    """Evaluate named identities on one sample: ``evaluate_samples`` of one sample."""
    return evaluate_samples(names, [data], rng)[0]
