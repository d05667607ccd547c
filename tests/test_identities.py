"""Identity registry: the cross-metric relations and their tolerances."""

from __future__ import annotations

import numpy as np
import pytest

from bicausal.ambient import SpaceParams
from bicausal.catalog import build_surface, default_surfaces
from bicausal.errors import ConfigInvalid
from bicausal.identities import (
    IDENTITIES,
    IDENTITY_NAMES,
    _Stack,
    evaluate_samples,
    indefiniteness_check,
    run_identities,
)
from bicausal.suite import OMEGA_CONDITION_LIMIT
from bicausal.surfaces import TwoMetricFrameData, frame_batch, frame_data

from conftest import interior_grid

EXPECTED_TOLERANCES = {
    "METRIC_SUM": 1e-12,
    "METRIC_DIFF": 1e-12,
    "NORMAL_TRANSFORM": 1e-9,
    "NORMAL_PAIRING": 1e-9,
    "OMEGA_PRODUCT": 1e-9,
    "T_RELATION": 1e-9,
    "CONN_DIFF": 1e-5,
    "KILLING_R": 1e-5,
    "KILLING_L": 1e-5,
    "SHAPE_R": 1e-4,
    "SHAPE_L": 1e-4,
    "BILINEAR_R": 1e-4,
    "BILINEAR_L": 1e-4,
    "MEANCURV_R": 1e-4,
    "MEANCURV_L": 1e-4,
    "INT1_L": 1e-4,
    "INT2_L": 1e-4,
    "INT1_R": 1e-4,
    "INT2_R": 1e-4,
    "NORMCURV": 1e-5,
    "SECTIONAL_REL": 1e-4,
    "EXTRINSIC_REL": 1e-4,
    "GAUSS_R": 1e-4,
    "GAUSS_L": 1e-4,
    "COMBINED_516": 1e-4,
}


def test_registry_names_and_order():
    assert list(IDENTITY_NAMES) == list(EXPECTED_TOLERANCES)


def test_registry_tolerances():
    got = {name: IDENTITIES[name].tolerance for name in IDENTITY_NAMES}
    assert got == EXPECTED_TOLERANCES


# The identities that draw no random numbers, evaluated once per surface.
DRAW_FREE = {
    "NORMAL_TRANSFORM", "OMEGA_PRODUCT", "T_RELATION", "MEANCURV_R", "MEANCURV_L",
    "INT1_L", "INT2_L", "INT1_R", "INT2_R", "SECTIONAL_REL", "EXTRINSIC_REL",
    "GAUSS_R", "GAUSS_L", "COMBINED_516",
}


def test_exactly_the_drawing_identities_consume_the_stream():
    """The 11 identities outside DRAW_FREE have a ``draw`` and take numbers from the generator."""
    built = build_surface("graph:bowl:a=0.2", SpaceParams(1.0, 1.0))
    uvs = interior_grid(built.chart.domain, 2, 2)
    samples = [
        d for d in frame_batch(built.ambient, built.chart, uvs) if isinstance(d, TwoMetricFrameData)
    ]
    for name in IDENTITY_NAMES:
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        evaluate_samples([name], samples, rng)
        assert (rng.bit_generator.state != before) == (name not in DRAW_FREE), name
        assert (IDENTITIES[name].draw is None) == (name in DRAW_FREE), name
    assert len(IDENTITY_NAMES) - len(DRAW_FREE) == 11


STACK_CASES = [
    ("graph:bowl:a=0.2", (1.0, 1.0)),
    ("graph:bowl:a=0.2", (-1.0, 0.5)),
    ("vgraph:saddle:a=0.15", (1.0, 0.0)),
    ("hopf:circle:r=0.45", (-1.0, 1.0)),
    ("berger-helicoid:alpha=0.5,variant=space", (1.0, 1.0)),
    ("su11-helicoid:family=h1,rate=0.35,variant=time", (-1.0, 1.0)),
]


@pytest.mark.parametrize("name", sorted(DRAW_FREE))
def test_stacked_evaluators_leave_the_generator_untouched(name):
    rng = np.random.default_rng(5)
    for address, pair in STACK_CASES:
        built = build_surface(address, SpaceParams(*pair))
        uvs = interior_grid(built.chart.domain, 3, 2) + [(-9.0, -9.0)]
        samples = [
            d for d in frame_batch(built.ambient, built.chart, uvs)
            if isinstance(d, TwoMetricFrameData)
        ]
        before = rng.bit_generator.state
        outcomes = IDENTITIES[name].evaluate(_Stack(samples))
        assert rng.bit_generator.state == before
        assert len(outcomes) == len(samples)
        evaluate_samples([name], samples, rng)
        assert rng.bit_generator.state == before


# Identities of both signatures that read signature-dependent arrays of the shared stack.
MIRRORED = ("MEANCURV_R", "MEANCURV_L", "INT1_L", "INT1_R", "INT2_L", "INT2_R")


def _bits(outcome: dict):
    if "skipped" in outcome:
        return outcome
    return [float(r).hex() for r in outcome["residuals"]]


def test_identities_sharing_one_stack_equal_each_alone():
    """The evaluators of one evaluation read one stack of per-sample arrays.

    An array kept under a key that leaves out its signature (T, the
    rotation) would hand the second identity of a mirrored pair the first
    one's array.
    """
    built = build_surface("graph:bowl:a=0.2", SpaceParams(1.0, 1.0))
    samples = [
        d for d in frame_batch(built.ambient, built.chart, interior_grid(built.chart.domain, 3, 2))
        if isinstance(d, TwoMetricFrameData)
    ]
    together = evaluate_samples(list(MIRRORED), samples, np.random.default_rng(0))
    for name in MIRRORED:
        alone = evaluate_samples([name], samples, np.random.default_rng(0))
        assert [_bits(out[name]) for out in together] == [_bits(out[name]) for out in alone], name
    assert all("residuals" in out[name] for out in together for name in MIRRORED)


def _surface_data(address, kappa, tau, frac=(0.37, 0.58)):
    params = SpaceParams(kappa, tau)
    built = build_surface(address, params)
    (u0, u1), (v0, v1) = built.chart.domain
    uv = (u0 + (u1 - u0) * frac[0], v0 + (v1 - v0) * frac[1])
    return frame_data(built.ambient, built.chart, uv, validate=False)


@pytest.mark.parametrize("kappa,tau", [(1.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
def test_all_identities_hold_on_catalog(kappa, tau):
    params = SpaceParams(kappa, tau)
    for address in default_surfaces(params):
        built = build_surface(address, params)
        for uv in interior_grid(built.chart.domain, 2, 2):
            data = frame_data(built.ambient, built.chart, uv, validate=False)
            rng = np.random.default_rng(42)
            report = run_identities(list(IDENTITY_NAMES), data, rng)
            for name, out in report.items():
                if "skipped" in out:
                    # benign per-sample skips only (null tangent directions
                    # on timelike surfaces and the like)
                    assert out["skipped"] in {"NULL_DIRECTION"}, (
                        address,
                        name,
                        out,
                    )
                    continue
                worst = max(abs(r) for r in out["residuals"])
                assert worst <= EXPECTED_TOLERANCES[name], (address, name, worst, uv)


def test_flat_flat_parameters_skip_curvature_comparisons():
    """At kappa = tau = 0 the cross-metric curvature relations divide by the
    twist and are reported as parameter singularities, never as failures."""
    data = _surface_data("graph:bowl:a=0.2", 0.0, 0.0)
    rng = np.random.default_rng(0)
    report = run_identities(list(IDENTITY_NAMES), data, rng)
    skipped = {name for name, out in report.items() if out.get("skipped") == "PARAMETER_SINGULARITY"}
    assert skipped == {"SECTIONAL_REL", "EXTRINSIC_REL", "COMBINED_516"}
    for name, out in report.items():
        if name in skipped:
            continue
        assert "residuals" in out, (name, out)
        worst = max(abs(r) for r in out["residuals"])
        assert worst <= EXPECTED_TOLERANCES[name], (name, worst)


def test_identity_evaluation_is_deterministic():
    data = _surface_data("vgraph:saddle:a=0.15", 1.0, 1.0)
    first = run_identities(list(IDENTITY_NAMES), data, np.random.default_rng(99))
    data2 = _surface_data("vgraph:saddle:a=0.15", 1.0, 1.0)
    second = run_identities(list(IDENTITY_NAMES), data2, np.random.default_rng(99))
    for name in IDENTITY_NAMES:
        assert first[name] == second[name], name


def test_identities_stay_finite_or_skip_at_the_omega_exclusion_bound():
    """Samples with omega_L in (5, 7), across the suite's exclusion bound of 6,
    give finite residuals or a coded skip for every identity."""
    built = build_surface("graph:bowl:a=0.2", SpaceParams(1.0, 1.0))
    (u0, u1), (v0, v1) = built.chart.domain
    uvs = [(u, v) for u in np.linspace(u0, u1, 40) for v in np.linspace(v0, v1, 40)]
    near = [
        d
        for d in frame_batch(built.ambient, built.chart, uvs)
        if isinstance(d, TwoMetricFrameData) and 5.0 < d.omega_l < 7.0
    ]
    assert len(near) == 64
    assert min(d.omega_l for d in near) < OMEGA_CONDITION_LIMIT < max(d.omega_l for d in near)
    rng = np.random.default_rng(0)
    for data in near:
        for name, out in run_identities(list(IDENTITY_NAMES), data, rng).items():
            if "skipped" in out:
                assert isinstance(out["skipped"], str) and out["skipped"], (name, data.uv)
            else:
                assert out["residuals"] and np.all(np.isfinite(out["residuals"])), (name, data.uv)


def test_samples_of_two_ambients_are_rejected():
    one = _surface_data("graph:bowl:a=0.2", 1.0, 1.0)
    other = _surface_data("graph:bowl:a=0.2", 1.0, 0.5)
    with pytest.raises(ConfigInvalid):
        evaluate_samples(list(IDENTITY_NAMES), [one, other], np.random.default_rng(0))


def test_unknown_identity_rejected():
    data = _surface_data("graph:bowl:a=0.2", 1.0, 1.0)
    with pytest.raises(KeyError):
        run_identities(["NO_SUCH_IDENTITY"], data, np.random.default_rng(0))


HELICOIDS = [
    ("helicoid:c=0.7", (0.0, 1.0)),
    ("berger-helicoid:alpha=0.5", (1.0, 1.0)),
    ("berger-helicoid:alpha=0.5", (4.0, 1.0)),
    ("su11-helicoid:family=h1,rate=0.35", (-1.0, 1.0)),
]


@pytest.mark.parametrize("variant", ["space", "time"])
@pytest.mark.parametrize(
    "address,pair", HELICOIDS, ids=[f"{a.split(':')[0]}-{k:g},{t:g}" for a, (k, t) in HELICOIDS]
)
def test_indefiniteness_check_asserts_its_claim_on_the_helicoids(address, pair, variant):
    """Minimal for both metrics, so H_R = H_L = 0: the claim is asserted at every sample.

    The Riemannian shape operator is indefinite there (det < 0) and the
    normal curvatures along T_R and its rotation keep the fixed ratio.
    """
    built = build_surface(f"{address},variant={variant}", SpaceParams(*pair))
    for uv in interior_grid(built.chart.domain, 2, 2):
        check = indefiniteness_check(frame_data(built.ambient, built.chart, uv, validate=False))
        assert check["asserted"], (uv, check)
        assert check["det_ratio"] < 0.0, (uv, check)
        assert check["ratio_residual"] < 1e-9, (uv, check)
