"""Verification-suite runner: reports, determinism, skip accounting."""

from __future__ import annotations

import collections
import copy
import dataclasses
import math

import numpy as np
import pytest

from bicausal.catalog import CATALOG, parse_surface
from bicausal.errors import ConfigInvalid
from bicausal.identities import IDENTITIES, IDENTITY_NAMES
from bicausal.suite import DEFAULT_PARAMS, SCHEMA_VERSION, SuiteConfig, run_suite, sample_points
from bicausal.surfaces import SurfaceChart

from oracles import sample_points_loop


def _small_config(**kw):
    base = dict(params=((1.0, 1.0),), samples=2, seed=7)
    base.update(kw)
    return SuiteConfig(**base)


def test_default_parameter_grid():
    assert DEFAULT_PARAMS == (
        (1.0, 1.0),
        (-1.0, 1.0),
        (4.0, 1.0),
        (1.0, 0.5),
        (1.0, 0.0),
        (-1.0, 0.0),
        (0.0, 0.0),
    )
    assert SCHEMA_VERSION == 1


def test_report_structure_and_pass():
    report = run_suite(_small_config())
    assert set(report) == {
        "schema_version",
        "generated_at",
        "config",
        "results",
        "surfaces",
        "skipped_surfaces",
        "summary",
    }
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["summary"]["pass"] is True
    assert report["summary"]["n_fail"] == 0
    # one row per (identity, surface)
    surfaces = {row["surface"] for row in report["surfaces"]}
    assert len(report["results"]) == len(IDENTITY_NAMES) * len(surfaces)
    for row in report["results"]:
        assert row["status"] in {"pass", "fail", "skipped"}
        assert row["tolerance"] > 0
        if row["status"] == "pass":
            assert row["max_residual"] <= row["tolerance"]


def test_runs_are_deterministic_apart_from_timestamp():
    a = run_suite(_small_config())
    b = run_suite(_small_config())
    a_cmp, b_cmp = copy.deepcopy(a), copy.deepcopy(b)
    a_cmp.pop("generated_at")
    b_cmp.pop("generated_at")
    assert a_cmp == b_cmp


def test_seed_changes_sample_draws():
    a = run_suite(_small_config(seed=7))
    b = run_suite(_small_config(seed=8))
    a.pop("generated_at")
    b.pop("generated_at")
    assert a != b


def test_unknown_identity_rejected():
    with pytest.raises(ConfigInvalid):
        run_suite(_small_config(identities=("NOT_AN_IDENTITY",)))


def test_unknown_surface_rejected_before_running():
    with pytest.raises(ConfigInvalid):
        run_suite(_small_config(surfaces=("nosuch:thing",)))
    with pytest.raises(ConfigInvalid):
        run_suite(_small_config(surfaces=("graph:bowl:zzz=3",)))


def test_surface_repeated_at_a_pair_is_rejected_with_its_address_and_pair():
    """Addresses are compared as the catalog resolves them at each pair."""
    config = SuiteConfig(
        params=((-1.0, 1.0), (1.0, 1.0)),
        surfaces=("hopf:circle", "hopf:circle:r=0.9"),
        samples=1,
    )
    want = r"surface 'hopf:circle:r=0.9' is given more than once at \(1,1\)"
    with pytest.raises(ConfigInvalid, match=want):
        run_suite(config)


def test_addresses_that_differ_at_the_pair_both_run():
    """At (-1,1) the default radius of ``hopf:circle`` is 0.81, so the two are two surfaces."""
    config = SuiteConfig(
        params=((-1.0, 1.0),),
        surfaces=("hopf:circle", "hopf:circle:r=0.9"),
        identities=("METRIC_SUM",),
        samples=1,
    )
    report = run_suite(config)
    assert [row["surface"] for row in report["surfaces"]] == [
        "hopf:circle:r=0.81",
        "hopf:circle:r=0.9",
    ]


def test_surface_invalid_for_parameters_is_reported_not_fatal():
    """A catalog surface that simply does not exist at these parameters is an
    accounted skip, not an error: the suite spans parameter pairs."""
    report = run_suite(_small_config(surfaces=("slice:t0=0.1", "graph:bowl:a=0.2")))
    assert report["summary"]["pass"] is True
    skipped = {row["surface"]: row["reason"] for row in report["skipped_surfaces"]}
    assert "slice:t0=0.1" in skipped
    assert "tau" in skipped["slice:t0=0.1"]


def test_tolerance_override_can_force_failure():
    report = run_suite(_small_config(tolerances={"CONN_DIFF": 1e-15}))
    assert report["summary"]["pass"] is False
    failing = [row for row in report["results"] if row["status"] == "fail"]
    assert failing
    assert {row["identity"] for row in failing} == {"CONN_DIFF"}
    for row in failing:
        assert row["tolerance"] == 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_residual_never_passes(bad, monkeypatch):
    """Python's max drops a NaN that is not first: max([0.0, nan]) == 0.0."""
    calls = []

    def evaluate(samples, draws):
        calls.append(len(samples))
        return [[0.0]] + [[0.0, bad]] * (len(samples) - 1)

    info = IDENTITIES["METRIC_SUM"]
    monkeypatch.setitem(IDENTITIES, "METRIC_SUM", dataclasses.replace(info, evaluate=evaluate))
    report = run_suite(_small_config(identities=("METRIC_SUM",), surfaces=("graph:bowl:a=0.2",)))
    (row,) = report["results"]
    assert calls == [row["samples"]] == [2]
    assert row["status"] == "fail"
    assert not math.isfinite(row["max_residual"])
    assert report["summary"]["pass"] is False


def test_each_evaluator_runs_once_per_pair_and_model(monkeypatch):
    """The surfaces of one pair and model are evaluated together: 11 groups on the default grid."""
    calls = collections.Counter()
    for name, info in list(IDENTITIES.items()):

        def evaluate(*args, _name=name, _evaluate=info.evaluate):
            calls[_name] += 1
            return _evaluate(*args)

        monkeypatch.setitem(IDENTITIES, name, dataclasses.replace(info, evaluate=evaluate))
    report = run_suite(SuiteConfig(seed=0))
    groups = {
        (row["params"], CATALOG[parse_surface(row["surface"]).family].model)
        for row in report["surfaces"]
        if row["points_used"] > 0
    }
    assert len(groups) == 11
    assert calls == {name: len(groups) for name in IDENTITY_NAMES}


def test_identity_subset_runs_only_requested():
    report = run_suite(_small_config(identities=("METRIC_SUM", "GAUSS_R")))
    assert {row["identity"] for row in report["results"]} == {"METRIC_SUM", "GAUSS_R"}


def test_flat_flat_parameters_skip_accounting():
    """At (0, 0) the three twist-divided curvature relations skip on every
    surface with an explicit parameter-singularity reason."""
    report = run_suite(SuiteConfig(params=((0.0, 0.0),), samples=2, seed=1))
    skipped = [row for row in report["results"] if row["status"] == "skipped"]
    surfaces = {row["surface"] for row in report["surfaces"]}
    assert len(surfaces) == 7
    assert len(skipped) == 3 * len(surfaces)
    assert {row["identity"] for row in skipped} == {
        "SECTIONAL_REL",
        "EXTRINSIC_REL",
        "COMBINED_516",
    }
    for row in skipped:
        assert row["skipped"] == {"PARAMETER_SINGULARITY": row["samples"] or 2}
    assert report["summary"]["pass"] is True
    assert report["summary"]["n_skipped"] == len(skipped)


def test_near_null_samples_are_excluded_not_failed():
    """Sample points close to the causal-character boundary (large omega_L)
    measure stencil conditioning rather than correctness, so the runner
    excludes them and accounts for them on the surface row.  Seed 5 lands a
    point at omega_L ~ 10 on the bowl graph, which previously amplified the
    shape-operator residuals past tolerance."""
    report = run_suite(
        SuiteConfig(
            params=((1.0, 1.0),),
            surfaces=("graph:bowl:a=0.2",),
            samples=3,
            seed=5,
        )
    )
    assert report["summary"]["pass"] is True
    (row,) = report["surfaces"]
    assert row["excluded"].get("ILL_CONDITIONED") == 1
    assert row["points_used"] == 2


def test_default_grid_passes_for_many_seeds():
    for seed in (0, 3, 5, 9):
        report = run_suite(SuiteConfig(samples=3, seed=seed))
        assert report["summary"]["pass"] is True, f"seed {seed}"


def test_summary_counts_partition_results():
    report = run_suite(_small_config(params=((1.0, 1.0), (0.0, 0.0)), samples=2))
    s = report["summary"]
    assert s["n_pass"] + s["n_fail"] + s["n_skipped"] == len(report["results"])


def test_config_echo_includes_fd_steps():
    report = run_suite(_small_config())
    cfg = report["config"]
    assert cfg["samples"] == 2
    assert cfg["seed"] == 7
    assert cfg["params"] == ["1,1"]
    assert cfg["fd_first_step"] > 0
    assert cfg["fd_second_step"] > cfg["fd_first_step"]


@pytest.mark.parametrize("domain", [((-1.4, 1.4), (0.07, 1.82)), ((0.0, 6.5), (-0.3, 0.2))])
def test_sample_points_draw_as_the_per_point_loop(domain):
    """The jitter drawn as one array gives the loop's points, bits and generator state.

    n = 1 jitters no axis and n = 2 only u (nu = ceil(sqrt n) >= nv, so v is
    never the one axis); from n = 3 on both are jittered.
    """
    chart = SurfaceChart("box", lambda u, v: None, domain)
    for n in range(1, 13):
        rng, loop_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = sample_points(chart, n, rng, 1e-3)
        want = sample_points_loop(chart, n, loop_rng, 1e-3)
        assert len(got) == n
        assert [tuple(map(float.hex, uv)) for uv in got] == [
            tuple(map(float.hex, uv)) for uv in want
        ]
        assert rng.bit_generator.state == loop_rng.bit_generator.state
