"""Command-line interface: exit codes, report/mesh formats, determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from bicausal import cli, suite
from bicausal.errors import OrientationFlip
from bicausal.identities import IDENTITIES

CLI = [sys.executable, "-m", "bicausal.cli"]


def run_cli(*args, env_extra=None, **kw):
    env = os.environ.copy()
    env.pop("BICAUSAL_FD_STEP", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, **kw
    )


def strip_timestamp(report_text: str) -> dict:
    data = json.loads(report_text)
    data.pop("generated_at")
    return data


def test_module_entry_point_matches_cli_module():
    direct = run_cli("identities")
    dunder = subprocess.run(
        [sys.executable, "-m", "bicausal", "identities"],
        capture_output=True,
        text=True,
    )
    assert direct.returncode == dunder.returncode == 0
    assert direct.stdout == dunder.stdout


def test_verify_small_run_passes():
    proc = run_cli("verify", "--params", "1,1", "--samples", "2")
    assert proc.returncode == 0, proc.stderr
    assert "pass" in proc.stdout.lower()


def test_verify_accepts_negative_kappa_pair():
    proc = run_cli("verify", "--params", "-1,1", "--samples", "2")
    assert proc.returncode == 0, proc.stderr


def test_verify_tolerance_override_fails_with_exit_1(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "verify",
        "--params",
        "1,1",
        "--samples",
        "2",
        "--tol",
        "CONN_DIFF=1e-15",
        "--json",
        str(out),
    )
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["summary"]["pass"] is False
    assert report["config"]["tolerance_overrides"] == {"CONN_DIFF": 1e-15}


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--params", "1,1", "--surfaces", "nosuch:thing"),
        ("verify", "--params", "1,1", "--surfaces", "graph:bowl:zzz=3"),
        ("verify", "--params", "one,two"),
        ("verify", "--params", "1,1", "--identities", "NOT_REAL"),
        ("verify", "--params", "1,1", "--tol", "CONN_DIFF=fast"),
        ("report", "slice:t0=0.25", "--params", "1,1"),
        # malformed addresses of surfaces that exist at the pair: errors, not skips
        ("verify", "--params", "1,1", "--surfaces", "hopf:circle:a=0.5"),
        ("verify", "--params", "1,1", "--surfaces", "hopf:circle:r=-1"),
        ("verify", "--params", "1,1", "--surfaces", "berger-helicoid:variant=sideways"),
        ("verify", "--params", "1,1", "--surfaces", "graph:bowl:a=abc"),
        ("verify", "--params", "1,1", "--surfaces", "graph:bowl:a=nan"),
        ("verify", "--params", "-1,1", "--surfaces", "su11-helicoid:family=zz"),
        # ... and of surfaces that do not exist at the pair: errors, not skips
        ("verify", "--params", "-1,1", "--surfaces", "berger-helicoid:variant=sideways"),
        ("verify", "--params", "1,0.5", "--surfaces", "slice:t0=abc"),
        ("verify", "--params", "1,1", "--surfaces", "helicoid:c=-1"),
        ("verify", "--params", "1,1", "--surfaces", "su11-helicoid:family=zz"),
        # a negative seed, which the random generator rejects
        ("verify", "--params", "1,1", "--seed", "-1"),
        # a repeated pair or surface, whose report rows would repeat
        ("verify", "--params", "1,1", "--params", "1,1", "--samples", "1"),
        ("verify", "--params", "1,1", "--params", "1.0,1.0", "--samples", "1"),
        ("verify", "--params", "1,1", "--surfaces", "graph:bowl:a=0.2",
         "--surfaces", "graph:bowl:a=0.20", "--samples", "1"),
        # ... also where the catalog's defaults make two addresses one surface
        ("verify", "--params", "1,1", "--surfaces", "hopf:circle",
         "--surfaces", "hopf:circle:r=0.9"),
        ("verify", "--params", "1,1", "--surfaces", "graph", "--surfaces", "graph:bowl"),
    ],
)
def test_config_errors_exit_2_with_code_on_stderr(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "error [CONFIG_INVALID]" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_needs_at_least_one_sample(samples):
    """No sample checks nothing, which must not read as a pass."""
    proc = run_cli("verify", "--params", "1,1", "--samples", samples)
    assert proc.returncode == 2
    assert "error [CONFIG_INVALID]" in proc.stderr
    assert "samples must be at least 1" in proc.stderr
    assert proc.stdout == ""


def test_bad_fd_step_env_exits_2():
    proc = run_cli(
        "verify",
        "--params",
        "1,1",
        "--samples",
        "2",
        env_extra={"BICAUSAL_FD_STEP": "nope"},
    )
    assert proc.returncode == 2
    assert "error [CONFIG_INVALID]" in proc.stderr


def test_fd_step_env_is_echoed_in_config(tmp_path):
    # Restrict to an algebraic identity: a coarser step legitimately degrades
    # the finite-difference identities, which is exercised separately below.
    out = tmp_path / "r.json"
    proc = run_cli(
        "verify",
        "--params",
        "1,1",
        "--samples",
        "2",
        "--identities",
        "METRIC_SUM,METRIC_DIFF",
        "--json",
        str(out),
        env_extra={"BICAUSAL_FD_STEP": "2e-4"},
    )
    assert proc.returncode == 0, proc.stderr
    cfg = json.loads(out.read_text())["config"]
    assert cfg["fd_first_step"] == pytest.approx(2e-4)
    assert cfg["fd_second_step"] == pytest.approx(2e-3)


def test_coarser_fd_step_visibly_degrades_fd_identities():
    """The step override really reaches the numerics: quadrupling the base
    step pushes fourth-order truncation error in the shape-operator
    identities past their tolerances."""
    proc = run_cli(
        "verify",
        "--params",
        "1,1",
        "--samples",
        "2",
        "--surfaces",
        "graph:bowl:a=0.2",
        "--identities",
        "SHAPE_R",
        env_extra={"BICAUSAL_FD_STEP": "8e-4"},
    )
    assert proc.returncode == 1
    assert "SHAPE_R" in proc.stdout


def test_json_report_is_reproducible_modulo_timestamp(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = run_cli(
            "verify",
            "--params",
            "1,1",
            "--samples",
            "3",
            "--seed",
            "5",
            "--json",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_text())
    assert strip_timestamp(outs[0]) == strip_timestamp(outs[1])
    # beyond structural equality, the serialized bytes agree line-for-line
    lines_a = [l for l in outs[0].splitlines() if "generated_at" not in l]
    lines_b = [l for l in outs[1].splitlines() if "generated_at" not in l]
    assert lines_a == lines_b


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_json_is_strict_for_non_finite_residuals(bad, tmp_path, monkeypatch, capsys):
    def evaluate(samples, draws):
        return [[0.0]] + [[0.0, bad]] * (len(samples) - 1)

    info = IDENTITIES["METRIC_SUM"]
    monkeypatch.setitem(IDENTITIES, "METRIC_SUM", dataclasses.replace(info, evaluate=evaluate))
    out = tmp_path / "r.json"
    args = ["verify", "--params", "1,1", "--samples", "2", "--surfaces", "graph:bowl:a=0.2"]
    code = cli.main(args + ["--identities", "METRIC_SUM,METRIC_DIFF", "--json", str(out)])
    assert code == 1
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    bad_row, good_row = report["results"]
    assert bad_row["max_residual"] is None
    assert bad_row["reason"] == "NON_FINITE" and bad_row["status"] == "fail"
    assert "reason" not in good_row and good_row["status"] == "pass"
    assert f"METRIC_SUM: max residual {bad:.3e}" in capsys.readouterr().out


def test_verify_prints_skip_reasons_of_a_row_failed_without_samples(monkeypatch, capsys):
    """A row whose every sample skips for a non-benign reason fails with no residual."""

    def evaluate(samples, draws):
        return [OrientationFlip("injected") for _ in samples]

    info = IDENTITIES["SHAPE_R"]
    monkeypatch.setitem(IDENTITIES, "SHAPE_R", dataclasses.replace(info, evaluate=evaluate))
    args = ["verify", "--params", "1,1", "--samples", "3", "--surfaces", "graph:bowl:a=0.2"]
    code = cli.main(args + ["--identities", "SHAPE_R,METRIC_SUM"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL  graph:bowl:a=0.2 @ (1,1)" in out
    assert "SHAPE_R: no evaluated sample, skipped: ORIENTATION_FLIP (" in out


def test_verify_with_every_surface_skipped_fails(tmp_path, capsys):
    """A run that samples no surface checked nothing, so it does not pass."""
    out = tmp_path / "r.json"
    args = ["verify", "--params", "-1,1", "--surfaces", "hopf:circle:r=2.5", "--json", str(out)]
    assert cli.main(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("skip  hopf:circle:r=2.5 @ (-1,1): ")
    assert lines[-1] == "== 0 pass, 0 fail, 0 skipped (FAILED: no sample was used)"
    report = json.loads(out.read_text())
    assert report["surfaces"] == [] and len(report["skipped_surfaces"]) == 1
    assert report["summary"] == {"pass": False, "n_pass": 0, "n_fail": 0, "n_skipped": 0}
    # one sampled surface beside it is checked, and the skip alone fails nothing
    assert cli.main(args[:5] + ["--surfaces", "hopf:circle", "--samples", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("(OK)")


def test_verify_with_every_sample_excluded_fails(monkeypatch, tmp_path, capsys):
    """A run whose only surface is sampled but keeps no sample checked nothing either, though
    every identity row reads skipped."""
    monkeypatch.setattr(suite, "OMEGA_CONDITION_LIMIT", 0.0)  # every sample ill-conditioned
    out = tmp_path / "r.json"
    args = ["verify", "--params", "1,1", "--surfaces", "graph:bowl:a=0.2", "--samples", "3",
            "--identities", "METRIC_SUM,SHAPE_R", "--json", str(out)]
    assert cli.main(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "== 0 pass, 0 fail, 2 skipped (FAILED: no sample was used)"
    report = json.loads(out.read_text())
    (row,) = report["surfaces"]
    assert row["points_used"] == 0 and row["excluded"] == {"ILL_CONDITIONED": 3}
    assert report["summary"] == {"pass": False, "n_pass": 0, "n_fail": 0, "n_skipped": 2}


def test_non_finite_tolerance_is_a_config_error():
    for value in ("inf", "nan"):
        proc = run_cli("verify", "--params", "1,1", "--tol", f"CONN_DIFF={value}")
        assert proc.returncode == 2
        assert "CONFIG_INVALID" in proc.stderr


REPORT_HEADER = (
    "u,v,x,y,z,character,eps,omega_L,angle_L,angle_R,"
    "H_R,H_L,K_e^R,K_e^L,K_R,K_L,flags"
)


def test_report_csv_header_and_row_count():
    proc = run_cli("report", "graph:bowl:a=0.2", "--params", "1,1", "--grid", "3x4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert len(first) == 17
    # numeric cells use shortest-roundtrip style formatting, no whitespace
    assert " " not in lines[1]
    float(first[0]), float(first[10])  # u and H_R parse as floats


def test_report_group_surface_adds_fourth_coordinate_column():
    proc = run_cli(
        "report", "berger-helicoid:alpha=0.5", "--params", "4,1", "--grid", "2x3"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == REPORT_HEADER.replace("x,y,z,", "x,y,z,w,")
    assert len(lines[1].split(",")) == 18


def test_report_flags_degenerate_rows_instead_of_dropping():
    proc = run_cli("report", "helicoid:c=0.75", "--params", "0,1", "--grid", "2x76")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1 + 2 * 76
    degen = [l for l in lines[1:] if l.endswith("DEGENERATE_INPUT")]
    assert len(degen) == 4  # tangent plane turns null at two v values, both u rows
    for row in degen:
        cells = row.split(",")
        assert cells[5] == "degenerate"
        assert cells[6:16] == [""] * 10  # invariants left blank, position kept
        float(cells[2]), float(cells[3]), float(cells[4])


def test_report_to_file(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_cli(
        "report",
        "graph:bowl:a=0.2",
        "--params",
        "1,1",
        "--grid",
        "2x2",
        "--csv",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == REPORT_HEADER


@pytest.mark.parametrize("params", ["1,1", "-1,0"])
def test_report_does_not_depend_on_the_batch_size(params, tmp_path, monkeypatch):
    """Grids in batches of 1, of 7 (the last one short) and of the default 128.

    9x9 = 81 rows fit in one default batch; 12x12 = 144 rows take two, the
    last of 16 rows.
    """

    def report(name: str, grid: str) -> bytes:
        out = tmp_path / f"{name}-{grid}.csv"
        argv = ["report", "graph:bowl:a=0.2", "--params", params, "--grid", grid]
        assert cli.main(argv + ["--csv", str(out)]) == 0
        return out.read_bytes()

    defaults = {grid: report("default", grid) for grid in ("9x9", "12x12")}
    assert [len(csv.splitlines()) for csv in defaults.values()] == [1 + 81, 1 + 144]
    for rows in (1, 7):
        monkeypatch.setattr(cli, "REPORT_BATCH_ROWS", rows)
        for grid, default in defaults.items():
            assert report(f"batch{rows}", grid) == default


def test_grid_needs_two_points_per_axis():
    proc = run_cli("report", "graph:bowl:a=0.2", "--params", "1,1", "--grid", "1x8")
    assert proc.returncode == 2
    assert "error [CONFIG_INVALID]" in proc.stderr


def test_mesh_obj_smallest_grid(tmp_path):
    out = tmp_path / "m.obj"
    proc = run_cli(
        "mesh",
        "graph:bowl:a=0.2",
        "--params",
        "1,1",
        "--grid",
        "2x2",
        "--format",
        "obj",
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 4
    assert f_lines == ["f 1 3 4 2"]
    # repeat run is byte-identical
    out2 = tmp_path / "m2.obj"
    run_cli(
        "mesh",
        "graph:bowl:a=0.2",
        "--params",
        "1,1",
        "--grid",
        "2x2",
        "--format",
        "obj",
        "--out",
        str(out2),
    )
    assert out.read_text() == out2.read_text()


def test_mesh_obj_rejected_for_four_coordinate_surfaces(tmp_path):
    out = tmp_path / "m.obj"
    proc = run_cli(
        "mesh",
        "berger-helicoid:alpha=0.5",
        "--params",
        "4,1",
        "--grid",
        "2x2",
        "--format",
        "obj",
        "--out",
        str(out),
    )
    assert proc.returncode == 2
    assert "error [UNSUPPORTED_FORMAT]" in proc.stderr


def test_mesh_csv_for_group_surface(tmp_path):
    out = tmp_path / "m.csv"
    proc = run_cli(
        "mesh",
        "berger-helicoid:alpha=0.5",
        "--params",
        "4,1",
        "--grid",
        "3x3",
        "--format",
        "csv",
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,x,y,z,w"
    assert len(lines) == 1 + 9


@pytest.mark.parametrize(
    "command, option, target",
    [
        ("verify", "--json", "missing/dir/x.json"),
        ("report", "--csv", "."),
        ("mesh", "--out", "missing/dir/x.obj"),
    ],
)
def test_unwritable_output_path_is_a_config_error(command, option, target, tmp_path):
    """A path that cannot be written exits 2, before any output, with no traceback."""
    path = tmp_path / target
    args = {
        "verify": ["verify", "--params", "1,1", "--surfaces", "graph:bowl:a=0.2",
                   "--samples", "1"],
        "report": ["report", "graph:bowl:a=0.2", "--params", "1,1", "--grid", "2x2"],
        "mesh": ["mesh", "graph:bowl:a=0.2", "--params", "1,1", "--grid", "2x2"],
    }[command]
    proc = run_cli(*args, option, str(path))
    assert proc.returncode == 2
    assert "error [CONFIG_INVALID]" in proc.stderr
    assert f"cannot write {path}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_config_error_leaves_an_existing_json_file_as_it_was(tmp_path, capsys):
    """The configuration is checked before ``--json`` opens, and so truncates nothing."""
    path = tmp_path / "cfg.json"
    configs = [
        ["--params", "1,0.5", "--surfaces", "slice:t0=abc"],
        # an option that the label does not take
        ["--params", "1,1", "--surfaces", "hopf:circle:a=0.5"],
        # one surface at (1,1), given twice
        ["--params", "-1,1", "--params", "1,1", "--surfaces", "hopf:circle",
         "--surfaces", "hopf:circle:r=0.9"],
    ]
    for config in configs:
        path.write_text("an earlier report\n")
        assert cli.main(["verify", *config, "--json", str(path)]) == 2, config
        assert "error [CONFIG_INVALID]" in capsys.readouterr().err
        assert path.read_text() == "an earlier report\n"


def test_unwritable_json_path_fails_before_the_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", lambda config: pytest.fail("the sweep ran"))
    path = tmp_path / "missing" / "r.json"
    args = ["verify", "--params", "1,1", "--samples", "1", "--json", str(path)]
    assert cli.main(args) == 2
    assert f"cannot write {path}" in capsys.readouterr().err


def test_surfaces_listing():
    proc = run_cli("surfaces")
    assert proc.returncode == 0
    for family in ("graph", "slice", "helicoid", "hopf", "berger", "su11"):
        assert family in proc.stdout
    proc = run_cli("surfaces", "--params", "1,1")
    assert proc.returncode == 0
    assert "graph:bowl" in proc.stdout


def test_identities_listing():
    proc = run_cli("identities")
    assert proc.returncode == 0
    assert "METRIC_SUM" in proc.stdout
    assert "COMBINED_516" in proc.stdout
    assert len([l for l in proc.stdout.splitlines() if l.strip()]) >= 25


def test_main_runs_the_command_bound_on_the_module_at_each_call(monkeypatch, capsys):
    """The parser is built once per process, and each call looks its command up anew."""
    assert cli.main(["identities"]) == 0
    seen = []

    def report(args):
        seen.append((args.surface, args.params, args.grid))
        return 7

    monkeypatch.setattr(cli, "cmd_report", report)
    assert cli.main(["report", "graph:bowl", "--params", "-1,1", "--grid", "3x4"]) == 7
    assert seen == [("graph:bowl", "-1,1", "3x4")]
    assert cli._parser() is cli._parser()
    capsys.readouterr()
