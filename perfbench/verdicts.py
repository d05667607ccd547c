"""Correctness check: compare a pass's rows with the committed seed-code reference.

Verify rows must keep their status (pass / fail / skipped), and no row's
``max_residual`` may rise by more than RESIDUAL_RISE_LIMIT, the residual gate
of ROADMAP.md; a fall is allowed.

Report rows must keep their causal character and flags, and every numeric
cell must stay within REPORT_VALUE_LIMIT of the reference, relative to
max(1, |reference|).  Report cells are derived quantities, not residuals, and
pass through two finite-difference layers (steps 1e-4 and 1e-3) that amplify
a last-bit change of an input by up to about 1e4; the limit leaves that
headroom and still catches any change of formula or step size, which moves
the cells by 1e-6 or more.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .workloads import REPORT_VALUE_COLUMNS

RESIDUAL_RISE_LIMIT = 1e-12
REPORT_VALUE_LIMIT = 1e-8

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass
class Check:
    rows: int
    verdict_mismatches: int
    residual_rise: float
    failed_rows: int
    limit: float
    # rows whose verdict differs, or whose residual or values moved past the limit
    bad_rows: int

    @property
    def fail_frac(self) -> float:
        return self.failed_rows / self.rows if self.rows else 0.0

    @property
    def ok(self) -> bool:
        return (
            self.rows > 0
            and self.verdict_mismatches == 0
            and self.residual_rise <= self.limit
        )


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str, seed: int | None) -> dict:
    """Reference rows of one workload, keyed like ``Outcome.rows``."""
    with open(reference_path(name)) as fh:
        ref = json.load(fh)
    if name.startswith("verify"):
        values = ref["seeds"][str(seed)]
        return {
            tuple(key): (status, residual)
            for key, (status, residual) in zip(ref["keys"], values)
        }
    columns = ref["columns"]
    return {
        (row[0], row[1], row[2]): dict(zip(columns[1:], row[1:]))
        for row in ref["rows"]
    }


def compare(name: str, ref: dict, rows: dict, subset: bool = False) -> Check:
    """Compare rows with the reference; ``subset`` allows reference rows to be absent."""
    mismatches = 0
    missing = set(ref) - set(rows)
    if not subset:
        mismatches += len(missing)
    extra = set(rows) - set(ref)
    mismatches += len(extra)
    common = [key for key in rows if key in ref]
    if name.startswith("verify"):
        limit = RESIDUAL_RISE_LIMIT
        bad, drifted, rise = _compare_verify(ref, rows, common, limit)
        failed = sum(1 for status, _ in rows.values() if status == "fail")
    else:
        limit = REPORT_VALUE_LIMIT
        bad, drifted, rise = _compare_report(ref, rows, common, limit)
        failed = sum(1 for row in rows.values() if not row.get("H_R"))
    mismatches += bad
    return Check(len(rows), mismatches, rise, failed, limit, mismatches + drifted)


def _compare_verify(ref: dict, rows: dict, keys: list, limit: float):
    bad = drifted = 0
    rise = 0.0
    for key in keys:
        status, value = rows[key]
        ref_status, ref_value = ref[key]
        if status != ref_status or (value is None) != (ref_value is None):
            bad += 1
        elif value is not None:
            up = value - ref_value if math.isfinite(value) else math.inf
            drifted += int(up > limit)
            rise = max(rise, up)
    return bad, drifted, rise


def _compare_report(ref: dict, rows: dict, keys: list, limit: float):
    bad = drifted = 0
    drift = 0.0
    for key in keys:
        row, ref_row = rows[key], ref[key]
        if (row.get("character"), row.get("flags")) != (
            ref_row.get("character"),
            ref_row.get("flags"),
        ):
            bad += 1
            continue
        devs = []
        for col in REPORT_VALUE_COLUMNS:
            got, want = row.get(col) or "", ref_row.get(col) or ""
            if got and want:
                a, b = float(got), float(want)
                devs.append(abs(a - b) / max(1.0, abs(b)) if math.isfinite(a) else math.inf)
            elif got != want:
                devs.append(math.inf)
        dev = max(devs, default=0.0)
        if dev == math.inf:
            bad += 1
        else:
            drifted += int(dev > limit)
            drift = max(drift, dev)
    return bad, drifted, drift
