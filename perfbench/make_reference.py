"""Write the reference outputs that the benchmark checks every pass against.

Run from the root of a checkout of the commit whose outputs are the
reference (the references in this directory were written from the seed
code)::

    python3 perfbench/make_reference.py

Verify workloads store, per config seed, each result row's status and
``max_residual``; report-grid stores every CSV cell.  One row per line, so a
change of reference reads as a diff.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _lines(items) -> str:
    return "[\n" + ",\n".join(json.dumps(item) for item in items) + "\n]"


def _verify_reference(name: str, make_inputs, run_pass, seeds: int, out_dir: str) -> str:
    keys = None
    per_seed = {}
    for seed in range(seeds):
        outcome = run_pass(name, make_inputs(name, seed), out_dir, lambda fn, *a: fn(*a))
        if keys is None:
            keys = list(outcome.rows)
        elif list(outcome.rows) != keys:
            raise RuntimeError(f"{name}: result rows differ between seeds")
        per_seed[str(seed)] = [list(outcome.rows[k]) for k in keys]
    body = ",\n".join(f'"{s}": {_lines(v)}' for s, v in per_seed.items())
    return (
        f'{{"workload": "{name}",\n"fields": ["status", "max_residual"],\n'
        f'"keys": {_lines([list(k) for k in keys])},\n"seeds": {{\n{body}\n}}}}\n'
    )


def _report_reference(name: str, make_inputs, run_pass, out_dir: str) -> str:
    from perfbench.workloads import REPORT_VALUE_COLUMNS

    outcome = run_pass(name, make_inputs(name, 0), out_dir, lambda fn, *a: fn(*a))
    columns = ["params", "u", "v", *REPORT_VALUE_COLUMNS, "character", "flags"]
    rows = [[key[0], *(row.get(c, "") for c in columns[1:])] for key, row in outcome.rows.items()]
    return f'{{"workload": "{name}",\n"columns": {json.dumps(columns)},\n"rows": {_lines(rows)}}}\n'


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ.pop("BICAUSAL_FD_STEP", None)
    from perfbench.verdicts import reference_path
    from perfbench.workloads import NAMES, REFERENCE_SEEDS, make_inputs, run_pass

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    for name in NAMES:
        if name.startswith("verify"):
            text = _verify_reference(name, make_inputs, run_pass, REFERENCE_SEEDS, out_dir)
        else:
            text = _report_reference(name, make_inputs, run_pass, out_dir)
        os.makedirs(os.path.dirname(reference_path(name)), exist_ok=True)
        with open(reference_path(name), "w") as fh:
            fh.write(text)
        print(f"wrote {os.path.relpath(reference_path(name), ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
