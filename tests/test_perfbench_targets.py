"""The functions the benchmark's tracer wraps must exist in the package.

``perfbench/spans.py`` binds its spans and counters by module and attribute
path, and a path that no longer resolves only reads 0 in the benchmark.  This
guard runs with the package's own tests, so deleting or renaming a traced
function fails here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _load_spans()


@pytest.mark.parametrize(
    "name, module, path",
    _SPANS.SPAN_TARGETS + _SPANS.COUNT_TARGETS,
    ids=[target[0] for target in _SPANS.SPAN_TARGETS + _SPANS.COUNT_TARGETS],
)
def test_traced_function_exists(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert owner is not None, f"{name}: {module}.{path} does not resolve"
