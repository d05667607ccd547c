"""Tracing for the benchmark: spans and call counters wrapped around the layers.

The wrappers are installed from outside the package, by rebinding each traced
function at every place it is bound: the defining module, every ``bicausal``
module that imported it by name (``central_diff`` in ``ambient``/``groups``,
``frame_data`` in ``suite``/``cli``, ...), the class for methods, and the
identity registry for the 25 evaluators.  ``Tracer.uninstall`` puts every
original back; untraced passes run with nothing installed.

A span is (name, id, parent id, start, end), kept in memory and written when
the run ends.  Hot primitives get a counter only, so their cost is charged to
the self time of the span that called them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

# Layer functions that get a span: (metric name, module, attribute path).
SPAN_TARGETS = (
    ("suite.run_suite", "bicausal.suite", "run_suite"),
    ("catalog.build_surface", "bicausal.catalog", "build_surface"),
    ("surfaces.frame_data", "bicausal.surfaces", "frame_data"),
    ("surfaces.shape", "bicausal.surfaces", "TwoMetricFrameData.shape"),
    ("surfaces.tangent_derivatives", "bicausal.surfaces", "TwoMetricFrameData.tangent_derivatives"),
    ("identities.curvature_suite", "bicausal.identities", "curvature_suite"),
    ("ambient.cov_deriv_on_curve", "bicausal.ambient", "CoordinateAmbient.cov_deriv_on_curve"),
    ("groups.cov_deriv_on_curve", "bicausal.groups", "GroupAmbient.cov_deriv_on_curve"),
    ("cli.cmd_verify", "bicausal.cli", "cmd_verify"),
    ("cli.cmd_report", "bicausal.cli", "cmd_report"),
)

# Primitives that only count calls.
COUNT_TARGETS = (
    ("ambient.frame", "bicausal.ambient", "CoordinateAmbient.frame"),
    ("ambient.metric", "bicausal.ambient", "CoordinateAmbient.metric"),
    ("ambient.to_frame", "bicausal.ambient", "CoordinateAmbient.to_frame"),
    ("ambient.connection_table", "bicausal.ambient", "CoordinateAmbient.connection_table"),
    ("ambient.christoffels", "bicausal.ambient", "CoordinateAmbient.christoffels"),
    ("groups.frame", "bicausal.groups", "GroupAmbient.frame"),
    ("groups.metric", "bicausal.groups", "GroupAmbient.metric"),
    ("groups.to_frame", "bicausal.groups", "GroupAmbient.to_frame"),
    ("groups.christoffels", "bicausal.groups", "GroupAmbient.christoffels"),
    ("numdiff.central_diff", "bicausal.numdiff", "central_diff"),
    ("linalg.solve", "numpy.linalg", "solve"),
)

SKIP_COUNTER = "identities.skipped"
ROOT = "pass"


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, int, int, float, float]] = []
        self.missing: list[str] = []
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, skip_types: tuple = ()):
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            counts[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except skip_types:
                counts[SKIP_COUNTER] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((name, sid, parent, start, end))

        wrapper._perfbench_wrapper = True
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper._perfbench_wrapper = True
        return wrapper

    def run(self, fn, *args):
        """Call fn under a root span; returns (result, seconds)."""
        root = self.span(ROOT, fn)
        start = time.perf_counter()
        out = root(*args)
        return out, time.perf_counter() - start

    def reset(self) -> None:
        self.counts.clear()
        self.spans.clear()
        self._next_id = 1

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        from bicausal import identities
        from bicausal.errors import GeometryError

        self.missing = []
        for name, module, path in SPAN_TARGETS:
            self._wrap(name, module, path, self.span)
        for name, module, path in COUNT_TARGETS:
            self._wrap(name, module, path, self.counter)
        skip_types = (identities.SampleSkip, GeometryError)
        for key, info in list(identities.IDENTITIES.items()):
            wrapped = self.span(f"identities.{key}", info.evaluate, skip_types)
            self._set(identities.IDENTITIES, key, dataclasses.replace(info, evaluate=wrapped), True)

    def uninstall(self) -> None:
        for owner, attr, original, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, module: str, path: str, make) -> None:
        owner = sys.modules.get(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            # The program no longer has this function: its metrics read 0.
            self.missing.append(name)
            return
        wrapped = make(name, original)
        if outer:
            self._set(owner, attr, wrapped, False)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == module or mod_name.split(".")[0] == "bicausal"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped, False)

    def _set(self, owner, attr, value, is_item: bool) -> None:
        original = owner[attr] if is_item else getattr(owner, attr)
        self._patches.append((owner, attr, original, is_item))
        if is_item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)


def installed_wrappers() -> list[str]:
    """Names of every ``bicausal`` binding that is currently a benchmark wrapper."""
    from bicausal import identities

    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name.split(".")[0] == "bicausal" or mod_name == "numpy.linalg"):
            continue
        for key, value in list(vars(mod).items()):
            if getattr(value, "_perfbench_wrapper", False):
                found.append(f"{mod_name}.{key}")
            if isinstance(value, type) and value.__module__ == mod_name:
                found += [
                    f"{mod_name}.{key}.{m}"
                    for m, fn in vars(value).items()
                    if getattr(fn, "_perfbench_wrapper", False)
                ]
    found += [
        f"IDENTITIES[{key}]"
        for key, info in identities.IDENTITIES.items()
        if getattr(info.evaluate, "_perfbench_wrapper", False)
    ]
    return found


def self_times(spans) -> tuple[dict, float]:
    """Self seconds per span name, and the largest gap between the root and its parts.

    A span's self time is its duration minus the durations of its direct
    children (spans never overlap: one thread).  The self times of one pass
    therefore add up to the root span's duration; the returned gap is the
    largest difference seen, as a share of the root duration, and is float
    rounding only unless spans were lost or misparented.
    """
    child = defaultdict(float)
    for _, _, parent, start, end in spans:
        child[parent] += end - start
    out: dict = defaultdict(float)
    root_total = 0.0
    for name, sid, parent, start, end in spans:
        out[name] += (end - start) - child[sid]
        if parent == 0:
            root_total += end - start
    gap = abs(sum(out.values()) - root_total) / root_total if root_total else 0.0
    return dict(out), gap
