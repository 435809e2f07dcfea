"""Span recorder for the traced run.

The package is left untouched: ``Tracer.patched`` replaces, for the
duration of the traced run, the functions the pipeline looks up in each
module's namespace (``classify.alexander``, ``diagram.enumerate_crossings``,
``cli.render_xy``, ...) with wrappers that record a span per call.  A span
is ``[name, start, end, parent, curve]``; spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

# (module, attribute, span name).  Each is a place where one layer looks
# up another's public function; an attribute a later version no longer
# has is skipped, and its layer then reads 0.
CALL_SITES = (
    ("classify", "reduce_c", "classify.reduce_c"),
    ("classify", "canonical_h4", "classify.canonical_h4"),
    ("classify", "enumerate_crossings", "chebgeom.enumerate_crossings"),
    ("diagram", "enumerate_crossings", "chebgeom.enumerate_crossings"),
    ("render", "enumerate_crossings", "chebgeom.enumerate_crossings"),
    ("classify", "build_gauss_code", "diagram.build_gauss_code"),
    ("classify", "read_conway_from_diagram",
     "diagram.read_conway_from_diagram"),
    ("diagram", "diagram_from_conway", "diagram.diagram_from_conway"),
    ("classify", "alexander", "invariants.alexander"),
    ("invariants", "alexander", "invariants.alexander"),
    ("classify", "determinant", "invariants.determinant"),
    ("invariants", "wirtinger", "invariants.wirtinger"),
    ("knotnames", "records", "knotnames.lookup"),
    ("knotnames", "name_by_fraction", "knotnames.lookup"),
    ("knotnames", "name_by_invariants", "knotnames.lookup"),
    ("cli", "analyze", "classify.analyze"),
    ("cli", "render_xy", "render.render_xy"),
    ("cli", "render_billiard", "render.render_billiard"),
)

# Modules whose namespace holds cfrac functions the pipeline calls; every
# such function is traced as the single layer "cfrac".
CFRAC_CALLERS = ("classify", "knotnames", "cli")

# Span name -> (size metric, function of the call's result).
SIZES = {
    "invariants.wirtinger": ("invariants.minor_dim",
                             lambda wp: wp.arc_count - 1),
    "invariants.alexander": ("invariants.alexander_degree",
                             lambda delta: len(delta.coeffs) - 1),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[str, list[int]] = {m: [] for m, _ in SIZES.values()}
        self.curve = -1  # set by the caller before each curve
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.curve])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if size is not None:
                self.sizes[size[0]].append(size[1](result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, modules: dict):
        """Install the wrappers on ``modules`` (name -> module object) and
        restore the originals on exit."""
        sites = [(modules[m], attr, name) for m, attr, name in CALL_SITES
                 if hasattr(modules[m], attr)]
        cfrac = modules["cfrac"]
        for m in CFRAC_CALLERS:
            for attr, value in vars(modules[m]).items():
                if callable(value) and not isinstance(value, type) and \
                        getattr(value, "__module__", None) == cfrac.__name__:
                    sites.append((modules[m], attr, "cfrac"))
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in sites]
        try:
            for mod, attr, name in sites:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``busy`` (time covered, nested repeats of the
        same name counted once), ``self`` (duration minus the time its
        child spans cover) and ``calls``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            t = out.setdefault(name, {"busy": 0.0, "self": 0.0, "calls": 0})
            t["calls"] += 1
            t["self"] += end - start - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                t["busy"] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
