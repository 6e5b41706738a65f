"""Span wrappers installed around the program's layer functions.

The traced run patches each wrapped name wherever the program looks it
up: module functions in every ``gmapkit`` module that imported them
(``gmapkit.cli.parse_gmap`` as well as ``gmapkit.textio.parse_gmap``),
methods on their class (``Gmap.validate``, so the call from
``apply_rule`` is caught).  Spans are kept in memory with their parent
id and written out at the end.  ``LabeledGraph.incident_links`` runs
over a hundred thousand times per operation, so it is counted, not timed.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _parsed_darts(args, kwargs, result):
    return {"darts": len(result.graph)}


def _validated_darts(args, kwargs, result):
    return {"darts": len(args[0].graph)}


def _orbit_darts(args, kwargs, result):
    return {"darts": len(result.orbit_graph)}


def _touched(args, kwargs, result):
    # darts the rewrite created or relinked, against darts it re-validated
    rule = args[0]
    match = args[2] if len(args) > 2 else kwargs["match"]
    relinked = {match[x] for link in rule.left.links for x in link.ends}
    relinked.update(match[p] for link in rule.right.links for p in link.ends if p in rule.preserved)
    return {"touched": len(relinked) + len(rule.right_only), "validated": len(result.graph)}


# (module, attribute path, span name, annotation of a returned call)
SPANS = (
    ("gmapkit.textio", "parse_gmap", "textio.parse_gmap", _parsed_darts),
    ("gmapkit.textio", "serialize_gmap", "textio.serialize_gmap", None),
    ("gmapkit.textio", "import_off", "textio.import_off", None),
    ("gmapkit.textio", "export_obj", "textio.export_obj", None),
    ("gmapkit.mesh", "unify", "mesh.unify", None),
    ("gmapkit.gmap", "Gmap.validate", "gmap.validate", _validated_darts),
    ("gmapkit.gmap", "Gmap.orbit", "gmap.orbit", None),
    ("gmapkit.gmap", "Gmap.cells", "gmap.cells", None),
    ("gmapkit.graph", "LabeledGraph.copy", "graph.copy", None),
    ("gmapkit.scheme", "instantiate_rule", "scheme.instantiate_rule", _orbit_darts),
    ("gmapkit.rewrite", "complete_match", "rewrite.complete_match", None),
    ("gmapkit.rewrite", "apply_rule", "rewrite.apply_rule", _touched),
    ("gmapkit.cli", "main", "cli.main", None),
    ("gmapkit.cli", "cmd_unify", "cli.unify", None),
    ("gmapkit.cli", "cmd_validate", "cli.validate", None),
    ("gmapkit.cli", "cmd_apply", "cli.apply", None),
    ("gmapkit.cli", "cmd_export_obj", "cli.export_obj", None),
)
COUNTED = ("gmapkit.graph", "LabeledGraph.incident_links")

#: per-layer metric name -> unit, in report order
LAYER_METRICS = {
    "textio.parse_gmap_s": "s",
    "textio.parse_gmap.darts_per_s": "darts/s",
    "textio.serialize_gmap_s": "s",
    "textio.import_off_s": "s",
    "textio.export_obj.self_s": "s",
    "mesh.unify_s": "s",
    "gmap.validate_s": "s",
    "gmap.validate.calls": "count",
    "gmap.validate.op_share": "ratio",
    "gmap.validated_darts": "count",
    "gmap.orbit_s": "s",
    "gmap.orbit.calls": "count",
    "gmap.cells_s": "s",
    "graph.incident_links.calls": "count",
    "graph.copy_s": "s",
    "scheme.instantiate_rule_s": "s",
    "scheme.orbit_darts": "count",
    "rewrite.complete_match_s": "s",
    "rewrite.apply_rule.self_s": "s",
    "rewrite.touched_per_validated": "ratio",
    "cli.unify_s": "s",
    "cli.validate_s": "s",
    "cli.apply_s": "s",
    "cli.export_obj_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """Records spans ``(id, parent, name, start, end, attrs)``; parent 0 is none.

    The benchmark opens a root span per set-up and per operation with
    :meth:`span`; program spans nest under it, and so do the reference
    loops run inside a stepwise operation.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._calls = [0]
        self._patched: list = []

    # -- patching ------------------------------------------------------------

    def _span_wrapper(self, fn, name, annotate):
        spans, stack, ids = self.spans, self._stack, self._ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, start, perf_counter(), None))
                raise
            end = perf_counter()
            stack.pop()
            spans.append((sid, parent, name, start, end, annotate(args, kwargs, result) if annotate else None))
            return result

        return wrapper

    def _count_wrapper(self, fn):
        calls = self._calls

        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, path, make):
        owner_name, _, attr = path.rpartition(".")
        module = sys.modules[module_name]
        if owner_name:
            cls = getattr(module, owner_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, make(original))
            self._patched.append((cls, attr, original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "gmapkit" and not name.startswith("gmapkit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def install(self) -> None:
        for module_name, path, name, annotate in SPANS:
            self._patch(module_name, path, lambda fn: self._span_wrapper(fn, name, annotate))
        self._patch(*COUNTED, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark; records the incident_links calls in it."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        calls0 = self._calls[0]
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, {"incident_links": self._calls[0] - calls0}))

    # -- results ---------------------------------------------------------------

    def _aggregate(self):
        """Per (root kind, span name): call count, inclusive and self time, attr sums."""
        parent_of = {s[0]: s[1] for s in self.spans}
        kind_of = {s[0]: s[2] for s in self.spans if s[1] == 0}
        child_time: dict = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        roots: dict = {}

        def root_of(sid):
            path = []
            while parent_of[sid]:
                if sid in roots:
                    break
                path.append(sid)
                sid = parent_of[sid]
            top = roots.get(sid, sid)
            for p in path:
                roots[p] = top
            return top

        agg: dict = defaultdict(lambda: defaultdict(float))
        for sid, parent, name, start, end, attrs in self.spans:
            kind = kind_of[root_of(sid)]
            row = agg[(kind, name)]
            row["calls"] += 1
            row["incl"] += end - start
            row["self"] += end - start - child_time[sid]
            for key, value in (attrs or {}).items():
                row[key] += value
        return agg

    def layer_metrics(self, overhead: float, speed: float) -> dict:
        """Every per-layer metric: what a layer costs one set-up plus one operation.

        A time or count is the layer's total over the traced set-ups divided
        by their number, plus its total over the traced operations divided
        by theirs; rates and ratios are taken over all spans.  Times and
        rates are converted to reference speed by the factor ``speed``.
        """
        agg = self._aggregate()
        runs = {kind: agg[(kind, kind)]["calls"] for kind in ("setup", "op")}

        def per(name, field="incl"):
            return sum(agg[(k, name)][field] / n for k, n in runs.items() if n)

        def total(name, field):
            return sum(agg[(k, name)][field] for k in runs)

        def ratio(num, den):
            return num / den if den else 0.0

        cli_names = ("cli.main", "cli.unify", "cli.validate", "cli.apply", "cli.export_obj")
        values = {
            "textio.parse_gmap_s": per("textio.parse_gmap"),
            "textio.parse_gmap.darts_per_s": ratio(
                total("textio.parse_gmap", "darts"), total("textio.parse_gmap", "incl")
            ),
            "textio.serialize_gmap_s": per("textio.serialize_gmap"),
            "textio.import_off_s": per("textio.import_off"),
            "textio.export_obj.self_s": per("textio.export_obj", "self"),
            "mesh.unify_s": per("mesh.unify"),
            "gmap.validate_s": per("gmap.validate"),
            "gmap.validate.calls": per("gmap.validate", "calls"),
            "gmap.validate.op_share": ratio(
                agg[("op", "gmap.validate")]["incl"],
                agg[("op", "op")]["incl"] - agg[("op", "reference")]["incl"],
            ),
            "gmap.validated_darts": per("gmap.validate", "darts"),
            "gmap.orbit_s": per("gmap.orbit"),
            "gmap.orbit.calls": per("gmap.orbit", "calls"),
            "gmap.cells_s": per("gmap.cells"),
            "graph.incident_links.calls": per("setup", "incident_links") + per("op", "incident_links"),
            "graph.copy_s": per("graph.copy"),
            "scheme.instantiate_rule_s": per("scheme.instantiate_rule"),
            "scheme.orbit_darts": per("scheme.instantiate_rule", "darts"),
            "rewrite.complete_match_s": per("rewrite.complete_match"),
            "rewrite.apply_rule.self_s": per("rewrite.apply_rule", "self"),
            "rewrite.touched_per_validated": ratio(
                total("rewrite.apply_rule", "touched"), total("rewrite.apply_rule", "validated")
            ),
            "cli.unify_s": per("cli.unify"),
            "cli.validate_s": per("cli.validate"),
            "cli.apply_s": per("cli.apply"),
            "cli.export_obj_s": per("cli.export_obj"),
            "cli.self_s": sum(per(name, "self") for name in cli_names),
            "trace.overhead": overhead,
        }
        by_unit = {"s": speed, "darts/s": 1 / speed}
        return {
            name: {"value": values[name] * by_unit.get(unit, 1), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }

    def dump(self, path, meta: dict) -> None:
        """Write the run's metadata, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
