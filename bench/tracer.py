"""In-memory span tracer that instruments the program from outside.

``install`` replaces each traced public function of ``causaloid`` at every
module attribute that binds it (and traced methods on their class), so a
call made inside ``run_pipeline`` nests as a child span of the caller's
span. ``uninstall`` restores the originals. Untraced runs never call
``install`` and use ``NULL_TRACER`` for the harness's own spans.

A span records its name, layer, start, end, parent span and request id.
Spans stay in memory; ``dump`` writes them out once the run has ended.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, layer, inclusive-time metric or None, count function)
# A count function gets (result, args, kwargs, tracer) and returns a dict of
# count metrics recorded on the span.


def _table_counts(out, args, kwargs, tracer):
    return {"backends.table_builds": 1, "backends.table_entries": out.n_entries}


def _exterior_counts(out, args, kwargs, tracer):
    return {"backends.exteriors": len(out)}


def _greedy_counts(out, args, kwargs, tracer):
    rows = args[0] if args else kwargs["values"]
    return {"tables.greedy_rows_scanned": len(rows), "tables.greedy_rows_kept": len(out)}


def _fold_counts(out, args, kwargs, tracer):
    return {"tomographic.fold_columns": len(out[1])}


def _one(metric):
    def count(out, args, kwargs, tracer):
        return {metric: 1}

    return count


def _build_counts(out, args, kwargs, tracer):
    tracer.last_registry_keys = {key for key, _ in out.composites}
    return {"causaloid.entries_built": len(out.elementary) + len(out.composites)}


def _adjacency_counts(out, args, kwargs, tracer):
    held = tracer.last_registry_keys
    redundant = sum(1 for p in out.pairs if (p.first, p.second) in held)
    return {
        "compositional.adjacency_pairs": len(out.pairs),
        "compositional.adjacency_pairs_redundant": redundant,
    }


def _herald_counts(out, args, kwargs, tracer):
    key = "heralding.well_defined" if out.well_defined else "heralding.ill_defined"
    return {key: 1}


def _runs_counts(out, args, kwargs, tracer):
    return {"operational.runs": len(out)}


def _report_bytes(out, args, kwargs, tracer):
    return {"report.bytes": len(out.encode("utf-8"))}


TARGETS = (
    ("scenario", "parse_scenario", "scenario", "scenario.parse_s", None),
    ("scenario", "parse_scenario_dict", "scenario", "scenario.parse_s", None),
    ("backends", "validate_exterior_span", "backends", "backends.span_validate_s", None),
    ("backends", "build_prob_table", "backends", "backends.table_build_s", _table_counts),
    ("backends", "enumerate_exteriors", "backends", None, _exterior_counts),
    ("backends", "TheorySpec.sample_cards", "backends", "backends.sample_cards_s",
     _one("backends.sample_cards_calls")),
    ("tables", "greedy_independent_rows", "tables", "tables.greedy_s", _greedy_counts),
    ("tables", "ProbTable.validate", "tables", "tables.validate_s", None),
    ("tomographic", "fold_to_exterior", "tomographic", "tomographic.fold_s", _fold_counts),
    ("tomographic", "solve_expansion", "tomographic", "tomographic.solve_s",
     _one("tomographic.solve_calls")),
    ("compositional", "fiducial_rows_matrix", "compositional",
     "compositional.rows_matrix_s", None),
    ("compositional", "joint_fiducial_matrix", "compositional",
     "compositional.rows_matrix_s", None),
    ("compositional", "adjacency_graph", "compositional", "compositional.adjacency_s",
     _adjacency_counts),
    ("causaloid", "build_causaloid", "causaloid", "causaloid.build_s", _build_counts),
    ("causaloid", "evaluate_joint", "causaloid", "causaloid.joint_s", None),
    ("causaloid", "causaloid_product", "causaloid", "causaloid.product_s", None),
    ("causaloid", "meta_compress", "causaloid", "causaloid.meta_s", None),
    ("causaloid", "expand", "causaloid", "causaloid.meta_s", None),
    ("causaloid", "save_causaloid", "causaloid", "causaloid.serialize_s", None),
    ("causaloid", "load_causaloid", "causaloid", "causaloid.serialize_s", None),
    ("heralding", "herald", "heralding", "heralding.herald_s", _herald_counts),
    ("heralding", "conditional_sweep", "heralding", "heralding.witness_s", None),
    ("operational", "sample_stacks", "operational", "operational.sample_s", _runs_counts),
    ("operational", "dump_stacks", "operational", "operational.stack_io_s", None),
    ("operational", "load_stacks", "operational", "operational.stack_io_s", None),
    ("operational", "estimate_prob", "operational", "operational.estimate_s", None),
    ("report", "run_pipeline", "report", "report.pipeline_s", None),
    ("report", "report_json", "report", "report.serialize_s", _report_bytes),
    ("report", "write_report", "report", "report.serialize_s", None),
    ("cli", "main", "cli", "cli.main_s", None),
)

LAYERS = (
    "scenario", "backends", "tables", "tomographic", "compositional",
    "causaloid", "heralding", "operational", "report", "cli", "bench",
)

# per-layer metrics reported by a traced run, with their units
TIME_METRICS = tuple(dict.fromkeys(t[3] for t in TARGETS if t[3]))
COUNT_METRICS = (
    "backends.table_builds", "backends.table_entries", "backends.exteriors",
    "backends.sample_cards_calls", "tables.greedy_rows_scanned",
    "tables.greedy_rows_kept", "tomographic.fold_columns",
    "tomographic.solve_calls", "compositional.adjacency_pairs",
    "compositional.adjacency_pairs_redundant", "causaloid.entries_built",
    "heralding.well_defined", "heralding.ill_defined", "operational.runs",
    "report.bytes",
)


def per_layer_units() -> dict[str, str]:
    units = {m: "s" for m in TIME_METRICS}
    units.update({m: "count" for m in COUNT_METRICS})
    units["tables.greedy_keep_ratio"] = "fraction"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.incl_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


class Span:
    __slots__ = ("name", "layer", "metric", "start", "end", "parent", "request",
                 "tag", "counts", "children_s")

    def __init__(self, name, layer, metric, start, parent, request, tag):
        self.name = name
        self.layer = layer
        self.metric = metric
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.tag = tag
        self.counts = None
        self.children_s = 0.0


class Tracer:
    """Collects spans for one process; one caller, no threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.n_requests = 0
        self.last_registry_keys: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name, layer, metric=None, tag=None):
        parent = self.stack[-1] if self.stack else None
        if tag is None and parent is not None:
            tag = self.spans[parent].tag
        idx = len(self.spans)
        self.spans.append(
            Span(name, layer, metric, time.perf_counter(), parent, self.request, tag)
        )
        self.stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.end - span.start

    @contextlib.contextmanager
    def span(self, name, tag=None):
        """A harness span (layer ``bench``), e.g. one scenario of a pass."""
        idx = self.open(name, "bench", tag=tag)
        try:
            yield
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def request_span(self, kind):
        """Root span of one request; spans opened inside share its id."""
        self.request = self.n_requests
        self.n_requests += 1
        idx = self.open(f"request:{kind}", "bench", tag=kind)
        try:
            yield
        finally:
            self.close(idx)
            self.request = -1

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, fn, name, layer, metric, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, layer, metric)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.spans[idx].counts = count(out, args, kwargs, tracer)
            return out

        return traced

    def install(self) -> int:
        """Wrap every traced function wherever a causaloid module binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "causaloid" or n.startswith("causaloid."))
        ]
        for mod_name, attr, layer, metric, count in TARGETS:
            home = sys.modules[f"causaloid.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, attr, layer, metric, count))
                continue
            fn = getattr(home, attr)
            wrapped = self._wrap(fn, f"{mod_name}.{attr}", layer, metric, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, name, fn))
                        setattr(module, name, wrapped)
        return len(self._saved)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "layer": s.layer,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "tag": s.tag,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


class _NullTracer:
    """Stand-in for untraced runs: harness spans cost one call, record nothing."""

    _null = contextlib.nullcontext()

    def span(self, name, tag=None):
        return self._null

    def request_span(self, kind):
        return self._null


NULL_TRACER = _NullTracer()


def summarize(tracer: Tracer, requests: set[int]) -> dict:
    """Per-layer totals over the given requests, plus a per-tag breakdown.

    Self time is a span's duration minus the time its child spans cover.
    An inclusive metric counts a span only when no ancestor carries the
    same metric (``parse_scenario`` calling ``parse_scenario_dict`` counts
    once); a layer's inclusive time likewise counts outermost spans only.
    Returns totals and per-tag totals.
    """
    spans = tracer.spans
    totals: dict[str, float] = defaultdict(float)
    by_tag: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    tag_requests: dict[str, set[int]] = defaultdict(set)
    n_spans = 0
    for i, s in enumerate(spans):
        if s.request not in requests:
            continue
        n_spans += 1
        dur = s.end - s.start
        self_t = dur - s.children_s
        tag_requests[s.tag].add(s.request)
        adds = {f"{s.layer}.self_s": self_t}
        ancestors_metrics, ancestors_layers = set(), set()
        p = s.parent
        while p is not None:
            ancestors_metrics.add(spans[p].metric)
            ancestors_layers.add(spans[p].layer)
            p = spans[p].parent
        if s.layer not in ancestors_layers:
            adds[f"{s.layer}.incl_s"] = dur
        if s.metric is not None and s.metric not in ancestors_metrics:
            adds[s.metric] = dur
        if s.counts:
            adds.update(s.counts)
        for key, value in adds.items():
            totals[key] += value
            by_tag[s.tag][key] += value
    return {
        "totals": dict(totals),
        "by_tag": {t: dict(v) for t, v in by_tag.items()},
        "tag_requests": {t: len(v) for t, v in tag_requests.items()},
        "n_spans": n_spans,
    }
