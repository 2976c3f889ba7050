"""Timing wrappers for the traced benchmark run.

The tracer replaces public functions of the library with wrappers that
record a span per call: name, start, end, parent span and request id.  A
function is replaced wherever a `burling` module binds it, so calls made
between modules (`recognition` calling `graph.nesting_order`, `frames`
calling `core.verify_axioms`) are caught too.  `FrameFamily` is a class that
`frames` itself compares against with isinstance, so its `__init__` is
wrapped instead of the module attribute.  Every replaced attribute is
restored when the tracer is uninstalled, also on error.

Spans stay in memory until the run writes them out with `write_spans`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from burling import core, frames, generator, graph, io, mis, recognition

# (layer, owner, attribute): the layer names are the module names.
TARGETS = (
    ("recognition", recognition, "recognize"),
    ("graph", graph, "is_triangle_free"),
    ("graph", graph, "nesting_order"),
    ("mis", mis, "solve_indep"),
    ("mis", mis, "chordal_relation"),
    ("mis", mis, "mwis_chordal"),
    ("frames", frames, "build_frames"),
    ("frames", frames, "horizontal_order"),
    ("frames", frames, "horizontal_constraints"),
    ("frames", frames, "vertical_order"),
    ("frames", frames.FrameFamily, "__init__"),
    ("frames", frames, "verify_strict"),
    ("frames", frames, "extract_burling"),
    ("core", core, "verify_axioms"),
    ("core", core, "inner_join"),
    ("core", core, "outer_join"),
    ("core", core, "induced_graph"),
    ("generator", generator, "gen_burling"),
    ("io", io, "parse_graph_text"),
    ("io", io, "load_burling_json"),
    ("io", io, "load_frames_json"),
    ("io", io, "dump_burling_json"),
    ("io", io, "dump_frames_json"),
)

def _span_name(layer, owner, attr) -> str:
    return f"{layer}.{owner.__name__ if attr == '__init__' else attr}"


def _bindings(original):
    """Every (module, attribute) of the burling package bound to original."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "burling" or modname.startswith("burling.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, request id)
        self.counts = defaultdict(int)
        self.request_id = None
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._current_rel = 0

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            for layer, owner, attr in TARGETS:
                original = getattr(owner, attr)
                wrapper = self._wrap(_span_name(layer, owner, attr), original)
                if attr == "__init__":
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod, name in list(_bindings(original)):
                    self._patched.append((mod, name, original))
                    setattr(mod, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def patched_names(self) -> list:
        return list(self._patched)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, original):
        if name == "recognition.recognize":
            # the counts come from recognize_with_stats, which runs the same
            # dynamic program and also reports the memo sizes
            with_stats = recognition.recognize_with_stats

            def call(*args, **kwargs):
                result, stats = with_stats(*args, **kwargs)
                self._count_recognize(result, stats)
                return result
        else:
            call = original
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.request_id)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count_recognize(self, result, stats) -> None:
        c = self.counts
        c["recognition.accepted" if result is not None else "recognition.rejected"] += 1
        c["recognition.unrooted"] += stats.unrooted_count
        c["recognition.rooted"] += stats.rooted_count
        if result is not None:
            c["recognition.witness_pairs"] += len(result.prec) + len(result.adj)



def _linear_arg(args, kwargs) -> bool:
    return bool(args[1] if len(args) > 1 else kwargs.get("linear", False))


def _on_chordal_relation(tracer, args, kwargs, result):
    tracer._current_rel = len(result)
    tracer.counts["mis.rel_pairs"] += len(result)


def _on_mwis(tracer, args, kwargs, result):
    rel = args[1] if len(args) > 1 else kwargs["rel"]
    tracer.counts["mis.rel_kept"] += len(rel)
    tracer.counts["mis.rel_scanned"] += tracer._current_rel


def _on_constraints(tracer, args, kwargs, result):
    key = "linear" if _linear_arg(args, kwargs) else "general"
    tracer.counts[f"frames.constraints_{key}"] += len(result)


def _on_extract(tracer, args, kwargs, result):
    tracer.counts["frames.crossings"] += len(result.adj)


def _on_gen(tracer, args, kwargs, result):
    tracer.counts["generator.elements"] += len(result.elements)


def _on_parse(tracer, args, kwargs, result):
    tracer.counts["io.bytes_in"] += len(args[0] if args else kwargs["text"])


def _on_dump(tracer, args, kwargs, result):
    tracer.counts["io.bytes_out"] += len(result)


def write_spans(path, phases: dict) -> None:
    """One JSON line per span: [phase, name, start, end, parent, request id];
    a parent is an index into the same phase's spans, -1 for none."""
    with open(path, "w") as fh:
        for phase, spans in phases.items():
            for span in spans:
                fh.write(json.dumps([phase, *span]) + "\n")


_HOOKS = {
    "mis.chordal_relation": _on_chordal_relation,
    "mis.mwis_chordal": _on_mwis,
    "frames.horizontal_constraints": _on_constraints,
    "frames.extract_burling": _on_extract,
    "generator.gen_burling": _on_gen,
    "io.parse_graph_text": _on_parse,
    "io.load_burling_json": _on_parse,
    "io.load_frames_json": _on_parse,
    "io.dump_burling_json": _on_dump,
    "io.dump_frames_json": _on_dump,
}


def span_times(spans):
    """Per span name: (total duration, calls); per layer: (busy, self).

    A layer's busy time counts only its outermost spans, so a frames call
    nested in another frames call is not counted twice.  Self time is a
    span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name = defaultdict(lambda: [0.0, 0])
    busy = defaultdict(float)
    self_time = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        by_name[name][0] += dur
        by_name[name][1] += 1
        self_time[layer] += dur - child[i]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            busy[layer] += dur
    return by_name, busy, self_time


def layer_metrics(setup_spans, setup_counts, pass_spans, counts) -> dict:
    """The per-layer metrics: generator, join and induced-graph work over
    the traced set-up, everything else over one traced pass of the corpus."""
    s_name, s_busy, s_self = span_times(setup_spans)
    p_name, p_busy, p_self = span_times(pass_spans)

    def t(name):
        return p_name[name][0] if name in p_name else 0.0

    def n(name):
        return p_name[name][1] if name in p_name else 0

    subproblems = counts["recognition.unrooted"] + counts["recognition.rooted"]
    rec_busy = p_busy["recognition"]
    m = {
        "recognition.busy_s": (rec_busy, "s"),
        "recognition.self_s": (p_self["recognition"], "s"),
        "recognition.calls": (n("recognition.recognize"), "count"),
        "recognition.accepted": (counts["recognition.accepted"], "count"),
        "recognition.rejected": (counts["recognition.rejected"], "count"),
        "recognition.subproblems": (subproblems, "count"),
        "recognition.unrooted": (counts["recognition.unrooted"], "count"),
        "recognition.rooted": (counts["recognition.rooted"], "count"),
        "recognition.s_per_subproblem": (rec_busy / subproblems if subproblems else 0.0, "s"),
        "recognition.witness_pairs": (counts["recognition.witness_pairs"], "count"),
        "graph.busy_s": (p_busy["graph"], "s"),
        "graph.self_s": (p_self["graph"], "s"),
        "graph.triangle_check_s": (t("graph.is_triangle_free"), "s"),
        "graph.nesting_order_s": (t("graph.nesting_order"), "s"),
        "graph.nesting_order_calls": (n("graph.nesting_order"), "count"),
        "mis.busy_s": (p_busy["mis"], "s"),
        "mis.self_s": (p_self["mis"], "s"),
        "mis.calls": (n("mis.solve_indep"), "count"),
        "mis.chordal_relation_s": (t("mis.chordal_relation"), "s"),
        "mis.mwis_chordal_s": (t("mis.mwis_chordal"), "s"),
        "mis.mwis_chordal_calls": (n("mis.mwis_chordal"), "count"),
        "mis.rel_pairs": (counts["mis.rel_pairs"], "count"),
        "mis.rel_useful_ratio": (
            counts["mis.rel_kept"] / counts["mis.rel_scanned"]
            if counts["mis.rel_scanned"] else 0.0,
            "ratio",
        ),
        "frames.busy_s": (p_busy["frames"], "s"),
        "frames.self_s": (p_self["frames"], "s"),
        "frames.build_s": (t("frames.build_frames"), "s"),
        "frames.horizontal_s": (t("frames.horizontal_order"), "s"),
        "frames.vertical_s": (t("frames.vertical_order"), "s"),
        "frames.constraints_general": (counts["frames.constraints_general"], "count"),
        "frames.constraints_linear": (counts["frames.constraints_linear"], "count"),
        "frames.family_check_s": (t("frames.FrameFamily"), "s"),
        "frames.verify_strict_s": (t("frames.verify_strict"), "s"),
        "frames.extract_s": (t("frames.extract_burling"), "s"),
        "frames.crossings": (counts["frames.crossings"], "count"),
        "core.busy_s": (p_busy["core"], "s"),
        "core.self_s": (p_self["core"], "s"),
        "core.verify_axioms_s": (t("core.verify_axioms"), "s"),
        "core.verify_axioms_calls": (n("core.verify_axioms"), "count"),
        "core.join_s": (
            sum(s_name[k][0] for k in ("core.inner_join", "core.outer_join") if k in s_name),
            "s",
        ),
        "core.induced_graph_s": (
            s_name["core.induced_graph"][0] if "core.induced_graph" in s_name else 0.0,
            "s",
        ),
        "generator.busy_s": (s_busy["generator"], "s"),
        "generator.self_s": (s_self["generator"], "s"),
        "generator.elements": (setup_counts.get("generator.elements", 0), "count"),
        "io.busy_s": (p_busy["io"], "s"),
        "io.self_s": (p_self["io"], "s"),
        "io.parse_s": (
            t("io.parse_graph_text") + t("io.load_burling_json") + t("io.load_frames_json"),
            "s",
        ),
        "io.dump_s": (t("io.dump_burling_json") + t("io.dump_frames_json"), "s"),
        "io.bytes_in": (counts["io.bytes_in"], "count"),
        "io.bytes_out": (counts["io.bytes_out"], "count"),
    }
    return m
