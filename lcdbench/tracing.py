"""Spans around lcdkit's public functions and methods, and the per-layer
metrics derived from them.

A layer is one lcdkit module.  ``Tracer.install`` replaces every public
function of each layer module (in every lcdkit namespace that holds it)
and every public method of the classes defined there with a wrapper that
records a span: name, layer, start, end, parent span, job and pass.
Field arithmetic (``FieldCtx.add/sub/neg/mul/inv/power``) runs millions of
times per pass, so it is counted instead of spanned.  A few row and column
accessors that sit inside inner loops get no wrapper at all.
``Tracer.uninstall`` puts the originals back, so untraced passes run the
program unchanged.

Spans stay in memory; ``Tracer.dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

LAYERS = ("gf", "matfq", "codes", "orthogen", "construct", "cli", "fixtures")

ARITH = ("add", "sub", "neg", "mul", "inv", "power")

# accessors called inside inner loops: neither spanned nor counted
UNWRAPPED = {
    "gf": {"FieldCtx.element", "FieldCtx.elements", "FieldCtx.div"},
    "matfq": {"MatrixFq.row", "MatrixFq.rows", "MatrixFq.col",
              "MatrixFq.is_zero"},
}

# dunder methods that do real work and get spans like public ones
EXTRA_METHODS = {"MatrixFq.__matmul__", "RecordStore.__init__"}

# span record fields
NAME, LAYER, START, END, PARENT, JOB, PASS, INFO = range(8)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        ("gf.ctx_build_s", "s"), ("gf.arith_calls", "count"),
        ("gf.self_dual_basis_s", "s"),
        ("matfq.rref_calls", "count"), ("matfq.rref_s", "s"),
        ("matfq.det_calls", "count"), ("matfq.det_s", "s"),
        ("matfq.matmul_s", "s"),
        ("codes.distance_calls", "count"), ("codes.enum_s", "s"),
        ("codes.enum_messages", "count"),
        ("codes.subsets_calls", "count"), ("codes.subsets_s", "s"),
        ("codes.lcd_s", "s"), ("codes.store_save_s", "s"),
        ("codes.store_load_s", "s"), ("codes.store_bytes", "count"),
        ("orthogen.walk_calls", "count"), ("orthogen.walk_s", "s"),
        ("orthogen.closure_states", "count"), ("orthogen.closure_s", "s"),
        ("orthogen.states_per_s", "1/s"),
        ("construct.search_trials", "count"),
        ("construct.search_distance_calls", "count"),
        ("construct.search_hit_ratio", "ratio"),
        ("construct.search_self_s", "s"),
        ("construct.extend_s", "s"), ("construct.product_s", "s"),
        ("construct.project_s", "s"), ("construct.rs_pipeline_s", "s"),
        ("construct.replay_s", "s"),
        ("cli.main_calls", "count"), ("cli.main_self_s", "s"),
        ("fixtures.load_s", "s"),
    ]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [("trace.pass_s", "s"), ("trace.untraced_pass_s", "s"),
            ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    """Collects spans and arithmetic counts while installed."""

    def __init__(self, lcdkit_pkg):
        self.pkg = lcdkit_pkg
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = "setup"
        self.pass_no = -1
        self.arith = 0
        self.arith_by_pass: dict[int, int] = {}
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._plan()

    # -- wrapping --------------------------------------------------------------

    def _modules(self) -> dict[str, Any]:
        return {name: sys.modules[f"{self.pkg.__name__}.{name}"]
                for name in LAYERS}

    def _namespaces(self) -> list[Any]:
        prefix = self.pkg.__name__
        return [m for n, m in sys.modules.items()
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def _plan(self) -> None:
        """Decide every (owner, attribute, original, wrapper) patch."""
        namespaces = self._namespaces()
        for layer, mod in self._modules().items():
            skip = UNWRAPPED.get(layer, set())
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not _is_plain_callable(value):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._span_wrapper(layer, attr, value)
                for ns in namespaces:
                    for name, held in list(vars(ns).items()):
                        if held is value:
                            self._patches.append((ns, name, value, wrapper))
            for cname, cls in list(vars(mod).items()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                if issubclass(cls, BaseException):
                    continue
                for attr, raw in list(vars(cls).items()):
                    qual = f"{cname}.{attr}"
                    if qual in skip:
                        continue
                    if attr.startswith("_") and qual not in EXTRA_METHODS:
                        continue
                    if cname == "FieldCtx" and attr in ARITH:
                        self._patches.append(
                            (cls, attr, raw, self._count_wrapper(raw)))
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        kind = type(raw)
                        wrapped = kind(self._span_wrapper(layer, qual,
                                                          raw.__func__))
                        self._patches.append((cls, attr, raw, wrapped))
                    elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                        self._patches.append(
                            (cls, attr, raw, self._span_wrapper(layer, qual, raw)))

    @contextlib.contextmanager
    def recording(self, job: str):
        """Spans for one job: wrappers in place until the block ends."""
        self.job = job
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapper in reversed(self._patches):
            setattr(owner, attr, orig)

    def _count_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args):
            tracer.arith += 1
            return fn(*args)

        return counted

    def _span_wrapper(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.job, tracer.pass_no,
                   before(tracer, args, kwargs) if before else None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
            if after:
                rec[INFO] = after(args, result)
            return result

        return spanned

    # -- pass bookkeeping ----------------------------------------------------

    def start_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self.arith = 0

    def end_pass(self) -> None:
        self.arith_by_pass[self.pass_no] = self.arith

    def dump(self, path: Path, revision: str, meta: dict) -> None:
        payload = {"revision": revision, "meta": meta,
                   "fields": ["name", "layer", "start", "end", "parent",
                              "job", "pass", "info"],
                   "spans": self.spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _is_plain_callable(value) -> bool:
    return inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper)


# ---------------------------------------------------------------------------
# annotations recorded at specific boundaries

def _distance_strategy(tracer, args, kwargs) -> dict:
    """Classify a LinearCode.distance call by the rule its docstring gives:
    a cached exact value answers first, k = n is trivial, q^k <= budget
    enumerates messages, anything else scans parity-check column subsets."""
    code = args[0]
    budget = kwargs.get("budget", args[1] if len(args) > 1 else None)
    if budget is None:
        budget = sys.modules[f"{tracer.pkg.__name__}.codes"].DEFAULT_DISTANCE_BUDGET
    cached = getattr(code, "_dist", None)
    q, k = code.ctx.q, code.k
    if cached is not None and cached.status == "exact":
        return {"strategy": "cached"}
    if k == code.n:
        return {"strategy": "trivial"}
    if q ** k <= budget:
        return {"strategy": "enumeration", "messages": (q ** k - 1) // (q - 1)}
    return {"strategy": "subsets"}


_BEFORE = {"LinearCode.distance": _distance_strategy}

_AFTER = {
    "group_closure_order": lambda args, result: {"states": result[0]},
    "search_random_lcd": lambda args, result: {"hit": result is not None},
    "RecordStore.save": lambda args, result: {
        "bytes": os.path.getsize(args[0].path)},
}


# ---------------------------------------------------------------------------
# metrics

def _duration(rec: list) -> float:
    return rec[END] - rec[START]


def _has_ancestor(rec: list, names: set[str], all_spans: list[list]) -> bool:
    parent = rec[PARENT]
    while parent >= 0:
        up = all_spans[parent]
        if up[NAME] in names:
            return True
        parent = up[PARENT]
    return False


def _outer_time(spans: list[list], names: set[str], all_spans: list[list]) -> float:
    """Total duration of spans named in ``names`` that have no ancestor
    named there too, so nested calls are not counted twice."""
    return sum(_duration(r) for r in spans
               if r[NAME] in names and not _has_ancestor(r, names, all_spans))


def pass_metrics(tracer: Tracer, pass_no: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    all_spans = tracer.spans
    idxs = [i for i, rec in enumerate(all_spans) if rec[PASS] == pass_no]
    spans = [all_spans[i] for i in idxs]
    covered: dict[int, float] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] = covered.get(rec[PARENT], 0.0) + _duration(rec)
    self_time = {i: _duration(all_spans[i]) - covered.get(i, 0.0) for i in idxs}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in self_time.items():
        layer_self[all_spans[i][LAYER]] += s

    def named(name):
        return [r for r in spans if r[NAME] == name]

    def t(*names):
        return _outer_time(spans, set(names), all_spans)

    search = {"search_random_lcd"}
    dist = named("LinearCode.distance")
    enum = [r for r in dist if r[INFO]["strategy"] == "enumeration"]
    subs = [r for r in dist if r[INFO]["strategy"] == "subsets"]
    closures = named("group_closure_order")
    states = sum(r[INFO]["states"] for r in closures)
    closure_s = sum(_duration(r) for r in closures)
    walks = named("random_orthogonal")
    search_dist = [r for r in dist if _has_ancestor(r, search, all_spans)]
    hits = sum(1 for r in named("search_random_lcd") if r[INFO]["hit"])

    m = {
        "gf.arith_calls": tracer.arith_by_pass.get(pass_no, 0),
        "gf.self_dual_basis_s": t("FieldCtx.self_dual_basis"),
        "matfq.rref_calls": len(named("MatrixFq.rref")),
        "matfq.rref_s": t("MatrixFq.rref"),
        "matfq.det_calls": len(named("MatrixFq.det")),
        "matfq.det_s": t("MatrixFq.det"),
        "matfq.matmul_s": t("MatrixFq.__matmul__"),
        "codes.distance_calls": len(dist),
        "codes.enum_s": sum(_duration(r) for r in enum),
        "codes.enum_messages": sum(r[INFO]["messages"] for r in enum),
        "codes.subsets_calls": len(subs),
        "codes.subsets_s": sum(_duration(r) for r in subs),
        "codes.lcd_s": t("LinearCode.is_lcd", "LinearCode.hull_dim"),
        "codes.store_save_s": t("RecordStore.save"),
        "codes.store_load_s": t("RecordStore.__init__"),
        "codes.store_bytes": sum(r[INFO]["bytes"] for r in named("RecordStore.save")),
        "orthogen.walk_calls": len(walks),
        "orthogen.walk_s": t("random_orthogonal"),
        "orthogen.closure_states": states,
        "orthogen.closure_s": closure_s,
        "orthogen.states_per_s": states / closure_s if closure_s else 0.0,
        "construct.search_trials": sum(
            1 for r in walks if _has_ancestor(r, search, all_spans)),
        "construct.search_distance_calls": len(search_dist),
        "construct.search_hit_ratio": hits / len(search_dist) if search_dist else 0.0,
        "construct.search_self_s": sum(
            self_time[i] for i in idxs if all_spans[i][NAME] in search),
        "construct.extend_s": t("extend_by_two", "extend_dimension"),
        "construct.product_s": t("mplcd_build", "matrix_product_code",
                                 "matrix_product_generator"),
        "construct.project_s": t("project_to_subfield"),
        "construct.rs_pipeline_s": t("rs_pipeline"),
        "construct.replay_s": t("replay_record"),
        "cli.main_calls": len(named("main")),
        "cli.main_self_s": layer_self["cli"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the traced set-up (spans with pass -1)."""
    all_spans = tracer.spans
    spans = [r for r in all_spans if r[PASS] == -1]
    gf_names = {"parse_field", "field_create", "tower_create", "FieldCtx.tables"}
    fixture_names = {r[NAME] for r in spans if r[LAYER] == "fixtures"}
    return {
        "gf.ctx_build_s": _outer_time(spans, gf_names, all_spans),
        "fixtures.load_s": _outer_time(spans, fixture_names, all_spans),
    }


def combine(per_pass: list[dict[str, float]], setup: dict[str, float],
            traced_pass_s: list[float], untraced_pass_s: list[float]) -> dict[str, float]:
    """Median of each per-pass metric over the traced passes, plus the
    set-up metrics and the tracing overhead."""
    out = dict(setup)
    for key in per_pass[0]:
        out[key] = statistics.median(p[key] for p in per_pass)
    traced = statistics.median(traced_pass_s)
    untraced = statistics.median(untraced_pass_s)
    out["trace.pass_s"] = traced
    out["trace.untraced_pass_s"] = untraced
    out["trace.overhead_ratio"] = traced / untraced
    return out
