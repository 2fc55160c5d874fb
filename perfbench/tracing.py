"""Spans around popmatch's public functions, installed from outside.

``Tracer.install`` wraps every public function that a popmatch module
defines, and puts the wrapper wherever a popmatch module holds the
function: in its own module, so calls inside the module are traced, and in
every module that imported it by name.  Each call records a span (function,
start, end, parent span); spans stay in memory and ``dump`` writes them out
at the end.  Per-vote helpers (``vote``, ``delta``), class methods and
generators are left alone; their time counts as their caller's self time.

``summarize`` turns a span file into the per-layer metrics.  A span's self
time is its duration minus the durations of its child spans, which never
overlap because the program is single-threaded.  ``_gs`` is reported as
``gs``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("cli", "model", "engine", "_gs", "classify", "election", "popularity", "oracle", "reductions")
LAYERS = tuple(m.lstrip("_") for m in MODULES)
UNWRAPPED = frozenset({"vote", "delta"})
GADGET_BUILDERS = (
    "reductions.build_nondominant_gadget",
    "reductions.build_stable_dominant_gadget",
    "reductions.augment_max_size",
    "reductions.augment_min_size",
    "reductions.augment_roommates",
)

# (name, unit, better); the order in which they are printed
METRICS = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [
        ("gs.probe_edges_compiled.s", "s", "lower"),
        ("gs.probe_edges_python.s", "s", "lower"),
        ("gs.run_proposals.calls", "count", "lower"),
        ("classify.probe_runs", "count", "lower"),
        ("classify.runs_per_edge", "ratio", "lower"),
        ("classify.compiled_ops", "count", "higher"),
        ("model.parse_instance.s", "s", "lower"),
        ("engine.build_gprime.s", "s", "lower"),
        ("gs.compile_view.s", "s", "lower"),
        ("election.label_edges.calls", "count", "lower"),
        ("election.label_edges_per_is_dominant", "ratio", "lower"),
        ("popularity.is_popular_structure.s", "s", "lower"),
        ("popularity.is_dominant.s", "s", "lower"),
        ("popularity.find_witness_small.s", "s", "lower"),
        ("popularity.is_popular_weight.s", "s", "lower"),
        ("oracle.classify_exhaustive.s", "s", "lower"),
        ("oracle.matchings", "count", "lower"),
        ("oracle.enumerate_stable_matchings.s", "s", "lower"),
        ("oracle.stable_matchings", "count", "lower"),
        ("oracle.brute_sat.s", "s", "lower"),
        ("reductions.build.s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts = {
            "classify.probe_runs": 0,
            "classify.edges": 0,
            "classify.compiled_ops": 0,
            "oracle.matchings": 0,
            "oracle.stable_matchings": 0,
        }
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return traced

    def _counted(self, name: str, fn):
        """Wrap the functions whose results or stats feed the count metrics."""
        counts = self.counts
        if name == "classify.exists_unstable_popular":

            def decide(inst, stats=None, backend="auto"):
                own = {} if stats is None else stats
                result = fn(inst, own, backend)
                counts["classify.probe_runs"] += own["runs"]
                counts["classify.edges"] += len(inst.edges)
                counts["classify.compiled_ops"] += own["backend"] == "compiled"
                return result

            return functools.wraps(fn)(decide)
        if name == "oracle.classify_exhaustive":

            def classify_exhaustive(*args, **kwargs):
                report = fn(*args, **kwargs)
                counts["oracle.matchings"] += len(report.matchings)
                return report

            return functools.wraps(fn)(classify_exhaustive)
        if name == "oracle.enumerate_stable_matchings":

            def enumerate_stable_matchings(*args, **kwargs):
                found = fn(*args, **kwargs)
                counts["oracle.stable_matchings"] += len(found)
                return found

            return functools.wraps(fn)(enumerate_stable_matchings)
        return fn

    def install(self) -> None:
        wrappers = {}
        for module in MODULES:
            mod = importlib.import_module(f"popmatch.{module}")
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or attr in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{module.lstrip('_')}.{attr}"
                wrappers[fn] = self._wrap(name, self._counted(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "popmatch" and not modname.startswith("popmatch."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


def summarize(path: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except ``trace.overhead_s``."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans, counts = data["names"], data["spans"], data["counts"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start

    def ancestors(i: int):
        parent = spans[i][3]
        while parent >= 0:
            yield names[spans[parent][0]]
            parent = spans[parent][3]

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    fn_calls: dict[str, int] = defaultdict(int)
    under_dominant = 0
    for i, (nid, start, end, _) in enumerate(spans):
        name = names[nid]
        layer = name.split(".", 1)[0]
        self_s[layer] += end - start - child[i]
        calls[layer] += 1
        fn_calls[name] += 1
        outer = list(ancestors(i))
        if name not in outer:
            inclusive[name] += end - start
        if name == "election.label_edges" and "popularity.is_dominant" in outer:
            under_dominant += 1

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    for name in (
        "gs.probe_edges_compiled",
        "gs.probe_edges_python",
        "model.parse_instance",
        "engine.build_gprime",
        "gs.compile_view",
        "popularity.is_popular_structure",
        "popularity.is_dominant",
        "popularity.find_witness_small",
        "popularity.is_popular_weight",
        "oracle.classify_exhaustive",
        "oracle.enumerate_stable_matchings",
        "oracle.brute_sat",
    ):
        out[f"{name}.s"] = inclusive[name]
    out["gs.run_proposals.calls"] = fn_calls["gs.run_proposals"]
    out["election.label_edges.calls"] = fn_calls["election.label_edges"]
    dominant_checks = fn_calls["popularity.is_dominant"]
    out["election.label_edges_per_is_dominant"] = (
        under_dominant / dominant_checks if dominant_checks else 0.0
    )
    out["classify.probe_runs"] = counts["classify.probe_runs"]
    out["classify.compiled_ops"] = counts["classify.compiled_ops"]
    out["classify.runs_per_edge"] = (
        counts["classify.probe_runs"] / counts["classify.edges"] if counts["classify.edges"] else 0.0
    )
    out["oracle.matchings"] = counts["oracle.matchings"]
    out["oracle.stable_matchings"] = counts["oracle.stable_matchings"]
    out["reductions.build.s"] = sum(inclusive[name] for name in GADGET_BUILDERS)
    return out
