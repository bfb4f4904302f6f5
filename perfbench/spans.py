"""Span tracing from outside the program, for the benchmark's traced runs.

:func:`install` wraps the public entry points of each layer where their
callers look them up (every ``repro`` module global bound to the
function, or the class attribute for methods). Each wrapped call records
a span — layer name, start, end, parent span, request id — in memory,
plus counts taken at the same boundary. Generators are timed while they
are being iterated, one span per ``next``. Nothing under ``src/`` is
changed; :meth:`Installed.remove` restores every original.

A layer's self time is its spans' durations minus the part covered by
their direct child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple


#: Layer name of the span the benchmark opens around each request.
REQUEST_LAYER = "bench.request"


class Tracer:
    """In-memory span and count store for one traced process."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.layer_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self.covered = array("d")
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}
        #: Request id stamped on new spans and counts (-1: outside requests).
        self.request = -1
        #: ``(request id, counter name) -> amount``.
        self.counts: Dict[Tuple[int, str], float] = {}

    def begin(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        idx = len(self.starts)
        self.layer_of.append(lid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.covered.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        now = time.perf_counter()
        self.ends[idx] = now
        self._stack.pop()
        layer = self.layers[self.layer_of[idx]]
        self._depth[layer] -= 1
        parent = self.parents[idx]
        if parent >= 0:
            self.covered[parent] += now - self.starts[idx]

    def outermost(self, layer: str) -> bool:
        """True while exactly one span of ``layer`` is open (the current)."""
        return self._depth.get(layer, 0) == 1

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def count(self, name: str, amount: float = 1.0) -> None:
        key = (self.request, name)
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- merging and output --------------------------------------------

    def to_dict(self) -> dict:
        return {
            "layers": self.layers,
            "spans": [
                [self.layer_of[i], self.starts[i], self.ends[i], self.parents[i], self.requests[i]]
                for i in range(len(self.starts))
            ],
            "counts": [[r, n, v] for (r, n), v in self.counts.items()],
        }

    def absorb(self, data: dict, request: int, parent: int) -> None:
        """Add a child process's spans as request ``request``, hanging its
        root spans under this tracer's span ``parent``."""
        base = len(self.starts)
        for lid, start, end, par, _ in data["spans"]:
            layer = data["layers"][lid]
            mine = self._layer_ids.get(layer)
            if mine is None:
                mine = self._layer_ids[layer] = len(self.layers)
                self.layers.append(layer)
            self.layer_of.append(mine)
            self.starts.append(start)
            self.ends.append(end)
            self.requests.append(request)
            self.covered.append(0.0)
            if par < 0:
                self.parents.append(parent)
                if parent >= 0:
                    self.covered[parent] += end - start
            else:
                self.parents.append(base + par)
                self.covered[base + par] += end - start
        for _, name, value in data["counts"]:
            key = (request, name)
            self.counts[key] = self.counts.get(key, 0.0) + value

    def write(self, path: str) -> None:
        """Write :meth:`to_dict` as JSON; spans are ``[layer id, start,
        end, parent, request]`` rows indexing ``layers``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    # -- aggregation ---------------------------------------------------

    def self_ms_by_stage(self, requests: range) -> Dict[Tuple[str, str], float]:
        """Self time in ms per ``(stage, layer)``, where a span's stage is
        its outermost ancestor below the request span."""
        stage_of: Dict[int, str] = {}
        out: Dict[Tuple[str, str], float] = {}
        for i in range(len(self.starts)):
            layer = self.layers[self.layer_of[i]]
            parent = self.parents[i]
            if parent < 0 or self.layers[self.layer_of[parent]] == REQUEST_LAYER:
                stage_of[i] = layer
            else:
                stage_of[i] = stage_of[parent]
            if self.requests[i] not in requests or layer == REQUEST_LAYER:
                continue
            own = (self.ends[i] - self.starts[i] - self.covered[i]) * 1000.0
            key = (stage_of[i], layer)
            out[key] = out.get(key, 0.0) + own
        return out

    def self_ms(self, requests: range) -> Dict[str, float]:
        """Total self time per layer in ms, over spans of ``requests``."""
        out: Dict[str, float] = {}
        for (_, layer), ms in self.self_ms_by_stage(requests).items():
            out[layer] = out.get(layer, 0.0) + ms
        return out

    def count_totals(self, requests: range) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (request, name), value in self.counts.items():
            if request in requests:
                out[name] = out.get(name, 0.0) + value
        return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

#: A hook sees the tracer, the call's positional args and its result.
Hook = Callable[[Tracer, tuple, object], None]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_len(name: str) -> Hook:
    def hook(tracer, args, result):
        tracer.count(name, len(result))

    return hook


def _cache_get(tracer, args, result):
    tracer.count("search.cache_gets")
    if result is not None:
        tracer.count("search.cache_hits")


def _update_stats(tracer, args, stats):
    tracer.count("pipeline.files_remined", len(stats.files_remined))
    tracer.count("pipeline.files_reused", stats.files_reused)


def _store_read(tracer, args, result):
    tracer.count("store.read_bytes", _size(args[0].path))


def _sidecar_read(tracer, args, result):
    from repro.store import stage_sidecar_path

    if result is not None:
        tracer.count("store.read_bytes", _size(stage_sidecar_path(args[0])))


def _store_save(tracer, args, result):
    tracer.count("store.written_bytes", _size(args[0].path))


def _sidecar_save(tracer, args, result):
    tracer.count("store.written_bytes", _size(result))


#: (layer, module, attribute, kind, hook, counter of outermost calls).
#: ``kind``: ``func`` (module function, rebound in every ``repro``
#: module), ``method``, ``classmethod``, ``gen`` (function returning a
#: generator, timed per ``next``) or ``count`` (method counted, no span).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, Optional[Hook], Optional[str]], ...] = (
    ("apispec.load", "repro.data", "standard_registry", "func", None, None),
    ("apispec.load", "repro.apispec", "load_api_texts", "func", None, None),
    ("corpus.load", "repro.data", "standard_corpus", "func", None, None),
    ("corpus.load", "repro.corpus", "load_corpus_texts", "func", None, None),
    ("core.build", "repro.core.prospector", "Prospector.__init__", "method", None, None),
    ("minijava.parse", "repro.minijava", "parse_minijava", "func", None, "minijava.parse"),
    ("minijava.resolve", "repro.minijava", "resolve_program", "func", None, "minijava.resolve"),
    ("minijava.resolve", "repro.corpus", "resolve_and_check_lenient", "func", None, "minijava.resolve"),
    ("minijava.resolve", "repro.minijava", "check_program", "func", None, None),
    ("minijava.callgraph", "repro.minijava.callgraph", "build_call_graph", "func", None, None),
    ("mining.extract", "repro.mining", "JungloidExtractor.extract_unit", "method",
     _count_len("mining.examples"), None),
    ("mining.generalize", "repro.mining", "IncrementalGeneralizer.generalize", "method", None, None),
    ("analysis.analyze", "repro.analysis.castsafety", "CastAnalyzer.analyze_unit", "method",
     _count_len("analysis.casts"), None),
    ("analysis.analyze", "repro.analysis.castsafety", "build_verdict_index", "func", None, None),
    ("graph.build", "repro.graph", "JungloidGraph.build", "classmethod", None, None),
    ("graph.graft", "repro.graph", "JungloidGraph.apply_mined_delta", "method", None, None),
    ("core.query", "repro.core.prospector", "Prospector.query", "method",
     _count_len("search.results"), None),
    ("core.query", "repro.core.prospector", "Prospector.complete", "method",
     _count_len("search.results"), None),
    ("search.cache", "repro.search.cache", "LRUDistanceCache.get", "count", _cache_get, None),
    ("search.dijkstra", "repro.search.kernel", "distances_for", "func", None, "search.dijkstra"),
    ("search.compile", "repro.search.kernel", "compile_graph", "func", None, "search.compile"),
    ("search.enumerate", "repro.search.kernel", "kernel_enumerate_paths", "gen", None, None),
    ("search.rank", "repro.search.ranking", "rank_key", "func", None, None),
    ("search.rank", "repro.search.ranking", "viability_rank_key", "func", None, None),
    ("jungloids.render", "repro.jungloids", "Jungloid.render_expression", "method", None,
     "jungloids.render"),
    ("analysis.verdict", "repro.analysis.verdicts", "CastVerdictIndex.verdict_for_jungloid",
     "method", None, None),
    ("store.load", "repro.store", "load_with_recovery", "func", _store_read, None),
    ("store.sidecar_load", "repro.store", "try_load_stage_sidecar", "func", _sidecar_read, None),
    ("pipeline.rehydrate", "repro.pipeline", "CorpusPipeline.from_artifacts", "classmethod",
     None, None),
    ("pipeline.update", "repro.pipeline", "CorpusPipeline.update", "method", _update_stats, None),
    ("store.save", "repro.store", "SnapshotStore.save", "method", _store_save, None),
    ("store.sidecar_save", "repro.store", "save_stage_sidecar", "func", _sidecar_save, None),
)


def _span_wrapper(tracer: Tracer, fn, layer: str, hook: Optional[Hook], counter: Optional[str]):
    def traced(*args, **kwargs):
        idx = tracer.begin(layer)
        try:
            if counter is not None and tracer.outermost(layer):
                tracer.count(counter)
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _count_wrapper(tracer: Tracer, fn, hook: Hook):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(tracer, args, result)
        return result

    counted.__wrapped__ = fn
    return counted


def _gen_wrapper(tracer: Tracer, fn, layer: str):
    def iterate(gen):
        try:
            while True:
                idx = tracer.begin(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.end(idx)
                tracer.count("search.paths")
                yield item
        finally:
            gen.close()

    def traced(*args, **kwargs):
        return iterate(fn(*args, **kwargs))

    traced.__wrapped__ = fn
    return traced


class Installed:
    """Handle on installed wrappers; :meth:`remove` restores originals."""

    def __init__(self) -> None:
        self._restore: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point in :data:`ENTRY_POINTS` to record into
    ``tracer``. Imports the ``repro`` modules involved."""
    import importlib

    installed = Installed()
    for layer, module_name, attr, kind, hook, counter in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if kind == "classmethod":
                wrapped = classmethod(_span_wrapper(tracer, raw.__func__, layer, hook, counter))
            elif kind == "count":
                wrapped = _count_wrapper(tracer, raw, hook)
            else:
                wrapped = _span_wrapper(tracer, raw, layer, hook, counter)
            installed.set(cls, meth, wrapped)
            continue
        original = getattr(module, attr)
        if kind == "gen":
            wrapped = _gen_wrapper(tracer, original, layer)
        else:
            wrapped = _span_wrapper(tracer, original, layer, hook, counter)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    installed.set(mod, key, wrapped)
    return installed


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Per-layer metrics reported by every traced run: name -> unit. Times
#: are self ms per traced request; counts and ratios are per request over
#: the workload's fixed count window, so they repeat exactly for a seed.
LAYER_METRICS: Dict[str, str] = {
    "cli.import_ms": "ms",
    "cli.modules_count": "count",
    "apispec.load_ms": "ms",
    "corpus.load_ms": "ms",
    "core.build_ms": "ms",
    "minijava.parse_ms": "ms",
    "minijava.parse_count": "count",
    "minijava.resolve_ms": "ms",
    "minijava.resolve_count": "count",
    "minijava.callgraph_ms": "ms",
    "mining.extract_ms": "ms",
    "mining.examples_count": "count",
    "mining.generalize_ms": "ms",
    "analysis.analyze_ms": "ms",
    "analysis.casts_count": "count",
    "graph.build_ms": "ms",
    "graph.graft_ms": "ms",
    "core.query_ms": "ms",
    "search.cache_hit_ratio": "ratio",
    "search.dijkstra_ms": "ms",
    "search.dijkstra_count": "count",
    "search.compile_ms": "ms",
    "search.compile_count": "count",
    "search.enumerate_ms": "ms",
    "search.paths_count": "count",
    "search.result_ratio": "ratio",
    "search.rank_ms": "ms",
    "jungloids.render_ms": "ms",
    "jungloids.render_count": "count",
    "analysis.verdict_ms": "ms",
    "store.load_ms": "ms",
    "store.read_bytes": "bytes",
    "store.sidecar_load_ms": "ms",
    "pipeline.rehydrate_ms": "ms",
    "pipeline.update_ms": "ms",
    "pipeline.files_remined_count": "count",
    "pipeline.reuse_ratio": "ratio",
    "store.save_ms": "ms",
    "store.sidecar_save_ms": "ms",
    "store.written_bytes": "bytes",
    "trace.overhead_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced: int, window: int) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value except ``trace.overhead_ms``.

    ``traced`` is how many requests (ids ``0..traced-1``) ran traced;
    ``window`` is the count window (ids ``0..window-1``).
    """
    self_ms = tracer.self_ms(range(traced))
    counts = tracer.count_totals(range(window))
    out: Dict[str, float] = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "ms" and name != "trace.overhead_ms":
            out[name] = self_ms.get(name[: -len("_ms")], 0.0) / traced
        elif unit in ("count", "bytes"):
            key = name[: -len("_count")] if name.endswith("_count") else name
            out[name] = counts.get(key, 0.0) / window
    out["search.cache_hit_ratio"] = _ratio(
        counts.get("search.cache_hits", 0.0), counts.get("search.cache_gets", 0.0)
    )
    out["search.result_ratio"] = _ratio(
        counts.get("search.results", 0.0), counts.get("search.paths", 0.0)
    )
    remined = counts.get("pipeline.files_remined", 0.0)
    reused = counts.get("pipeline.files_reused", 0.0)
    out["pipeline.reuse_ratio"] = _ratio(reused, remined + reused)
    return out
