"""Performance measurements (Section 5's implementation notes).

The paper reports, for its 2.26 GHz Pentium 4: graph representation 8 MB
on disk / 24 MB in memory, 1.5 s load time, every query under 1.1 s and
85% under 0.5 s. We measure the same quantities for our implementation:
serialized bundle size, load (deserialize + rebuild) time, peak build
memory via ``tracemalloc``, and the Table-1 query latency distribution.
Absolute values differ (different decade, language, and API size); the
qualitative claims — sub-second queries, load far cheaper than mining —
are what the benchmark asserts.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..apispec import ApiBuilder
from ..core import Prospector
from ..graph import JungloidGraph, SignatureGraph, bundle_to_json, load_graph_from_json
from ..search import (
    GraphSearch,
    compile_graph,
    distances_for,
    distances_to,
    enumerate_paths,
    kernel_enumerate_paths,
    reference_solve,
)
from ..store import SnapshotStore, atomic_write_text
from ..typesystem import TypeRegistry, named
from .problems import TABLE1_PROBLEMS, Table1Problem


@dataclass
class PerfReport:
    bundle_bytes: int = 0
    load_seconds: float = 0.0
    build_peak_bytes: int = 0
    query_seconds: List[float] = field(default_factory=list)

    @property
    def max_query_seconds(self) -> float:
        return max(self.query_seconds) if self.query_seconds else 0.0

    @property
    def mean_query_seconds(self) -> float:
        if not self.query_seconds:
            return 0.0
        return sum(self.query_seconds) / len(self.query_seconds)

    def fraction_under(self, seconds: float) -> float:
        if not self.query_seconds:
            return 0.0
        return sum(1 for t in self.query_seconds if t < seconds) / len(self.query_seconds)

    def format_report(self) -> str:
        return "\n".join(
            [
                f"serialized bundle: {self.bundle_bytes / 1024:.1f} KiB"
                " (paper: 8 MB for the full J2SE+Eclipse graph)",
                f"load (parse + rebuild graph): {self.load_seconds * 1000:.1f} ms"
                " (paper: 1.5 s)",
                f"peak build memory: {self.build_peak_bytes / (1024 * 1024):.1f} MiB"
                " (paper: 24 MB resident)",
                f"queries: mean {self.mean_query_seconds * 1000:.1f} ms,"
                f" max {self.max_query_seconds * 1000:.1f} ms"
                " (paper: all < 1.1 s)",
                f"fraction under 0.5 s: {self.fraction_under(0.5) * 100:.0f}%"
                " (paper: 85%)",
            ]
        )


def measure_bundle(prospector: Prospector) -> Tuple[str, int]:
    """Serialize the registry + mined jungloids; return (json, size)."""
    text = bundle_to_json(prospector.registry, prospector.mined_jungloids)
    return text, len(text.encode("utf-8"))


def measure_load(bundle_json: str, repeats: int = 3) -> float:
    """Best-of-N time to rebuild the jungloid graph from the bundle."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        load_graph_from_json(bundle_json)
        best = min(best, time.perf_counter() - start)
    return best


def measure_build_memory(build: Callable[[], object]) -> int:
    """Peak tracemalloc bytes while running ``build()``."""
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def measure_queries(
    prospector: Prospector, problems: Sequence[Table1Problem] = TABLE1_PROBLEMS
) -> List[float]:
    times = []
    for problem in problems:
        _, seconds = prospector.timed_query(problem.t_in, problem.t_out)
        times.append(seconds)
    return times


def run_perf(
    prospector: Prospector,
    build: Callable[[], object],
    problems: Sequence[Table1Problem] = TABLE1_PROBLEMS,
) -> PerfReport:
    """The full Section-5 measurement suite."""
    report = PerfReport()
    bundle_json, report.bundle_bytes = measure_bundle(prospector)
    report.load_seconds = measure_load(bundle_json)
    report.build_peak_bytes = measure_build_memory(build)
    report.query_seconds = measure_queries(prospector, problems)
    return report


# ----------------------------------------------------------------------
# Cold-start: snapshot fast-start vs rebuild-from-corpus
# ----------------------------------------------------------------------

@dataclass
class StorePerfReport:
    """Cold-start cost with and without the durable snapshot store.

    ``snapshot_load_seconds`` times the full trusted path — read,
    checksum, parse, graph rebuild (no audit; the verify path is timed
    separately as ``verified_load_seconds``) — and
    ``rebuild_seconds`` times the corpus path (parse stubs + mine +
    build). Their ratio is the cold-start speedup the snapshot buys a
    restarting service.
    """

    snapshot_bytes: int = 0
    snapshot_load_seconds: float = 0.0
    verified_load_seconds: float = 0.0
    rebuild_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        if self.snapshot_load_seconds <= 0:
            return 0.0
        return self.rebuild_seconds / self.snapshot_load_seconds

    def to_dict(self) -> dict:
        return {
            "snapshot_bytes": self.snapshot_bytes,
            "snapshot_load_seconds": self.snapshot_load_seconds,
            "verified_load_seconds": self.verified_load_seconds,
            "rebuild_seconds": self.rebuild_seconds,
            "speedup": self.speedup,
        }

    def format_report(self) -> str:
        return "\n".join(
            [
                f"snapshot: {self.snapshot_bytes / 1024:.1f} KiB on disk",
                f"snapshot load (checksum + parse + graph): "
                f"{self.snapshot_load_seconds * 1000:.1f} ms",
                f"verified load (adds integrity audit): "
                f"{self.verified_load_seconds * 1000:.1f} ms",
                f"rebuild from corpus (parse + mine + graph): "
                f"{self.rebuild_seconds * 1000:.1f} ms",
                f"cold-start speedup: {self.speedup:.1f}x",
            ]
        )


def measure_snapshot_load(
    path: os.PathLike, repeats: int = 3, audit: bool = False
) -> float:
    """Best-of-N seconds to go from snapshot bytes to a query-ready graph."""
    store = SnapshotStore(path)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        loaded = store.load(audit=audit)
        public_only = loaded.manifest.public_only if loaded.manifest else True
        JungloidGraph.build(loaded.registry, loaded.mined, public_only=public_only)
        best = min(best, time.perf_counter() - start)
    return best


def measure_rebuild(rebuild: Callable[[], object], repeats: int = 1) -> float:
    """Best-of-N seconds for the no-snapshot cold start."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        rebuild()
        best = min(best, time.perf_counter() - start)
    return best


def run_store_perf(
    prospector: Prospector,
    rebuild: Callable[[], object],
    snapshot_path: os.PathLike,
    repeats: int = 3,
) -> StorePerfReport:
    """Measure snapshot-load vs rebuild-from-corpus cold-start cost.

    Saves a snapshot of ``prospector`` at ``snapshot_path`` (so the
    measured load is of exactly the graph being served), then times both
    restart paths.
    """
    prospector.save_snapshot(snapshot_path)
    report = StorePerfReport()
    report.snapshot_bytes = os.path.getsize(snapshot_path)
    report.snapshot_load_seconds = measure_snapshot_load(
        snapshot_path, repeats=repeats, audit=False
    )
    report.verified_load_seconds = measure_snapshot_load(
        snapshot_path, repeats=repeats, audit=True
    )
    report.rebuild_seconds = measure_rebuild(rebuild)
    return report


def _write_bench_json(path: os.PathLike, payload: dict) -> None:
    """Atomically write a ``BENCH_*.json`` payload, mirroring to the
    repo root.

    When ``path`` is the canonical ``benchmarks/out/<name>.json``
    location, an identical copy also lands at the repo root (the
    directory containing ``benchmarks/``) so dashboards and diff tools
    that only look at top-level ``BENCH_*.json`` files stay in sync.
    """
    text = json.dumps(payload, indent=2) + "\n"
    atomic_write_text(path, text)
    parent = os.path.dirname(os.path.abspath(os.fspath(path)))
    grandparent = os.path.dirname(parent)
    if (
        os.path.basename(parent) == "out"
        and os.path.basename(grandparent) == "benchmarks"
    ):
        root = os.path.dirname(grandparent)
        mirror = os.path.join(root, os.path.basename(os.fspath(path)))
        atomic_write_text(mirror, text)


def write_bench_store(report: StorePerfReport, path: os.PathLike) -> None:
    """Emit the cold-start numbers as ``BENCH_store.json`` (atomically,
    with the store's own write helper)."""
    _write_bench_json(path, report.to_dict())


# ----------------------------------------------------------------------
# Search serving: compiled kernel vs reference, batch vs one-at-a-time
# ----------------------------------------------------------------------

def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (nearest-rank) of ``samples``; 0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), int(round(p / 100.0 * len(ordered) + 0.5))))
    return ordered[rank - 1]


@dataclass
class SearchPerfReport:
    """Search latency/throughput: kernel vs reference, batch vs serial.

    The reference side is :func:`~repro.search.reference_solve`, the
    plain recursive search the engine is held to. *Single-query latency*
    is measured cold — the engine's per-target distance cache is cleared
    before every query — because that is the first-hit latency a user
    pays; the reference keeps no state between queries.
    *Batch throughput* compares stateless one-at-a-time serving on the
    reference (nothing shared between requests) against
    :meth:`~repro.search.GraphSearch.solve_batch` on the kernel, which
    shares one distance map per distinct target plus a batch-wide
    path→jungloid memo. Kernel compilation is a startup cost (like a
    snapshot load) and is reported separately.
    """

    #: Table-1 per-query cold latencies, reference implementation.
    reference_query_seconds: List[float] = field(default_factory=list)
    #: Table-1 per-query cold latencies, compiled kernel.
    kernel_query_seconds: List[float] = field(default_factory=list)
    #: True when kernel and reference produced identical ranked output.
    identical_results: bool = True
    #: One-time CSR lowering cost for the graph under test.
    compile_seconds: float = 0.0
    #: How many copies of the query set the batch workload contains.
    batch_rounds: int = 0
    #: Total queries in the batch workload.
    batch_query_count: int = 0
    #: Stateless one-at-a-time serving of the workload (reference).
    one_at_a_time_seconds: float = 0.0
    #: ``solve_batch`` on the same workload (kernel).
    batch_seconds: float = 0.0
    #: Synthetic high-fanout stress graph: raw search cost (backward
    #: Dijkstra + bounded enumeration, no jungloid conversion/ranking —
    #: those are shared downstream costs identical in both modes).
    stress_nodes: int = 0
    stress_edges: int = 0
    stress_paths: int = 0
    stress_reference_seconds: float = 0.0
    stress_kernel_seconds: float = 0.0

    # -- derived -------------------------------------------------------

    def _stats(self, samples: Sequence[float]) -> dict:
        return {
            "p50_ms": percentile(samples, 50) * 1000.0,
            "p95_ms": percentile(samples, 95) * 1000.0,
            "max_ms": (max(samples) if samples else 0.0) * 1000.0,
            "total_ms": sum(samples) * 1000.0,
        }

    @property
    def single_query_speedup(self) -> float:
        kernel_total = sum(self.kernel_query_seconds)
        if kernel_total <= 0:
            return 0.0
        return sum(self.reference_query_seconds) / kernel_total

    @property
    def one_at_a_time_qps(self) -> float:
        if self.one_at_a_time_seconds <= 0:
            return 0.0
        return self.batch_query_count / self.one_at_a_time_seconds

    @property
    def batch_qps(self) -> float:
        if self.batch_seconds <= 0:
            return 0.0
        return self.batch_query_count / self.batch_seconds

    @property
    def batch_throughput_speedup(self) -> float:
        if self.batch_seconds <= 0:
            return 0.0
        return self.one_at_a_time_seconds / self.batch_seconds

    @property
    def stress_speedup(self) -> float:
        if self.stress_kernel_seconds <= 0:
            return 0.0
        return self.stress_reference_seconds / self.stress_kernel_seconds

    def to_dict(self) -> dict:
        return {
            "table1": {
                "query_count": len(self.kernel_query_seconds),
                "reference": self._stats(self.reference_query_seconds),
                "kernel": self._stats(self.kernel_query_seconds),
                "single_query_speedup": self.single_query_speedup,
                "identical_results": self.identical_results,
                "compile_ms": self.compile_seconds * 1000.0,
            },
            "batch": {
                "rounds": self.batch_rounds,
                "query_count": self.batch_query_count,
                "one_at_a_time_seconds": self.one_at_a_time_seconds,
                "batch_seconds": self.batch_seconds,
                "one_at_a_time_qps": self.one_at_a_time_qps,
                "batch_qps": self.batch_qps,
                "throughput_speedup": self.batch_throughput_speedup,
            },
            "stress": {
                "nodes": self.stress_nodes,
                "edges": self.stress_edges,
                "paths": self.stress_paths,
                "reference_seconds": self.stress_reference_seconds,
                "kernel_seconds": self.stress_kernel_seconds,
                "speedup": self.stress_speedup,
            },
        }

    def format_report(self) -> str:
        ref = self._stats(self.reference_query_seconds)
        ker = self._stats(self.kernel_query_seconds)
        return "\n".join(
            [
                f"table1 ({len(self.kernel_query_seconds)} queries, cold cache per query):",
                f"  reference: p50 {ref['p50_ms']:.2f} ms, p95 {ref['p95_ms']:.2f} ms,"
                f" max {ref['max_ms']:.2f} ms",
                f"  kernel:    p50 {ker['p50_ms']:.2f} ms, p95 {ker['p95_ms']:.2f} ms,"
                f" max {ker['max_ms']:.2f} ms",
                f"  single-query speedup: {self.single_query_speedup:.2f}x"
                f" (compile once: {self.compile_seconds * 1000:.1f} ms)",
                f"  identical ranked output: {self.identical_results}",
                f"batch ({self.batch_query_count} queries ="
                f" {self.batch_rounds}x table1):",
                f"  one-at-a-time (reference, stateless):"
                f" {self.one_at_a_time_seconds * 1000:.1f} ms"
                f" ({self.one_at_a_time_qps:.0f} q/s)",
                f"  solve_batch (kernel): {self.batch_seconds * 1000:.1f} ms"
                f" ({self.batch_qps:.0f} q/s)",
                f"  batch throughput speedup: {self.batch_throughput_speedup:.2f}x",
                f"stress graph ({self.stress_nodes} nodes, {self.stress_edges} edges,"
                f" {self.stress_paths} paths; Dijkstra + enumeration only):",
                f"  reference {self.stress_reference_seconds * 1000:.1f} ms,"
                f" kernel {self.stress_kernel_seconds * 1000:.1f} ms"
                f" ({self.stress_speedup:.2f}x)",
            ]
        )


def build_stress_graph(fan_out: int = 16) -> Tuple[TypeRegistry, SignatureGraph]:
    """A synthetic high-fanout graph: Source → Mid_i → Leaf_j → Target.

    Every mid node reaches every leaf (``fan_out²`` acyclic solution
    paths of length 3) and additionally fans out to dead-end distractor
    types that the cost bound must prune — the shape that punishes
    per-edge Python callbacks hardest.
    """
    api = ApiBuilder()
    api.cls("stress.Source")
    api.cls("stress.Target")
    source = api.on("stress.Source")
    for i in range(fan_out):
        api.cls(f"stress.Mid{i}")
        api.cls(f"stress.Dead{i}")
        source.method(f"toMid{i}", f"stress.Mid{i}")
    for j in range(fan_out):
        api.cls(f"stress.Leaf{j}")
        api.on(f"stress.Leaf{j}").method("finish", "stress.Target")
    for i in range(fan_out):
        mid = api.on(f"stress.Mid{i}")
        for j in range(fan_out):
            mid.method(f"toLeaf{j}", f"stress.Leaf{j}")
            mid.method(f"toDead{j}", f"stress.Dead{j}")
    registry = api.registry
    return registry, SignatureGraph.from_registry(registry)


def _resolve_problems(
    prospector: Prospector, problems: Sequence[Table1Problem]
) -> List[Tuple[object, object]]:
    from ..core.query import Query

    pairs = []
    for problem in problems:
        query = Query.of(prospector.registry, problem.t_in, problem.t_out)
        pairs.append((query.t_in, query.t_out))
    return pairs


def _texts(results) -> List[str]:
    return [r.jungloid.render_expression("x") for r in results]


def run_search_perf(
    prospector: Prospector,
    problems: Sequence[Table1Problem] = TABLE1_PROBLEMS,
    batch_rounds: int = 3,
    repeats: int = 3,
    stress_fan_out: int = 16,
) -> SearchPerfReport:
    """Measure the compiled kernel and the batch layer against the
    reference implementation on the Table-1 set plus a stress graph.

    ``batch_rounds`` copies of the query set form the batch workload
    (popular queries repeat across users — that repetition is exactly
    what target-grouping amortizes). Every latency is best-of-``repeats``.
    """
    report = SearchPerfReport()
    graph = prospector.graph
    base_config = replace(prospector.config.search, time_budget_ms=None)
    cost_model = prospector.config.cost_model

    def make_engine() -> GraphSearch:
        return GraphSearch(graph, cost_model=cost_model, config=base_config)

    def reference(t_in, t_out) -> list:
        return reference_solve(graph, [t_in], t_out, base_config, cost_model)

    queries = _resolve_problems(prospector, problems)

    # -- one-time lowering cost (startup, like a snapshot load) --------
    kernel_engine = make_engine()
    start = time.perf_counter()
    kernel_engine._compiled_graph()
    report.compile_seconds = time.perf_counter() - start

    # -- differential check: the speedup must not change the answers --
    for t_in, t_out in queries:
        if _texts(kernel_engine.solve_multi([t_in], t_out)) != _texts(
            reference(t_in, t_out)
        ):
            report.identical_results = False

    # -- single-query cold latency ------------------------------------
    def cold_latencies(solve: Callable, reset: Callable[[], None]) -> List[float]:
        best = [float("inf")] * len(queries)
        for _ in range(max(1, repeats)):
            for i, (t_in, t_out) in enumerate(queries):
                reset()
                start = time.perf_counter()
                solve(t_in, t_out)
                best[i] = min(best[i], time.perf_counter() - start)
        return best

    report.reference_query_seconds = cold_latencies(reference, lambda: None)
    report.kernel_query_seconds = cold_latencies(
        kernel_engine.solve, kernel_engine._dist_cache.clear
    )

    # -- batch throughput ---------------------------------------------
    workload = queries * max(1, batch_rounds)
    report.batch_rounds = max(1, batch_rounds)
    report.batch_query_count = len(workload)

    def serve_one_at_a_time() -> float:
        start = time.perf_counter()
        for t_in, t_out in workload:
            reference(t_in, t_out)  # stateless: nothing shared
        return time.perf_counter() - start

    def serve_batch() -> float:
        engine = make_engine()
        engine._compiled_graph()  # compiled at startup
        start = time.perf_counter()
        engine.solve_batch(workload)
        return time.perf_counter() - start

    report.one_at_a_time_seconds = min(
        serve_one_at_a_time() for _ in range(max(1, repeats))
    )
    report.batch_seconds = min(serve_batch() for _ in range(max(1, repeats)))

    # -- high-fanout stress graph -------------------------------------
    # Raw search cost only (distance map + bounded enumeration): the
    # downstream jungloid conversion and ranking are byte-identical in
    # both modes, so including them would only dilute the comparison.

    stress_registry, stress_graph = build_stress_graph(fan_out=stress_fan_out)
    report.stress_nodes = stress_graph.node_count()
    report.stress_edges = stress_graph.edge_count()
    report.stress_paths = stress_fan_out * stress_fan_out
    s_in, s_out = named("stress.Source"), named("stress.Target")
    edge_cost = kernel_engine._edge_cost
    compiled_stress = compile_graph(stress_graph, edge_cost=edge_cost)

    def stress_reference() -> float:
        start = time.perf_counter()
        dist = distances_to(stress_graph, s_out, edge_cost=edge_cost)
        bound = dist[s_in] + base_config.extra_cost
        for _ in enumerate_paths(
            stress_graph, s_in, s_out, bound, dist=dist, edge_cost=edge_cost
        ):
            pass
        return time.perf_counter() - start

    def stress_kernel() -> float:
        start = time.perf_counter()
        dist = distances_for(compiled_stress, s_out)
        bound = dist.arr[compiled_stress.node_id[s_in]] + base_config.extra_cost
        for _ in kernel_enumerate_paths(
            compiled_stress, s_in, s_out, bound, dist=dist
        ):
            pass
        return time.perf_counter() - start

    report.stress_reference_seconds = min(
        stress_reference() for _ in range(max(1, repeats))
    )
    report.stress_kernel_seconds = min(
        stress_kernel() for _ in range(max(1, repeats))
    )
    return report


def write_bench_search(report: SearchPerfReport, path: os.PathLike) -> None:
    """Emit the search numbers as ``BENCH_search.json`` (atomic write)."""
    _write_bench_json(path, report.to_dict())


# ----------------------------------------------------------------------
# Incremental pipeline: single-file update vs from-scratch rebuild
# ----------------------------------------------------------------------

@dataclass
class IncrementalPerfReport:
    """Cost of keeping the index fresh: graft a delta vs rebuild it all.

    ``full_build_seconds`` times a from-scratch staged build (parse +
    resolve + mine + generalize + graft) over the whole corpus;
    ``update_seconds`` times a warm single-file edit through
    :meth:`~repro.pipeline.CorpusPipeline.update`, which re-slices only
    the touched file and splices the suffix delta into the live graph;
    ``noop_seconds`` times an update whose content hashes all match
    (fingerprint + short-circuit only). ``identical_results`` asserts
    the point of the whole exercise: after the incremental edits the
    ranked Table-1 answers are byte-identical to a fresh build's.
    """

    files_total: int = 0
    full_build_seconds: float = 0.0
    update_seconds: float = 0.0
    noop_seconds: float = 0.0
    files_remined: int = 0
    files_reused: int = 0
    #: Representative warm-update per-stage milliseconds.
    stage_ms: dict = field(default_factory=dict)
    identical_results: bool = True
    answers_checked: int = 0

    @property
    def update_speedup(self) -> float:
        if self.update_seconds <= 0:
            return 0.0
        return self.full_build_seconds / self.update_seconds

    @property
    def noop_speedup(self) -> float:
        if self.noop_seconds <= 0:
            return 0.0
        return self.full_build_seconds / self.noop_seconds

    def to_dict(self) -> dict:
        return {
            "files_total": self.files_total,
            "full_build_seconds": self.full_build_seconds,
            "update_seconds": self.update_seconds,
            "noop_seconds": self.noop_seconds,
            "update_speedup": self.update_speedup,
            "noop_speedup": self.noop_speedup,
            "files_remined": self.files_remined,
            "files_reused": self.files_reused,
            "stage_ms": dict(self.stage_ms),
            "identical_results": self.identical_results,
            "answers_checked": self.answers_checked,
        }

    def format_report(self) -> str:
        stages = ", ".join(
            f"{name} {ms:.2f}" for name, ms in self.stage_ms.items()
            if name != "total_ms"
        )
        return "\n".join(
            [
                f"corpus: {self.files_total} files",
                f"full staged build: {self.full_build_seconds * 1000:.1f} ms",
                f"single-file update (warm): {self.update_seconds * 1000:.1f} ms"
                f" ({self.update_speedup:.1f}x faster;"
                f" re-mined {self.files_remined}, reused {self.files_reused})",
                f"no-op update (hashes unchanged): {self.noop_seconds * 1000:.2f} ms"
                f" ({self.noop_speedup:.0f}x)",
                f"update stage ms: {stages}",
                f"identical ranked answers after updates: {self.identical_results}"
                f" ({self.answers_checked} queries checked)",
            ]
        )


def run_incremental_perf(
    prospector: Prospector,
    problems: Sequence[Table1Problem] = TABLE1_PROBLEMS,
    repeats: int = 5,
) -> IncrementalPerfReport:
    """Measure incremental update cost against a from-scratch build.

    ``prospector`` must carry the staged pipeline (built from corpus
    texts). The benchmark runs on private pipeline copies; the instance
    passed in is not mutated. Updates are measured *warm* — after one
    throwaway edit — because a long-lived index server is warm by
    definition; each measured update flips one file's content for real
    (append/strip a trailing comment), so nothing is a hidden no-op.
    """
    from ..pipeline import CorpusPipeline

    pipeline = prospector.pipeline
    if pipeline is None:
        raise ValueError(
            "run_incremental_perf needs a prospector built from corpus texts"
            " (the incremental pipeline is missing)"
        )
    registry = prospector.registry
    texts = list(pipeline.texts)
    extraction = prospector.config.extraction
    public_only = prospector.config.public_only
    report = IncrementalPerfReport(files_total=len(texts))

    def fresh_build() -> "CorpusPipeline":
        return CorpusPipeline.build(
            registry, texts, extraction=extraction, public_only=public_only
        )

    report.full_build_seconds = min(
        _timed(fresh_build) for _ in range(max(1, repeats))
    )

    # Warm single-file updates: alternate one file between its original
    # text and a commented variant so every measured sync is a real edit.
    victim, original = max(texts, key=lambda item: len(item[1]))
    touched = original + "\n// bench: touched\n"
    live = fresh_build()
    live.update([(victim, touched)], ())  # throwaway: warms caches
    best = float("inf")
    stats = None
    for i in range(max(1, repeats) * 2):
        text = original if i % 2 == 0 else touched
        start = time.perf_counter()
        stats = live.update([(victim, text)], ())
        best = min(best, time.perf_counter() - start)
    report.update_seconds = best
    if stats is not None:
        report.files_remined = len(stats.files_remined)
        report.files_reused = stats.files_reused
        report.stage_ms = stats.timings.to_dict()

    # No-op: same content hash everywhere -> fingerprint + short-circuit.
    current = dict(live.texts)[victim]
    report.noop_seconds = min(
        _timed(lambda: live.update([(victim, current)], ()))
        for _ in range(max(1, repeats))
    )

    # Differential: ranked Table-1 answers after the edit dance must be
    # byte-identical to a from-scratch build of the same final texts.
    live.update([(victim, original)], ())
    incremental = Prospector(registry, config=prospector.config, pipeline=live)
    scratch = Prospector(registry, config=prospector.config, pipeline=fresh_build())
    report.answers_checked = len(problems)
    for problem in problems:
        a = [s.jungloid.render_expression("x") for s in incremental.query(problem.t_in, problem.t_out)]
        b = [s.jungloid.render_expression("x") for s in scratch.query(problem.t_in, problem.t_out)]
        if a != b:
            report.identical_results = False
    return report


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def write_bench_incremental(report: IncrementalPerfReport, path: os.PathLike) -> None:
    """Emit the numbers as ``BENCH_incremental.json`` (atomic write)."""
    _write_bench_json(path, report.to_dict())
